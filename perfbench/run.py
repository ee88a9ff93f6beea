"""ggkit benchmark: cold-process runs of one workload, gated on every verdict.

Usage, from the repository root:
    python3 perfbench/run.py --workload {counting,marking,series,cli}
        --seed N --seconds S --trace {0,1}

Each measured run is a fresh interpreter (child.py), so the unbounded series
caches inside ggkit start empty as they do for every ``ggkit verify`` user.
Runs repeat until the next one would end after ``--seconds`` (at least three).

--trace 0  prints the end-to-end metrics: medians of wall_norm (wall time
           over the host probe time, see child.py), setup_s and peak_rss_mib
           over the runs, with the raw wall_s as a diagnostic.
--trace 1  alternates untraced and traced runs and prints the per-layer
           metrics (medians over the traced runs) and the tracing overhead.

Every run is checked against expected.json: all verdicts pass, and the
verdict count, bijection checks, coefficients compared and the digests of the
reports and of the oracle tables equal the pinned values.  The last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
code is 1 when any run failed the gate, 2 when ggkit's sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("counting", "marking", "series", "cli")
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 90
RUN_LIMIT_S = 150
GATED = ("verdicts", "bijection_checks", "coeffs_compared", "report_digest", "oracle_digest")


def run_child(workload: str, seed: int, jobs: int, trace_path: Path | None) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("GGKIT_JOBS", None)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--jobs", str(jobs)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"run exceeded {CHILD_TIMEOUT_S} s"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {err.strip()[-2000:]}"}
    return json.loads(lines[-1])


def gate(res: dict, expected: dict, jobs: int) -> list[str]:
    """Every reason this run fails the correctness gate (empty when it passes)."""
    if "error" in res:
        return [res["error"].strip().splitlines()[-1]]
    problems = [f"{res['failed']} verdict(s) failed"] if res["failed"] else []
    for key in GATED:
        want = expected[key]
        if isinstance(want, dict):  # cli: worker-side comparisons are not counted
            want = want[str(jobs)]
        if res[key] != want:
            problems.append(f"{key} = {res[key]}, pinned {want}")
    return problems


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ggkit" / "__init__.py").is_file():
        print(f"perfbench: no ggkit sources under {ROOT / 'src' / 'ggkit'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    compileall.compile_dir(str(ROOT / "src" / "ggkit"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    OUT.mkdir(exist_ok=True)
    jobs = min(2, len(os.sched_getaffinity(0)))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    runs: list[dict] = []
    rounds: list[float] = []
    t_start = time.monotonic()
    while True:
        t_round = time.monotonic()
        for traced in ((False, True) if args.trace else (False,)):
            path = OUT / f"trace-{args.workload}-seed{args.seed}-{len(rounds)}.json" \
                if traced else None
            res = run_child(args.workload, args.seed, jobs, path)
            res["traced"] = traced
            res["problems"] = gate(res, expected, jobs)
            runs.append(res)
        rounds.append(time.monotonic() - t_round)
        elapsed = time.monotonic() - t_start
        projected = elapsed + statistics.median(rounds)
        if any(r["problems"] for r in runs) or projected > RUN_LIMIT_S:
            break
        if len(rounds) >= MIN_ROUNDS and projected > args.seconds:
            break

    plain = [r for r in runs if not r["traced"] and not r["problems"]]
    traced = [r for r in runs if r["traced"] and not r["problems"]]
    attempted = expected["verdicts"] * len(runs)
    failed = expected["verdicts"] * sum(1 for r in runs if r["problems"])
    if traced and plain and any(r["report_digest"] != plain[0]["report_digest"] for r in traced):
        failed = max(failed, expected["verdicts"])
    correct = failed == 0

    print(f"perfbench {args.workload} seed={args.seed} jobs={jobs}: {len(runs)} cold runs "
          f"in {time.monotonic() - t_start:.1f} s, failed_ratio {failed / attempted:.4g} "
          f"({failed}/{attempted} verdicts)")
    for r in runs:
        for p in r["problems"]:
            print(f"  GATE {'traced' if r['traced'] else 'untraced'} run: {p}")

    metrics: dict[str, dict] = {}
    if correct and not args.trace:
        for m in spec["end_to_end"]:
            xs = [r[m["name"]] for r in plain]
            q1, med, q3 = quartiles(xs)
            metrics[m["name"]] = {"value": statistics.median(xs), "unit": m["unit"]}
            print(f"  {m['name']:<14} {statistics.median(xs):12.6g} {m['unit']:<4} "
                  f"(median of {len(xs)}; q1 {q1:.6g}, q3 {q3:.6g}, max {max(xs):.6g})")
        probe = [r["probe_before_s"] + r["probe_after_s"] for r in plain]
        q1, med, q3 = quartiles([r["wall_s"] for r in plain])
        print(f"  diagnostic: raw wall_s median {med:.6g} s (q1 {q1:.6g}, q3 {q3:.6g}); "
              f"host probe median {statistics.median(probe):.6g} s "
              f"(min {min(probe):.6g}, max {max(probe):.6g})")
    elif correct:
        overhead = statistics.median(r["wall_norm"] for r in traced) / \
            statistics.median(r["wall_norm"] for r in plain)
        bases = traced[0]["bases"]
        print(f"  {'per-layer metric':<28} {'median':>12}  unit   (over {len(traced)} traced runs)")
        for m in spec["per_layer"]:
            name = m["name"]
            value = overhead if name == "trace.overhead_ratio" else \
                statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": m["unit"]}
            base = f"  [{bases[name]}]" if name in bases else ""
            if name == "trace.overhead_ratio":
                base = f"  [traced / untraced median wall_norm, {len(traced)} and {len(plain)} runs]"
            print(f"  {name:<28} {value:12.6g}  {m['unit']}{base}")
        print(f"  traced report digest equals untraced: {traced[0]['report_digest'][:16]}")

    (OUT / f"{tag}.json").write_text(json.dumps({"runs": runs, "metrics": metrics}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
