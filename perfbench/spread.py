"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:
    python3 perfbench/spread.py --workloads counting,marking,series,cli
        --seeds 1-10 [--seconds 25] [--trace 0] [--out perfbench/baseline.json]

For every workload and end-to-end metric it prints the median of the per-run
values, their quartiles and the spread (q3 - q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  ``--out`` also records the
host (CPU model, CPU count, Python version) and every run's values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="counting,marking,series,cli")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    record = {
        "host": {"cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version()},
        "seconds": args.seconds, "seeds": seed_range(args.seeds), "workloads": {},
    }
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in record["seeds"]:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=HERE.parent)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout}"
                      f"{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        summary = {}
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0, "values": xs}
            print(f"  {workload:<9} {name:<14} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {summary[name]['spread']:.3f}", flush=True)
        record["workloads"][workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
