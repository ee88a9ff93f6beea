"""One cold run of one workload, in a fresh interpreter.

Usage (normally started by run.py):
    python3 perfbench/child.py --workload NAME --seed N --jobs J --spawned T
        [--trace PATH]

``--spawned`` is the parent's ``time.monotonic()`` just before it started this
process; the clock is system-wide, so set-up time counts interpreter start,
the ggkit import and building the inputs.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports ggkit)


def host_probe() -> float:
    """Time a fixed piece of pure-Python work: integer arithmetic, small-tuple
    and dict churn, and Fraction arithmetic, the three kinds of work ggkit does.

    The host's speed drifts between states that last from seconds to minutes,
    so the benchmark divides each run's wall time by the mean of the probe
    times taken just before and just after it (``wall_norm``).  The collector
    is off while the probe runs, so the size of ggkit's heap cannot change the
    probe's time.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for j in range(200_000):
            acc = (acc * 31 + j) % 1000003
        counts: dict = {}
        for j in range(40_000):
            key = (j % 97, j % 89)
            counts[key] = counts.get(key, 0) + 1
        frac = Fraction(1, 3)
        for j in range(1, 1500):
            frac = frac * Fraction(j + 1, j) + Fraction(1, j * j)
            if frac.denominator > 10 ** 300:
                frac = Fraction(1, 3)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", help="write the trace here and report per-layer metrics")
    args = ap.parse_args()

    counter = workloads.ComparisonCounter()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    inputs = workloads.build(args.workload, args.seed, args.jobs)
    setup_s = time.monotonic() - args.spawned

    out = {"setup_s": setup_s, "probe_before_s": host_probe()}
    t0 = time.perf_counter()
    try:
        reports, oracle = workloads.run(args.workload, inputs)
    except Exception:  # a raising verdict fails the run; report it, do not crash
        out["error"] = traceback.format_exc()
        print(json.dumps(out))
        return 0
    out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mib"] = peak_rss_mib()
    out["probe_after_s"] = host_probe()
    out["wall_norm"] = out["wall_s"] / ((out["probe_before_s"] + out["probe_after_s"]) / 2)
    checks = workloads.bijection_checks(reports)
    out.update({
        "verdicts": len(reports),
        "failed": sum(1 for r in reports if r["verdict"] != "pass"),
        "bijection_checks": checks,
        "coeffs_compared": counter.count,
        "report_digest": workloads.report_digest(reports),
        "oracle_digest": workloads.digest(oracle) if oracle is not None else None,
    })
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(reports, counter.count, checks)
        out["bases"] = tracer.bases()
        Path(args.trace).write_text(json.dumps(tracer.dump()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
