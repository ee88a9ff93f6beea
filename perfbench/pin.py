"""Write expected.json: the gate values every benchmark run must reproduce.

Usage, from the repository root:
    python3 perfbench/pin.py

Runs each workload once (seed 0; cli with one and with two jobs, since
comparisons made in pool workers are not counted) and records the verdict
count, bijection checks, coefficients compared and the report and oracle
digests.  Re-pin only in a change that means to alter what the workloads check.
"""

from __future__ import annotations

import json

from run import GATED, HERE, WORKLOADS, run_child


def main() -> None:
    pinned = {}
    for workload in WORKLOADS:
        res = run_child(workload, 0, 2, None)
        if "error" in res or res["failed"]:
            raise SystemExit(f"{workload}: {res.get('error') or 'failing verdicts'}")
        pinned[workload] = {key: res[key] for key in GATED}
    serial = run_child("cli", 0, 1, None)
    pinned["cli"]["coeffs_compared"] = {"1": serial["coeffs_compared"],
                                        "2": pinned["cli"]["coeffs_compared"]}
    (HERE / "expected.json").write_text(json.dumps(pinned, indent=2) + "\n")
    print(json.dumps(pinned, indent=2))


if __name__ == "__main__":
    main()
