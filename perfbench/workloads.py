"""The four benchmark workloads and the correctness facts each run reports.

A workload is a closed loop with one client: the verdict requests are issued
one after another, each after the previous one returned.  ``build`` turns a
seed into the request order (the seed permutes pairs, profiles and tags, so
every seed does the same work); ``run`` issues the requests and returns the
reports plus the oracle tables the workload built.

Every call into ggkit goes through a module attribute (``verify.x``, not a
name imported into this file), so the wrappers that ``tracing.py`` installs on
those attributes see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

from ggkit import cli, partitions, series, verify

NAMES = ("counting", "marking", "series", "cli")

PAIRS4 = [(k, i) for k in range(1, 5) for i in range(1, k + 1)]
BIVARIATE_PAIRS = [(k, i) for k in (2, 3) for i in range(1, k + 1)]
BIVARIATE_FAMILY = {"AG-X": "B", "BRESSOUD-X": "C", "OGG-X": "O", "F-GF": "F", "H-GF": "H"}

# Bounds, scaled from the acceptance criteria so that one cold run takes a few
# seconds on a 2-CPU host and a run of the benchmark holds several of them.
COUNTING_N = 28       # sweeps and verdicts; criterion 1/2 use 25 and 40
CLASS_T = 14          # class verdicts at T, buckets reach T + 3**2
BIJECTION_N = 11      # verify_bijections for k <= 3
SERIES_T = 60         # AG / BRESSOUD / OGG, as criterion 3
JTP_T = 200           # as criterion 8
BAILEY_T = 22         # criterion 7 uses 40
BAILEY_DEPTH = 6      # as criterion 7
CLI_T = 30            # identities and Bailey chains; the CLI default is 40


def _class_profiles(k: int) -> list[tuple[int, ...]]:
    """Nonincreasing profiles of length k - 1 with first-row width <= 3."""
    if k == 2:
        return [(a,) for a in range(4)]
    if k == 3:
        return [(a, b) for a in range(4) for b in range(a + 1)]
    return [(a, b, c) for a in range(4) for b in range(a + 1) for c in range(b + 1)]


def _shuffled(items: list, rng: random.Random) -> list:
    rng.shuffle(items)
    return items


def build(name: str, seed: int, jobs: int) -> dict:
    """The requests of one run, in the order the seed gives them."""
    rng = random.Random(seed)
    if name == "counting":
        return {
            "sweeps": _shuffled(["ofh", "p", "pfam"], rng),
            "verdicts": _shuffled(
                [("count", th, k, i) for (k, i) in PAIRS4 for th in ("T1.1", "T1.2", "T1.5")]
                + [("bivariate", tag, k, i) for (k, i) in BIVARIATE_PAIRS
                   for tag in BIVARIATE_FAMILY], rng),
        }
    if name == "marking":
        return {
            "classes": _shuffled(
                [(tag, prof, i) for k in (2, 3, 4) for prof in _class_profiles(k)
                 for i in range(1, k + 1)
                 for tag in ("CLASS-B", "CLASS-E", "CLASS-G", "CLASS-F", "LEM-N1", "LEM-N2")],
                rng),
            "bijections": _shuffled([(k, i) for k in range(1, 4) for i in range(1, k + 1)], rng),
        }
    if name == "series":
        return {"verdicts": _shuffled(
            [("identity", tag, k, i, SERIES_T) for k in range(2, 5) for i in range(1, k + 1)
             for tag in ("AG", "BRESSOUD", "OGG")]
            + [("identity", "JTP", k, i, JTP_T) for k in range(1, 6) for i in range(1, k + 1)]
            + [("bailey", None, k, i, BAILEY_T) for k in range(2, 5) for i in range(1, k)],
            rng)}
    if name == "cli":
        # run_suite sorts its tasks, so there is no request order to permute:
        # the seed is ignored.
        return {"argv": ["verify", "--suite", "all", "--T", str(CLI_T), "--jobs", str(jobs),
                         "--format", "json"]}
    raise ValueError(f"unknown workload {name!r}")


def _run_counting(inputs: dict) -> tuple[list[dict], object]:
    sweep = {
        "ofh": partitions.overpartition_ofh_tables,
        "p": partitions.overpartition_p_counts,
        "pfam": partitions.partition_family_tables,
    }
    tables = {s: sweep[s](COUNTING_N, PAIRS4) for s in inputs["sweeps"]}
    reports = []
    for kind, tag, k, i in inputs["verdicts"]:
        if kind == "count":
            rep = verify.verify_counting(tag, k, i, COUNTING_N, ofh_tables=tables["ofh"],
                                         p_counts=tables["p"], partition_tables=tables["pfam"])
        else:
            fam = BIVARIATE_FAMILY[tag]
            source = tables["pfam"] if fam in "BC" else tables["ofh"]
            rep = verify.verify_identity(tag, k, i, COUNTING_N, counts=source[(fam, k, i)])
        reports.append(rep.to_json())
    return reports, tables


def _run_marking(inputs: dict) -> tuple[list[dict], object]:
    buckets = verify.collect_class_buckets(3, 3, CLASS_T + 9)
    partition_buckets = verify.collect_partition_buckets(3, 3, CLASS_T)
    reports = []
    for tag, prof, i in inputs["classes"]:
        if tag.startswith("LEM"):
            rep = verify.verify_class_lemma(tag, prof, i, CLASS_T, buckets=buckets)
        else:
            rep = verify.verify_class_gf(prof, i, CLASS_T, tag[-1], buckets=buckets,
                                         partition_buckets=partition_buckets)
        reports.append(rep.to_json())
    for k, i in inputs["bijections"]:
        reports.append(verify.verify_bijections(k, i, BIJECTION_N).to_json())
    oracle = {
        "class": {prof: [rec.op.to_text() for rec in recs] for prof, recs in buckets.items()},
        "partition": partition_buckets,
    }
    return reports, oracle


def _run_series(inputs: dict) -> tuple[list[dict], object]:
    reports = []
    for kind, tag, k, i, T in inputs["verdicts"]:
        if kind == "identity":
            reports.append(verify.verify_identity(tag, k, i, T).to_json())
        else:
            reports.extend(r.to_json() for r in verify.verify_bailey(k, i, T, n_depth=BAILEY_DEPTH))
    return reports, None


def _run_cli(inputs: dict) -> tuple[list[dict], object]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(inputs["argv"])
    reports = json.loads(out.getvalue())
    if code != 0:
        raise RuntimeError(f"ggkit verify exited with {code}")
    return reports, None


RUNNERS = {"counting": _run_counting, "marking": _run_marking,
           "series": _run_series, "cli": _run_cli}


def run(name: str, inputs: dict) -> tuple[list[dict], object]:
    """Issue every request; returns the reports (as JSON dicts) and the oracle."""
    return RUNNERS[name](inputs)


def digest(obj) -> str:
    """SHA-256 of a canonical rendering: dict items sorted, sequences in order."""
    def canon(x):
        if isinstance(x, dict):
            return sorted((repr(k), canon(v)) for k, v in x.items())
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        return repr(x)
    return hashlib.sha256(repr(canon(obj)).encode()).hexdigest()


def report_digest(reports: list[dict]) -> str:
    return hashlib.sha256(
        "\n".join(sorted(json.dumps(r, sort_keys=True) for r in reports)).encode()
    ).hexdigest()


def bijection_checks(reports: list[dict]) -> int:
    """Sum of the "<n> checks" details of the passing BIJECTIONS reports."""
    return sum(int(r["detail"].split()[0]) for r in reports
               if r["identity"] == "BIJECTIONS" and r["verdict"] == "pass")


class ComparisonCounter:
    """Counts the coefficients every series comparison reads.

    Wraps ``first_difference`` on both series classes (``__eq__`` goes through
    it).  A univariate comparison reads every exponent from the lower of the two
    starts up to the first difference, or to the common truncation; a bivariate
    one reads one x-polynomial per q-exponent.  Comparisons made in pool
    workers are not seen.
    """

    def __init__(self):
        self.count = 0
        uni = series.LaurentSeries.first_difference
        bi = series.BivariateSeries.first_difference

        def uni_counted(a, b):
            d = uni(a, b)
            lo = min(a.min_exponent, b.min_exponent)
            hi = min(a.truncation, b.truncation) if d is None else d
            self.count += max(0, hi - lo + 1)
            return d

        def bi_counted(a, b):
            d = bi(a, b)
            hi = min(a.truncation, b.truncation) if d is None else d[0]
            neg = {e for e in a.table.keys() | b.table.keys() if e < 0}
            self.count += max(0, hi + 1) + len(neg)
            return d

        series.LaurentSeries.first_difference = uni_counted
        series.BivariateSeries.first_difference = bi_counted
