"""Outside-in tracing of ggkit's layers.

``Tracer.install`` replaces public ggkit functions and methods with timing
wrappers.  A function is rebound in every ``ggkit`` module namespace that holds
it (``verify`` and ``bijections`` import ``gg_mark`` by name, ``verify`` and
``bailey`` import the Pochhammer builders), and methods are replaced on
``LaurentSeries`` and ``BaileyPair``.  Nothing inside ggkit is edited.

Two kinds of wrapper:

* entry points (the verifiers, sweeps, bucket passes, suite runner, CLI)
  record one span each: id, parent id, name, start and end;
* hot functions (series arithmetic, ``gg_mark``, the bijection maps, family
  predicates, ``BaileyPair.beta``, the enumerators) keep only counters, since
  a marking run makes about half a million ``gg_mark`` calls.

Both kinds keep, per name, the call count, the self time (own duration minus
the wrapped calls beneath it) and the inclusive time of outermost calls.  The
wrappers' own cost is measured and taken out of both, so a parent's self time
does not absorb its children's bookkeeping.

In the ``cli`` workload the pool workers are forked after the wrappers are
installed, so they run wrapped code too, but their counters stay in the worker
and are lost: every span under ``verify._run_task`` (identity, counting and
bijection tasks) is missing from that workload's trace.  Only the parent's
share (argument parsing, ``build_tasks``, the serial ``verify_bailey`` calls,
the pool fan-out and JSON rendering) is seen.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_right
from fractions import Fraction

from ggkit import bailey, bijections, cli, marking, partitions, series, verify

perf = time.perf_counter

_MAPS = ("phi_step", "psi_step", "phi_chain", "psi_chain", "phi_full", "psi_full",
         "theta_step", "lambda_step", "theta_chain", "lambda_chain", "theta_full",
         "lambda_full", "fh_toggle", "fh_untoggle", "halve", "double")
_ENUMERATORS = ("enumerate_overpartitions", "iter_overpartitions_bounded",
                "enumerate_partitions", "iter_partitions_bounded")

# (module, function, stat name) for wrappers that record one span per call
SPANS = [
    (cli, "main", "cli.main"),
    (verify, "run_suite", "verify.run_suite"),
    (verify, "build_tasks", "verify.build_tasks"),
    (verify, "verify_counting", "verify.verify_counting"),
    (verify, "verify_identity", "verify.verify_identity"),
    (verify, "verify_class_gf", "verify.verify_class_gf"),
    (verify, "verify_class_lemma", "verify.verify_class_lemma"),
    (verify, "verify_bijections", "verify.bijection_sweep"),
    (verify, "verify_bailey", "verify.verify_bailey"),
    (verify, "collect_class_buckets", "verify.buckets"),
    (verify, "collect_partition_buckets", "verify.partition_buckets"),
    (verify, "multisum_lhs", "verify.multisum"),
    (verify, "product_rhs", "verify.product_rhs"),
    (partitions, "overpartition_ofh_tables", "partitions.ofh"),
    (partitions, "overpartition_p_counts", "partitions.p"),
    (partitions, "partition_family_tables", "partitions.pfam"),
    (bailey, "run_chain", "bailey.chain"),
    (bailey, "verify_pair_relation", "bailey.relation"),
    (bailey, "limit_identity", "bailey.limit"),
]

# (module, function, stat name) for counter-only wrappers
HOT = [
    (series, "pochhammer_finite", "series.poch"),
    (series, "pochhammer_infinite", "series.poch"),
    (partitions, "satisfies_family", "partitions.family"),
    (partitions, "o_family_stats", "partitions.o_stats"),
    (marking, "gg_mark", "marking.gg_mark"),
    (marking, "classify_f", "marking.classify"),
    (marking, "classify_g", "marking.classify"),
] + [(bijections, name, "bijections.map") for name in _MAPS]

# (class, method, stat name)
METHODS = [
    (series.LaurentSeries, "__mul__", "series.mul"),
    (series.LaurentSeries, "__add__", "series.add"),
    (series.LaurentSeries, "inverse", "series.inverse"),
    (bailey.BaileyPair, "beta", "bailey.beta"),
]


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "active", "objects")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.active = 0
        self.objects = 0


def _rebind(orig, wrapper) -> None:
    """Replace orig by wrapper wherever a ggkit module namespace holds it."""
    for name, mod in list(sys.modules.items()):
        if name == "ggkit" or name.startswith("ggkit."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)


class Tracer:
    def __init__(self):
        self.t_origin = perf()
        self.stats: dict[str, Stat] = {}
        # one [covered, overhead] pair per active wrapped call, plus the root:
        # covered = wall time of wrapped children (their bookkeeping included),
        # overhead = bookkeeping time of all wrapped descendants
        self.frames: list[list[float]] = [[0.0, 0.0]]
        self.span_stack: list[int | None] = [None]
        self.spans: list[tuple] = []
        self.mul_terms = 0
        self.mul_fraction_terms = 0
        self.bucket_kept = 0
        self.bucket_enumerated = 0
        self.sweep_gg_mark = 0
        self.tasks = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, name: str, span: bool = False, before=None, after=None):
        stat = self.stat(name)
        frames, span_stack, spans = self.frames, self.span_stack, self.spans
        origin = self.t_origin

        def wrapper(*args, **kwargs):
            t_enter = perf()
            state = before() if before is not None else None
            frames.append([0.0, 0.0])
            stat.active += 1
            if span:
                sid = len(spans)
                spans.append(None)
                parent = span_stack[-1]
                span_stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                covered, overhead = frames.pop()
                stat.calls += 1
                stat.active -= 1
                stat.self_s += t1 - t0 - covered
                if not stat.active:
                    stat.incl_s += t1 - t0 - overhead
                if span:
                    span_stack.pop()
                    spans[sid] = (sid, parent, name, t0 - origin, t1 - origin)
                outer = frames[-1]
                t_exit = perf()
                outer[0] += t_exit - t_enter
                outer[1] += overhead + (t_exit - t_enter) - (t1 - t0)
            if after is not None:
                t2 = perf()
                after(args, result, state)
                t3 = perf()
                outer[0] += t3 - t2
                outer[1] += t3 - t2
            return result

        return wrapper

    def wrap_iter(self, fn, name: str):
        """Wrap a function returning an iterator; time is spent inside next()."""
        stat = self.stat(name)
        frames = self.frames

        def wrapper(*args, **kwargs):
            stat.calls += 1
            it = iter(fn(*args, **kwargs))
            while True:
                t_enter = perf()
                frames.append([0.0, 0.0])
                t0 = perf()
                try:
                    item = next(it)
                    done = False
                except StopIteration:
                    done = True
                t1 = perf()
                covered, overhead = frames.pop()
                stat.self_s += t1 - t0 - covered
                stat.incl_s += t1 - t0 - overhead
                outer = frames[-1]
                t_exit = perf()
                outer[0] += t_exit - t_enter
                outer[1] += overhead + (t_exit - t_enter) - (t1 - t0)
                if done:
                    return
                stat.objects += 1
                yield item

        return wrapper

    # -- per-call accounting hooks -----------------------------------------

    def _after_mul(self, args, result, _state) -> None:
        """Count the coefficient products the schoolbook loop computes."""
        a, b = args
        am, bm = a.effective_min(), b.effective_min()
        trunc = min(a.truncation + bm, b.truncation + am)
        if am + bm > trunc:
            return
        bhi = min(b.truncation, trunc - am)
        support = [e for e, _ in b.items()]
        terms = 0
        for ea, _ in a.items():
            if ea + bm > trunc:
                break
            terms += bisect_right(support, min(bhi, trunc - ea))
        self.mul_terms += terms
        if any(isinstance(c, Fraction) for c in a.coeffs) or \
                any(isinstance(c, Fraction) for c in b.coeffs):
            self.mul_fraction_terms += terms

    def _before_buckets(self):
        return self.stat("partitions.enum").objects

    def _after_buckets(self, _args, result, enum_before) -> None:
        self.bucket_enumerated += self.stat("partitions.enum").objects - enum_before
        self.bucket_kept += sum(len(v) for v in result.values()) - 1  # seeded empty record

    def _before_sweep(self):
        return self.stat("marking.gg_mark").calls

    def _after_sweep(self, _args, _result, marks_before) -> None:
        self.sweep_gg_mark += self.stat("marking.gg_mark").calls - marks_before

    def _after_tasks(self, _args, result, _state) -> None:
        self.tasks += len(result)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "verify.buckets": (self._before_buckets, self._after_buckets),
            "verify.bijection_sweep": (self._before_sweep, self._after_sweep),
            "verify.build_tasks": (None, self._after_tasks),
            "series.mul": (None, self._after_mul),
        }
        for mod, attr, name in SPANS + HOT:
            before, after = hooks.get(name, (None, None))
            orig = getattr(mod, attr)
            _rebind(orig, self.wrap(orig, name, span=(mod, attr, name) in SPANS,
                                    before=before, after=after))
        for attr in _ENUMERATORS:
            orig = getattr(partitions, attr)
            _rebind(orig, self.wrap_iter(orig, "partitions.enum"))
        for cls, attr, name in METHODS:
            before, after = hooks.get(name, (None, None))
            setattr(cls, attr, self.wrap(getattr(cls, attr), name, before=before, after=after))

    # -- results ------------------------------------------------------------

    def layer_metrics(self, reports: list[dict], coeffs_compared: int,
                      bijection_checks: int) -> dict[str, float]:
        """The per-layer metrics of one traced run (see README.md)."""
        s = self.stat
        m = {
            "series.mul_calls": s("series.mul").calls,
            "series.mul_s": s("series.mul").self_s,
            "series.mul_terms": self.mul_terms,
            "series.mul_fraction_ratio": self.mul_fraction_terms / self.mul_terms
            if self.mul_terms else 0.0,
            "series.inverse_calls": s("series.inverse").calls,
            "series.inverse_s": s("series.inverse").self_s,
            "series.add_calls": s("series.add").calls,
            "series.add_s": s("series.add").self_s,
            "series.poch_calls": s("series.poch").calls,
            "series.poch_s": s("series.poch").self_s,
            "partitions.ofh_s": s("partitions.ofh").incl_s,
            "partitions.p_s": s("partitions.p").incl_s,
            "partitions.pfam_s": s("partitions.pfam").incl_s,
            "partitions.enum_objects": s("partitions.enum").objects,
            "partitions.enum_s": s("partitions.enum").self_s,
            "partitions.family_calls": s("partitions.family").calls,
            "partitions.family_s": s("partitions.family").self_s,
            "partitions.o_stats_calls": s("partitions.o_stats").calls,
            "partitions.o_stats_s": s("partitions.o_stats").self_s,
            "marking.gg_mark_calls": s("marking.gg_mark").calls,
            "marking.gg_mark_s": s("marking.gg_mark").self_s,
            "marking.classify_calls": s("marking.classify").calls,
            "marking.classify_s": s("marking.classify").self_s,
            "marking.gg_mark_per_check": self.sweep_gg_mark / bijection_checks
            if self.sweep_gg_mark and bijection_checks else 0.0,
            "bijections.map_calls": s("bijections.map").calls,
            "bijections.map_s": s("bijections.map").self_s,
            "bijections.checks": bijection_checks,
            "bailey.beta_calls": s("bailey.beta").calls,
            "bailey.beta_s": s("bailey.beta").incl_s,
            "bailey.relation_s": s("bailey.relation").incl_s,
            "bailey.limit_s": s("bailey.limit").incl_s,
            "verify.buckets_s": s("verify.buckets").incl_s,
            "verify.bucket_keep_ratio": self.bucket_kept / self.bucket_enumerated
            if self.bucket_enumerated else 0.0,
            "verify.bijection_sweep_s": s("verify.bijection_sweep").incl_s,
            "verify.multisum_s": s("verify.multisum").incl_s,
            "verify.product_rhs_s": s("verify.product_rhs").incl_s,
            "verify.coeffs_compared": coeffs_compared,
            "verify.verdicts": len(reports),
            "cli.tasks": self.tasks,
            "cli.serial_s": 0.0,
            "cli.fanout_s": 0.0,
            "cli.render_s": 0.0,
        }
        if s("cli.main").calls:
            suite = s("verify.run_suite").incl_s
            serial = s("verify.verify_bailey").incl_s
            m["cli.serial_s"] = serial
            m["cli.fanout_s"] = suite - serial - s("verify.build_tasks").incl_s
            m["cli.render_s"] = s("cli.main").incl_s - suite
        return m

    def bases(self) -> dict[str, str]:
        """The numerator/denominator behind each ratio metric."""
        return {
            "series.mul_fraction_ratio": f"{self.mul_fraction_terms}/{self.mul_terms} products",
            "verify.bucket_keep_ratio": f"{self.bucket_kept}/{self.bucket_enumerated} objects",
            "marking.gg_mark_per_check": f"{self.sweep_gg_mark} gg_mark calls in the sweep",
        }

    def dump(self) -> dict:
        return {
            "stats": {name: {"calls": st.calls, "self_s": st.self_s, "incl_s": st.incl_s,
                             "objects": st.objects} for name, st in self.stats.items()},
            "spans": [{"id": sid, "parent": parent, "name": name, "start": t0, "end": t1}
                      for sid, parent, name, t0, t1 in self.spans],
        }
