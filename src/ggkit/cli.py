"""Command-line front end.

Exit codes: 0 all verdicts pass, 1 a mathematical comparison or an internal
check failed, 2 usage or parse errors.  A handler returns 0 or 1 from its
verdicts and raises for anything else; ``main`` alone turns an error into one
``ggkit: ...`` line and its code.  Fixed ceilings refuse with 2 what no run
could finish in reasonable time and memory: a listing above weight 100, a part
above 10**6, a Bailey dump past ``--n-max`` 1000 or past the ``--n-max`` its
``--T`` allows (``_bailey_n_max``), a profile whose class
buckets reach past weight 46, and under ``verify`` and ``bailey`` a ``--T``
above 1000, a ``--k`` above 1000 and a counting ``--n-max`` above 1000 (see
``verify._T_MAX``, ``_K_MAX`` and ``_COUNT_N_MAX``).  A reader that closes
stdout early (``ggkit enumerate --n 30 | head -2``) ends the run with exit 1
and nothing more printed.  Overlined parts are
written with a trailing ``~`` in all text output; a combining overline is
accepted on input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import isqrt

from .bailey import LimitDiagnosticError, PairFormError, run_chain
from .bijections import (
    Trace,
    WeightMismatchError,
    double,
    fh_toggle,
    fh_untoggle,
    halve,
    lambda_chain,
    lambda_full,
    lambda_step,
    phi_chain,
    phi_full,
    phi_step,
    psi_chain,
    psi_full,
    psi_step,
    theta_chain,
    theta_full,
    theta_step,
)
from .marking import MarkedOverpartition, PreconditionError, gg_mark, gordon_mark
from .partitions import (
    CountOverflowError,
    FamilySpec,
    Overpartition,
    enumerate_overpartitions,
    satisfies_family,
)
from .verify import _K_MAX, _T_MAX, CLASS_TAGS, WorkerError, _check_ceiling, run_suite

USAGE_EXIT = 2
MISMATCH_EXIT = 1
# errors of a check on the program's own work: no verdict can be trusted, but the
# input was valid; under verify a map's PreconditionError joins them (see main),
# and a worker that died or could not send a task's outcome back is one too
_INTERNAL = (WeightMismatchError, LimitDiagnosticError, CountOverflowError, PairFormError,
             WorkerError)
# past this weight a listing could never finish (there are 5.3e10 overpartitions
# of 100), and the enumeration nests one generator per part
_ENUMERATE_N_MAX = 100
# mark and biject allocate and loop per size up to the largest part; at 10**6
# the slowest command takes about 0.6 s and 63 MiB
_PART_MAX = 10**6
# the dump builds alpha_n and beta_n for every n <= --n-max, each longer as T
# grows: at k = 2, i = 1 and --n-max 1000 it takes 0.5-0.7 s at T = 40, 1.8-1.9 s
# at T = 100, 8.7-9.7 s at T = 200 and 71-78 s and 132 MiB at T = 400, and at a
# fixed T the time rises about as n_max**2.  n_max * T <= 40 000 still let
# --n-max 100 at T = 400 take 10.7-13.5 s, so the bound is n_max**2 * T**3 <=
# 1000**2 * 40**3 (n_max * T**1.5 <= 1000 * 40**1.5): 1 000 up to T = 40, 252 at
# T = 100, 89 at T = 200 (2.9 s), 31 at T = 400 (1.3 s) and 8 at T = 1 000
# (0.4 s) (k = 2, i = 1, 2-CPU Xeon)
_BAILEY_N_MAX = 1000
_BAILEY_DUMP_WORK = _BAILEY_N_MAX**2 * 40**3


def _bailey_n_max(T: int) -> int:
    """The largest --n-max a Bailey dump at this --T may ask for."""
    return min(_BAILEY_N_MAX, isqrt(_BAILEY_DUMP_WORK // max(T, 1) ** 3))


_MAPS = {
    "phi-p": (phi_step, "p"),
    "psi-p": (psi_step, "p"),
    "phi-chain": (phi_chain, "p"),
    "psi-chain": (psi_chain, "p"),
    "theta-p": (theta_step, "p"),
    "lambda-p": (lambda_step, "p"),
    "theta-chain": (theta_chain, "p"),
    "lambda-chain": (lambda_chain, "p"),
    "phi": (phi_full, "full"),
    "theta": (theta_full, "full"),
    "psi": (psi_full, "tau"),
    "lambda": (lambda_full, "eta"),
    "toggle": (fh_toggle, "ki"),
    "untoggle": (fh_untoggle, "ki"),
    "halve": (halve, "plain"),
    "double": (double, "plain"),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ggkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list overpartitions of a given weight")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=list("OPFH"))
    p.add_argument("--k", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("mark", help="show the marking array of an overpartition")
    p.add_argument("overpartition", help='e.g. "1,1,2~,2,3~,4~,6,7,8,8" ("-" for empty)')
    p.add_argument("--gordon", action="store_true",
                   help="treat the input as an ordinary partition and use the greedy marking")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("biject", help="apply one of the weight-tracked maps")
    p.add_argument("overpartition")
    p.add_argument("--map", required=True, choices=sorted(_MAPS))
    p.add_argument("--p", type=int, help="first-row position for positional maps")
    p.add_argument("--k", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--tau", help="comma-separated negative even parts (psi)")
    p.add_argument("--eta", help="comma-separated negative odd parts (lambda)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("bailey", help="dump a chain stage's sequences as JSON series")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--T", type=int, default=40)
    p.add_argument("--stage", type=int, default=-1,
                   help="stage index, or -1 for the final stage (default)")
    p.add_argument("--n-max", type=int, default=4,
                   help="last n dumped: at most 1000, and n_max**2 * T**3 at most "
                        "1000**2 * 40**3 (252 at --T 100, 31 at --T 400, 8 at --T 1000)")
    p.add_argument("--format", choices=("text", "json"), default="json")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=("identities", "counting", "bijections", "bailey", "all"))
    p.add_argument("--k", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--profile", help="comma-separated row profile, e.g. 2,1")
    p.add_argument("--jobs", type=int,
                   help="worker processes, at most one per task and CPU "
                        "(default: $GGKIT_JOBS or 1)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return ap


def _parse_overpartition(text: str) -> Overpartition:
    op = Overpartition.from_text(text)
    if op.parts and op.parts[-1].size > _PART_MAX:
        raise ValueError(f"part {op.parts[-1].size} above the ceiling {_PART_MAX}")
    return op


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}") from None


def _plain_sizes(op: Overpartition, what: str) -> tuple[int, ...]:
    if any(p.overlined for p in op.parts):
        raise ValueError(f"{what} takes a plain partition")
    return tuple(p.size for p in op.parts)


def _cmd_enumerate(args) -> int:
    if not 0 <= args.n <= _ENUMERATE_N_MAX:
        raise ValueError(f"--n must be in 0..{_ENUMERATE_N_MAX}, got {args.n}")
    spec = None
    if args.family:
        if args.k is None or args.i is None:
            raise ValueError("--family needs --k and --i")
        spec = FamilySpec(args.family, args.k, args.i)

    def items():  # a generator each time: the listing is never held in memory
        return (op for op in enumerate_overpartitions(args.n)
                if spec is None or satisfies_family(op, spec))

    if args.format == "json":
        # the count leads the JSON, so a first pass counts and a second prints
        count = sum(1 for _ in items())
        print(f'{{"n": {args.n}, "count": {count}, "overpartitions": [', end="")
        for j, op in enumerate(items()):
            print(", " * (j > 0) + json.dumps(op.to_json()), end="")
        print("]}")
    else:
        count = 0
        for count, op in enumerate(items(), 1):
            print(op.to_text())
        print(f"# {count} overpartition(s) of {args.n}")
    return 0


def _cmd_mark(args) -> int:
    op = _parse_overpartition(args.overpartition)
    if args.gordon:
        marked = MarkedOverpartition(op, gordon_mark(_plain_sizes(op, "the greedy marking")))
    else:
        marked = gg_mark(op)
    if args.format == "json":
        print(json.dumps(marked.to_json()))
    else:
        print(marked.render())
        print(f"rows: {marked.row_counts()}")
    return 0


def _cmd_biject(args) -> int:
    fn, mode = _MAPS[args.map]
    op = _parse_overpartition(args.overpartition)
    trace = Trace()
    extra = {}
    if mode == "p":
        if args.p is None:
            raise ValueError("this map needs --p")
        result = fn(op, args.p, trace)
    elif mode == "full":
        emitted, result = fn(op, trace)
        extra = {"emitted": list(emitted)}
    elif mode == "tau":
        if args.tau is None:
            raise ValueError("psi needs --tau")
        result = fn(_parse_int_list(args.tau, "--tau"), op, trace)
    elif mode == "eta":
        if args.eta is None:
            raise ValueError("lambda needs --eta")
        result = fn(_parse_int_list(args.eta, "--eta"), op, trace)
    elif mode == "ki":
        if args.k is None or args.i is None:
            raise ValueError("this map needs --k and --i")
        result = fn(op, args.k, args.i, trace)
    elif args.map == "halve":
        extra = {"partition": list(fn(op))}
        result = None
    else:  # double
        result = fn(_plain_sizes(op, "doubling"))
    payload = {
        "map": args.map,
        "input": op.to_text(),
        "output": result.to_text() if isinstance(result, Overpartition) else None,
        "trace": trace.to_json(),
        **extra,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"input : {gg_mark(op).render()}" if op.parts else "input : (empty)")
        if isinstance(result, Overpartition):
            print(f"output: {gg_mark(result).render()}" if result.parts else "output: (empty)")
        for key, val in extra.items():
            print(f"{key}: {val}")
        for step in trace.steps:
            print(f"  {step.name}: {step.before.to_text()} -> {step.after.to_text()} "
                  f"(delta {step.delta:+d})")
    return 0


def _cmd_bailey(args) -> int:
    _check_ceiling("k", args.k, _K_MAX)
    _check_ceiling("T", args.T, _T_MAX)
    n_max = _bailey_n_max(args.T)
    if not 0 <= args.n_max <= n_max:
        raise ValueError(f"--n-max must be in 0..{n_max} at --T {args.T} "
                         f"(n_max**2 * T**3 at most {_BAILEY_DUMP_WORK}), got {args.n_max}")
    if args.stage < -1:
        raise ValueError(f"--stage must be a stage index or -1 (final), got {args.stage}")
    chain = run_chain(args.k, args.i, args.T)
    idx = args.stage if args.stage != -1 else len(chain.stages) - 1
    if idx >= len(chain.stages):
        raise ValueError(f"stage {idx} out of range 0..{len(chain.stages) - 1}")
    # a stage's alpha_n and beta_n read the stages before it at indices <= n only:
    # an iterate reads its source's betas only up to isqrt(trunc // grid), a shift
    # or an average reads them at the same n, with at most two such stages before
    # the next iterate, and the base change is always the last stage; filling the
    # earlier stages in chain order, alphas to --n-max and betas to that square
    # root, keeps every later evaluation a few stages deep, where the printed
    # stage alone would recurse through every earlier one
    for earlier in chain.stages[:idx]:
        pair = earlier.pair
        for n in range(args.n_max + 1):
            pair.alpha(n)
        for n in range(min(args.n_max, isqrt(pair.trunc // pair.grid)) + 1):
            pair.beta(n)
    st = chain.stages[idx]
    payload = {
        "k": args.k,
        "i": args.i,
        "stage": idx,
        "note": st.note,
        "exponent_denominator": st.pair.grid,
        "alpha": {n: st.pair.alpha(n).to_json() for n in range(args.n_max + 1)},
        "beta": {n: st.pair.beta(n).to_json() for n in range(args.n_max + 1)},
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"stage {idx} ({st.note}), exponents in q^(1/{st.pair.grid})")
        for n in range(args.n_max + 1):
            print(f"alpha_{n}: {st.pair.alpha(n)!r}")
            print(f"beta_{n} : {st.pair.beta(n)!r}")
    return 0


def _cmd_verify(args) -> int:
    profile = _parse_int_list(args.profile, "--profile") if args.profile else None
    reports = run_suite(args.suite, k=args.k, i=args.i, n_max=args.n_max,
                        T=args.T, profile=profile, jobs=args.jobs)
    checked = {r.truncation for r in reports if r.identity in CLASS_TAGS}
    if args.T is not None and checked and checked != {args.T}:  # the suite capped T
        print(f"ggkit: note: the profile checks ran at T={min(checked)}, the cap, "
              f"not at the --T {args.T} asked for", file=sys.stderr)
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            print(str(r))
        bad = sum(1 for r in reports if not r.ok)
        print(f"# {len(reports) - bad}/{len(reports)} checks passed")
    return 0 if all(r.ok for r in reports) else MISMATCH_EXIT


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "mark": _cmd_mark,
    "biject": _cmd_biject,
    "bailey": _cmd_bailey,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    """Run one command; its errors map to the exit code here and nowhere else."""
    args = _build_parser().parse_args(argv)
    internal = _INTERNAL
    if args.command == "verify":  # the sweep made every object a map sees
        internal += (PreconditionError,)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:  # the reader is gone: the exit flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return MISMATCH_EXIT
    except internal as exc:  # a failed internal check: the input was valid
        message, code = str(exc), MISMATCH_EXIT
    except ValueError as exc:
        message, code = str(exc), USAGE_EXIT
    except OverflowError as exc:  # a bound too large to build a series or a table for
        message, code = f"bound too large: {exc}", USAGE_EXIT
    print(f"ggkit: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
