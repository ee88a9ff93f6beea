import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggkit import cli, verify
from ggkit.bailey import LimitDiagnosticError, PairFormError
from ggkit.marking import PreconditionError
from ggkit.partitions import FamilySpec, enumerate_overpartitions, satisfies_family
from ggkit.verify import VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines == ["1~,1", "1,1", "2~", "2"]


def test_enumerate_empty_weight(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "0")
    assert code == 0
    assert [l for l in out.splitlines() if not l.startswith("#")] == ["-"]


def test_enumerate_family_filter(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--family", "O", "--k", "2", "--i", "2")
    assert code == 0
    assert "# 6 overpartition(s)" in out


def test_enumerate_family_needs_parameters(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "3", "--family", "O")
    assert code == 2 and "--k" in err


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["count"] == 4


def test_enumerate_text_streams_each_object_as_it_comes(capsys, monkeypatch):
    head = list(enumerate_overpartitions(5))[:3]

    def failing(n):
        yield from head
        raise RuntimeError("enumeration stopped")

    monkeypatch.setattr(cli, "enumerate_overpartitions", failing)
    with pytest.raises(RuntimeError):
        cli.main(["enumerate", "--n", "5"])
    assert capsys.readouterr().out.splitlines() == [op.to_text() for op in head]
    # JSON counts in a first pass, so a failure there prints nothing
    with pytest.raises(RuntimeError):
        cli.main(["enumerate", "--n", "5", "--format", "json"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("spec", [None, FamilySpec("O", 2, 2), FamilySpec("F", 1, 1)])
def test_enumerate_json_bytes_match_one_document(capsys, spec):
    argv = [] if spec is None else ["--family", spec.family, "--k", str(spec.k), "--i", str(spec.i)]
    for n in range(7):
        code, out, _ = run(capsys, "enumerate", "--n", str(n), *argv, "--format", "json")
        items = [op for op in enumerate_overpartitions(n)
                 if spec is None or satisfies_family(op, spec)]
        want = json.dumps({"n": n, "count": len(items),
                           "overpartitions": [op.to_json() for op in items]})
        assert code == 0 and out == want + "\n"


def test_mark_worked_example(capsys):
    code, out, _ = run(capsys, "mark", "1,1,2~,2,3~,4~,6,7,8,8")
    assert code == 0
    assert "rows: (5, 3, 2)" in out
    assert out.splitlines()[0].startswith("3 |")


def test_mark_empty(capsys):
    code, out, _ = run(capsys, "mark", "-")
    assert code == 0 and "(empty)" in out


def test_mark_gordon(capsys):
    code, out, _ = run(capsys, "mark", "--gordon", "1,1,2,2,2,3,4,5,5,6,6,6", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["marks"] == [1, 2, 3, 4, 5, 1, 2, 1, 3, 2, 4, 5]


def test_mark_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "mark", "1x,2")
    assert code == 2 and out == "" and err == "ggkit: cannot parse part '1x'\n"


def test_mark_random_agreement(capsys):
    import random

    from ggkit.marking import gg_mark
    from ggkit.partitions import Overpartition, Part

    rng = random.Random(3)
    for _ in range(100):
        parts = []
        used = set()
        for _ in range(rng.randint(0, 8)):
            s = rng.randint(1, 9)
            ov = rng.random() < 0.4 and s not in used
            if ov:
                used.add(s)
            parts.append(Part(s, ov))
        op = Overpartition(parts)
        code, out, _ = run(capsys, "mark", op.to_text(), "--format", "json")
        assert code == 0
        assert tuple(json.loads(out)["marks"]) == gg_mark(op).marks


def test_biject_step_and_trace(capsys):
    code, out, _ = run(capsys, "biject", "--map", "phi-p", "--p", "3",
                       "1~,2,3,3,4,6,6,7~", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["output"] == "1~,2,3,4,5~,6~,6,7~"
    assert data["trace"][0]["delta"] == 2


def test_biject_full_and_inverse(capsys):
    code, out, _ = run(capsys, "biject", "--map", "phi", "2,3", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["emitted"] == [-2]
    code, out, _ = run(capsys, "biject", "--map", "psi", "--tau", "-2",
                       data["output"], "--format", "json")
    assert code == 0 and json.loads(out)["output"] == "2,3"


def test_biject_requires_position(capsys):
    code, _, err = run(capsys, "biject", "--map", "phi-p", "1~,2,3")
    assert code == 2 and "--p" in err


def test_biject_domain_error_is_usage(capsys):
    code, _, err = run(capsys, "biject", "--map", "phi-p", "--p", "2", "1~,4,6")
    assert code == 2 and "position" in err


def test_biject_halve(capsys):
    code, out, _ = run(capsys, "biject", "--map", "halve", "2,4,4", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["partition"] == [1, 2, 2]


def test_bailey_dump(capsys):
    code, out, _ = run(capsys, "bailey", "--k", "2", "--i", "1", "--T", "10",
                       "--stage", "1", "--n-max", "2")
    data = json.loads(out)
    assert code == 0
    assert data["note"] == "seed" and data["exponent_denominator"] == 2
    assert data["beta"]["0"]["coeffs"][0] == "1/1"


def test_bailey_equal_parameters_usage_error(capsys):
    code, _, err = run(capsys, "bailey", "--k", "2", "--i", "2")
    assert code == 2 and "chain undefined" in err


def test_verify_counting_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counting", "--k", "2", "--i", "2",
                       "--n-max", "8")
    assert code == 0
    assert out.count("PASS") == 3


def test_verify_degenerate_usage(capsys):
    code, _, err = run(capsys, "verify", "--suite", "identities", "--k", "1", "--i", "1")
    assert code == 2 and "degenerate" in err


def test_verify_all_at_k_1_runs_the_counting_and_bijection_checks(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--k", "1", "--n-max", "6",
                         "--format", "json")
    assert code == 0 and err == ""
    runs = sorted((r["identity"], r["params"]["k"], r["params"]["i"], r["verdict"])
                  for r in json.loads(out))
    assert runs == [("BIJECTIONS", 1, 1, "pass"), ("T1.1", 1, 1, "pass"),
                    ("T1.2", 1, 1, "pass"), ("T1.5", 1, 1, "pass")]


def test_verify_identities_at_k_1_stays_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "identities", "--k", "1")
    assert code == 2 and out == "" and "degenerate" in err


def test_verify_all_at_i_equal_k_leaves_the_chain_out(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--k", "2", "--i", "2",
                         "--n-max", "4", "--T", "10", "--format", "json")
    assert code == 0 and err == ""
    runs = sorted((r["identity"], r["params"]["k"], r["params"]["i"], r["verdict"])
                  for r in json.loads(out))
    assert runs == [(tag, 2, 2, "pass") for tag in
                    ("AG", "BIJECTIONS", "BRESSOUD", "JTP", "OGG", "T1.1", "T1.2", "T1.5")]


def test_verify_bailey_at_i_equal_k_stays_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "bailey", "--k", "2", "--i", "2")
    assert code == 2 and out == "" and "chain undefined for i = k" in err


def test_verify_profile_checks(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--profile", "1",
                       "--i", "1", "--T", "12")
    assert code == 0
    assert "CLASS-F" in out and "LEM-N2" in out


def test_verify_notes_a_capped_profile_T_on_stderr_only(capsys):
    base = ["verify", "--suite", "identities", "--profile", "1", "--i", "1"]
    for fmt in ("text", "json"):
        capped = run(capsys, *base, "--T", "35", "--format", fmt)
        at_cap = run(capsys, *base, "--T", "30", "--format", fmt)
        assert capped[:2] == at_cap[:2] and capped[0] == 0
        assert capped[2] == ("ggkit: note: the profile checks ran at T=30, the cap, "
                             "not at the --T 35 asked for\n")
        assert at_cap[2] == ""
    assert run(capsys, *base)[2] == ""


def test_verify_json_and_text_agree(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counting", "--k", "2", "--n-max", "6",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    verdicts = [(d["identity"], d["verdict"]) for d in data]
    code, out, _ = run(capsys, "verify", "--suite", "counting", "--k", "2", "--n-max", "6")
    text_pass = out.count("PASS")
    assert code == 0 and text_pass == len(verdicts) == sum(v == "pass" for _, v in verdicts)


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    fake = [VerificationReport("FAKE", {"k": 2}, 5, False, "first difference at q^1")]
    monkeypatch.setattr(cli, "run_suite", lambda *a, **kw: fake)
    code, out, _ = run(capsys, "verify", "--suite", "counting")
    assert code == 1 and "FAIL" in out


def test_verify_weight_mismatch_exit_code(capsys, monkeypatch):
    from ggkit.bijections import WeightMismatchError

    def broken(*a, **kw):
        raise WeightMismatchError("phi_step: weight 11, expected 12")

    monkeypatch.setattr(cli, "run_suite", broken)
    code, out, err = run(capsys, "verify", "--suite", "bijections")
    assert code == 1 and out == "" and "weight 11" in err

def test_verify_jobs_flag(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counting", "--k", "2", "--n-max", "6",
                       "--jobs", "2")
    assert code == 0 and out.count("PASS") == 6


def test_verify_jobs_env_default(capsys, monkeypatch):
    monkeypatch.setenv("GGKIT_JOBS", "2")
    code, out, _ = run(capsys, "verify", "--suite", "counting", "--k", "2", "--i", "1",
                       "--n-max", "5")
    assert code == 0 and out.count("PASS") == 3


@pytest.mark.parametrize("env,argv", [
    ({}, ["enumerate", "--n", "3", "--family", "O", "--k", "1", "--i", "3"]),
    ({}, ["bailey", "--k", "3", "--i", "1", "--T", "-5"]),
    ({"GGKIT_JOBS": "abc"}, ["verify", "--suite", "counting"]),
    ({}, ["verify", "--suite", "counting", "--k", "2", "--i", "5", "--n-max", "6"]),
    ({}, ["verify", "--suite", "counting", "--k", "0", "--i", "0"]),
    ({}, ["verify", "--suite", "counting", "--n-max", "-1", "--k", "2", "--i", "1"]),
    ({}, ["verify", "--suite", "bijections", "--n-max", "-2"]),
    ({}, ["verify", "--suite", "identities", "--T", "-3"]),
    ({}, ["verify", "--suite", "identities", "--profile", "1", "--T", "-3"]),
    ({}, ["enumerate", "--n", "-3"]),
    ({}, ["bailey", "--k", "3", "--i", "1", "--T", "10", "--n-max", "-2"]),
    ({}, ["bailey", "--k", "3", "--i", "1", "--T", "10", "--stage", "-7"]),
    ({}, ["bailey", "--k", "3", "--i", "1", "--T", "10", "--stage", "-2"]),
    ({}, ["verify", "--suite", "counting", "--k", "2", "--n-max", "4", "--jobs", "0"]),
    ({}, ["verify", "--suite", "counting", "--k", "2", "--n-max", "4", "--jobs", "-3"]),
    ({"GGKIT_JOBS": "0"}, ["verify", "--suite", "counting", "--k", "2", "--n-max", "4"]),
    ({}, ["biject", "--map", "double", "1~,2"]),
    ({}, ["biject", "--map", "psi-p", "--p", "1", "3~"]),
    ({}, ["verify", "--suite", "bailey", "--k", "1"]),
    ({}, ["verify", "--suite", "counting", "--i", "5"]),
    ({}, ["verify", "--suite", "identities", "--T", "100000000000000000000"]),
    ({}, ["verify", "--suite", "counting", "--k", "2", "--i", "1",
          "--n-max", "100000000000000000000"]),
    ({}, ["verify", "--suite", "bailey", "--k", "3", "--i", "1", "--T", "100000000000000000000"]),
    ({}, ["bailey", "--k", "3", "--i", "1", "--T", "100000000000000000000"]),
    ({}, ["enumerate", "--n", "1500"]),
    ({}, ["mark", "1000001"]),
    ({}, ["mark", "100000000000000000000"]),
    ({}, ["mark", "--gordon", "1,100000000000000000000"]),
    ({}, ["biject", "--map", "double", "100000000000000000000"]),
    ({}, ["biject", "--map", "toggle", "--k", "2", "--i", "1", "3~,1000001"]),
    ({}, ["bailey", "--k", "3", "--i", "1", "--n-max", "1001"]),
    ({}, ["verify", "--suite", "identities", "--profile", "1000", "--T", "10"]),
    ({}, ["verify", "--suite", "identities", "--profile", "5", "--T", "22"]),
    ({}, ["verify", "--suite", "identities", "--profile", "2,1", "--k", "7", "--T", "10"]),
    ({}, ["verify", "--suite", "all", "--profile", "2,1", "--k", "2"]),
    ({}, ["verify", "--suite", "counting", "--k", "2", "--i", "1", "--n-max", "100000"]),
    ({}, ["verify", "--suite", "counting", "--k", "2", "--i", "1", "--n-max", "1001"]),
    ({}, ["verify", "--suite", "identities", "--k", "2", "--i", "1", "--T", "100000"]),
    ({}, ["verify", "--suite", "all", "--k", "2", "--i", "1", "--n-max", "12", "--T", "1001"]),
    ({}, ["verify", "--suite", "bailey", "--k", "3", "--i", "1", "--T", "1001"]),
    ({}, ["bailey", "--k", "2", "--i", "1", "--T", "100000"]),
    ({}, ["bailey", "--k", "2", "--i", "1", "--T", "1001"]),
    ({}, ["verify", "--suite", "bijections", "--k", "1000000", "--n-max", "2"]),
    ({}, ["verify", "--suite", "counting", "--k", "1001", "--i", "1", "--n-max", "2"]),
    ({}, ["bailey", "--k", "1001", "--i", "1", "--T", "10", "--n-max", "2"]),
])
def test_invalid_input_is_usage_error(capsys, monkeypatch, env, argv):
    monkeypatch.delenv("GGKIT_JOBS", raising=False)
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("ggkit: ") and err.count("\n") == 1 and "Traceback" not in err


def test_verify_i_alone_selects_every_k_from_i_to_3(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counting", "--i", "2", "--n-max", "4",
                       "--format", "json")
    assert code == 0
    runs = sorted({(r["params"]["k"], r["params"]["i"]) for r in json.loads(out)})
    assert runs == [(2, 2), (3, 2)]


def test_verify_bailey_equal_parameters_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bailey", "--k", "2", "--i", "2")
    assert code == 2 and "chain undefined" in err


def test_verify_suite_all_smoke(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--k", "2",
                       "--n-max", "6", "--T", "12")
    assert code == 0
    for token in ("T1.5", "OGG", "JTP", "BIJECTIONS", "LIMIT"):
        assert token in out, token


@pytest.mark.parametrize("stage,fixture", [
    ([], "bailey_k3_i1_T20.json"),
    (["--stage", "5"], "bailey_k3_i1_T20_stage5.json"),
])
def test_bailey_json_matches_golden(capsys, stage, fixture):
    from pathlib import Path

    code, out, _ = run(capsys, "bailey", "--k", "3", "--i", "1", "--T", "20",
                       *stage, "--format", "json")
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "data" / fixture).read_bytes()


def _raise_limit_diagnostic(chain, truncation):
    raise LimitDiagnosticError(f"beta side did not stabilize at truncation {truncation}")


def _refuse_from_weight_6(real):
    def step(op, p, *rest):
        if op.weight() >= 6:
            raise PreconditionError(f"{op!r}: refused at position {p}")
        return real(op, p, *rest)
    return step


def _raise_pair_form_error(pair, a_num2):
    raise PairFormError(f"alpha precondition violated at n=0: pair {pair.label}")


@pytest.mark.parametrize("patch,argv", [
    (("ggkit.bailey.limit_identity", _raise_limit_diagnostic),
     ["verify", "--suite", "bailey", "--k", "3", "--i", "1", "--T", "10"]),
    # 1-byte slots overflow: B(4, 4) has 145 partitions of weight 24 into 5 parts
    (("ggkit.partitions._count_slot_bytes", lambda n_max, overlines: 1),
     ["verify", "--suite", "counting", "--k", "4", "--i", "4", "--n-max", "24"]),
    # the sweep made the object, so a map refusing it is a failed check, not bad input
    (("ggkit.verify.psi_step", _refuse_from_weight_6(verify.psi_step)),
     ["verify", "--suite", "bijections", "--k", "2", "--n-max", "8", "--jobs", "1"]),
    (("ggkit.bailey.transform_shift", _raise_pair_form_error),
     ["bailey", "--k", "3", "--i", "1", "--T", "10"]),
    (("ggkit.bailey.transform_shift", _raise_pair_form_error),
     ["verify", "--suite", "bailey", "--k", "3", "--i", "1", "--T", "10", "--jobs", "1"]),
])
def test_internal_diagnostic_is_exit_1_without_traceback(cold_memos, capsys, monkeypatch, patch,
                                                         argv):
    monkeypatch.delenv("GGKIT_JOBS", raising=False)
    monkeypatch.setattr(*patch)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("ggkit: ") and err.count("\n") == 1 and "Traceback" not in err


def test_part_at_the_ceiling_is_accepted(capsys):
    code, out, _ = run(capsys, "mark", "1000000", "--format", "json")
    assert code == 0 and json.loads(out)["marks"] == [1]


def test_bounds_at_their_fixed_ceiling_are_accepted(monkeypatch):
    # the suite is built but not run: at the ceilings it would take minutes
    built = []

    def build_only(tasks, workers, in_parent):
        built.append(tasks)
        return []

    monkeypatch.setattr(verify, "_run_tasks", build_only)
    verify.run_suite("all", k=verify._K_MAX, i=1, n_max=12, T=verify._T_MAX, jobs=1)
    verify.run_suite("counting", k=2, i=1, n_max=verify._COUNT_N_MAX, jobs=1)
    assert [t[-1] for t in built[1]] == [verify._COUNT_N_MAX]  # one counting task per k


def test_help_names_the_fixed_ceilings():
    # ggkit --help prints the module docstring, so its ceilings must be the enforced ones
    doc = " ".join(cli.__doc__.split())
    assert f"a counting ``--n-max`` above {verify._COUNT_N_MAX}" in doc
    assert f"a ``--T`` above {verify._T_MAX}, a ``--k`` above {verify._K_MAX}" in doc


@pytest.mark.parametrize("stage,T,n_max,note", [
    ("-1", "10", "2", "final"),
    ("258", "4", "30", "last.shift"),  # past the truncation, where earlier betas stop
])
def test_bailey_dump_of_a_deep_chain_evaluates_the_stages_in_order(capsys, stage, T, n_max, note):
    # a stage's sequences read every earlier stage; asked for first, the printed
    # one recursed once per stage and overflowed the stack at k = 130
    code, out, err = run(capsys, "bailey", "--k", "130", "--i", "1", "--T", T,
                         "--stage", stage, "--n-max", n_max)
    assert code == 0, err
    data = json.loads(out)
    assert data["note"] == note and len(data["beta"]) == len(data["alpha"]) == int(n_max) + 1


# -- argv fuzz of the exit-code contract ------------------------------------

_INT = st.integers(-1, 5).map(str)
_VALUE = st.sampled_from([str(v) for v in range(-1, 6)] + ["x", "1.5"])
_TOKENS = st.sampled_from(["", "x", "-", "2~", "1,1", "-2", "-2,-4", "-1,-3", "3,2~", ","])
_OVERPARTITIONS = st.sampled_from(["-", "1,1,2~,2,3~,4~,6,7,8,8", "2~,4,5,6", "1~,2", "3,3,5~",
                                   "2,2,4", "1,3~,4,4", "6~,8", "0", "1~,1~", "a", ""])
_FORMAT = st.sampled_from(["text", "json", "xml"])


def _flags(draw, spec: dict) -> list[str]:
    argv = []
    for flag, values in spec.items():
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


@st.composite
def _argv(draw) -> list[str]:
    """A random command line with small bounds; options come in any subset."""
    command = draw(st.sampled_from(["enumerate", "mark", "biject", "bailey", "verify", "bogus"]))
    if command == "enumerate":
        return [command, "--n", draw(st.integers(-2, 8).map(str))] + _flags(draw, {
            "--family": st.sampled_from(list("OPFHX")), "--k": _VALUE, "--i": _VALUE,
            "--format": _FORMAT})
    if command == "mark":
        return [command, draw(_OVERPARTITIONS)] + _flags(draw, {
            "--gordon": None, "--format": _FORMAT})
    if command == "biject":
        return [command, draw(_OVERPARTITIONS), "--map",
                draw(st.sampled_from(sorted(cli._MAPS) + ["nope"]))] + _flags(draw, {
            "--p": _VALUE, "--k": _VALUE, "--i": _VALUE, "--tau": _TOKENS, "--eta": _TOKENS,
            "--format": _FORMAT})
    if command == "bailey":
        return [command, "--k", draw(_INT), "--i", draw(_INT),
                "--T", draw(st.integers(-1, 8).map(str))] + _flags(draw, {
            "--stage": st.integers(-3, 9).map(str), "--n-max": _VALUE, "--format": _FORMAT})
    if command == "verify":
        # --n-max and --T are always given: their defaults are the full acceptance bounds
        return [command, "--suite",
                draw(st.sampled_from(["identities", "counting", "bijections", "bailey", "all",
                                      "none"])),
                "--n-max", draw(st.integers(-1, 6).map(str)),
                "--T", draw(st.integers(-1, 8).map(str))] + _flags(draw, {
            "--k": _VALUE, "--i": _VALUE, "--profile": _TOKENS,
            "--jobs": st.sampled_from(["-1", "0", "1", "x"]), "--format": _FORMAT})
    return [command] + _flags(draw, {"--n": _VALUE})


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        verdicts = [line for line in out.getvalue().splitlines()
                    if line.startswith(("PASS", "FAIL")) or '"verdict"' in line]
        assert not verdicts, argv


def _ggkit_env() -> dict:
    import os
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("GGKIT_JOBS", None)
    return env


def _python_m_ggkit(*argv):
    import subprocess
    import sys

    return subprocess.run([sys.executable, "-m", "ggkit", *argv], env=_ggkit_env(),
                          capture_output=True, text=True, timeout=120)


def test_python_m_ggkit_runs_the_cli():
    proc = _python_m_ggkit("verify", "--suite", "counting", "--k", "2", "--n-max", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "# 6/6 checks passed"


def test_python_m_ggkit_keeps_the_usage_exit_code():
    proc = _python_m_ggkit("mark", "0")
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("ggkit: ")
    assert proc.stderr.count("\n") == 1


def test_a_closed_stdout_is_exit_1_without_traceback():
    import subprocess
    import sys

    proc = subprocess.Popen([sys.executable, "-m", "ggkit", "enumerate", "--n", "30"],
                            env=_ggkit_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        assert proc.stdout.readline().count(",") == 29  # 1~ and twenty-nine 1s
        proc.stdout.close()  # as `| head -1` does
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_a_worker_killed_mid_task_is_exit_1_with_one_line(capsys, monkeypatch):
    import os
    import re
    import signal

    here = os.getpid()
    run_task = verify._run_task

    def kill_in_a_worker(task):  # never in this process, should a task run here
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_task(task)

    monkeypatch.setattr(verify, "_run_task", kill_in_a_worker)
    monkeypatch.setattr(verify, "_available_cpus", lambda: 2)
    code, out, err = run(capsys, "verify", "--suite", "counting", "--n-max", "6", "--jobs", "2")
    assert code == 1 and out == ""
    assert re.fullmatch(r"ggkit: a worker died before sending the result of task \d, "
                        r"\('counting', .*\)\n", err), err
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)
