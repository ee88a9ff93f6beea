import pytest

from ggkit.bijections import (
    Trace,
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
from ggkit.marking import PreconditionError, gg_mark, is_reduced
from ggkit.partitions import FamilySpec, Overpartition, enumerate_overpartitions, satisfies_family

from worked_examples import STEP_EXAMPLES, TYPE_EXAMPLES

OP = Overpartition.from_text


def total_delta(trace: Trace) -> int:
    """The weight change over every recorded step."""
    return sum(s.delta for s in trace.steps)


@pytest.mark.parametrize("p,lam,mu", STEP_EXAMPLES)
def test_phi_step_examples(p, lam, mu):
    lam, mu = OP(lam), OP(mu)
    got = phi_step(lam, p)
    assert got == mu
    assert got.weight() == lam.weight() + 2
    assert psi_step(mu, p) == lam


@pytest.mark.parametrize("p,mu,nu", TYPE_EXAMPLES)
def test_theta_step_examples(p, mu, nu):
    mu, nu = OP(mu), OP(nu)
    got = theta_step(mu, p)
    assert got == nu
    n1 = gg_mark(mu).row_counts()[0]
    assert got.weight() == mu.weight() + (1 if p == n1 else 2)
    assert lambda_step(nu, p) == mu


def test_theta_example_weights():
    mu, nu = OP(TYPE_EXAMPLES[0][1]), OP(TYPE_EXAMPLES[0][2])
    assert (mu.weight(), nu.weight()) == (61, 63)


def test_phi_full_on_already_reduced_input():
    op = OP("1~,4,6")
    tau, red = phi_full(op)
    assert tau == () and red == op
    assert psi_full((), op) == op


def test_phi_full_single_clearable_part():
    op = OP("2,3")  # first row (2, 3): the plain odd sits at position 2 of 2
    m = gg_mark(op)
    assert m.row_counts() == (2,)
    tau, red = phi_full(op)
    assert tau == (-2,)  # position j=2, width 2: -2*(2-2+1)
    assert is_reduced(red)
    assert psi_full(tau, red) == op


def test_chain_is_stepwise_composition():
    lam = OP("1~,2,3,3,4,6,6,7~")
    tr = Trace()
    out = phi_chain(lam, 3, tr)
    manual = lam
    for q in (3, 4):
        manual = phi_step(manual, q)
    assert out == manual
    assert out.weight() == lam.weight() + 2 * (4 - 3) + 2
    assert total_delta(tr) == out.weight() - lam.weight()
    assert [s.name.startswith("phi[") for s in tr.steps] == [True, True]
    assert psi_chain(out, 3) == lam


def test_chain_clears_its_tail():
    from ggkit.marking import classify_f

    lam = OP("1~,2,4~,4,4,7,8,8,10,11~,13~")
    out = phi_chain(lam, 3)
    assert classify_f(gg_mark(out), 3).cleared
    assert psi_chain(out, 3) == lam


def test_full_roundtrip_exhaustive_small():
    for k, i in [(2, 2), (3, 2)]:
        ospec = FamilySpec("O", k, i)
        for n in range(13):
            for op in enumerate_overpartitions(n):
                if not satisfies_family(op, ospec):
                    continue
                if satisfies_family(op, FamilySpec("F", k, i)) or not op.parts:
                    tau, red = phi_full(op)
                    assert is_reduced(red)
                    assert op.weight() == sum(tau) + red.weight()
                    assert psi_full(tau, red) == op
                if is_reduced(op):
                    eta, dbl = theta_full(op)
                    assert op.weight() == sum(eta) + dbl.weight()
                    assert lambda_full(eta, dbl) == op


def test_theta_chain_weight_law():
    mu = OP("1~,2,4,5~,6,8,9~,12,12,12")
    n1 = gg_mark(mu).row_counts()[0]
    out = theta_chain(mu, 3)
    assert out.weight() == mu.weight() + 2 * (n1 - 3) + 1
    assert lambda_chain(out, 3) == mu


def test_signed_part_validation():
    red = OP("1~,4,6")
    with pytest.raises(PreconditionError):
        psi_full((-3,), red)  # odd entry in the even register
    with pytest.raises(PreconditionError):
        psi_full((-2, -2), red)  # duplicates
    with pytest.raises(PreconditionError):
        psi_full((-40,), red)  # out of range
    dbl = OP("2,4")
    with pytest.raises(PreconditionError):
        lambda_full((-2,), dbl)
    with pytest.raises(PreconditionError):
        lambda_full((-9,), dbl)


def test_signed_part_range_edges():
    # N1 = 5: the reduction reinserts at positions 2..5 (parts -8..-2), the odd
    # removal at positions 1..5 (parts -9..-1)
    tau, red = phi_full(OP("1~,2,4~,4,4,7,8,8,10,11~,13~"))
    assert gg_mark(red).row_counts()[0] == 5
    with pytest.raises(PreconditionError):
        psi_full((-10,), red)
    assert psi_full((-8,), red).weight() == red.weight() - 8
    eta, dbl = theta_full(red)
    with pytest.raises(PreconditionError):
        lambda_full((-11,), dbl)
    assert lambda_full((-9,), dbl).weight() == dbl.weight() - 9


def test_step_precondition_errors():
    with pytest.raises(PreconditionError):
        phi_step(OP("1~,4,6"), 2)  # nothing to clear
    with pytest.raises(PreconditionError):
        psi_step(OP("2,3"), 2)  # position 2 holds the clearable part itself
    with pytest.raises(PreconditionError):
        theta_step(OP("2,4"), 1)  # type E at position 1
    with pytest.raises(PreconditionError):
        theta_step(OP("3,4"), 1)  # not reduced
    with pytest.raises(PreconditionError):
        lambda_step(OP("1~,2"), 1)


def test_fh_toggle_examples():
    out = fh_toggle(OP("3~,4"), 3, 2)
    assert out == OP("3,4")
    assert satisfies_family(out, FamilySpec("H", 3, 1))
    assert fh_untoggle(out, 3, 2) == OP("3~,4")

    out = fh_toggle(OP("4,4"), 3, 2)
    assert out == OP("4~,4")
    assert fh_untoggle(out, 3, 2) == OP("4,4")

    out = fh_toggle(OP("3~,4,6"), 3, 1)
    assert out == OP("1,2,4")
    assert out.weight() == 13 - 2 * 3
    assert satisfies_family(out, FamilySpec("H", 3, 3))
    assert fh_untoggle(out, 3, 1) == OP("3~,4,6")


def test_fh_toggle_preserves_weight_and_count():
    for k, i in [(2, 2), (3, 2), (3, 3)]:
        for n in range(1, 13):
            for op in enumerate_overpartitions(n):
                if not satisfies_family(op, FamilySpec("F", k, i)):
                    continue
                out = fh_toggle(op, k, i)
                assert len(out) == len(op)
                assert out.weight() == op.weight()
                assert satisfies_family(out, FamilySpec("H", k, i - 1))
                assert fh_untoggle(out, k, i) == op


def test_fh_toggle_domain_error():
    with pytest.raises(PreconditionError):
        fh_toggle(OP("3,4"), 3, 2)  # smallest part is plain odd: not in F


def test_halve_double():
    op = OP("2,2,4,4,4,6,8,10,10,12,12,12")
    half = halve(op)
    assert half == (1, 1, 2, 2, 2, 3, 4, 5, 5, 6, 6, 6)
    assert double(half) == op
    assert double(()) == Overpartition()
    assert halve(Overpartition()) == ()
    with pytest.raises(PreconditionError):
        halve(OP("3,4"))
    with pytest.raises(PreconditionError):
        halve(OP("4~,4"))


def test_double_halve_roundtrip_exhaustive():
    for n in range(0, 17):
        for op in enumerate_overpartitions(n):
            if all(not p.overlined and p.size % 2 == 0 for p in op.parts):
                assert double(halve(op)) == op


def test_trace_records_full_history():
    tr = Trace()
    lam = OP("1~,2,4~,4,4,7,8,8,10,11~,13~")
    tau, red = phi_full(lam, tr)
    assert total_delta(tr) == red.weight() - lam.weight()
    assert all(s.after.weight() - s.before.weight() == s.delta for s in tr.steps)
    data = tr.to_json()
    assert data[0]["step"].startswith("phi[")


def test_weight_check_raises_on_mismatch():
    from ggkit.bijections import WeightMismatchError, _check_weight

    _check_weight("phi_step", 12, 12)
    with pytest.raises(WeightMismatchError, match="phi_step: weight 11, expected 12"):
        _check_weight("phi_step", 11, 12)
    assert issubclass(WeightMismatchError, ValueError)
