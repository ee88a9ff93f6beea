"""Golden cases of the four step maps.

``data/step_cases.json`` holds, for each of the 21 case labels (phi and psi
1-4, theta 1.1-3.2, lambda 1.1-3.2), the first O(4, 4) member of weight <= 20,
in ``marking._walk`` order, whose step takes that case at the top
first-row position N1, and the first that takes it below N1: the input, the
position, the trace label and the output.  Every label occurs; phi and psi
take each case at both, so the overline toggle of the part above p is pinned
too.  Replaying them pins each case body and the label it records; the
wrong-position calls pin the precondition messages.
"""

import json
from pathlib import Path

import pytest

from ggkit import bijections
from ggkit.marking import PreconditionError, gg_mark
from ggkit.partitions import Overpartition

CASES = json.loads((Path(__file__).parent / "data" / "step_cases.json").read_text())


def test_every_case_label_is_covered():
    labels = {(c["map"], c["case"]) for c in CASES}
    assert len(labels) == 21
    assert {m for m, _ in labels} == {"phi", "psi", "theta", "lambda"}
    below_top = {(c["map"], c["case"]) for c in CASES
                 if c["p"] < gg_mark(Overpartition.from_text(c["input"])).row_counts()[0]}
    assert {(m, c) for m, c in labels if m in ("phi", "psi")} <= below_top


@pytest.mark.parametrize("case", CASES, ids=[f"{c['label']}:{c['input']}" for c in CASES])
def test_step_case_replays(case):
    op = Overpartition.from_text(case["input"])
    trace = bijections.Trace()
    out = getattr(bijections, f"{case['map']}_step")(op, case["p"], trace)
    assert out.to_text() == case["output"]
    assert [s.name for s in trace.steps] == [case["label"]]
    assert trace.steps[0].before == op and trace.steps[0].after == out


@pytest.mark.parametrize("name,text,p,message", [
    ("phi", "2,4", 1, "first-row position 1 must hold the last plain-odd/overlined-even part"),
    ("phi", "1~,1", 1, "first-row position 1 must hold the last plain-odd/overlined-even part"),
    ("psi", "1~,1", 2,
     "first-row position 2 must hold a stable part followed by the part to restore"),
    ("psi", "3~", 1,
     "first-row position 1 must hold a stable part followed by the part to restore"),
    ("psi_chain", "3~", 1,
     "first-row position 1 must hold a stable part followed by the part to restore"),
    ("theta", "2,4", 1, "first-row position 1 must hold the last type-O part"),
    ("lambda", "1~", 1,
     "first-row position 1 must hold a type-E part followed by the type-O part"),
    ("phi", "1~,1", 3, "position 3 out of range 1..2"),
    ("lambda", "2,3~", 2, "position 2 out of range 1..1"),
])
def test_step_at_a_wrong_position_raises(name, text, p, message):
    trace = bijections.Trace()
    with pytest.raises(PreconditionError) as exc:
        getattr(bijections, name if name.endswith("_chain") else f"{name}_step")(
            Overpartition.from_text(text), p, trace)
    assert str(exc.value) == message
    assert trace.steps == []
