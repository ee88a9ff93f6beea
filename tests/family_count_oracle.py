"""Family counts by filtering an exhaustive enumeration of one weight.

The slow reference the count-table DPs and the closed forms are tested
against: every object of weight n is enumerated and kept when it satisfies
the family's defining clauses.
"""

from ggkit.partitions import (
    OVERPARTITION_FAMILIES,
    FamilySpec,
    enumerate_overpartitions,
    enumerate_partitions,
    satisfies_family,
)


def _objects(spec: FamilySpec, n: int):
    if spec.family in OVERPARTITION_FAMILIES:
        return enumerate_overpartitions(n)
    return enumerate_partitions(n)


def count_family(spec: FamilySpec, n: int) -> int:
    """The number of family members of weight n."""
    return sum(1 for obj in _objects(spec, n) if satisfies_family(obj, spec))


def count_family_bivariate(spec: FamilySpec, n: int) -> dict[int, int]:
    """Counts of weight-n family members per number of parts m."""
    out: dict[int, int] = {}
    for obj in _objects(spec, n):
        if satisfies_family(obj, spec):
            m = len(obj)
            out[m] = out.get(m, 0) + 1
    return out
