"""ggkit: exact q-series arithmetic, overpartition markings and bijections,
Bailey chains, and an exhaustive identity verifier."""

from .series import (
    BivariateSeries,
    DivergentProductError,
    LaurentSeries,
    NotInvertibleError,
    TruncationError,
    pochhammer_finite,
    pochhammer_infinite,
    product_triple,
    theta_bressoud_sum,
)
from .partitions import (
    FamilySpec,
    FrequencyTable,
    Overpartition,
    ParseError,
    Part,
    enumerate_overpartitions,
    enumerate_partitions,
    satisfies_family,
)
from .marking import (
    MarkedOverpartition,
    PreconditionError,
    classify_f,
    classify_g,
    gg_mark,
    gordon_mark,
    part_type,
)
from .bijections import (
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
from .bailey import (
    BaileyPair,
    Chain,
    ChainParameterError,
    PairFormError,
    combine,
    limit_identity,
    run_chain,
    transform_base_change,
    transform_iterate,
    transform_shift,
    unit_pair,
    verify_pair_relation,
)
from .verify import (
    VerificationReport,
    multisum_lhs,
    product_rhs,
    run_suite,
    verify_bailey,
    verify_bijection_pairs,
    verify_bijections,
    verify_class_gf,
    verify_counting,
    verify_identity,
)

__version__ = "0.1.0"
