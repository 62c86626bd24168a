"""Exact symbolic checks and desk-scale numerical experiments for
constant-coefficient homogeneous differential operators.

The symbolic layer decides ellipticity, constant rank over the complex
frequencies, cancellation, and kernel inclusion between pairs of operators,
and produces exact certificates: factorization identities, annihilators,
projection maps, and polynomial lifts. The numerical layer estimates the
p = 2 coercivity constant on the torus and runs counterexample and ratio
experiments.
"""

__version__ = "1.0.0"

from .exact import MinorsBudgetExceeded, MultiPoly, PolyMatrix, ScalarMatrix
from .groebner import (
    GroebnerBasis,
    MacaulayBudgetExceeded,
    TermOrder,
    buchberger_ideal,
    module_member_with_coeffs,
    zero_dim_origin,
)
from .operators import (
    DiffOp,
    OperatorFormatError,
    OperatorPair,
    catalog,
    compose,
    grad_power,
    load_op,
    multiindex_count,
    parse_op,
    save_op,
    serialize_op,
    stack,
)
from .analysis import (
    Annihilator,
    CancellationReport,
    FactorizationCertificate,
    HypothesesNotMet,
    InclusionVerdict,
    NotInImage,
    PolynomialLift,
    RankProfile,
    SampleBudgetExceeded,
    SMaxExceeded,
    Witness,
    compute_W,
    construct_annihilator,
    construct_Cbeta,
    construct_L,
    find_witness,
    is_elliptic,
    kernel_inclusion,
    polynomial_lift,
    quotient_spec,
    rank_profile,
    verify_L_annihilates_W,
)
from .numerics import (
    ExperimentReport,
    GridField,
    PlaneWaveFamily,
    apply_op_planewave,
    bb_ratio_experiment,
    counterexample_blowup,
    korn_constant_p2,
    lp_norm,
    sobolev_ratio_experiment,
)
