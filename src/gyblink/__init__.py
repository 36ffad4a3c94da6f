"""Isotopy invariants of oriented links from enhanced generalized
Yang-Baxter operators.

The package ships a catalog of four operators (three one-parameter 8x8
unitary families and one fixed block operator), the enhancement data that
turns each into a link invariant, a matrix-free evaluator for the induced
braid representations, and checkers for every algebraic identity the
construction rests on.
"""

from .braids import (
    LINKS,
    BraidWord,
    NamedLink,
    closure_components,
    compose,
    conjugate,
    format_braid,
    inverse,
    juxtapose,
    load_catalog_file,
    parse_braid,
    random_braid,
    resolve_braid,
    stabilize,
    writhe,
)
from .enhancement import (
    Enhancement,
    EnhancementReport,
    acts_offdiagonally_on_last,
    catalog_enhancement,
    condition_i_residual,
    enhancement_report,
    make_enhancement,
    sampled_perpendicularity,
)
from .errors import (
    BraidParseError,
    EnhancementError,
    GybError,
    OperatorFileError,
    PartialTraceError,
    ResourceCapError,
    ShapeError,
    SingularMatrixError,
)
from .invariant import (
    InvariantResult,
    cross_operator_check,
    markov_check,
    multiplicative_invariant,
    multiplicativity_check,
    normalized_invariant,
    quartic_check_type2,
    skein_check,
    trace_invariant,
)
from .operators import (
    CATALOG,
    GybOperator,
    GybType,
    build_operator,
    build_r232,
    build_type1,
    build_type2,
    build_type3,
    check_outer_diagonal,
    load_custom,
    read_operator_file,
    unitarity_residual,
    verify_far_commutativity,
    verify_gybe,
    write_operator_file,
)
from .rep import PEAK_CAP, RepContext, dense_representation, make_context, rep_apply, trace_with_weight, traces
from .tensorops import (
    DEFAULT_TOL,
    TensorShape,
    as_matrix,
    dagger,
    identity,
    kron_power,
    mat_inverse,
    max_abs,
    partial_trace_last,
    tensor_embed,
)

__version__ = "0.1.0"
