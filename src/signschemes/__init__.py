"""Sign-vector triangular schemes, rewrite-move certificates, and the
maximum of the associated cube product polynomials."""

from .bounds import (
    HERMITE_MAX_RANK,
    HERMITE_POWERS,
    BoundResult,
    discriminant_bound,
    hermite_constant,
)
from .errors import (
    AlgorithmInvariantError,
    BoundViolationError,
    DimensionError,
    DomainError,
    InvalidMoveError,
    ResourceLimitError,
    TriangleIndexError,
)
from .evaluate import (
    FACTOR_INEQUALITIES,
    FACTOR_TOL,
    PRODUCT_TOL,
    InequalityCheck,
    chamber_of,
    change_of_variables,
    check_factor_inequality,
    eval_f,
    eval_f_batch,
    eval_p,
    eval_q,
    eval_q_batch,
)
from .moves import (
    Certificate,
    Move,
    apply_move,
    certificate_from_json,
    certificate_from_obj,
    certificate_to_json,
    certificate_to_obj,
    pattern_mismatch,
)
from .normalize import (
    CheckReport,
    TraceStep,
    build_certificate,
    check_certificate,
    render_trace,
    trace_build,
    trace_to_obj,
)
from .oracle import (
    IdentityReport,
    InequalityReport,
    MaxReport,
    MonotonicityReport,
    candidate_maximizers,
    grid_max,
    qmax_bound,
    report_to_json,
    verify_bound,
    verify_identities,
    verify_inequalities,
    verify_monotonicity,
)
from .schemes import (
    MINUS,
    PLUS,
    Scheme,
    all_sign_vectors,
    as_sign_vector,
    format_signs,
    generate_scheme,
    is_reference,
    parse_signs,
    reference_scheme,
    reference_sign,
    sign_char,
    wrong_set,
)

__version__ = "0.1.0"
