"""Sign-vector triangular schemes, rewrite-move certificates, and the
maximum of the associated cube product polynomials.

The names of the numpy-backed modules, evaluate and oracle, are imported
on first access, so the certificate API never loads numpy.
"""

import importlib

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
    report_to_json,
    trace_build,
    trace_to_obj,
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

# name -> the numpy-backed module it is read from on first access (PEP 562);
# the modules themselves are listed too, as importing the package bound them
_LAZY = dict.fromkeys(
    (
        "evaluate",
        "FACTOR_INEQUALITIES",
        "FACTOR_TOL",
        "PRODUCT_TOL",
        "InequalityCheck",
        "chamber_of",
        "change_of_variables",
        "check_factor_inequality",
        "eval_f",
        "eval_f_batch",
        "eval_p",
        "eval_q",
        "eval_q_batch",
    ),
    "evaluate",
) | dict.fromkeys(
    (
        "oracle",
        "IdentityReport",
        "InequalityReport",
        "MaxReport",
        "MonotonicityReport",
        "candidate_maximizers",
        "grid_max",
        "qmax_bound",
        "verify_bound",
        "verify_identities",
        "verify_inequalities",
        "verify_monotonicity",
    ),
    "oracle",
)

# the public names, lazy ones too, so that `from signschemes import *` binds
# them all (and so loads numpy)
__all__ = sorted({n for n in globals() if n[0] != "_"} - {"importlib"} | _LAZY.keys())


def __getattr__(name: str):
    """A name of evaluate or oracle, imported now and bound here for next time."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    if name not in globals():  # importing a submodule binds it already
        globals()[name] = getattr(module, name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_LAZY})
