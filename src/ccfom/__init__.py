"""First-order convex optimization with per-iteration convergence certificates.

The package pairs three classic methods (subgradient, gradient, accelerated
gradient) with a certificate engine: for every run it constructs the dual
running-average sequences (z_k, mu_k), evaluates the conjugate-based upper
bound they induce, and numerically verifies the complete inequality chain
behind the O(1/sqrt(k)), O(1/k), and O(1/k^2) convergence rates, iteration
by iteration.
"""

from .certificates import (
    Check,
    CheckTable,
    DualCertificate,
    build_certificate,
    lhs_series,
    mu_closed_form_residuals,
    verify_certificate,
    verify_run,
)
from .errors import CcfomError, ConfigError, OracleError
from .methods import (
    MethodTrace,
    StepSchedule,
    run_accelerated,
    run_gradient,
    run_subgradient,
    theta_sequence,
)
from .problems import (
    ProblemInstance,
    as_point,
    from_id,
    make_log_sum_exp,
    make_max_affine,
    make_quadratic,
    make_scaled_norm,
    random_max_affine,
)
from .proxprobe import (
    CompositeProblem,
    Regularizer,
    lasso_instance,
    lasso_suite,
    make_box,
    make_l1,
    make_zero,
    probe_instance,
    run_proximal_accelerated,
    soft_threshold,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"
