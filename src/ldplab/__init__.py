"""Numerical laboratory for small-noise large deviations of SDEs whose
singular drift is tamed by a drift-removing change of variables."""

from .model import (
    Box,
    Modulus,
    DiniVerdict,
    dini_classify,
    VectorField,
    parse_field,
    DriftFamily,
    SdeProblem,
    probe_lipschitz,
    probe_ellipticity,
    probe_modulus,
    drift_family_limit_gap,
)
from .problems import FIELD_REGISTRY, build_field, list_problems, load_problem
from .zvonkin import (
    ZvonkinMap,
    TransformedSde,
    SolveFailure,
    solve_resolvent,
    find_lambda0,
    theta,
    theta_inv,
    transform,
)
from .simulate import (
    PathSample,
    EscapeError,
    brownian_increments,
    coarsen_increments,
    simulate_original,
    simulate_transformed,
    simulate_degenerate,
    conjugacy_check,
)
from .action import (
    ControlPath,
    SkeletonPath,
    RateResult,
    Target,
    ball_target,
    half_space_target,
    skeleton,
    action,
    minimize_rate,
    rate_via_transform,
)
from .ldp import (
    EventSpec,
    terminal_event,
    LadderPoint,
    LdpEstimate,
    wilson_interval,
    estimate_probability,
    fit_slope,
    ldp_experiment,
    bound_check,
)

__version__ = "0.1.0"
