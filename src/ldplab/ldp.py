"""Monte Carlo rare-event ladders, slope regression, and bound checks.

Paths are simulated in chunks by the batched stepper of ``simulate`` with
counter-based noise: the increments of path ``i`` at ladder point ``j``
depend only on (seed, j, i) (Philox keyed by (seed, j * 2**32 + i // 256)),
so estimates are byte-for-byte reproducible for any chunking, and runs with
and without the singular drift share their noise exactly.  A chunk's noise
is streamed into the stepper slice by slice and is never held whole; it is
drawn on two worker threads, one slice ahead of the stepper, which calls
the fields from the caller's thread only.
"""

from __future__ import annotations

import logging
import os
import sys
import warnings
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from .simulate import NoiseStream, dynamics, euler
from .zvonkin import SolveFailure

__all__ = [
    "EventSpec",
    "terminal_event",
    "LadderPoint",
    "LdpEstimate",
    "BoundReport",
    "wilson_interval",
    "estimate_probability",
    "fit_slope",
    "ldp_experiment",
    "bound_check",
]

_CHUNK = 32768                 # paths stepped together at one ladder point
_Z95 = 1.959963984540054       # two-sided 95% normal quantile of the Wilson interval

_log = logging.getLogger(__name__)
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _warn(message):
    """``warnings.warn`` at the caller's line, the first outside this package."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


# ---------------------------------------------------------------------------
# Events

@dataclass
class EventSpec:
    """A terminal event: the state at the horizon lies in ``target``."""

    target: object                 # Target with .distance


def terminal_event(target):
    return EventSpec(target=target)


# ---------------------------------------------------------------------------
# Results

@dataclass
class LadderPoint:
    eps: float
    n_paths: int
    hits: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    escapes: int = 0
    # time drawing increments, summed over the drawing threads (may exceed the wall time)
    noise_s: float = field(default=0.0, compare=False)
    # wall time stepping the paths: the point's wall time less its waits for noise
    step_s: float = field(default=0.0, compare=False)


@dataclass
class LdpEstimate:
    ladder: list
    slope: float
    slope_stderr: float

    def as_csv(self):
        lines = ["eps,n_paths,hits,p_hat,ci_lo,ci_hi,escapes"]
        for pt in self.ladder:
            lines.append(f"{pt.eps},{pt.n_paths},{pt.hits},{pt.p_hat:.10g},"
                         f"{pt.ci_lo:.10g},{pt.ci_hi:.10g},{pt.escapes}")
        return "\n".join(lines) + "\n"


@dataclass
class BoundReport:
    passed: bool
    side: str
    slope: float
    stderr: float
    rate: float
    margin: float


def wilson_interval(hits, n):
    """Wilson 95% score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    p, z = hits / n, _Z95
    denom = 1.0 + z ** 2 / n
    center = (p + z ** 2 / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z ** 2 / (4 * n ** 2)) / denom
    lo = 0.0 if hits == 0 else max(center - half, 0.0)
    hi = 1.0 if hits == n else min(center + half, 1.0)
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# Vectorized chunk simulation

def _chunk_increments(seed, point_index, path_lo, path_hi, n_steps, dim, dt):
    """Increments of paths path_lo..path_hi-1 at one ladder point, keyed by
    (seed, point_index, path index), as a ``NoiseStream``: drawn while the
    chunk is stepped."""
    return NoiseStream(seed, range(path_lo, path_hi), n_steps, dim, dt, point=point_index)


def _simulate_chunk(problem, event, eps, n_steps, increments):
    """Euler-Maruyama over one chunk driven by ``increments`` (an array or a
    ``NoiseStream``); returns (hit mask, escaped mask).

    Escaped paths are frozen at their last in-box state and excluded from the
    hit count by the caller.
    """
    z, alive, _ = euler(dynamics(problem, eps), increments)
    return event.target.distance(z) <= 0.0, ~alive


def estimate_probability(problem, event, eps, n_paths, n_steps, seed, point_index=0):
    """Monte Carlo event probability with Wilson 95% interval, escape count
    and the time spent drawing noise (the slice draws of each chunk's stream,
    summed over its drawing threads) and the wall time spent stepping paths
    (the rest, less the stepper's waits for a slice).  Each point is logged
    at DEBUG level to this module's logger.  All paths escaping is a ``SolveFailure``."""
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    dt = problem.horizon_T / n_steps
    hits = 0
    escapes = 0
    noise_s = step_s = 0.0
    for lo in range(0, n_paths, _CHUNK):
        hi = min(lo + _CHUNK, n_paths)
        t0 = perf_counter()
        noise = _chunk_increments(seed, point_index, lo, hi, n_steps, problem.noisy_dim, dt)
        hit_mask, esc_mask = _simulate_chunk(problem, event, eps, n_steps, noise)
        noise_s += noise.draw_s
        step_s += perf_counter() - t0 - noise.wait_s
        hits += int(np.sum(hit_mask & ~esc_mask))
        escapes += int(np.sum(esc_mask))
    _log.debug("ladder point eps=%r n_paths=%d hits=%d escapes=%d noise_s=%.4f step_s=%.4f",
               float(eps), n_paths, hits, escapes, noise_s, step_s)
    if escapes == n_paths:
        raise SolveFailure("all paths escaped the working box")
    p_hat = hits / n_paths
    lo_ci, hi_ci = wilson_interval(hits, n_paths)
    return LadderPoint(eps=float(eps), n_paths=n_paths, hits=hits, p_hat=p_hat,
                       ci_lo=lo_ci, ci_hi=hi_ci, escapes=escapes, noise_s=noise_s,
                       step_s=step_s)


# ---------------------------------------------------------------------------
# Slope fit

def fit_slope(ladder):
    """Weighted least squares of log p_hat against 1/eps with free intercept.

    An entry is a ``LadderPoint`` or an (eps, p_hat, n_paths) triple.
    Weights come from the delta-method variance of log p_hat, (1-p)/(n p).
    Points with p_hat in {0, 1} are dropped with a warning; fewer than 3
    usable points raise ``SolveFailure``, before any warning.
    Returns (slope, stderr) where stderr scales the weighted covariance by
    the residual variance, so an exact affine ladder reports stderr 0.
    """
    pts = [(e.eps, e.p_hat, e.n_paths) if isinstance(e, LadderPoint) else e for e in ladder]
    usable = [(e, p, n) for e, p, n in pts if 0.0 < p < 1.0]
    if len(usable) < 3:
        raise SolveFailure("slope fit needs at least 3 ladder points with p_hat in (0,1)")
    dropped = len(pts) - len(usable)
    if dropped:
        _warn(f"dropped {dropped} ladder point(s) with p_hat in {{0, 1}}")
    x = np.array([1.0 / e for e, _, _ in usable])
    y = np.array([np.log(p) for _, p, _ in usable])
    w = np.array([n * p / (1.0 - p) for _, p, n in usable])
    X = np.column_stack([x, np.ones_like(x)])
    WX = X * w[:, None]
    cov = np.linalg.inv(X.T @ WX)
    beta = cov @ (WX.T @ y)
    resid = y - X @ beta
    dof = len(usable) - 2
    s2 = float(resid @ (w * resid)) / dof if dof > 0 else 0.0
    slope = float(beta[0])
    stderr = float(np.sqrt(max(s2, 0.0) * cov[0, 0]))
    return slope, stderr


def ldp_experiment(problem, event, eps_ladder, n_paths, n_steps, seed,
                   with_singular=True):
    """Ladder of probability estimates plus the fitted decay slope.

    ``with_singular=False`` steps a copy of ``problem`` without its vanishing
    term eps*b2.  Noise streams depend only on (seed, ladder position, path
    index), so a rerun with ``with_singular`` toggled reuses the identical
    Brownian paths.  ``ValueError``, before any point is stepped, for fewer
    than 3 entries, a repeated eps or an eps outside (0, 1].
    """
    if not (len(set(eps_ladder)) == len(eps_ladder) >= 3 and all(0 < e <= 1 for e in eps_ladder)):
        raise ValueError(f"eps ladder must list at least 3 distinct numbers in (0, 1], "
                         f"got {list(eps_ladder)}")
    if not with_singular:
        problem = replace(problem, singular_drift=None)
    ladder = [estimate_probability(problem, event, eps, n_paths, n_steps, seed, point_index=j)
              for j, eps in enumerate(eps_ladder)]
    slope, stderr = fit_slope(ladder)
    if slope > 0 and all(pt.p_hat < 1.0 for pt in ladder):
        _warn("fitted slope is positive while probabilities decay")
    return LdpEstimate(ladder=ladder, slope=slope, slope_stderr=stderr)


def bound_check(estimate, rate, side):
    """Compare the Monte Carlo slope with the minimized rate on one side.

    For closed-type events the decay can only be as slow as the rate allows
    (slope <= -value + margin); for open-type at least as fast is forbidden
    (slope >= -value - margin). margin = 2*stderr + 0.1*|value|.
    """
    if side not in ("upper_for_closed", "lower_for_open"):
        raise ValueError("side must be 'upper_for_closed' or 'lower_for_open'")
    if hasattr(rate, "converged") and not rate.converged:
        raise ValueError("rate result did not converge")
    value = rate.value if hasattr(rate, "value") else float(rate)
    slope, stderr = estimate.slope, estimate.slope_stderr
    margin = 2.0 * stderr + 0.1 * abs(value)
    if side == "upper_for_closed":
        passed = slope <= -value + margin
    else:
        passed = slope >= -value - margin
    return BoundReport(passed=bool(passed), side=side, slope=slope, stderr=stderr,
                       rate=float(value), margin=float(margin))
