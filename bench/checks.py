"""Independent references and output checks for the benchmark.

Nothing here imports ldplab: every reference is computed from closed forms
(the Gaussian tail, pathwise drift bounds), from a re-implementation of the
weighted slope regression, or from a Pontryagin boundary-value solve with
``scipy.integrate``.  Each check returns ``(name, ok, detail)``; detail holds
plain numbers.

A statistical check may only fail on a correct program with negligible
probability, so the binomial tests run at ``ALPHA = 1e-6`` and the slope
check allows four standard errors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import bdtr, bdtrc, ndtr

ALPHA = 1e-6
RATE_RTOL = 0.01           # gate 5's tolerance against closed forms
COUPLING_MIN_RATIO = 1.15  # gate 4's per-halving discrepancy ratio
SLOPE_SIGMAS = 4.0

FREE_RATE = 0.5                                     # a^2 / (2T), a = T = 1
OU_RATE = 0.5 / ((1.0 - math.exp(-2.0)) / 2.0)      # 1.156518...
DINI_RATE = 0.5                                     # limit drift is zero


def gauss_tail(x):
    """P(N(0,1) >= x)."""
    return float(ndtr(-x))


def _p_at_most(hits, n, p):
    return float(bdtr(hits, n, p))


def _p_at_least(hits, n, p):
    return 1.0 if hits == 0 else float(bdtrc(hits - 1, n, p))


def binomial_consistent(hits, n, p):
    """Two-sided exact binomial test of ``hits`` out of ``n`` against ``p``."""
    return min(_p_at_most(hits, n, p), _p_at_least(hits, n, p)) >= ALPHA / 2


def binomial_within(hits, n, p_lo, p_hi):
    """False only if ``hits`` is implausibly low for ``p_lo`` or high for ``p_hi``."""
    return _p_at_most(hits, n, p_lo) >= ALPHA and _p_at_least(hits, n, p_hi) >= ALPHA


def weighted_slope(points):
    """Weighted least squares of log p against 1/eps with free intercept.

    ``points`` are (eps, p, n).  Points with p in {0, 1} are dropped.  The
    weights n p / (1 - p) are the inverse delta-method variances of log p.
    Returns (slope, stderr, delta_se, used): stderr scales the weighted
    covariance by the residual variance; delta_se is the unscaled binomial
    standard error; used lists the eps values that entered the fit.
    """
    pts = [(float(e), float(p), int(n)) for e, p, n in points if 0.0 < p < 1.0]
    if len(pts) < 3:
        raise ValueError("slope fit needs at least 3 points with p in (0, 1)")
    x = np.array([1.0 / e for e, _, _ in pts])
    y = np.log([p for _, p, _ in pts])
    w = np.array([n * p / (1.0 - p) for _, p, n in pts])
    sw, swx, swxx = w.sum(), (w * x).sum(), (w * x * x).sum()
    det = sw * swxx - swx ** 2
    slope = (sw * (w * x * y).sum() - swx * (w * y).sum()) / det
    intercept = ((w * y).sum() - slope * swx) / sw
    resid = y - slope * x - intercept
    dof = len(pts) - 2
    s2 = float((w * resid ** 2).sum()) / dof if dof > 0 else 0.0
    var_slope = sw / det
    return (float(slope), math.sqrt(max(s2, 0.0) * var_slope), math.sqrt(var_slope),
            [e for e, _, _ in pts])


def pontryagin_degenerate_rate(threshold=0.5, friction=0.1, horizon=1.0):
    """Rate of Y_T >= threshold for dY = -friction tanh(Y) dt + sqrt(eps) dW.

    Pontryagin: y' = -friction tanh y - p, p' = friction p sech^2 y with
    y(0) = 0, y(T) = threshold; the rate is (1/2) int p^2 dt.
    """
    from scipy.integrate import solve_bvp, trapezoid   # not imported by ldplab

    def rhs(t, s):
        y, p = s
        return np.vstack([-friction * np.tanh(y) - p, friction * p / np.cosh(y) ** 2])

    def bc(s0, s1):
        return np.array([s0[0], s1[0] - threshold])

    t = np.linspace(0.0, horizon, 101)
    guess = np.vstack([threshold * t / horizon, np.full_like(t, -threshold / horizon)])
    sol = solve_bvp(rhs, bc, t, guess, tol=1e-10, max_nodes=100_000)
    if not sol.success:
        raise RuntimeError(f"Pontryagin boundary-value solve failed: {sol.message}")
    fine = np.linspace(0.0, horizon, 20_001)
    return 0.5 * float(trapezoid(sol.sol(fine)[1] ** 2, fine))


# ---------------------------------------------------------------------------
# Checks on ladders: points are (eps, hits, n)

def check_gaussian_points(name, points):
    """Each p-hat against the exact law Phi(-1/sqrt(eps)) of sqrt(eps) W_1 >= 1."""
    bad = [e for e, h, n in points
           if not binomial_consistent(h, n, gauss_tail(1.0 / math.sqrt(e)))]
    return name, not bad, {"rejected_eps": bad}


def check_fit_reproduced(name, points, slope, stderr):
    """The reported slope and stderr equal the re-implemented regression."""
    mine, mine_se, _, _ = weighted_slope([(e, h / n, n) for e, h, n in points])
    ok = math.isclose(slope, mine, rel_tol=1e-9, abs_tol=1e-12) and \
        math.isclose(stderr, mine_se, rel_tol=1e-9, abs_tol=1e-12)
    return name, ok, {"slope": slope, "reimplemented": mine,
                      "stderr": stderr, "reimplemented_stderr": mine_se}


def check_gaussian_slope(name, points, slope, stderr):
    """Slope against the same regression on the exact law at the same points."""
    used = set(weighted_slope([(e, h / n, n) for e, h, n in points])[3])
    exact = [(e, gauss_tail(1.0 / math.sqrt(e)), n) for e, _, n in points if e in used]
    reference, _, delta_se, _ = weighted_slope(exact)
    allowed = SLOPE_SIGMAS * max(stderr, delta_se)
    return name, abs(slope - reference) <= allowed, \
        {"slope": slope, "reference": reference, "allowed": allowed}


def check_drift_bounds(name, points, drift_sup, level):
    """Pathwise comparison: if every Euler drift lies in [-drift_sup(eps),
    drift_sup(eps)] on a unit horizon with unit noise, then
    Phi(-(level + d)/sqrt(eps)) <= P(Z_T >= level) <= Phi(-(level - d)/sqrt(eps))."""
    bad = []
    for e, h, n in points:
        d, s = drift_sup(e), math.sqrt(e)
        if not binomial_within(h, n, gauss_tail((level + d) / s), gauss_tail((level - d) / s)):
            bad.append(e)
    return name, not bad, {"rejected_eps": bad}


def check_slopes_agree(name, slope_a, se_a, slope_b, se_b):
    """Gate 8's property: |a - b| <= 2 * hypot(se_a, se_b)."""
    allowed = 2.0 * math.hypot(se_a, se_b)
    return name, abs(slope_a - slope_b) <= allowed, \
        {"diff": abs(slope_a - slope_b), "allowed": allowed}


def check_coupling(name, discrepancies):
    """Gate 4's property: each dt-halving shrinks the discrepancy by >= 1.15."""
    d = [float(v) for v in discrepancies]
    ratios = [a / b if b > 0 else math.inf for a, b in zip(d, d[1:])]
    ok = len(d) == 4 and all(math.isfinite(v) and v > 0 for v in d) and \
        all(r >= COUPLING_MIN_RATIO for r in ratios)
    return name, ok, {"discrepancies": d, "ratios": ratios}


def check_rate(name, value, reference, rtol=RATE_RTOL):
    rel = abs(value - reference) / abs(reference)
    return name, rel <= rtol, {"value": value, "reference": reference, "rel_err": rel}
