import numpy as np
import pytest
from scipy.stats import norm

from ldplab.action import ball_target, half_space_target
from ldplab.ldp import (EventSpec, bound_check, estimate_probability,
                        fit_slope, ldp_experiment, terminal_event, wilson_interval)
from ldplab.problems import load_problem
from ldplab.verify import gaussian_reference_slope


def test_wilson_interval_contains_point_estimate():
    lo, hi = wilson_interval(30, 100)
    assert lo <= 0.3 <= hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    lo1, hi1 = wilson_interval(100, 100)
    assert hi1 == 1.0 and lo1 < 1.0


def test_wilson_coverage():
    """>= 93 of 100 synthetic Bernoulli replications must cover the true p."""
    p, n = 0.07, 400
    rng = np.random.Generator(np.random.Philox(key=99))
    covered = 0
    for _ in range(100):
        hits = rng.binomial(n, p)
        lo, hi = wilson_interval(hits, n)
        covered += lo <= p <= hi
    assert covered >= 93


def test_event_spec_validation():
    with pytest.raises(ValueError):
        EventSpec(target=ball_target([0.0]), open_or_closed="maybe")


def test_estimate_whole_space_and_empty():
    problem = load_problem("brownian-1d")
    everything = terminal_event(ball_target([0.0], radius=100.0))
    pt = estimate_probability(problem, everything, 0.5, 200, 32, seed=0)
    assert pt.p_hat == 1.0 and pt.ci_hi == 1.0
    nothing = terminal_event(ball_target([50.0], radius=0.1))
    pt0 = estimate_probability(problem, nothing, 0.5, 200, 32, seed=0)
    assert pt0.p_hat == 0.0


def test_estimate_matches_gaussian_law():
    problem = load_problem("brownian-1d")
    event = terminal_event(half_space_target([1.0], 1.0))
    eps = 0.25
    pt = estimate_probability(problem, event, eps, 100_000, 64, seed=5)
    true_p = norm.cdf(-1.0 / np.sqrt(eps))
    assert pt.ci_lo <= true_p <= pt.ci_hi
    assert pt.escapes == 0


def test_estimate_reproducible_across_chunking():
    problem = load_problem("brownian-1d")
    event = terminal_event(half_space_target([1.0], 0.5))
    a = estimate_probability(problem, event, 0.5, 1000, 32, seed=3, chunk=100)
    b = estimate_probability(problem, event, 0.5, 1000, 32, seed=3, chunk=1000)
    assert a.hits == b.hits


def test_estimate_leaves_event_unchanged():
    problem = load_problem("dini-tanhlog-1d")
    event = terminal_event(half_space_target([1.0], 1.0))
    before = dict(vars(event))
    estimate_probability(problem, event, 0.5, 200, 16, seed=0, with_singular=False)
    assert vars(event) == before


def test_fit_slope_exact_exponential():
    ladder = [(1.0, np.exp(-3.0)), (0.5, np.exp(-6.0)), (0.25, np.exp(-12.0))]
    slope, stderr = fit_slope(ladder)
    assert slope == pytest.approx(-3.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-9)


def test_fit_slope_intercept_absorbs_prefactor():
    ladder = [(e, np.exp(-3.0 / e + 0.2)) for e in (1.0, 0.5, 0.25)]
    slope, _ = fit_slope(ladder)
    assert slope == pytest.approx(-3.0, abs=1e-12)


def test_fit_slope_gaussian_ladder_bias():
    """The Mills-ratio prefactor biases the affine fit steeper than -1/2.

    With exact Gaussian tail values and delta-method weights the fitted slope
    sits near -0.60; the bias is a property of the finite ladder, not noise.
    """
    n = 100_000
    ladder = [(e, float(norm.cdf(-1.0 / np.sqrt(e))), n)
              for e in (0.5, 0.25, 0.125, 0.0625)]
    slope, _ = fit_slope(ladder)
    assert -0.65 <= slope <= -0.55
    # criterion 7 compares its Monte Carlo slope with this same exact-law fit
    assert gaussian_reference_slope(n) == pytest.approx(slope, abs=1e-12)


def test_fit_slope_drops_degenerate_points():
    ladder = [(1.0, 0.3), (0.5, 0.1), (0.25, 0.02), (0.125, 0.0)]
    with pytest.warns(UserWarning):
        slope, _ = fit_slope(ladder)
    assert slope < 0
    with pytest.raises(ValueError):
        fit_slope([(1.0, 0.3), (0.5, 0.1), (0.25, 0.0)])


def test_ldp_experiment_shares_noise_across_toggle():
    problem = load_problem("brownian-1d")  # no singular drift: runs identical
    event = terminal_event(half_space_target([1.0], 0.5))
    a = ldp_experiment(problem, event, (1.0, 0.5, 0.25), 2000, 32, seed=8,
                       with_singular=True)
    b = ldp_experiment(problem, event, (1.0, 0.5, 0.25), 2000, 32, seed=8,
                       with_singular=False)
    assert [p.hits for p in a.ladder] == [p.hits for p in b.ladder]


def test_bound_check_sides():
    est_sn = type("E", (), {"slope": -3.0, "slope_stderr": 0.0})()
    rate = type("R", (), {"value": 3.0, "converged": True})()
    up = bound_check(est_sn, rate, "upper_for_closed")
    lo = bound_check(est_sn, rate, "lower_for_open")
    assert up.passed and lo.passed and up.margin == pytest.approx(0.3)
    wrong = type("R", (), {"value": 5.0, "converged": True})()
    est_g = type("E", (), {"slope": -0.5, "slope_stderr": 0.0})()
    assert not bound_check(est_g, wrong, "upper_for_closed").passed
    with pytest.raises(ValueError):
        bound_check(est_sn, rate, "sideways")
