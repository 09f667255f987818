"""The checks reject wrong outputs and accept right ones.

    python3 -m pytest -q bench/test_checks.py

No ldplab call is made: wrong outputs are built from closed forms (noise
scaled by eps instead of sqrt(eps), a doubled drift, a rate 2% off, a
discrepancy that does not shrink), right ones by drawing binomial hit
counts from the exact law.
"""

import math

import numpy as np
import pytest

import checks

N = 32768
LADDER = (0.5, 0.25, 0.125, 0.0625)
DEGEN = (1.0 / 36, 1.0 / 54, 1.0 / 72)


def law_ladder(p_of_eps, n=N, ladder=LADDER):
    """Expected (not rounded) hit counts under a law: a ladder with no sampling error."""
    return [(e, n * p_of_eps(e), n) for e in ladder]


def right_law(e):
    return checks.gauss_tail(1.0 / math.sqrt(e))


def eps_scaled_noise(e):           # eps W_1 >= 1 instead of sqrt(eps) W_1 >= 1
    return checks.gauss_tail(1.0 / e)


def fit(points):
    slope, stderr, _, _ = checks.weighted_slope([(e, h / n, n) for e, h, n in points])
    return slope, stderr


def drawn_ladders(p_of_eps, count, ladder=LADDER):
    rng = np.random.default_rng(7)
    for _ in range(count):
        yield [(e, int(rng.binomial(N, p_of_eps(e))), N) for e in ladder]


def test_gaussian_checks_accept_draws_from_the_exact_law():
    for pts in drawn_ladders(right_law, 300):
        assert checks.check_gaussian_points("g", pts)[1]
        if sum(h > 0 for _, h, _ in pts) >= 3:
            slope, stderr = fit(pts)
            assert checks.check_gaussian_slope("g", pts, slope, stderr)[1]


def test_gaussian_checks_reject_noise_scaled_by_eps():
    pts = [(e, round(h), n) for e, h, n in law_ladder(eps_scaled_noise)]
    assert not checks.check_gaussian_points("g", pts)[1]
    wrong = law_ladder(eps_scaled_noise)
    slope, stderr = fit(wrong)
    assert slope < -3.0
    assert not checks.check_gaussian_slope("g", wrong, slope, stderr)[1]


def test_fit_check_rejects_a_slope_that_is_not_the_regression():
    pts = law_ladder(right_law)
    slope, stderr = fit(pts)
    assert checks.check_fit_reproduced("f", pts, slope, stderr)[1]
    assert not checks.check_fit_reproduced("f", pts, slope * 1.001, stderr)[1]


def test_drift_bounds_accept_the_driftless_law_and_reject_a_doubled_drift():
    inside = law_ladder(right_law)
    assert checks.check_drift_bounds("d", [(e, round(h), n) for e, h, n in inside],
                                     lambda e: e, 1.0)[1]
    doubled = law_ladder(lambda e: checks.gauss_tail((1.0 - 2.0 * e) / math.sqrt(e)))
    assert not checks.check_drift_bounds("d", [(e, round(h), n) for e, h, n in doubled],
                                         lambda e: e, 1.0)[1]
    scaled = law_ladder(eps_scaled_noise)
    assert not checks.check_drift_bounds("d", [(e, round(h), n) for e, h, n in scaled],
                                         lambda e: e, 1.0)[1]


def test_degenerate_bounds_reject_excess_drift():
    def law(e):   # drift 0.1 + 2 eps pushing up: outside [-(0.1 + eps), 0.1 + eps]
        return checks.gauss_tail((0.5 - 0.1 - 2.0 * e) / math.sqrt(e))

    for pts in drawn_ladders(lambda e: checks.gauss_tail(0.5 / math.sqrt(e)), 50, DEGEN):
        assert checks.check_drift_bounds("h", pts, lambda e: 0.1 + e, 0.5)[1]
    pts = [(e, round(h), n) for e, h, n in law_ladder(law, ladder=DEGEN)]
    assert not checks.check_drift_bounds("h", pts, lambda e: 0.1 + e, 0.5)[1]


def test_slope_agreement():
    assert checks.check_slopes_agree("s", -0.60, 0.01, -0.61, 0.01)[1]
    assert not checks.check_slopes_agree("s", -0.60, 0.01, -0.70, 0.01)[1]


@pytest.mark.parametrize("reference", [checks.FREE_RATE, checks.OU_RATE, checks.DINI_RATE,
                                       checks.pontryagin_degenerate_rate()])
def test_rate_check_rejects_two_percent_off(reference):
    assert checks.check_rate("r", reference * 1.002, reference)[1]
    assert not checks.check_rate("r", reference * 1.02, reference)[1]
    assert not checks.check_rate("r", reference * 0.98, reference)[1]


def test_pontryagin_reference():
    assert checks.pontryagin_degenerate_rate(friction=0.0) == pytest.approx(0.125, rel=1e-9)
    assert checks.pontryagin_degenerate_rate() == pytest.approx(0.137390, abs=1e-6)


def test_coupling_check():
    assert checks.check_coupling("c", [5.62e-3, 4.22e-3, 3.39e-3, 1.92e-3])[1]
    assert not checks.check_coupling("c", [5e-3, 5e-3, 5e-3, 5e-3])[1]
    assert not checks.check_coupling("c", [4.80e-3, 3.72e-3, 3.57e-3, 2.14e-3])[1]
