import logging
import tracemalloc
import warnings
from dataclasses import replace
from importlib.resources import files
from time import perf_counter

import numpy as np
import pytest
from scipy.stats import norm

from ldplab import ldp
from ldplab.action import ball_target, half_space_target
from ldplab.ldp import (bound_check, estimate_probability, fit_slope, ldp_experiment,
                        terminal_event, wilson_interval)
from ldplab.problems import load_problem
from ldplab.simulate import NoiseStream, brownian_increments, dynamics, euler
from ldplab.verify import gaussian_reference_slope
from ldplab.zvonkin import SolveFailure


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


def test_estimate_reproducible_across_chunking(monkeypatch):
    problem = load_problem("brownian-1d")
    event = terminal_event(half_space_target([1.0], 0.5))
    monkeypatch.setattr(ldp, "_CHUNK", 100)
    a = estimate_probability(problem, event, 0.5, 1000, 32, seed=3)
    monkeypatch.setattr(ldp, "_CHUNK", 1000)
    b = estimate_probability(problem, event, 0.5, 1000, 32, seed=3)
    assert a.hits == b.hits


def test_streamed_point_equals_euler_over_increments(tmp_path, monkeypatch):
    """A ladder point streamed in chunks of 300 paths (not a multiple of the
    256-path key block) has the hits, escapes and final states of ``euler``
    over the collected ``brownian_increments`` of all its paths, bit for bit."""
    narrow = tmp_path / "narrow.ini"
    narrow.write_text((files("ldplab") / "problems" / "brownian-1d.ini").read_text()
                      .replace("box_lo = -6.0", "box_lo = -1.5")
                      .replace("box_hi = 6.0", "box_hi = 1.5"))
    problem = load_problem(str(narrow))
    event = terminal_event(half_space_target([1.0], 0.5))
    n_paths, n_steps, seed, point, chunk = 1000, 40, 6, 3, 300
    dt = problem.horizon_T / n_steps
    monkeypatch.setattr(ldp, "_CHUNK", chunk)
    pt = estimate_probability(problem, event, 1.0, n_paths, n_steps, seed, point_index=point)
    dyn = dynamics(problem, 1.0)
    z, alive, _ = euler(dyn, brownian_increments(seed, range(n_paths), n_steps, 1, dt,
                                                 point=point))
    assert 0 < pt.escapes == np.sum(~alive)
    assert pt.hits == np.sum((event.target.distance(z) <= 0.0) & alive)
    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        zs, alive_s, _ = euler(dyn, NoiseStream(seed, range(lo, hi), n_steps, 1, dt, point=point))
        assert zs.tobytes() == z[lo:hi].tobytes()
        assert np.array_equal(alive_s, alive[lo:hi])


def test_ladder_points_logged_at_debug_only(caplog):
    """Each ladder point makes one DEBUG record on ``ldplab.ldp`` with its
    counts and times; at the default level nothing is recorded."""
    problem = load_problem("brownian-1d")
    event = terminal_event(half_space_target([1.0], 0.5))
    ladder = (1.0, 0.5, 0.25)
    ldp_experiment(problem, event, ladder, 400, 16, seed=3)
    assert not [r for r in caplog.records if r.name == "ldplab.ldp"]
    caplog.set_level(logging.DEBUG, logger="ldplab.ldp")
    est = ldp_experiment(problem, event, ladder, 400, 16, seed=3)
    records = [r for r in caplog.records if r.name == "ldplab.ldp"]
    assert len(records) == len(ladder)
    for record, pt in zip(records, est.ladder):
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert f"eps={pt.eps!r}" in message and f"hits={pt.hits} " in message
        assert all(f" {key}=" in message for key in ("n_paths", "escapes", "noise_s", "step_s"))


def test_streamed_point_times_drawing_and_stepping(monkeypatch):
    """``noise_s`` is the drawing time and ``step_s`` the point's wall time
    less its waits for noise, so it lies within that wall time."""
    problem = load_problem("brownian-1d")
    event = terminal_event(half_space_target([1.0], 1.0))
    monkeypatch.setattr(ldp, "_CHUNK", 300)
    t0 = perf_counter()
    pt = estimate_probability(problem, event, 0.5, 1000, 64, seed=1)
    wall = perf_counter() - t0
    assert pt.noise_s > 0.0
    assert 0.0 < pt.step_s <= wall


def test_ladder_point_never_holds_its_increments():
    """One brownian-1d point of 32768 paths x 256 steps peaks below 8 MiB of
    traced allocations; its whole (32768, 256, 1) increment batch is 64 MiB."""
    problem = load_problem("brownian-1d")
    event = terminal_event(half_space_target([1.0], 1.0))
    tracemalloc.start()
    try:
        estimate_probability(problem, event, 0.125, 32768, 256, seed=2024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_estimate_leaves_event_unchanged():
    """A ladder point reads its event and problem and changes neither."""
    problem = replace(load_problem("dini-tanhlog-1d"), singular_drift=None)
    event = terminal_event(half_space_target([1.0], 1.0))
    before, fields = dict(vars(event)), dict(vars(problem))
    estimate_probability(problem, event, 0.5, 200, 16, seed=0)
    assert vars(event) == before
    assert all(getattr(problem, k) is v for k, v in fields.items())


def test_estimate_without_singular_steps_the_problem_without_it():
    """``with_singular=False`` gives, hit for hit, the ladder of the same
    problem with its singular drift removed, and leaves the caller's
    problem with its b2."""
    problem = load_problem("dini-tanhlog-1d")
    singular = problem.singular_drift
    event = terminal_event(half_space_target([1.0], 1.0))
    dropped = ldp_experiment(problem, event, (1.0, 0.5, 0.25), 2000, 32, seed=3,
                             with_singular=False)
    assert problem.singular_drift is singular is not None
    removed = ldp_experiment(replace(problem, singular_drift=None), event, (1.0, 0.5, 0.25),
                             2000, 32, seed=3)
    assert [(p.hits, p.escapes) for p in dropped.ladder] == \
        [(p.hits, p.escapes) for p in removed.ladder]


def test_fit_slope_exact_exponential():
    ladder = [(1.0, np.exp(-3.0), 10_000), (0.5, np.exp(-6.0), 10_000),
              (0.25, np.exp(-12.0), 10_000)]
    slope, stderr = fit_slope(ladder)
    assert slope == pytest.approx(-3.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-9)


def test_fit_slope_intercept_absorbs_prefactor():
    ladder = [(e, np.exp(-3.0 / e + 0.2), 10_000) for e in (1.0, 0.5, 0.25)]
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
    assert gaussian_reference_slope() == pytest.approx(slope, abs=1e-12)


def test_fit_slope_drops_degenerate_points():
    """The drop warning names the caller's line, here this file."""
    ladder = [(1.0, 0.3, 1000), (0.5, 0.1, 1000), (0.25, 0.02, 1000), (0.125, 0.0, 1000)]
    with pytest.warns(UserWarning, match="dropped 1 ladder point") as record:
        slope, _ = fit_slope(ladder)
    assert slope < 0
    assert [w.filename for w in record] == [__file__]


def test_ladder_warnings_name_the_callers_line(monkeypatch):
    """Both warnings of a ladder run name the line that ran it, not one
    inside ldplab: the drop warning of its slope fit, and the positive-slope
    warning (with the fit patched to return a positive slope)."""
    problem = load_problem("brownian-1d")
    event = terminal_event(half_space_target([1.0], 1.0))
    with pytest.warns(UserWarning, match="dropped 1 ladder point") as record:
        ldp_experiment(problem, event, (1.0, 0.5, 0.25, 0.125, 0.01), 2000, 16, seed=0)
    assert [w.filename for w in record] == [__file__]
    monkeypatch.setattr(ldp, "fit_slope", lambda ladder: (0.5, 0.1))
    with pytest.warns(UserWarning, match="fitted slope is positive") as record:
        ldp_experiment(problem, event, (1.0, 0.5, 0.25), 2000, 16, seed=0)
    assert [w.filename for w in record] == [__file__]


def test_fit_slope_with_too_few_usable_points_fails_without_warning():
    """No result is a ``SolveFailure``, raised before the drop warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolveFailure, match="at least 3 ladder points"):
            fit_slope([(1.0, 0.3, 1000), (0.5, 0.1, 1000), (0.25, 0.0, 1000)])
    assert caught == []


@pytest.mark.parametrize("eps", [-0.5, np.nan, 1.5])
def test_ladders_refuse_eps_outside_unit_interval(eps):
    """A point is refused where its dynamics are built, a ladder by its own
    rule: no sqrt warning, no 'all paths escaped', and no ladder above eps = 1."""
    problem = load_problem("brownian-1d")
    event = terminal_event(half_space_target([1.0], 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\]"):
            estimate_probability(problem, event, eps, 200, 16, seed=0)
        with pytest.raises(ValueError, match=r"distinct numbers in \(0, 1\]"):
            ldp_experiment(problem, event, (1.0, eps, 0.25), 200, 16, seed=0)


@pytest.mark.parametrize("ladder", [
    (0.5, 0.25), (0.5, 0.5, 0.5), (0.5, 0.25, 0.5), (1.0, 0.0, 0.25), (1.0, -0.5, 0.25),
    (1.5, 0.5, 0.25), (1.0, np.nan, 0.25),
], ids=["two-points", "one-eps-three-times", "repeated-eps", "zero-eps", "negative-eps",
        "eps-above-one", "nan-eps"])
def test_ldp_experiment_refuses_ladder_before_stepping(monkeypatch, ladder):
    calls = []
    monkeypatch.setattr(ldp, "estimate_probability", lambda *a, **k: calls.append(a))
    problem = load_problem("brownian-1d")
    event = terminal_event(half_space_target([1.0], 0.5))
    with pytest.raises(ValueError, match="at least 3 distinct numbers"):
        ldp_experiment(problem, event, ladder, 200, 16, seed=0)
    assert calls == []


def test_point_where_every_path_escapes_fails(tmp_path):
    narrow = tmp_path / "narrow.ini"
    narrow.write_text((files("ldplab") / "problems" / "brownian-1d.ini").read_text()
                      .replace("box_lo = -6.0", "box_lo = -0.01")
                      .replace("box_hi = 6.0", "box_hi = 0.01"))
    event = terminal_event(half_space_target([1.0], 0.0))
    with pytest.raises(SolveFailure, match="all paths escaped"):
        estimate_probability(load_problem(str(narrow)), event, 1.0, 100, 64, seed=0)


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
