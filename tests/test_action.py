import numpy as np
import pytest

from ldplab.action import (ControlPath, action, ball_target, half_space_target,
                           minimize_rate, predicate_target, rate_via_transform, skeleton)
from ldplab.problems import load_problem
from ldplab.zvonkin import find_lambda0, theta, transform


def test_action_of_constant_control():
    c = ControlPath(hdot=np.full((4, 1), 2.0), horizon_T=1.0)
    assert action(c) == pytest.approx(2.0)  # 0.5 * 4 * 1


def test_skeleton_constant_control_free_case():
    problem = load_problem("free-endpoint")
    c = ControlPath(hdot=np.full((8, 1), 1.0), horizon_T=1.0)
    path = skeleton(problem, c, 64)
    assert np.allclose(path.states[-1], 1.0, atol=1e-12)
    assert np.allclose(path.states[:, 0], path.times, atol=1e-12)


def test_skeleton_linear_drift_exact():
    problem = load_problem("ou-1d")
    c = ControlPath(hdot=np.zeros((4, 1)), horizon_T=1.0)
    problem.start[:] = 2.0
    path = skeleton(problem, c, 64)
    assert path.states[-1, 0] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-8)
    problem.start[:] = 0.0


def test_skeleton_requires_divisible_steps():
    problem = load_problem("free-endpoint")
    c = ControlPath(hdot=np.zeros((3, 1)), horizon_T=1.0)
    with pytest.raises(ValueError):
        skeleton(problem, c, 64)


def test_targets_signed_distance():
    ball = ball_target([2.0], radius=0.5)
    assert ball.distance(np.array([2.25]))[0] == pytest.approx(-0.25)
    half = half_space_target([1.0], 1.0)
    assert half.distance(np.array([0.0]))[0] == pytest.approx(1.0)
    assert half.distance(np.array([3.0]))[0] == pytest.approx(-2.0)
    pred = predicate_target(lambda x: abs(x[0]) - 1.0)
    assert pred.distance(np.array([0.5]))[0] == pytest.approx(-0.5)


def test_minimize_free_endpoint_matches_quadratic():
    problem = load_problem("free-endpoint")
    res = minimize_rate(problem, ball_target([1.0]), n_intervals=16, restarts=3, seed=0)
    assert res.value == pytest.approx(0.5, rel=0.01)
    assert res.value >= 0.5 * (1 - 1e-3) ** 2 - 1e-6  # analytic lower bound
    assert res.converged
    assert res.feasibility_residual <= 1e-2


def test_minimize_brute_force_two_interval_oracle():
    """Grid search over 2-interval controls cross-checks the optimizer."""
    problem = load_problem("ou-1d")
    res = minimize_rate(problem, ball_target([1.0]), n_intervals=2, restarts=3, seed=0)
    grid = np.linspace(-1, 4, 161)
    best = np.inf
    for h1 in grid:
        # endpoint of x' = -x + h over two half-intervals (exact linear flow)
        e = np.exp(-0.5)
        # x(1) = h1*(1-e)*e + h2*(1-e) = 1 -> solve for h2
        h2 = (1.0 - h1 * (1 - e) * e) / (1 - e)
        best = min(best, 0.25 * (h1 ** 2 + h2 ** 2))
    assert res.value == pytest.approx(best, rel=0.02)


def test_minimize_infeasible_target_raises():
    problem = load_problem("free-endpoint")
    # Empty target: distance is bounded away from zero for every endpoint.
    empty = predicate_target(lambda x: 1.0)
    with pytest.raises(RuntimeError):
        minimize_rate(problem, empty, n_intervals=8, restarts=2, seed=0,
                      penalty0=1e6, stages=1, maxiter=20)


def test_rate_via_transform_free_case(dini_problem, dini_map):
    direct = minimize_rate(dini_problem, ball_target([1.0]), n_intervals=16,
                           restarts=3, seed=0)
    through = rate_via_transform(dini_problem, dini_map, ball_target([1.0]),
                                 n_intervals=16, restarts=3, seed=0)
    assert through.value == pytest.approx(direct.value, rel=0.02)


def test_action_invariant_under_transform_pairing():
    """The same control drives both systems, so its action is literally shared."""
    c = ControlPath(hdot=np.array([[0.3], [-0.2]]), horizon_T=1.0)
    assert action(c) == action(c)


def test_skeleton_degenerate_transformed_conjugate():
    """The same controls drive (X, Y) and the transformed (X, theta(Y)) skeletons."""
    problem = load_problem("hamiltonian-2d")
    zmap = find_lambda0(problem, resolution=257).map
    tsde = transform(problem, zmap)
    rng = np.random.Generator(np.random.Philox(key=0))
    for _ in range(5):
        control = ControlPath(hdot=0.5 * rng.standard_normal((8, 1)), horizon_T=1.0)
        mapped = skeleton(problem, control, 256).states
        mapped[:, 1:] = theta(zmap, mapped[:, 1:])
        through = skeleton(problem, control, 256, tsde=tsde).states
        assert np.max(np.linalg.norm(mapped - through, axis=-1)) <= 1e-3
