import importlib

import numpy as np
import pytest

from ldplab import zvonkin
from ldplab.action import (ControlPath, action, ball_target, half_space_target,
                           minimize_rate, rate_via_transform, skeleton)
from ldplab.problems import load_problem, parse_problem_text
from ldplab.zvonkin import find_lambda0, theta, transform

action_module = importlib.import_module("ldplab.action")   # ``ldplab.action`` is also a function


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


def test_skeleton_refuses_control_on_another_horizon():
    """A control is priced on its own horizon, so it must be the system's."""
    problem = load_problem("brownian-1d")          # T = 1
    assert skeleton(problem, ControlPath(np.ones((4, 1)), 1.0), 64).states[-1, 0] == \
        pytest.approx(1.0)
    with pytest.raises(ValueError, match="control horizon 2.0"):
        skeleton(problem, ControlPath(np.ones((4, 1)), 2.0), 64)


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


def test_targets_project_to_nearest_point():
    ball = ball_target([2.0, 0.0], radius=0.5)
    assert np.allclose(ball.project(np.array([[4.0, 0.0], [2.1, 0.2]])),
                       [[2.5, 0.0], [2.1, 0.2]])
    assert np.allclose(ball_target([1.0]).project(np.array([[3.0]])), [[1.0]])
    half = half_space_target([1.0, 1.0], 2.0)
    assert np.allclose(half.project(np.array([[0.0, 0.0], [3.0, 0.0]])),
                       [[1.0, 1.0], [3.0, 0.0]])


def test_ball_negative_radius_raises():
    with pytest.raises(ValueError):
        ball_target([1.0], radius=-0.1)


@pytest.mark.parametrize("make, needle", [
    (lambda: ball_target([1.0], radius=float("nan")), "radius"),
    (lambda: ball_target([1.0], radius=float("inf")), "radius"),
    (lambda: ball_target([float("inf")]), "center"),
    (lambda: ball_target([0.0, float("nan")]), "center"),
    (lambda: half_space_target([1.0], float("inf")), "offset"),
    (lambda: half_space_target([1.0], float("nan")), "offset"),
    (lambda: half_space_target([0.0, 0.0], 1.0), "normal"),
    (lambda: half_space_target([float("nan")], 1.0), "normal"),
], ids=["nan-radius", "infinite-radius", "infinite-center", "nan-center",
        "infinite-offset", "nan-offset", "zero-normal", "nan-normal"])
def test_targets_refuse_invalid_parameters(make, needle):
    """A target whose parameters are not finite, or whose normal is zero, is
    refused when it is made, before its distance divides by zero."""
    with pytest.raises(ValueError, match=needle):
        make()


def test_minimize_free_endpoint_matches_quadratic():
    problem = load_problem("free-endpoint")
    res = minimize_rate(problem, ball_target([1.0]), n_intervals=16, restarts=3, seed=0)
    assert res.value == pytest.approx(0.5, rel=0.01)
    assert res.value >= 0.5 * (1 - 1e-3) ** 2 - 1e-6  # analytic lower bound
    assert res.converged
    assert ball_target([1.0]).distance(res.endpoint)[0] == pytest.approx(0.0, abs=1e-12)
    assert [sorted(r) for r in res.restarts] == [["nit", "objective", "status"]] * 3


def test_minimize_brute_force_two_interval_oracle():
    """Grid search over the one free point of the 2-interval midpoint-rule
    path cross-checks the optimizer."""
    problem = load_problem("ou-1d")
    res = minimize_rate(problem, ball_target([1.0]), n_intervals=2, restarts=3, seed=0)
    dt = 0.5
    best = np.inf
    for phi1 in np.linspace(-1, 2, 3001):
        # x' = -x + hdot: hdot_k = slope_k + midpoint_k on [0, phi1] and [phi1, 1]
        hdots = [phi1 / dt + phi1 / 2, (1.0 - phi1) / dt + (phi1 + 1.0) / 2]
        best = min(best, 0.5 * dt * sum(h ** 2 for h in hdots))
    assert res.value == pytest.approx(best, rel=0.02)


def test_minimize_noise_free_target_raises():
    problem = load_problem("hamiltonian-2d")
    with pytest.raises(ValueError, match="noise-free"):
        minimize_rate(problem, half_space_target([1.0], 0.5, coords=(0,)), n_intervals=4,
                      restarts=1)


def test_rate_via_transform_free_case(dini_problem, dini_map):
    direct = minimize_rate(dini_problem, ball_target([1.0]), n_intervals=16,
                           restarts=3, seed=0)
    through = rate_via_transform(dini_problem, dini_map, ball_target([1.0]),
                                 n_intervals=16, restarts=3, seed=0)
    assert through.value == pytest.approx(direct.value, rel=0.02)


def test_rate_via_transform_recorded_value(dini_problem, dini_map):
    """A small solve through theta, whose per-row 1 x 1 sigma is a division,
    reproduces the value recorded when it was LAPACK's per-row solve."""
    result = rate_via_transform(dini_problem, dini_map, ball_target([1.0]), n_intervals=8,
                                restarts=1, seed=0)
    assert result.value == pytest.approx(0.49991887501063026, rel=1e-12, abs=0.0)


def test_minimize_rate_refuses_a_zero_one_by_one_sigma():
    """A per-row 1 x 1 sigma that vanishes is refused as LAPACK's solve
    refuses it, instead of dividing by zero."""
    problem = parse_problem_text("""
[problem]
dims = 1
box_lo = -3.0
box_hi = 3.0

[drift]
limit = expr: -x1

[diffusion]
field = expr: 0 * x1
""")
    with pytest.raises(np.linalg.LinAlgError, match="Singular"):
        minimize_rate(problem, ball_target([1.0]), n_intervals=4, restarts=1)


def test_action_invariant_under_transform_pairing():
    """The same control drives both systems, so its action is literally shared."""
    c = ControlPath(hdot=np.array([[0.3], [-0.2]]), horizon_T=1.0)
    assert action(c) == action(c)


@pytest.fixture(scope="module")
def hamiltonian_map():
    problem = load_problem("hamiltonian-2d")
    return problem, find_lambda0(problem, resolution=257).map


def test_rate_via_transform_degenerate(hamiltonian_map):
    problem, zmap = hamiltonian_map
    target = half_space_target([1.0], 0.5, coords=(1,))
    direct = minimize_rate(problem, target, n_intervals=16, restarts=2, seed=0)
    through = rate_via_transform(problem, zmap, target, n_intervals=16, restarts=2, seed=0)
    assert through.converged
    assert through.value == pytest.approx(direct.value, rel=0.02)


def test_transformed_degenerate_solve_inverts_theta_twice(hamiltonian_map, monkeypatch):
    """Each objective of the transformed degenerate solve pulls its y-paths
    back through theta^-1 once for Heun's rule and once for the midpoint
    coefficients, and so does the final evaluation of the best path."""
    problem, zmap = hamiltonian_map
    calls, objectives = [], []
    inverse, minimize = zvonkin.theta_inv, action_module.minimize

    def counting_inverse(*args, **kwargs):
        calls.append(1)
        return inverse(*args, **kwargs)

    def counting_minimize(fun, *args, **kwargs):
        def counted(u):
            objectives.append(1)
            return fun(u)
        return minimize(counted, *args, **kwargs)

    monkeypatch.setattr(zvonkin, "theta_inv", counting_inverse)
    monkeypatch.setattr(action_module, "minimize", counting_minimize)
    target = half_space_target([1.0], 0.5, coords=(1,))
    rate_via_transform(problem, zmap, target, n_intervals=4, restarts=1, seed=0)
    assert len(objectives) > 0
    assert len(calls) == 2 * (len(objectives) + 1)


@pytest.mark.parametrize("name, target, value", [
    ("hamiltonian-2d", half_space_target([1.0], 0.5, coords=(1,)), 0.1373923706583577),
    ("ou-1d", ball_target([1.0]), 1.1560459491256778),
])
def test_minimize_rate_recorded_values(name, target, value):
    """Small direct solves, degenerate and not, reproduce recorded values."""
    result = minimize_rate(load_problem(name), target, n_intervals=8, restarts=1, seed=0)
    assert result.value == pytest.approx(value, rel=1e-12, abs=0.0)


def test_skeleton_degenerate_transformed_conjugate(hamiltonian_map):
    """The same controls drive (X, Y) and the transformed (X, theta(Y)) skeletons."""
    problem, zmap = hamiltonian_map
    rng = np.random.Generator(np.random.Philox(key=0))
    control = ControlPath(hdot=0.5 * rng.standard_normal((5, 8, 1)), horizon_T=1.0)
    mapped = skeleton(problem, control, 256).states
    mapped[..., 1:] = theta(zmap, mapped[..., 1:].reshape(-1, 1)).reshape(5, 257, 1)
    through = skeleton(transform(problem, zmap), control, 256).states
    assert through.shape == (5, 257, 2)
    assert np.max(np.linalg.norm(mapped - through, axis=-1)) <= 1e-3
