from importlib.resources import files

import numpy as np
import pytest

from ldplab import zvonkin
from ldplab.expr import EvaluationError
from ldplab.model import VectorField
from ldplab.problems import load_problem, parse_problem_text
from ldplab.simulate import (EscapeError, NoiseStream, apply_noise, brownian_increments,
                             coarsen_increments, conjugacy_check, dynamics, euler,
                             simulate_degenerate, simulate_original, simulate_transformed,
                             simulate_transformed_degenerate)
from ldplab.zvonkin import find_lambda0, transform


def test_increments_reproducible_and_independent():
    a = brownian_increments(7, [0], 100, 2, 0.01)[0]
    b = brownian_increments(7, [0], 100, 2, 0.01)[0]
    c = brownian_increments(7, [1], 100, 2, 0.01)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (100, 2)


def _block_rows(seed, point, i, n_steps, dim, dt):
    """Path i's increments drawn afresh: the (n_steps, 256, dim) draw of the
    Philox stream keyed by (seed, point * 2**32 + i // 256), column i % 256.
    The key is a uint64 array: NumPy reads a list [s, w] with a word >= 2**63
    as float64, which rounds it and gives another stream."""
    key = np.array([seed, point * 2 ** 32 + i // 256], dtype=np.uint64)
    draw = np.random.Generator(np.random.Philox(key=key)).standard_normal((n_steps, 256, dim))
    return draw[:, i % 256] * np.sqrt(dt)


@pytest.mark.parametrize("dim", [1, 2])
def test_batched_increments_equal_per_path_streams(dim):
    """Each row of a batch is its path's column of a freshly keyed block
    draw, across blocks and for ranges, lists, index arrays and a single
    path, and the stream yields the same values slice by slice."""
    seed, point, n_steps, dt = 2024, 2, 70, 1.0 / 70
    rows = (0, 255, 256, 599)
    expected = {i: _block_rows(seed, point, i, n_steps, dim, dt) for i in rows}
    batch = brownian_increments(seed, range(600), n_steps, dim, dt, point=point)
    assert batch.shape == (600, n_steps, dim)
    for i in rows:
        assert np.array_equal(batch[i], expected[i])
    for paths in ([599, 0, 256, 255], np.array([0, 255, 256, 599]), range(255, 257), [599]):
        batch = brownian_increments(seed, paths, n_steps, dim, dt, point=point)
        assert batch.shape == (len(paths), n_steps, dim)
        for row, i in zip(batch, paths):
            assert np.array_equal(row, expected[i])
    stream = NoiseStream(seed, [599, 0], n_steps, dim, dt, point=point)
    parts = [part.copy() for part in stream]
    assert [len(part) for part in parts[:-1]] == [32 // dim] * (len(parts) - 1)
    assert np.array_equal(np.concatenate(parts), np.stack([expected[599], expected[0]], axis=1))
    assert stream.draw_s > 0


def test_increments_keyed_exactly_above_2_63():
    """Both key words above 2**63 (seed 2**64 - 1 and ladder point >= 2**31)
    are used with all 64 bits, up to the largest key words."""
    seed, point, n_steps, dt = 2 ** 64 - 1, 2 ** 31 + 5, 32, 1.0 / 32
    assert point * 2 ** 32 >= 2 ** 63
    batch = brownian_increments(seed, range(300), n_steps, 1, dt, point=point)
    for i in (0, 255, 256, 299):
        assert np.array_equal(batch[i], _block_rows(seed, point, i, n_steps, 1, dt))
    last = 2 ** 40 - 1
    row, = brownian_increments(seed, [last], n_steps, 1, dt, point=2 ** 32 - 1)
    assert np.array_equal(row, _block_rows(seed, 2 ** 32 - 1, last, n_steps, 1, dt))


@pytest.mark.parametrize("seed, paths", [(-1, [0]), (2 ** 64, [0]), (0, [-1]), (0, [2 ** 64]),
                                         (0, range(-1, 3)), (0, [2 ** 40])])
def test_increments_refuse_key_words_outside_uint64(seed, paths):
    """Seeds outside [0, 2**64) and path indices outside [0, 2**40) are
    refused by the collected batch and by the stream alike."""
    bound = 64 if not 0 <= seed < 2 ** 64 else 40
    for draw in (brownian_increments, NoiseStream):
        with pytest.raises(ValueError, match=rf"\[0, 2\*\*{bound}\)"):
            draw(seed, paths, 4, 1, 0.25)


@pytest.mark.parametrize("point", [-1, 2 ** 32])
def test_increments_refuse_ladder_points_outside_key_range(point):
    for draw in (brownian_increments, NoiseStream):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            draw(0, [0], 4, 1, 0.25, point=point)


def test_increments_variance():
    dt = 0.25
    inc = brownian_increments(0, [0], 20000, 1, dt)[0]
    assert np.var(inc) == pytest.approx(dt, rel=0.05)


def test_coarsen_preserves_total():
    inc = brownian_increments(3, [0], 64, 1, 0.01)[0]
    coarse = coarsen_increments(inc, 4)
    assert coarse.shape == (16, 1)
    assert np.allclose(coarse.sum(axis=0), inc.sum(axis=0))
    with pytest.raises(ValueError):
        coarsen_increments(inc, 7)


def test_simulate_deterministic_at_zero_noise():
    problem = load_problem("ou-1d")
    problem.start[:] = 1.0
    path = simulate_original(problem, 0.0, 200, seed=1)
    # noiseless Euler flow of x' = -x from 1
    expected = (1.0 - problem.horizon_T / 200) ** 200
    assert path.states[-1, 0] == pytest.approx(expected, rel=1e-12)
    problem.start[:] = 0.0


def test_simulate_reproducible():
    problem = load_problem("brownian-1d")
    p1 = simulate_original(problem, 0.5, 100, seed=9)
    p2 = simulate_original(problem, 0.5, 100, seed=9)
    assert np.array_equal(p1.states, p2.states)


def test_brownian_terminal_matches_increment_sum():
    problem = load_problem("brownian-1d")
    path = simulate_original(problem, 0.25, 128, seed=4)
    increments = brownian_increments(4, [0], 128, 1, problem.horizon_T / 128)[0]
    assert path.states[-1, 0] == pytest.approx(0.5 * increments.sum(), rel=1e-12)


def test_escape_raises():
    problem = load_problem("brownian-1d")
    inc = np.full((10, 1), 5.0)  # deterministic huge jumps
    with pytest.raises(EscapeError):
        simulate_original(problem, 1.0, 10, seed=0, increments=inc)


def test_degenerate_x_block_noise_free():
    problem = load_problem("hamiltonian-2d")
    path = simulate_degenerate(problem, 0.25, 200, seed=11)
    dt = problem.horizon_T / 200
    dx = np.abs(np.diff(path.states[:, 0]))
    bbar_bound = np.max(np.abs(path.states[:, 1]))  # bbar(x, y) = y
    assert np.max(dx) <= bbar_bound * dt + 1e-12


def _one_path_increments(problem, n_steps, seed):
    dt = problem.horizon_T / n_steps
    return brownian_increments(seed, [0], n_steps, problem.noisy_dim, dt)


def test_conjugacy_eps_zero_is_integrator_mismatch(dini_problem, dini_map):
    inc = _one_path_increments(dini_problem, 400, seed=0)
    disc, = conjugacy_check(dini_problem, dini_map, 0.0, inc)
    assert disc <= 1e-4


def test_conjugacy_moderate_eps(dini_problem, dini_map):
    inc = _one_path_increments(dini_problem, 400, seed=0)
    disc, = conjugacy_check(dini_problem, dini_map, 0.5, inc)
    assert disc <= 0.05


@pytest.fixture(scope="module")
def hamiltonian_map():
    problem = load_problem("hamiltonian-2d")
    return problem, find_lambda0(problem, resolution=257).map


def test_conjugacy_degenerate(hamiltonian_map):
    """X and the transformed (X, theta(Y)) system on shared noise, degenerate layout."""
    problem, zmap = hamiltonian_map
    inc = _one_path_increments(problem, 400, seed=0)
    assert conjugacy_check(problem, zmap, 0.0, inc)[0] <= 1e-4
    assert conjugacy_check(problem, zmap, 0.5, inc)[0] <= 0.05


@pytest.mark.parametrize("system", ["original", "degenerate", "transformed",
                                    "transformed_degenerate"])
def test_batch_rows_equal_single_paths(system, dini_problem, dini_map, hamiltonian_map):
    """Eight paths stepped as one batch equal eight single-path calls."""
    hamiltonian, hamiltonian_zmap = hamiltonian_map
    source, single = {
        "original": (dini_problem, simulate_original),
        "degenerate": (hamiltonian, simulate_degenerate),
        "transformed": (transform(dini_problem, dini_map), simulate_transformed),
        "transformed_degenerate": (transform(hamiltonian, hamiltonian_zmap),
                                   simulate_transformed_degenerate),
    }[system]
    n_steps = 200
    inc = brownian_increments(5, range(8), n_steps, 1, 1.0 / n_steps)
    _, alive, paths = euler(dynamics(source, 0.5), inc, keep_path=True)
    assert alive.all()
    for i in range(8):
        states = single(source, 0.5, n_steps, seed=5, path_index=i).states
        if system.startswith("transformed"):
            # theta^-1 iterates until the worst row of its batch converges
            np.testing.assert_allclose(paths[i], states, rtol=0, atol=1e-12)
        else:
            assert np.array_equal(paths[i], states)


def test_transformed_path_reproducible(dini_problem, dini_map):
    tsde = transform(dini_problem, dini_map)
    p1 = simulate_transformed(tsde, 0.5, 100, seed=2)
    p2 = simulate_transformed(tsde, 0.5, 100, seed=2)
    assert np.array_equal(p1.states, p2.states)


@pytest.mark.parametrize("name", ["dini-tanhlog-1d", "hamiltonian-2d"])
def test_transformed_step_inverts_theta_once(name, dini_problem, dini_map, hamiltonian_map,
                                             monkeypatch):
    """Drift and noise map of a transformed step share one theta^-1 solve."""
    problem, zmap = (dini_problem, dini_map) if name == "dini-tanhlog-1d" else hamiltonian_map
    tsde = transform(problem, zmap)
    calls = []
    inverse = zvonkin.theta_inv

    def counting(*args, **kwargs):
        calls.append(1)
        return inverse(*args, **kwargs)

    monkeypatch.setattr(zvonkin, "theta_inv", counting)
    inc = brownian_increments(3, range(4), 50, 1, 1.0 / 50)
    _, alive, _ = euler(dynamics(tsde, 0.5), inc)
    assert alive.all()
    assert len(calls) == 50


def test_batch_freezes_escaped_rows(tmp_path):
    """Escaped rows of a batch stop where the single-path wrapper reports the
    escape; surviving rows end where the single path ends."""
    narrow = tmp_path / "narrow.ini"
    narrow.write_text((files("ldplab") / "problems" / "brownian-1d.ini").read_text()
                      .replace("box_lo = -6.0", "box_lo = -1.5")
                      .replace("box_hi = 6.0", "box_hi = 1.5"))
    problem = load_problem(str(narrow))
    n_paths, n_steps, seed = 16, 32, 3
    inc = brownian_increments(seed, range(n_paths), n_steps, 1, problem.horizon_T / n_steps)
    z, alive, _ = euler(dynamics(problem, 1.0), inc)
    assert 0 < np.sum(~alive) < n_paths
    for i in range(n_paths):
        if alive[i]:
            path = simulate_original(problem, 1.0, n_steps, seed, path_index=i)
            assert np.array_equal(z[i], path.states[-1])
        else:
            with pytest.raises(EscapeError) as info:
                simulate_original(problem, 1.0, n_steps, seed, path_index=i)
            assert np.array_equal(z[i], info.value.state)


_PLANE = """
[problem]
dims = 2
box_lo = -3.0
box_hi = 3.0

[drift]
limit = expr: -x1 + 0.5 * tanh(x2); 0.3 * sin(x1)

[diffusion]
field = registry: {}
"""


@pytest.mark.parametrize("name", ["ou-1d", "hamiltonian-2d", "plane", "plane-scaled",
                                  "brownian-1d", "dini-tanhlog-1d", "free-endpoint",
                                  "holder-1d"])
def test_constant_noise_map_equals_per_step_einsum(name):
    """A sigma declared constant is applied as one matrix, bit for bit the
    per-row (B, m, m) batch and einsum it replaces."""
    if name.startswith("plane"):
        sigma = "identity_matrix(scale=3.0)" if name == "plane-scaled" else "identity_matrix"
        problem = parse_problem_text(_PLANE.format(sigma))
    else:
        problem = load_problem(name)
    dyn = dynamics(problem, 0.5)
    q = dyn.n_quiet

    def per_row(z):
        drift, sigma = dyn.coefficients(z)
        assert sigma.shape == (problem.noisy_dim,) * 2
        return drift, problem.diffusion(z[:, q:])

    inc = brownian_increments(7, range(64), 100, problem.noisy_dim, 1.0 / 100)
    _, alive, path = euler(dyn, inc, keep_path=True)
    _, alive_ref, path_ref = euler(dyn._replace(coefficients=per_row), inc, keep_path=True)
    assert np.array_equal(alive, alive_ref)
    assert path.tobytes() == path_ref.tobytes()
    if name == "plane-scaled":
        assert 0 < np.sum(~alive) < len(alive)


@pytest.mark.parametrize("sigma", [np.eye(1), 3.0 * np.eye(1), 0.3 * np.eye(1),
                                   np.array([[1.0, 0.2], [0.0, 1.0]])])
def test_apply_noise_equals_matrix_product(sigma, rng):
    """A 1 x 1 sigma skips the matrix product and still returns it exactly."""
    v = rng.standard_normal((257, len(sigma)))
    out = apply_noise(sigma, v)
    assert out.shape == v.shape
    assert out.tobytes() == np.dot(v, sigma.T).tobytes()


def test_non_finite_drift_marks_row_escaped():
    """The stepper calls fields raw: a drift that turns non-finite makes the
    step non-finite, and the box test marks that row escaped, frozen at its
    last state.  The public field call still refuses non-finite output."""
    problem = load_problem("brownian-1d")
    blowup = VectorField(in_dim=1, out_dim=1, name="blowup",
                         func=lambda x: np.where(x > 0.5, np.inf, 0.0))
    problem.drift.limit = blowup
    inc = np.full((2, 20, 1), 0.05)
    inc[1] *= -1.0
    z, alive, path = euler(dynamics(problem, 1.0), inc, keep_path=True)
    assert alive.tolist() == [False, True]
    assert 0.5 < z[0, 0] < 0.6 and np.all(np.isfinite(path))
    with pytest.raises(EvaluationError):
        blowup(np.array([[1.0]]))
