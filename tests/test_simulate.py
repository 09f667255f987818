import os
import subprocess
import sys
import threading
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import ldplab
from ldplab import ldp, simulate, zvonkin
from ldplab.action import half_space_target
from ldplab.expr import EvaluationError
from ldplab.ldp import estimate_probability, terminal_event
from ldplab.model import VectorField
from ldplab.problems import load_problem, parse_problem_text
from ldplab.simulate import (EscapeError, NoiseStream, apply_noise, brownian_increments,
                             coarsen_increments, conjugacy_check, dynamics, euler,
                             simulate_degenerate, simulate_original, simulate_transformed,
                             simulate_transformed_degenerate)
from ldplab.zvonkin import find_lambda0, transform


def test_increments_reproducible_and_independent():
    a = brownian_increments(7, range(1), 100, 2, 0.01)[0]
    b = brownian_increments(7, range(1), 100, 2, 0.01)[0]
    c = brownian_increments(7, range(1, 2), 100, 2, 0.01)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (100, 2)


def test_noise_stream_pinned_values():
    """Literal increments of two keys: block 0 of (seed 2024, point 0), and
    the first block of the highest point, at paths from 2**40 - 256.  NumPy
    keeps a bit generator's stream under NEP 19 but may change how normals
    are drawn from it; such a change fails here, as one pin, instead of
    moving every gate a little."""
    low = brownian_increments(2024, range(3), 4, 1, 1.0)[..., 0]
    assert low.tolist() == [
        [0.03674125380393216, -1.1269285725725888, 0.602270349273236, -1.256717488186232],
        [-0.588885431018047, -1.361972986071515, -0.029562730937737296, 0.5433482415016126],
        [-1.361403659119672, -1.2548567312163488, -0.29197674883423036, 0.012159701303430423]]
    high = brownian_increments(2024, range(2 ** 40 - 256, 2 ** 40 - 254), 2, 2, 1.0,
                               point=2 ** 32 - 1)
    assert high.tolist() == [
        [[0.4231833057806826, 0.5292297022914905], [-0.44346663147158816, 2.5875650012512206]],
        [[1.2786711437425062, 0.07087234566512685], [2.2271371727036353, 1.1448001699031307]]]


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
    draw, across blocks, for ranges that start and end inside a block and
    for a single path, and the stream yields the same values slice by
    slice.  Paths that are not a range of consecutive indices are refused."""
    seed, point, n_steps, dt = 2024, 2, 70, 1.0 / 70
    rows = (0, 1, 255, 256, 511, 512, 599)
    expected = {i: _block_rows(seed, point, i, n_steps, dim, dt) for i in rows}
    batch = brownian_increments(seed, range(600), n_steps, dim, dt, point=point)
    assert batch.shape == (600, n_steps, dim)
    for i in rows:
        assert np.array_equal(batch[i], expected[i])
    for paths in (range(255, 257), range(1, 513), range(599, 600), range(0)):
        batch = brownian_increments(seed, paths, n_steps, dim, dt, point=point)
        assert batch.shape == (len(paths), n_steps, dim)
        for row, i in zip(batch, paths):
            if i in expected:
                assert np.array_equal(row, expected[i])
    stream = NoiseStream(seed, range(255, 257), n_steps, dim, dt, point=point)
    parts = [part.copy() for part in stream]
    assert [len(part) for part in parts[:-1]] == ([simulate._NOISE_SLICE // dim]
                                                  * (len(parts) - 1))
    assert np.array_equal(np.concatenate(parts), np.stack([expected[255], expected[256]], axis=1))
    assert stream.draw_s > 0
    for paths in ([0, 1], np.arange(2), range(0, 4, 2)):
        for draw in (brownian_increments, NoiseStream):
            with pytest.raises(TypeError, match="range of consecutive indices"):
                draw(seed, paths, n_steps, dim, dt)


def _cpus(monkeypatch, n):
    """Make the process look as if it may run on ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _threads_while_streaming(stream):
    """The slices of ``stream`` (copied) and the largest thread count seen
    while they were read."""
    parts, most = [], 0
    for part in stream:
        parts.append(part.copy())
        most = max(most, threading.active_count())
    return np.concatenate(parts), most


def test_both_sides_of_the_drawing_selection_give_the_same_bits(monkeypatch):
    """A stream of three blocks gives the same bytes drawn inline on one CPU
    and one slice ahead on two worker threads, for a range of whole blocks
    and one that starts and ends inside a block, also with the threads
    switched every microsecond; on one CPU it starts no thread."""
    seed, point, n_steps, dt = 2024, 2, 70, 1.0 / 70
    before = threading.active_count()
    interval = sys.getswitchinterval()
    try:
        for paths, switch in ((range(600), interval), (range(100, 700), interval),
                              (range(600), 1e-6)):
            sys.setswitchinterval(switch)
            _cpus(monkeypatch, 1)
            inline, most_inline = _threads_while_streaming(
                NoiseStream(seed, paths, n_steps, 1, dt, point=point))
            _cpus(monkeypatch, 2)
            ahead, most_ahead = _threads_while_streaming(
                NoiseStream(seed, paths, n_steps, 1, dt, point=point))
            assert most_inline == before and most_ahead == before + 2
            assert inline.tobytes() == ahead.tobytes()
            for row, i in ((0, paths[0]), (1, paths[1]), (-1, paths[-1])):
                assert np.array_equal(ahead[:, row], _block_rows(seed, point, i, n_steps, 1, dt))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


def test_drawing_selection_without_an_affinity_set(monkeypatch):
    """Where the platform has no CPU affinity set (macOS, Windows), the
    selection counts all CPUs, and both sides give the same bytes."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    seed, point, n_steps, dt = 5, 1, 40, 1.0 / 40
    before = threading.active_count()
    drawn = {}
    for n in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: n)
        drawn[n], most = _threads_while_streaming(NoiseStream(seed, range(600), n_steps, 1, dt,
                                                              point=point))
        assert most == before + (n - 1) * 2
    assert drawn[1].tobytes() == drawn[2].tobytes()
    assert threading.active_count() == before


def test_a_drawing_thread_error_is_raised_in_the_caller(monkeypatch):
    """An error in a drawing thread is raised where the slice is awaited,
    and both threads are joined."""
    _cpus(monkeypatch, 2)
    draw_slice = simulate._draw_slice
    main = threading.main_thread()

    def failing(draws, buf, part, sqrt_dt):
        if threading.current_thread() is not main and failing.calls == 3:
            raise MemoryError("no room for the slice")
        failing.calls += 1
        return draw_slice(draws, buf, part, sqrt_dt)

    failing.calls = 0
    monkeypatch.setattr(simulate, "_draw_slice", failing)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="no room"):
        for _ in NoiseStream(0, range(600), 64, 1, 1.0 / 64):
            pass
    assert threading.active_count() == before


def test_no_drawing_thread_outlives_an_iteration(monkeypatch, tmp_path):
    """A stream closed after its first slice, a ladder point whose paths all
    leave the box within a few steps (the stepper stops early and the point
    raises) and a stepper whose field raises leave no thread behind, and the
    slices they yielded are the fresh block draws."""
    _cpus(monkeypatch, 2)
    seed, n_steps, dt = 7, 64, 1.0 / 64
    expected = np.stack([_block_rows(seed, 0, i, n_steps, 1, dt) for i in range(600)], axis=1)
    before = threading.active_count()
    stream = iter(NoiseStream(seed, range(600), n_steps, 1, dt))
    first = next(stream).copy()
    assert threading.active_count() == before + 2
    stream.close()
    assert threading.active_count() == before
    assert first.tobytes() == expected[:len(first)].tobytes()

    narrow = tmp_path / "narrow.ini"
    narrow.write_text((files("ldplab") / "problems" / "brownian-1d.ini").read_text()
                      .replace("box_lo = -6.0", "box_lo = -0.05")
                      .replace("box_hi = 6.0", "box_hi = 0.05"))
    problem = load_problem(str(narrow))
    seen, most = [], [0]

    class Recording(NoiseStream):
        def __iter__(self):
            for part in super().__iter__():
                seen.append(part.copy())
                most[0] = max(most[0], threading.active_count())
                yield part

    monkeypatch.setattr(ldp, "NoiseStream", Recording)
    event = terminal_event(half_space_target([1.0], 0.0))
    with pytest.raises(RuntimeError, match="all paths escaped"):
        estimate_probability(problem, event, 1.0, 600, n_steps, seed)
    assert threading.active_count() == before and most[0] == before + 2
    drawn = np.concatenate(seen)
    assert len(drawn) < n_steps
    assert drawn.tobytes() == expected[:len(drawn)].tobytes()

    calls = []

    def failing(z):
        calls.append(1)
        if len(calls) > 20:
            raise ZeroDivisionError("field failed")
        return dyn.coefficients(z)

    dyn = dynamics(load_problem("brownian-1d"), 1.0)
    # ``info`` holds the traceback, and with it euler's frame
    with pytest.raises(ZeroDivisionError) as info:
        euler(dyn._replace(coefficients=failing), NoiseStream(seed, range(600), n_steps, 1, dt))
    assert str(info.value) == "field failed" and threading.active_count() == before


def test_import_and_a_one_block_stream_start_no_thread():
    code = ("import threading, ldplab\n"
            "from ldplab.simulate import NoiseStream\n"
            "n = threading.active_count()\n"
            "seen = {threading.active_count() for _ in NoiseStream(0, range(256), 64, 1, 0.01)}\n"
            "print(n, sorted(seen))")
    env = {**os.environ, "PYTHONPATH": str(Path(ldplab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["1", "[1]"]


def test_increments_keyed_exactly_above_2_63():
    """Both key words above 2**63 (seed 2**64 - 1 and ladder point >= 2**31)
    are used with all 64 bits, up to the largest key words."""
    seed, point, n_steps, dt = 2 ** 64 - 1, 2 ** 31 + 5, 32, 1.0 / 32
    assert point * 2 ** 32 >= 2 ** 63
    batch = brownian_increments(seed, range(300), n_steps, 1, dt, point=point)
    for i in (0, 255, 256, 299):
        assert np.array_equal(batch[i], _block_rows(seed, point, i, n_steps, 1, dt))
    last = 2 ** 40 - 1
    row, = brownian_increments(seed, range(last, last + 1), n_steps, 1, dt, point=2 ** 32 - 1)
    assert np.array_equal(row, _block_rows(seed, 2 ** 32 - 1, last, n_steps, 1, dt))


@pytest.mark.parametrize("seed, paths", [(-1, range(1)), (2 ** 64, range(1)), (0, range(-1, 0)),
                                         (0, range(2 ** 64, 2 ** 64 + 1)), (0, range(-1, 3)),
                                         (0, range(2 ** 40 - 1, 2 ** 40 + 1))])
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
            draw(0, range(1), 4, 1, 0.25, point=point)


def test_increments_variance():
    dt = 0.25
    inc = brownian_increments(0, range(1), 20000, 1, dt)[0]
    assert np.var(inc) == pytest.approx(dt, rel=0.05)


def test_coarsen_preserves_total():
    inc = brownian_increments(3, range(1), 64, 1, 0.01)[0]
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
    increments = brownian_increments(4, range(1), 128, 1, problem.horizon_T / 128)[0]
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
    quiet_bound = np.max(np.abs(path.states[:, 1]))  # quiet drift(x, y) = y
    assert np.max(dx) <= quiet_bound * dt + 1e-12


def _one_path_increments(problem, n_steps, seed):
    dt = problem.horizon_T / n_steps
    return brownian_increments(seed, range(1), n_steps, problem.noisy_dim, dt)


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


def _reference_euler(problem, dyn, increments):
    """The batched step written out from the problem's fields: the quiet
    drift (if any) beside the noisy block's drift sum, ``z + drift * dt``,
    ``sqrt_eps * apply_noise(sigma, dw)`` and ``np.where``."""
    eps, q = dyn.eps, dyn.n_quiet
    b2 = problem.singular_drift.func if problem.singular_drift and eps != 0.0 else None
    quiet = [] if problem.quiet_drift is None else [problem.quiet_drift.at(eps).func]

    def drift_of(z):
        vy = problem.drift.at(eps).func(z)
        if b2 is not None:
            vy = vy + eps * b2(z[:, q:])
        return np.concatenate([f(z) for f in quiet] + [vy], axis=1)

    B, n_steps = increments.shape[:2]
    dt, sqrt_eps = dyn.horizon / n_steps, np.sqrt(eps)
    z = np.tile(dyn.x0, (B, 1))
    alive = np.ones(B, dtype=bool)
    path = np.empty((B, n_steps + 1, z.shape[1]))
    path[:, 0] = z
    for k in range(n_steps):
        if not alive.any():
            path[:, k + 1:] = z[:, None, :]
            break
        _, sigma = dyn.coefficients(z)
        step = z + drift_of(z) * dt
        if eps != 0.0:
            step[:, q:] += sqrt_eps * apply_noise(sigma, increments[:, k])
        alive &= dyn.box.contains(step)
        z = np.where(alive[:, None], step, z)
        path[:, k + 1] = z
    return z, alive, path


def _watch_fields(problem, calls):
    """Wrap every field of ``problem`` so that each call records its output
    and checks that the field left its input batch as it was."""
    fields = [problem.diffusion, problem.singular_drift, problem.drift.limit,
              problem.quiet_drift and problem.quiet_drift.limit]
    for field in [f for f in fields if f is not None]:
        def watched(x, func=field.func):
            before = x.tobytes()
            out = func(x)
            assert x.tobytes() == before
            if not np.shares_memory(out, x):
                calls.append((out, out.copy()))
            return out
        field.func = watched


@pytest.mark.parametrize("name", ["brownian-1d", "dini-tanhlog-1d", "hamiltonian-2d",
                                  "plane-tanh_iso", "plane-scaled"])
@pytest.mark.parametrize("source", ["array", "stream"])
def test_euler_equals_composed_step(tmp_path, name, source):
    """The stepper's step equals the one written out bit for bit, on a
    narrowed box where some rows escape, driven by an array or by a stream
    over a range of paths that starts and ends inside a block; it leaves x0,
    the increments and every array a field returned unchanged."""
    if name == "plane-scaled":
        problem = parse_problem_text(_PLANE.format("identity_matrix(scale=3.0)"))
    elif name == "plane-tanh_iso":
        problem = parse_problem_text(_PLANE.format("tanh_iso").replace("3.0", "1.5"))
    else:
        narrow = tmp_path / "narrow.ini"
        narrow.write_text((files("ldplab") / "problems" / f"{name}.ini").read_text()
                          .replace("box_lo = -6.0", "box_lo = -1.5")
                          .replace("box_hi = 6.0", "box_hi = 1.5"))
        problem = load_problem(str(narrow))
    paths = range(240, 530)                         # sliced, whole and sliced blocks
    n_steps, seed, point = 50, 11, 3
    dt = problem.horizon_T / n_steps
    inc = brownian_increments(seed, paths, n_steps, problem.noisy_dim, dt, point=point)
    for i in (240, 255, 256, 511, 512, 529):
        assert np.array_equal(inc[i - paths.start],
                              _block_rows(seed, point, i, n_steps, problem.noisy_dim, dt))
    inc_bytes = inc.tobytes()
    calls = []
    _watch_fields(problem, calls)
    dyn = dynamics(problem, 1.0)
    x0 = dyn.x0.copy()
    noise = inc if source == "array" else NoiseStream(seed, paths, n_steps,
                                                      problem.noisy_dim, dt, point=point)
    z, alive, path = euler(dyn, noise, keep_path=True)
    z_only, alive_only, _ = euler(dyn, noise)
    assert inc.tobytes() == inc_bytes and dyn.x0.tobytes() == x0.tobytes()
    assert calls and all(out.tobytes() == kept.tobytes() for out, kept in calls)
    z_ref, alive_ref, path_ref = _reference_euler(problem, dyn, inc)
    assert 0 < np.sum(~alive) < len(paths)
    assert alive.tobytes() == alive_ref.tobytes() == alive_only.tobytes()
    assert z.tobytes() == z_ref.tobytes() == z_only.tobytes()
    assert path.tobytes() == path_ref.tobytes()
