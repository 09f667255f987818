"""Euler-Maruyama simulation of the original, transformed, and degenerate
systems, with shared-noise coupling for conjugacy and refinement checks.

One batched stepper serves every system: ``dynamics`` builds the start
point, coefficients (drift and noise map) and box test of a system once, and
``euler`` steps a (B, dim) batch of paths through them.  The single-path ``simulate_*``
functions, ``conjugacy_check`` and the Monte Carlo ladders all use it.

Noise is counter-based and keyed by blocks of ``_NOISE_BLOCK`` paths: the
normals of block i // 256 come from one Philox stream keyed by
(seed, point * 2**32 + i // 256) in time-major (n_steps, 256, dim) order,
and path i's row is column i % 256 of that draw.  A row is therefore a pure
function of (seed, ladder point, path index), whatever the range of paths
it is drawn in; increments can be block-summed to couple
refinements of the time grid.  ``NoiseStream`` draws a batch slice by slice,
so that the stepper can consume it without holding it whole, and draws a
batch of several blocks on two worker threads, one slice ahead of the
stepper, with the same values; ``brownian_increments`` collects the same
slices into one array.
"""

from __future__ import annotations

import os
import threading
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from queue import SimpleQueue
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from .model import Box, SdeProblem

__all__ = [
    "PathSample",
    "EscapeError",
    "Dynamics",
    "NoiseStream",
    "apply_noise",
    "brownian_increments",
    "coarsen_increments",
    "dynamics",
    "euler",
    "simulate_original",
    "simulate_transformed",
    "simulate_degenerate",
    "simulate_transformed_degenerate",
    "conjugacy_check",
]


_NOISE_BLOCK = 256            # paths keyed together: one Philox stream per block
_NOISE_SLICE = 8              # steps per slice at noise dim 1: a block's buffer is 16 KiB,
                              # a 32768-path slice 2 MiB


class EscapeError(RuntimeError):
    def __init__(self, state):
        super().__init__(f"path left the box or turned non-finite; last state inside: {state}")
        self.state = state


@dataclass
class PathSample:
    times: np.ndarray
    states: np.ndarray            # (n_steps + 1, dim)
    seed: int
    epsilon: float
    dt: float


class NoiseStream:
    """Increments dW_k ~ N(0, dt I) of the paths in ``paths`` (a range of
    consecutive path indices, else ``TypeError``) at ladder point ``point``,
    drawn as they are read: the (len(paths), n_steps, dim) batch of
    ``brownian_increments``, without holding it whole.

    Iterating yields the batch in time-major slices (s, len(paths), dim) of
    ``_NOISE_SLICE // dim`` steps (at least one), in order; a slice is valid
    until the next one is requested.  Every block of paths keeps its own
    generator, keyed exactly from a uint64 array (seed, point * 2**32 +
    block), and draws each slice into a reused buffer of at most 16 KiB (for
    dim <= 8), so a block drawn in slices gives the values of one whole
    (n_steps, 256, dim) draw; sqrt(dt) is applied as its columns are copied
    into the slice.

    A stream of two or more blocks, in a process that may run on two or
    more CPUs, is drawn one slice ahead on two worker threads, each over one
    contiguous half of the blocks, into the other of two slice buffers
    while the caller reads the current one.  Both threads start with the
    iteration and are joined when it ends or is closed.  A generator is
    used by one thread, in slice order, so the values are those of the
    inline draw, which a one-block stream or a single CPU uses.  Each
    iteration starts the streams afresh.  ``draw_s`` sums the time spent
    drawing (over both workers, so it may exceed the wall time); ``wait_s``
    is the caller's time blocked on a slice (the whole drawing time when
    drawn inline).

    The key words must lie in range, else ``ValueError``: seed in
    [0, 2**64), point in [0, 2**32) and path indices in [0, 2**40).
    """

    def __init__(self, seed, paths, n_steps, dim, dt, point=0):
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        if not 0 <= point < 2 ** 32:
            raise ValueError(f"ladder point must lie in [0, 2**32), got {point}")
        if not (isinstance(paths, range) and paths.step == 1):
            raise TypeError(f"paths must be a range of consecutive indices, got {paths!r}")
        if paths and not (paths[0] >= 0 and paths[-1] < 2 ** 40):
            bad = paths[0] if paths[0] < 0 else paths[-1]
            raise ValueError(f"path indices must lie in [0, 2**40), got {bad}")
        self.paths = paths
        self.seed, self.point = int(seed), int(point)
        self.shape = (len(self.paths), n_steps, dim)
        self.dt = dt
        self.draw_s = 0.0
        self.wait_s = 0.0

    def __iter__(self):
        n, n_steps, dim = self.shape
        lo, hi = self.paths.start, self.paths.start + n
        blocks = range(lo // _NOISE_BLOCK, (hi - 1) // _NOISE_BLOCK + 1) if n else ()
        draws = []                # (generator, rows of the batch, columns of the block)
        for block in blocks:
            first = block * _NOISE_BLOCK
            start, stop = max(lo, first), min(hi, first + _NOISE_BLOCK)
            key = np.array([self.seed, (self.point << 32) + block], dtype=np.uint64)
            draws.append((np.random.Generator(np.random.Philox(key=key)),
                          slice(start - lo, stop - lo), slice(start - first, stop - first)))
        steps = max(1, min(n_steps, _NOISE_SLICE // dim))
        sizes = [min(steps, n_steps - k) for k in range(0, n_steps, steps)]
        if sizes and len(draws) > 1 and _cpu_count() > 1:
            return self._drawn_ahead(draws, steps, sizes)
        return self._drawn_inline(draws, steps, sizes)

    def _drawn_inline(self, draws, steps, sizes):
        n, _, dim = self.shape
        buf = np.empty((steps, _NOISE_BLOCK, dim))
        out = np.empty((steps, n, dim))
        sqrt_dt = np.sqrt(self.dt)
        for s in sizes:
            elapsed = _draw_slice(draws, buf, out[:s], sqrt_dt)
            self.draw_s += elapsed
            self.wait_s += elapsed
            yield out[:s]

    def _drawn_ahead(self, draws, steps, sizes):
        n, _, dim = self.shape
        outs = [np.empty((steps, n, dim)) for _ in range(2)]
        sqrt_dt = np.sqrt(self.dt)
        done = SimpleQueue()      # each worker's seconds per slice, or its error
        workers = []              # (thread, its queue of slices to draw)
        try:
            # both threads start here: an executor would start its second one
            # only if the first were still busy, which depends on scheduling;
            # daemons, so that a stream left suspended cannot hold up the exit
            for half in draws[:len(draws) // 2], draws[len(draws) // 2:]:
                todo = SimpleQueue()
                buf = np.empty((steps, _NOISE_BLOCK, dim))
                thread = threading.Thread(target=_draw_slices, daemon=True,
                                          args=(half, buf, sqrt_dt, todo, done))
                thread.start()
                workers.append((thread, todo))

            def submit(i):
                part = outs[i % 2][:sizes[i]]
                for _, todo in workers:
                    todo.put(part)
                return part

            part = submit(0)
            for i in range(len(sizes)):
                t0 = perf_counter()
                for _ in workers:
                    elapsed = done.get()
                    if isinstance(elapsed, BaseException):
                        raise elapsed
                    self.draw_s += elapsed
                self.wait_s += perf_counter() - t0
                current = part
                if i + 1 < len(sizes):
                    part = submit(i + 1)
                yield current
        finally:
            for _, todo in workers:
                todo.put(None)
            for thread, _ in workers:
                thread.join()


def _cpu_count():
    """The number of CPUs this process may run on: its affinity set where
    the platform has one (not macOS or Windows), else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw_slices(draws, buf, sqrt_dt, todo, done):
    """A drawing thread: draw into each slice taken from ``todo``, until
    None, and put the seconds it took, or the error it raised, on ``done``."""
    while (part := todo.get()) is not None:   # iter(todo.get, None) would compare arrays
        try:
            done.put(_draw_slice(draws, buf, part, sqrt_dt))
        except BaseException as err:  # raised again in the caller's thread
            done.put(err)


def _draw_slice(draws, buf, part, sqrt_dt):
    """Draw the next len(part) steps of each (generator, rows, columns) in
    ``draws`` through ``buf`` and write them, times sqrt_dt, into the rows
    of ``part``; returns the seconds it took."""
    t0 = perf_counter()
    buf = buf[:len(part)]
    for gen, rows, cols in draws:
        gen.standard_normal(out=buf)
        np.multiply(buf[:, cols], sqrt_dt, out=part[:, rows])
    return perf_counter() - t0


def brownian_increments(seed, paths, n_steps, dim, dt, point=0):
    """Increments dW_k ~ N(0, dt I) of the paths in ``paths`` (a range of
    consecutive path indices) at ladder point ``point``, as a
    (len(paths), n_steps, dim) batch: the slices of ``NoiseStream``
    collected, with its keying, its ``TypeError`` for other ``paths`` and its
    ``ValueError`` for key words out of range.  The batch is a view of
    time-major storage, so that the stepper reads the increments of one
    step, ``batch[:, k]``, from contiguous memory.
    """
    stream = NoiseStream(seed, paths, n_steps, dim, dt, point)
    out = np.empty((n_steps, len(stream.paths), dim))
    k = 0
    for part in stream:
        out[k:k + len(part)] = part
        k += len(part)
    return out.transpose(1, 0, 2)


def coarsen_increments(increments, factor):
    """Block-sum fine increments (..., n_steps, dim) to a grid coarser by an
    integer factor."""
    *batch, n, dim = increments.shape
    if n % factor:
        raise ValueError("n_steps must be divisible by the coarsening factor")
    return increments.reshape(*batch, n // factor, factor, dim).sum(axis=-2)


class Dynamics(NamedTuple):
    """One system at one eps, as callables on (B, dim) batches of states.

    The noise enters the trailing ``dim - n_quiet`` coordinates only:
    ``coefficients(z)`` returns the drift (B, dim) and the noise map, which
    is scaled by sqrt(eps).  The noise map is a (B, noise_dim, noise_dim)
    batch, or, for a constant sigma, the one (noise_dim, noise_dim) matrix;
    ``apply_noise`` applies either to a batch of vectors.  The noise-free
    block's drift is also given on its own, ``quiet_drift``, over states
    whose noisy part is in original coordinates.  ``to_original`` takes a
    noisy state there and ``from_original`` back (theta^{-1} and theta for a
    transformed system, the identity otherwise).
    """

    x0: np.ndarray
    coefficients: Callable        # (B, dim) -> ((B, dim), (B, m, m) or (m, m))
    box: Box                      # the box paths must stay in
    n_quiet: int                  # leading noise-free coordinates (d1, or 0)
    eps: float
    horizon: float
    to_original: Callable         # (B, m) noisy states -> (B, m) in original coordinates
    from_original: Callable       # (B, m) noisy states in original coordinates -> (B, m)
    quiet_drift: Callable | None  # (B, dim) states (x, original y) -> (B, n_quiet); None if 0


def apply_noise(sigma, v):
    """sigma v for a (B, m) batch ``v``: sigma is a (B, m, m) batch of noise
    maps, or one constant (m, m) matrix shared by every row.  A constant
    1 x 1 sigma is a scalar product, exactly the matrix product."""
    if sigma.ndim == 3:
        return np.einsum("nij,nj->ni", sigma, v)
    if len(sigma) == 1:
        return sigma[0, 0] * v
    return np.dot(v, sigma.T)         # for small m much faster than ``v @ sigma.T``


def dynamics(system, eps):
    """The ``Dynamics`` of an SdeProblem or a TransformedSde, with or without a
    noise-free block.

    An SdeProblem lives on its working box.  Its fields are called raw
    (``VectorField.func``), without the public call's shape and finiteness
    checks: a non-finite drift makes a non-finite step, which the box test
    marks as escaped.  A sigma declared constant (``lipschitz_const == 0``)
    is evaluated once, at the start.  A TransformedSde lives on theta's
    interior box (its noise-free block, if any, on the working box) and
    starts from theta of its base problem's start.  ``ValueError`` unless
    0 <= eps <= 1.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if isinstance(system, SdeProblem):
        return _original_dynamics(system, eps)
    return _transformed_dynamics(system, eps)


def _original_dynamics(problem, eps):
    singular = problem.singular_drift if eps != 0.0 else None
    b2 = None if singular is None else singular.func
    q = problem.n_quiet
    x0 = problem.start.astype(float)
    sigma = problem.diffusion.func
    if problem.diffusion.lipschitz_const == 0.0:
        constant = problem.diffusion(x0[q:])

        def sigma(y):
            return constant

    b1 = problem.drift.at(eps).func
    quiet_drift = problem.quiet_drift.at(eps).func if q else None

    def coefficients(z):
        y = z[:, q:]
        out = b1(z)
        if b2 is not None:
            out = out + eps * b2(y)
        return (np.concatenate([quiet_drift(z), out], axis=1) if q else out), sigma(y)

    return Dynamics(x0, coefficients, problem.working_box, q, eps, problem.horizon_T,
                    _identity, _identity, quiet_drift)


def _identity(y):
    return y


def _transformed_dynamics(tsde, eps):
    from .zvonkin import theta, theta_inv     # looked up per call, so a patch is seen

    base, zmap, q = tsde.base, tsde.map, tsde.n_quiet
    ibox = zmap.interior_box()
    box = Box(lo=np.concatenate([base.working_box.lo[:q], ibox.lo]),
              hi=np.concatenate([base.working_box.hi[:q], ibox.hi]))
    start = tsde.start
    x0 = np.concatenate([start[:q], theta(zmap, start[q:])]).astype(float)
    return Dynamics(x0, tsde.coefficients(eps), box, q, eps, base.horizon_T,
                    partial(theta_inv, zmap), partial(theta, zmap),
                    base.quiet_drift.at(eps) if q else None)


def euler(dyn, increments, keep_path=False):
    """Explicit Euler-Maruyama for a batch of paths driven by ``increments``.

    ``increments`` is the (B, n_steps, noise_dim) batch of dW: an array, or a
    ``NoiseStream``, whose slices are drawn as the steps read them, so that
    the batch is never held whole.  dt = horizon / n_steps, and
    the noise sqrt(eps) sigma dW is added only when eps != 0, as one matrix
    product for a constant sigma and one batched product otherwise.  Every
    row is stepped, and a row that leaves the box is marked dead and frozen
    from then on at its last state inside the box; as the box is finite,
    this also catches a state that turns NaN or infinite.  Returns (final states
    (B, dim), alive mask (B,), path), where path is (B, n_steps + 1, dim) if
    ``keep_path`` and None otherwise.
    """
    B, n_steps = increments.shape[:2]
    slices = increments if isinstance(increments, NoiseStream) else [increments.transpose(1, 0, 2)]
    dt = dyn.horizon / n_steps
    sqrt_eps = np.sqrt(dyn.eps)
    q = dyn.n_quiet
    z = np.tile(dyn.x0, (B, 1))
    alive = np.ones(B, dtype=bool)
    path = np.empty((B, n_steps + 1, z.shape[1])) if keep_path else None
    if keep_path:
        path[:, 0] = z
    dws = (dw for part in slices for dw in part)
    # closed on the way out, even by an error, which ends a stream's drawing threads
    with closing(dws):
        for k, dw in enumerate(dws):
            if not alive.any():
                if keep_path:
                    path[:, k + 1:] = z[:, None, :]
                break
            drift, sigma = dyn.coefficients(z)
            step = z + drift * dt
            if dyn.eps != 0.0:
                step[:, q:] += sqrt_eps * apply_noise(sigma, dw)
            alive &= dyn.box.contains(step)
            # step is a new array: while no row has escaped it is taken whole,
            # which saves np.where's copy (about 8% of mc-ladder's wall_ref)
            z = step if alive.all() else np.where(alive[:, None], step, z)
            if keep_path:
                path[:, k + 1] = z
    return z, alive, path


def _single_path(system, eps, n_steps, seed, path_index, increments):
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    dyn = dynamics(system, eps)
    dt = dyn.horizon / n_steps
    if increments is None:
        noise_dim = dyn.x0.size - dyn.n_quiet
        batch = brownian_increments(seed, range(path_index, path_index + 1), n_steps,
                                    noise_dim, dt)
    else:
        batch = increments[None]
    _, alive, path = euler(dyn, batch, keep_path=True)
    if not alive[0]:
        raise EscapeError(path[0, -1])
    return PathSample(times=np.arange(n_steps + 1) * dt, states=path[0], seed=seed,
                      epsilon=eps, dt=dt)


def simulate_original(problem, eps, n_steps, seed, path_index=0, increments=None):
    """dX = (b1^eps + eps*b2) dt + sqrt(eps) sigma dW on the working box."""
    return _single_path(problem, eps, n_steps, seed, path_index, increments)


def simulate_transformed(tsde, eps, n_steps, seed, path_index=0, increments=None):
    """Transformed system started from theta(x0); same noise conventions."""
    return _single_path(tsde, eps, n_steps, seed, path_index, increments)


def simulate_degenerate(problem, eps, n_steps, seed, path_index=0, increments=None):
    """dX = f^eps dt (no noise); dY = (b1^eps + eps*b2) dt + sqrt(eps) sigma dW."""
    if not problem.n_quiet:
        raise ValueError("problem is not in the degenerate layout")
    return _single_path(problem, eps, n_steps, seed, path_index, increments)


def simulate_transformed_degenerate(tsde, eps, n_steps, seed, path_index=0,
                                    increments=None):
    """Degenerate transformed system: X unchanged, Y carried through theta."""
    return _single_path(tsde, eps, n_steps, seed, path_index, increments)


def conjugacy_check(problem, zmap, eps, increments):
    """sup_k |theta(X_k) - Y_k| of each path, for X and Y driven by the same
    increments (B, n_steps, noise_dim); returns a (B,) array.

    The discrepancy is pure discretization error and must shrink as dt -> 0.
    """
    from .zvonkin import theta, transform

    paths = []
    for system in (problem, transform(problem, zmap)):
        _, alive, path = euler(dynamics(system, eps), increments, keep_path=True)
        if not alive.all():
            raise EscapeError(path[np.argmin(alive), -1])
        paths.append(path)
    x, y = paths
    q = problem.n_quiet
    noisy = x[..., q:]
    x[..., q:] = theta(zmap, noisy.reshape(-1, noisy.shape[-1])).reshape(noisy.shape)
    return np.max(np.linalg.norm(x - y, axis=-1), axis=1)
