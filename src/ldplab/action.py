"""Skeleton ODE integration and minimum-action evaluation of the rate function.

The rate of an endpoint target is found by the minimum action method (E, Ren
& Vanden-Eijnden, CPAM 57 (2004) 637).  The unknowns are the points
phi_1..phi_N of the noisy block's path on a uniform grid of step dt, and the
action is the midpoint rule

    sum_k (1/2) |sigma(m_k)^{-1} ((phi_{k+1} - phi_k)/dt - b(m_k))|^2 dt,
    m_k = (phi_k + phi_{k+1}) / 2,

one batched coefficient evaluation over the whole path.  The last unknown is
the endpoint in original coordinates: it is projected onto the target and,
for a transformed system, mapped by theta, so the target is met exactly.  A
noise-free block (the degenerate layout) follows by Heun's rule on its own
drift, over the y-path pulled back through theta^{-1} once per objective for a
transformed system.  A constant sigma is solved once for all rows, and a
per-row 1 x 1 sigma is a division that refuses a zero sigma as the solve does.
L-BFGS-B runs from the straight line to the target and from seeded
perturbations of it, with central-difference gradients batched over the
perturbed paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .simulate import apply_noise, dynamics
from .zvonkin import transform

__all__ = [
    "ControlPath",
    "SkeletonPath",
    "RateResult",
    "Target",
    "ball_target",
    "half_space_target",
    "skeleton",
    "action",
    "minimize_rate",
    "rate_via_transform",
]


# ---------------------------------------------------------------------------
# Controls and skeletons

@dataclass
class ControlPath:
    """Piecewise-constant control (n_intervals, control_dim) on [0, horizon_T],
    or a batch (B, n_intervals, control_dim) of them."""

    hdot: np.ndarray
    horizon_T: float

    def __post_init__(self):
        self.hdot = np.atleast_2d(np.asarray(self.hdot, dtype=float))

    @property
    def n_intervals(self):
        return self.hdot.shape[-2]


@dataclass
class SkeletonPath:
    times: np.ndarray
    states: np.ndarray


@dataclass
class RateResult:
    value: float
    minimizer: ControlPath
    endpoint: np.ndarray          # the minimizing path's end, in the solved system
    converged: bool               # L-BFGS-B success of the best restart
    restarts: list                # per restart: {"status", "nit", "objective"}


def action(control):
    """(1/2) sum |hdot_i|^2 dt over the uniform control grid."""
    dt = control.horizon_T / control.n_intervals
    return 0.5 * float(np.sum(control.hdot ** 2)) * dt


def skeleton(system, control, n_steps):
    """RK4 for the controlled ODE z' = b(z) + S(z) hdot of the eps = 0 system
    (an SdeProblem or a TransformedSde), under piecewise-constant controls.

    A batch of controls (B, n_intervals, m) is integrated together, and
    ``states`` is then (B, n_steps + 1, dim) instead of (n_steps + 1, dim).
    A control on another horizon than the system's is refused.
    """
    dyn = dynamics(system, 0.0)
    if control.horizon_T != dyn.horizon:
        raise ValueError(f"control horizon {control.horizon_T} is not the system's {dyn.horizon}")
    hdots = control.hdot.reshape((-1,) + control.hdot.shape[-2:])
    if n_steps % control.n_intervals:
        raise ValueError("n_steps must be a multiple of n_intervals")
    per, dt = n_steps // control.n_intervals, dyn.horizon / n_steps

    def velocity(z, h):
        drift, sigma = dyn.coefficients(z)
        return drift + np.pad(apply_noise(sigma, h), ((0, 0), (dyn.n_quiet, 0)))

    z = np.tile(dyn.x0, (len(hdots), 1))
    states = [z]
    for k in range(n_steps):
        h = hdots[:, k // per]
        k1 = velocity(z, h)
        k2 = velocity(z + 0.5 * dt * k1, h)
        k3 = velocity(z + 0.5 * dt * k2, h)
        k4 = velocity(z + dt * k3, h)
        z = z + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(z)
    states = np.stack(states, axis=1)
    if not np.all(np.isfinite(states)):
        raise FloatingPointError("skeleton integration produced non-finite state")
    return SkeletonPath(times=np.linspace(0.0, dyn.horizon, n_steps + 1),
                        states=states.reshape(control.hdot.shape[:-2] + states.shape[1:]))


# ---------------------------------------------------------------------------
# Targets

@dataclass
class Target:
    """Closed target set on the coordinates ``coords`` of the state (all if
    None), with its signed distance and its nearest-point projection, both
    on (B, len(coords)) batches of those coordinates.  ``coords`` restricts
    an event to a marginal, as in the degenerate layout.
    """

    signed_distance: Callable
    project: Callable
    description: str = ""
    coords: tuple | None = None

    def distance(self, x):
        x = np.asarray(x, dtype=float)
        if self.coords is not None:
            x = x[..., list(self.coords)]
        return self.signed_distance(x)


def ball_target(center, radius=0.0, coords=None):
    """Closed ball of ``radius`` about ``center``; ``ValueError`` unless the
    center is finite and the radius finite and non-negative."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if not np.all(np.isfinite(center)):
        raise ValueError(f"ball center must be finite, got {center.tolist()}")
    if not 0 <= radius < np.inf:
        raise ValueError(f"ball radius must be finite and non-negative, got {radius}")

    def dist(x):
        return np.linalg.norm(np.atleast_2d(x) - center, axis=-1) - radius

    def project(x):
        off = np.atleast_2d(x) - center
        norm = np.linalg.norm(off, axis=-1, keepdims=True)
        return center + off * np.minimum(1.0, radius / np.maximum(norm, 1e-300))

    return Target(signed_distance=dist, project=project, coords=coords,
                  description=f"ball(center={center.tolist()}, r={radius})")


def half_space_target(normal, offset, coords=None):
    """Set {x : normal . x >= offset}; signed distance (offset - n.x)/|n|.
    ``ValueError`` unless the normal is finite and nonzero and the offset
    finite."""
    normal = np.atleast_1d(np.asarray(normal, dtype=float))
    norm = np.linalg.norm(normal)
    if not 0 < norm < np.inf:
        raise ValueError(f"half-space normal must be finite and nonzero, got {normal.tolist()}")
    if not np.isfinite(offset):
        raise ValueError(f"half-space offset must be finite, got {offset}")

    def dist(x):
        return (offset - np.atleast_2d(x) @ normal) / norm

    def project(x):
        x = np.atleast_2d(x)
        return x + np.maximum(offset - x @ normal, 0.0)[:, None] * (normal / norm ** 2)

    return Target(signed_distance=dist, project=project, coords=coords,
                  description=f"half_space(n={normal.tolist()}, c={offset})")


def _noisy_projection(target, n_quiet, dim):
    """The target's projection as a map of (B, dim - n_quiet) noisy-block
    endpoints.  The search chooses only the noisy path, so a target on a
    noise-free coordinate is refused."""
    coords = list(range(dim) if target.coords is None else target.coords)
    if max(coords) >= dim:
        raise ValueError(f"target {target.description} names coordinate {max(coords)} "
                         f"of a {dim}-dimensional state")
    if min(coords) < n_quiet:
        raise ValueError(f"target {target.description} constrains a noise-free coordinate; "
                         "the minimum-action search meets targets on the noisy block only")
    cols = [c - n_quiet for c in coords]

    def project(y):
        y = y.copy()
        y[:, cols] = target.project(y[:, cols])
        return y

    return project


# ---------------------------------------------------------------------------
# Minimum action

_FD_STEP = 1e-6       # central-difference step in each unknown
_SPREAD = 0.1         # standard deviation of the restarts' perturbations
_INSIDE = 1e-3        # the straight line overshoots the target's nearest point
                      # by this fraction, so it starts off the projection's kink
_OPTIONS = {"maxiter": 1000, "ftol": 1e-13, "gtol": 1e-8}


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported when first called, so that
    importing ldplab does not load SciPy's optimizers.  ``minimize_rate``
    looks this name up at call time, so it can be wrapped or patched here."""
    import scipy.optimize
    return scipy.optimize.minimize(*args, **kwargs)


def minimize_rate(system, target, n_intervals=32, restarts=8, seed=0):
    """Minimum action over paths from the start to ``target`` (a set in
    original coordinates), for an SdeProblem or a TransformedSde: the best
    of ``restarts`` L-BFGS-B runs."""
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if n_intervals < 1:
        raise ValueError("n_intervals must be at least 1")
    dyn = dynamics(system, 0.0)
    q, dim, n = dyn.n_quiet, dyn.x0.size, n_intervals
    m, dt = dim - q, dyn.horizon / n
    nearest = _noisy_projection(target, q, dim)

    def paths(unknowns):
        """(R, n*m) unknowns -> (R, n+1, dim) paths in the system's coordinates."""
        y = unknowns.reshape(-1, n, m).copy()
        y[:, -1] = dyn.from_original(nearest(y[:, -1]))
        y = np.concatenate([np.broadcast_to(dyn.x0[q:], (len(y), 1, m)), y], axis=1)
        if q == 0:
            return y
        # Heun's rule on the quiet drift, over the y-path pulled back once
        y_orig = dyn.to_original(y.reshape(-1, m)).reshape(y.shape)
        x = [np.broadcast_to(dyn.x0[:q], (len(y), q))]
        for k in range(n):
            f = dyn.quiet_drift(np.concatenate([x[-1], y_orig[:, k]], axis=1))
            f_next = dyn.quiet_drift(np.concatenate([x[-1] + dt * f, y_orig[:, k + 1]], axis=1))
            x.append(x[-1] + 0.5 * dt * (f + f_next))
        return np.concatenate([np.stack(x, axis=1), y], axis=2)

    def controls(path):
        """hdot_k = sigma(m_k)^{-1} (phi'_k - b(m_k)) of (R, n+1, dim) paths."""
        drift, sigma = dyn.coefficients(0.5 * (path[:, 1:] + path[:, :-1]).reshape(-1, dim))
        slip = np.diff(path[:, :, q:], axis=1).reshape(-1, m) / dt - drift[:, q:]
        if sigma.ndim == 2:           # one constant (m, m) sigma: one solve for every row
            return np.linalg.solve(sigma, slip.T).T.reshape(len(path), n, m)
        if m == 1:                    # a 1 x 1 sigma per row: the division that LAPACK's
            if not sigma.all():       # per-row solve performs, and its refusal of a zero
                raise np.linalg.LinAlgError("Singular matrix")
            return (slip / sigma[:, 0]).reshape(len(path), n, m)
        return np.linalg.solve(sigma, slip[..., None]).reshape(len(path), n, m)

    def fun_and_grad(u):
        steps = _FD_STEP * np.eye(u.size)
        vals = 0.5 * dt * np.sum(controls(paths(np.vstack([u, u + steps, u - steps]))) ** 2,
                                 axis=(1, 2))
        return vals[0], (vals[1:u.size + 1] - vals[u.size + 1:]) / (2 * _FD_STEP)

    y0 = system.start[q:].astype(float)
    p = nearest(y0[None])[0]
    end = p + _INSIDE * (p - y0)
    line = dyn.x0[q:] + np.arange(1, n + 1)[:, None] / n * (dyn.from_original(end[None])[0]
                                                             - dyn.x0[q:])
    line[-1] = end                    # the last unknown is in original coordinates
    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = [line.ravel()] + [line.ravel() + _SPREAD * rng.standard_normal(n * m)
                               for _ in range(restarts - 1)]
    # the system's box: theta and its inverse are defined only on the map's grid
    bounds = list(zip(np.tile(dyn.box.lo[q:], n), np.tile(dyn.box.hi[q:], n)))

    runs = [minimize(fun_and_grad, start, jac=True, method="L-BFGS-B", bounds=bounds,
                     options=_OPTIONS) for start in starts]
    best = min(runs, key=lambda r: r.fun)
    path = paths(best.x[None])
    control = ControlPath(hdot=controls(path)[0], horizon_T=dyn.horizon)
    return RateResult(value=action(control), minimizer=control, endpoint=path[0, -1],
                      converged=bool(best.success),
                      restarts=[{"status": int(r.status), "nit": int(r.nit),
                                 "objective": float(r.fun)} for r in runs])


def rate_via_transform(problem, zmap, target, **kwargs):
    """``minimize_rate`` on the system transformed by ``zmap``'s theta, for
    the same target in original coordinates."""
    return minimize_rate(transform(problem, zmap), target, **kwargs)
