"""Skeleton ODE integration and minimum-action evaluation of the rate function.

The rate of an endpoint/functional target set is estimated by minimizing
(1/2) int |hdot|^2 dt + penalty * dist(endpoint, target)^2 over
piecewise-constant controls, with penalty continuation and multistart.
Gradients are batched central finite differences through the RK4 integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .simulate import dynamics

__all__ = [
    "ControlPath",
    "SkeletonPath",
    "RateResult",
    "Target",
    "ball_target",
    "half_space_target",
    "predicate_target",
    "skeleton",
    "action",
    "minimize_rate",
    "rate_via_transform",
]


# ---------------------------------------------------------------------------
# Controls and skeletons

@dataclass
class ControlPath:
    hdot: np.ndarray      # (n_intervals, control_dim), piecewise-constant
    horizon_T: float

    def __post_init__(self):
        self.hdot = np.atleast_2d(np.asarray(self.hdot, dtype=float))

    @property
    def n_intervals(self):
        return self.hdot.shape[0]


@dataclass
class SkeletonPath:
    times: np.ndarray
    states: np.ndarray
    control: ControlPath


@dataclass
class RateResult:
    value: float
    minimizer: ControlPath
    endpoint: np.ndarray
    multistart_spread: float
    converged: bool
    feasibility_residual: float
    n_intervals: int
    restarts: int


def action(control):
    """(1/2) sum |hdot_i|^2 dt over the uniform control grid."""
    dt = control.horizon_T / control.n_intervals
    return 0.5 * float(np.sum(control.hdot ** 2)) * dt


# ---------------------------------------------------------------------------
# Targets

@dataclass
class Target:
    """Target set with an evaluable signed distance on the reached endpoint.

    ``coords`` optionally restricts the distance to a coordinate slice (used
    for marginal events in the degenerate layout).
    """

    signed_distance: object
    description: str = ""
    coords: tuple | None = None

    def distance(self, x):
        x = np.asarray(x, dtype=float)
        if self.coords is not None:
            x = x[..., list(self.coords)]
        return self.signed_distance(x)


def ball_target(center, radius=0.0, coords=None):
    center = np.atleast_1d(np.asarray(center, dtype=float))

    def dist(x):
        return np.linalg.norm(np.atleast_2d(x) - center, axis=-1) - radius

    return Target(signed_distance=dist, coords=coords,
                  description=f"ball(center={center.tolist()}, r={radius})")


def half_space_target(normal, offset, coords=None):
    """Set {x : normal . x >= offset}; signed distance (offset - n.x)/|n|."""
    normal = np.atleast_1d(np.asarray(normal, dtype=float))
    norm = np.linalg.norm(normal)

    def dist(x):
        return (offset - np.atleast_2d(x) @ normal) / norm

    return Target(signed_distance=dist, coords=coords,
                  description=f"half_space(n={normal.tolist()}, c={offset})")


def predicate_target(signed_distance, description="predicate", coords=None):
    def dist(x):
        pts = np.atleast_2d(x)
        return np.array([float(signed_distance(p)) for p in pts])

    return Target(signed_distance=dist, coords=coords, description=description)


# ---------------------------------------------------------------------------
# Controlled dynamics (batched over a set of controls)

_TAB_RESOLUTION = {1: 2049, 2: 129, 3: 33}


def _tabulate(box, func):
    """Sample a tuple-valued function of (B, dim) batches on a tensor grid
    over ``box`` and return a lookup with the same outputs, read from one
    packed multilinear interpolant and clamped to the box (the per-point
    cost of composing theta^{-1} otherwise dominates the optimizer's inner
    loop).  None if the box has too many dimensions to tabulate."""
    from .zvonkin import GridFunction

    per = _TAB_RESOLUTION.get(box.dim)
    if per is None:
        return None
    axes = [np.linspace(box.lo[i], box.hi[i], per) for i in range(box.dim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    parts = func(mesh.reshape(-1, box.dim))
    bounds = np.cumsum([0] + [p[0].size for p in parts])
    shapes = [(-1,) + p.shape[1:] for p in parts]
    packed = np.concatenate([p.reshape(p.shape[0], -1) for p in parts], axis=1)
    table = GridFunction(box=box, axes=axes, values=packed.reshape(mesh.shape[:-1] + (-1,)))
    lo, hi = box.lo, box.hi

    def lookup(z):
        flat = table(np.clip(z, lo, hi))
        return tuple(flat[:, a:b].reshape(shape)
                     for a, b, shape in zip(bounds, bounds[1:], shapes))

    return lookup


class _Dynamics:
    """Velocity field z' = b(z) + S(z) hdot of the eps = 0 system, direct or
    transformed: the stepper's coefficients, with the transformed ones read
    from a table."""

    def __init__(self, problem=None, tsde=None):
        dyn = dynamics(problem if tsde is None else tsde, 0.0)
        q, coefficients = dyn.n_quiet, dyn.coefficients
        if tsde is not None:
            ibox = tsde.map.interior_box()
            if q == 0:
                # the state is the noisy block: tabulate the coefficients whole
                coefficients = _tabulate(ibox, coefficients) or coefficients
            else:
                # the drift depends on x too: tabulate only the pullback of y~
                coefficients = tsde.coefficients(0.0, pullback=_tabulate(ibox, tsde.pullback))
        self.T = dyn.horizon
        self.x0 = dyn.x0
        self.state_dim = dyn.x0.size
        self.control_dim = self.state_dim - q

        if q == 0:
            def velocity(z, hdot):
                drift, sigma = coefficients(z)
                return drift + np.einsum("nij,nj->ni", sigma, hdot)
        else:
            def velocity(z, hdot):
                drift, sigma = coefficients(z)    # drift is a fresh concatenation
                drift[:, q:] += np.einsum("nij,nj->ni", sigma, hdot)
                return drift

        self.velocity = velocity

    def integrate(self, hdots, n_steps, keep_path=False):
        """RK4 over a batch of piecewise-constant controls (B, N, m)."""
        hdots = np.asarray(hdots, dtype=float)
        if hdots.ndim == 2:
            hdots = hdots[None]
        B, n_int, m = hdots.shape
        if n_steps % n_int:
            raise ValueError("n_steps must be a multiple of n_intervals")
        per = n_steps // n_int
        dt = self.T / n_steps
        z = np.broadcast_to(self.x0, (B, self.state_dim)).copy()
        path = np.empty((B, n_steps + 1, self.state_dim)) if keep_path else None
        if keep_path:
            path[:, 0] = z
        for k in range(n_steps):
            h = hdots[:, k // per, :]
            k1 = self.velocity(z, h)
            k2 = self.velocity(z + 0.5 * dt * k1, h)
            k3 = self.velocity(z + 0.5 * dt * k2, h)
            k4 = self.velocity(z + dt * k3, h)
            z = z + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(z)):
                raise FloatingPointError("skeleton integration produced non-finite state")
            if keep_path:
                path[:, k + 1] = z
        return (z, path) if keep_path else z


def skeleton(problem, control, n_steps, tsde=None):
    """Integrate the controlled ODE for one control; returns the trajectory."""
    dyn = _Dynamics(problem=problem, tsde=tsde)
    _, path = dyn.integrate(control.hdot[None], n_steps, keep_path=True)
    times = np.linspace(0.0, dyn.T, n_steps + 1)
    return SkeletonPath(times=times, states=path[0], control=control)


# ---------------------------------------------------------------------------
# Minimum action

def _starts(dyn, target, n_intervals, restarts, seed, n_steps):
    m = dyn.control_dim
    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = [np.zeros((n_intervals, m))]
    # straight-line teleport start toward the target center proxy: pick the
    # endpoint of the zero control, move along the residual direction
    z_free = dyn.integrate(np.zeros((1, n_intervals, m)), n_steps)[0]
    probe = np.eye(m)
    guesses = []
    # target center proxy by coordinate descent on the signed distance
    center = z_free.copy()
    step = 0.5
    for _ in range(200):
        d0 = float(target.distance(center[None])[0])
        if d0 <= 0:
            break
        improved = False
        for v in probe:
            vec = np.zeros(dyn.state_dim)
            if target.coords is not None:
                for ci, comp in enumerate(target.coords):
                    if ci < m:
                        vec[comp] = v[ci] if ci < len(v) else 0.0
            else:
                vec[:m] = v if dyn.state_dim >= m else vec[:m]
            for s in (+step, -step):
                cand = center + s * vec
                if float(target.distance(cand[None])[0]) < d0 - 1e-12:
                    center = cand
                    improved = True
                    break
            if improved:
                break
        if not improved:
            step *= 0.5
            if step < 1e-3:
                break
    gap = center - z_free
    if target.coords is not None:
        comp_gap = np.zeros(m)
        for ci, comp in enumerate(target.coords):
            if ci < m:
                comp_gap[ci] = gap[comp]
        gap_m = comp_gap
    else:
        gap_m = gap[-m:]    # the noisy block: the whole state, or y
    teleport = np.tile(gap_m / dyn.T, (n_intervals, 1))
    starts.append(teleport)
    for _ in range(max(restarts - 2, 0)):
        starts.append(teleport + rng.standard_normal((n_intervals, m)))
    return starts[:max(restarts, 1)]


def minimize_rate(problem, target, n_intervals=32, restarts=8, seed=0, n_steps=None,
                  tsde=None, penalty0=10.0, penalty_growth=10.0, stages=4,
                  feas_tol=1e-2, fd_step=1e-5, maxiter=200):
    """Penalty-continuation quasi-Newton minimum-action search."""
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    dyn = _Dynamics(problem=problem, tsde=tsde)
    n_steps = n_steps or 4 * n_intervals
    m = dyn.control_dim
    dt = dyn.T / n_intervals

    def batch_objective(flat_batch, penalty):
        hdots = flat_batch.reshape(-1, n_intervals, m)
        act = 0.5 * np.sum(hdots ** 2, axis=(1, 2)) * dt
        ends = dyn.integrate(hdots, n_steps)
        dist = np.maximum(target.distance(ends), 0.0)
        return act + penalty * dist ** 2

    def fun_and_grad(flat, penalty):
        n = flat.size
        h = fd_step * np.maximum(1.0, np.abs(flat))
        batch = np.concatenate([flat[None],
                                flat[None] + np.diag(h),
                                flat[None] - np.diag(h)], axis=0)
        vals = batch_objective(batch, penalty)
        grad = (vals[1:n + 1] - vals[n + 1:]) / (2 * h)
        return float(vals[0]), grad

    best = None
    results = []
    for start in _starts(dyn, target, n_intervals, restarts, seed, n_steps):
        flat = start.ravel().copy()
        penalty = penalty0
        for _stage in range(stages):
            res = minimize(fun_and_grad, flat, args=(penalty,), jac=True,
                           method="L-BFGS-B",
                           options={"maxiter": maxiter, "ftol": 1e-14, "gtol": 1e-10})
            flat = res.x
            penalty *= penalty_growth
        control = ControlPath(hdot=flat.reshape(n_intervals, m), horizon_T=dyn.T)
        end = dyn.integrate(flat.reshape(1, n_intervals, m), n_steps)[0]
        residual = float(max(target.distance(end[None])[0], 0.0))
        results.append((action(control), residual, control, end))

    feasible = [r for r in results if r[1] <= feas_tol]
    pool = feasible if feasible else results
    pool.sort(key=lambda r: r[0])
    val, residual, control, end = pool[0]
    spread = max(r[0] for r in pool) - min(r[0] for r in pool)
    if not feasible:
        raise RuntimeError(f"no feasible control found; best endpoint distance {residual:.3g}")
    return RateResult(value=val, minimizer=control, endpoint=end,
                      multistart_spread=float(spread), converged=True,
                      feasibility_residual=residual, n_intervals=n_intervals,
                      restarts=restarts)


def rate_via_transform(problem, zmap, target, **kwargs):
    """Minimum action on the transformed system with the target mapped by theta.

    The path-space map acts pointwise, so the mapped set is
    {y : theta^{-1}(y) in E}; its indicator-signed distance is evaluated by
    pulling the endpoint back through the inverse map.
    """
    from .zvonkin import theta_inv, transform

    tsde = transform(problem, zmap)
    lo, hi = zmap.box.lo, zmap.box.hi

    def pull_back(y_pts):
        """theta^{-1} clamped to the map box; the clamp distance is added to
        the signed distance so the penalty still pushes strays back inside."""
        clipped = np.clip(y_pts, lo, hi)
        excess = np.linalg.norm(y_pts - clipped, axis=-1)
        return np.atleast_2d(theta_inv(zmap, clipped)), excess

    if problem.layout == "nondegenerate":
        def dist(y):
            back, excess = pull_back(np.atleast_2d(y))
            return target.distance(back) + excess
    else:
        d1, _ = problem.dims

        def dist(z):
            pts = np.atleast_2d(z)
            back, excess = pull_back(pts[:, d1:])
            joint = np.concatenate([pts[:, :d1], back], axis=1)
            return target.distance(joint) + excess

    mapped = Target(signed_distance=dist, description=f"theta({target.description})")
    return minimize_rate(problem, mapped, tsde=tsde, **kwargs)
