"""Resolvent-PDE solver and the drift-removing change of variables.

Solves (lambda - L) u = b2 + (b2 . grad) u on a box with homogeneous Neumann
conditions, where L is the second-order part of the diffusion generator.
A solution with small enough norms certifies that theta(x) = x + u(x) is a
bi-Lipschitz homeomorphism, which is then used to push the SDE coefficients
forward to a system with Lipschitz drift.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import Box

__all__ = [
    "GridFunction",
    "ZvonkinMap",
    "TransformedSde",
    "SolveFailure",
    "solve_resolvent",
    "find_lambda0",
    "Lambda0Result",
    "theta",
    "theta_inv",
    "transform",
]

CERTIFY_NORM_SUM = 0.5
MARGIN = 0.2            # per-side fraction of the box outside the interior box
PICARD_TOL = 1e-10      # sup-norm Picard update that ends a resolvent solve
PICARD_MAX_ITERS = 60
LAMBDA_GROWTH = 2.0     # ratio between consecutive lambdas of the ladder
INVERSE_TOL = 1e-12     # step size that ends the theta^{-1} iteration
INVERSE_MAX_ITERS = 200


_log = logging.getLogger(__name__)


class SolveFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Grid functions

def _nodal_jacobian(values, h):
    """J[..., c, i] = d v_c / d x_i at the nodes of a (*grid, m) array on a
    grid of steps ``h``: centred differences inside, second-order one-sided
    ones at the walls.  The one stencil of the resolvent solve's (b2 . grad) u,
    grad u and, as the Jacobian of grad u, its Hessian."""
    grads = np.gradient(values, *h, axis=tuple(range(len(h))), edge_order=2)
    return np.stack(grads if len(h) > 1 else [grads], axis=-1)


@dataclass
class GridFunction:
    """Vector-valued multilinear-interpolated function on a tensor grid.

    A 1-D grid is read by np.interp and never builds an interpolator, so a
    1-D map loads neither scipy.interpolate nor scipy.optimize; an N-D grid
    builds scipy's RegularGridInterpolator on its first read.
    """

    box: Box
    axes: list            # per-axis node coordinates
    values: np.ndarray    # shape (*grid_shape, m)

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        if len(self.axes) == 1 and self.m != 1:
            raise ValueError("a grid function on a 1-D grid has one component")
        self._interp = None
        self._jac = None

    @property
    def m(self):
        return self.values.shape[-1]

    @property
    def grid_shape(self):
        return self.values.shape[:-1]

    def steps(self):
        return [ax[1] - ax[0] for ax in self.axes]

    def __call__(self, x):
        """Values at a point (d,) or a batch (B, d) of points in the box; a
        point outside it raises ValueError."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if len(self.axes) == 1:
            xq, ax = pts[:, 0], self.axes[0]
            if xq.min() < ax[0] - 1e-9 or xq.max() > ax[-1] + 1e-9:
                raise ValueError("interpolation point outside the grid box")
            out = self.clamped(pts)
        else:
            out = self._interpolator()(pts)
        return out[0] if single else out

    def clamped(self, pts):
        """Values at a (B, d) batch, each point clamped to the box, without
        the checks of ``__call__``: for callers that keep their points in the
        box already, and pay this call many times per step.  A 1-D grid is
        read by np.interp, which clamps at the ends by itself."""
        if len(self.axes) == 1:
            return np.interp(pts, self.axes[0], self.values[:, 0])
        return self._interpolator()(np.clip(pts, self.box.lo, self.box.hi))

    def _interpolator(self):
        """The multilinear interpolator of an N-D grid, built once."""
        if self._interp is None:
            from scipy.interpolate import RegularGridInterpolator

            self._interp = RegularGridInterpolator(self.axes, self.values, method="linear",
                                                   bounds_error=True)
        return self._interp

    def _jacobian_function(self):
        """The Jacobian's nodes as a GridFunction of m*d columns, built once."""
        if self._jac is None:
            jac = self.jacobian_grid()
            self._jac = GridFunction(box=self.box, axes=self.axes,
                                     values=jac.reshape(self.grid_shape + (-1,)))
        return self._jac

    def jacobian_grid(self):
        """J[..., c, i] = d u_c / d x_i at the nodes (finite differences)."""
        return _nodal_jacobian(self.values, self.steps())

    def jacobian(self, pts):
        """d u_c / d x_i, interpolated from ``jacobian_grid``, at a (B, d)
        batch: (B, m, d).  Points are clamped to the box and not checked, as
        ``clamped`` reads values."""
        return self._jacobian_function().clamped(pts).reshape(len(pts), self.m, len(self.axes))


# ---------------------------------------------------------------------------
# Discrete generator assembly

def _reflect(idx, n):
    """Reflect out-of-range neighbor indices for homogeneous Neumann walls."""
    idx = np.where(idx < 0, -idx, idx)
    idx = np.where(idx >= n, 2 * (n - 1) - idx, idx)
    return idx


def _assemble_operator(axes, a_nodes, lam):
    """Sparse matrix of lambda*I - L with centered stencils and Neumann walls.

    a_nodes: (n_points, d, d) diffusion matrix sigma sigma^T at the nodes.
    The stencil is one list of (neighbour offset, coefficient) entries: +-e_i
    for each axis, then the four diagonal neighbours of each pair i < j, then
    the node itself.
    """
    shape = tuple(len(ax) for ax in axes)
    d = len(shape)
    h = [ax[1] - ax[0] for ax in axes]
    e = np.eye(d, dtype=int)
    diag = np.full(a_nodes.shape[0], lam)
    stencil = []
    for i in range(d):
        coeff = 0.5 * a_nodes[:, i, i] / h[i] ** 2
        stencil += [(e[i], -coeff), (-e[i], -coeff)]
        diag += 2 * coeff
    for i in range(d):
        for j in range(i + 1, d):
            coeff = a_nodes[:, i, j] / (4.0 * h[i] * h[j])  # symmetric pair: 2 * (1/2) a_ij
            stencil += [(e[i] + e[j], -coeff), (-e[i] - e[j], -coeff),
                        (e[i] - e[j], coeff), (e[j] - e[i], coeff)]
    stencil.append((np.zeros(d, dtype=int), diag))
    offsets = np.array([offset for offset, _ in stencil]).T[:, :, None]   # (d, k, 1)
    nodes = np.indices(shape).reshape(d, 1, -1)                           # (d, 1, n)
    neighbours = _reflect(nodes + offsets, np.reshape(shape, (d, 1, 1)))
    cols = np.ravel_multi_index(tuple(neighbours), shape)                 # (k, n)
    rows = np.broadcast_to(np.arange(cols.shape[1]), cols.shape)
    from scipy.sparse import csr_matrix

    A = csr_matrix((np.concatenate([coeff for _, coeff in stencil]),
                    (rows.reshape(-1), cols.reshape(-1))), shape=(cols.shape[1],) * 2)
    A.sum_duplicates()
    return A


# ---------------------------------------------------------------------------
# Norms

def _spectral_norm(mats):
    """Largest singular value per stacked matrix."""
    if mats.shape[-1] == 1 and mats.shape[-2] == 1:
        return np.abs(mats[..., 0, 0])
    return np.linalg.norm(mats, ord=2, axis=(-2, -1))


def _measure_norms(gf):
    d = len(gf.axes)
    u_norm = float(np.max(np.linalg.norm(gf.values, axis=-1)))
    jac = gf.jacobian_grid()
    grad_norm = float(np.max(_spectral_norm(jac.reshape(-1, gf.m, d))))
    # the Hessian is the nodal Jacobian of grad u, H[..., c*d + i, j] = d J_ci / d x_j;
    # sup over nodes of the Euclidean norm over components of per-component
    # Hessian spectral norms (plain sup-norm reading of the bound)
    hess = _nodal_jacobian(jac.reshape(gf.grid_shape + (-1,)), gf.steps())
    per_comp = _spectral_norm(hess.reshape(-1, d, d)).reshape(-1, gf.m)
    hess_norm = float(np.max(np.linalg.norm(per_comp, axis=-1)))
    return u_norm, grad_norm, hess_norm


# ---------------------------------------------------------------------------
# Zvonkin map

@dataclass
class ZvonkinMap:
    lam: float
    u: GridFunction
    norms: tuple          # (||u||, ||grad u||, ||hess u||) on the grid
    residual: float       # interior sup-norm PDE residual
    certified: bool
    picard_iters: int = 0

    @property
    def norm_sum(self):
        return float(sum(self.norms))

    @property
    def box(self):
        return self.u.box

    def interior_box(self):
        return self.u.box.shrink(MARGIN)


def _transport(b2, u, h):
    """(b2 . grad) u at the nodes, by grid differences; (n_nodes, m)."""
    m = u.shape[-1]
    jac = _nodal_jacobian(u, h).reshape(-1, m, m)
    out = np.zeros_like(b2)
    for i in range(m):      # one axis at a time into zeros: a fixed order, signed zeros too
        out += b2[:, i, None] * jac[:, :, i]
    return out


def solve_resolvent(problem, lam, resolution=257):
    """Picard iteration for the vector resolvent equation on the noisy block.

    Each step solves the linear problem (lambda - L) u_{k+1} = b2 + (b2 . grad) u_k
    with one sparse LU factorization shared across steps and components.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be a positive finite number, got {lam}")
    box = problem.noisy_box()
    m = problem.noisy_dim
    if resolution < 17:
        raise ValueError("resolution must be at least 17 points per axis")
    axes = [np.linspace(box.lo[i], box.hi[i], resolution) for i in range(m)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    nodes = mesh.reshape(-1, m)
    grid_shape = tuple(len(ax) for ax in axes)
    h = [ax[1] - ax[0] for ax in axes]

    sigma = problem.diffusion(nodes)
    a_nodes = sigma @ np.swapaxes(sigma, -1, -2)
    b2 = np.zeros_like(nodes) if problem.singular_drift is None else problem.singular_drift(nodes)

    A = _assemble_operator(axes, a_nodes, lam)
    from scipy.sparse.linalg import splu

    lu = splu(A.tocsc())

    u = np.zeros(grid_shape + (m,))
    update = np.inf
    for it in range(1, PICARD_MAX_ITERS + 1):
        u_new = lu.solve(b2 + _transport(b2, u, h)).reshape(grid_shape + (m,))
        update = float(np.max(np.abs(u_new - u)))
        u = u_new
        if update < PICARD_TOL:
            break
    else:
        raise SolveFailure(f"Picard iteration did not converge within {PICARD_MAX_ITERS} steps "
                           f"(last update {update:.3e})")

    gf = GridFunction(box=box, axes=axes, values=u)
    norms = _measure_norms(gf)

    # interior residual of L u + b2 + (b2.grad)u - lambda u with the same stencils
    res = (b2 + _transport(b2, u, h) - A @ u.reshape(-1, m)).reshape(u.shape)
    residual = float(np.max(np.abs(res[(slice(1, -1),) * m])))

    # tiny slack so a norm sum of exactly 1/2 is not rejected by roundoff
    certified = sum(norms) <= CERTIFY_NORM_SUM * (1.0 + 1e-9) + 1e-12
    return ZvonkinMap(lam=lam, u=gf, norms=norms, residual=residual,
                      certified=certified, picard_iters=it)


@dataclass
class Lambda0Result:
    map: ZvonkinMap       # the certified map, at lambda0 = map.lam
    trail: list  # (lambda, norms, norm_sum) along the ladder


def find_lambda0(problem, resolution=257, lambda_start=1.0, max_doublings=20):
    """Geometric lambda ladder; returns the first certified resolvent map.
    Each lambda tried is logged at DEBUG level to this module's logger."""
    if not 0 < lambda_start < math.inf:
        raise ValueError(f"lambda_start must be a positive finite number, got {lambda_start}")
    if max_doublings < 0:
        raise ValueError(f"max_doublings must be non-negative, got {max_doublings}")
    trail = []
    lam = lambda_start
    for _ in range(max_doublings + 1):
        zmap = solve_resolvent(problem, lam, resolution=resolution)
        trail.append((lam, zmap.norms, zmap.norm_sum))
        _log.debug("lambda=%g norm_sum=%.6g picard_iters=%d certified=%s",
                   lam, zmap.norm_sum, zmap.picard_iters, zmap.certified)
        if zmap.certified:
            return Lambda0Result(map=zmap, trail=trail)
        lam *= LAMBDA_GROWTH
    sums = ", ".join(f"{l:g}:{s:.3g}" for l, _, s in trail)
    raise SolveFailure(f"no certified lambda at or below {lam / LAMBDA_GROWTH:g} "
                       f"(norm-sum trajectory {sums})")


# ---------------------------------------------------------------------------
# Homeomorphism

def theta(zmap, x):
    """theta(x) = x + u(x)."""
    x = np.asarray(x, dtype=float)
    return x + zmap.u(x)


def theta_inv(zmap, y, record_steps=False):
    """theta^{-1} of a point (m,) or a batch (B, m), by the contraction
    x <- y - u(x), whose rate is at most 1/2 for a certified map.

    Each iteration tests the whole batch against the map's box widened by
    1e-12 (by its least and greatest coordinates, so a NaN fails the test),
    reads u at the iterate clamped to the box (``GridFunction.clamped``) and
    takes the largest Euclidean step of any row; it stops once that step is
    below INVERSE_TOL.  An iterate outside the box means that y lies outside
    theta(box), and raises SolveFailure, as does a loop that does not
    converge.  With ``record_steps`` the step sizes are returned as well.
    """
    if not zmap.certified:
        raise SolveFailure("theta_inv requires a certified map")
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    y = np.atleast_2d(y)
    lo, hi = zmap.box.lo - 1e-12, zmap.box.hi + 1e-12
    x, steps = y, []
    for _ in range(INVERSE_MAX_ITERS):
        if not ((x.min(axis=0) >= lo).all() and (x.max(axis=0) <= hi).all()):
            raise SolveFailure("inverse iteration left the box: target outside the image")
        x_new = y - zmap.u.clamped(x)
        d = x_new - x
        step = math.sqrt((d * d).sum(axis=1).max())   # = max of the rows' norms
        steps.append(step)
        x = x_new
        if step < INVERSE_TOL:
            break
    else:
        raise SolveFailure(f"inverse iteration did not reach tol={INVERSE_TOL}")
    if record_steps:
        return (x[0] if single else x), steps
    return x[0] if single else x


# ---------------------------------------------------------------------------
# Coefficient transform

@dataclass
class TransformedSde:
    """The system conjugated through theta (Zvonkin's change of variables).

    Only the noisy block Y goes through theta: with Y~ = theta(Y), its drift
    is (grad theta . b) o theta^{-1} + eps*lambda*u o theta^{-1} and its
    diffusion (grad theta . sigma) o theta^{-1}.  A noise-free block X keeps
    its drift (``base.quiet_drift``), evaluated at (x, theta^{-1}(y~)).
    """

    base: object          # the source SdeProblem
    map: ZvonkinMap

    def __post_init__(self):
        if not self.map.certified:
            raise SolveFailure("transform requires a certified map")

    @property
    def n_quiet(self):
        """Leading noise-free coordinates left unchanged by theta (d1, or 0)."""
        return self.base.n_quiet

    @property
    def start(self):
        """The base problem's start, in original coordinates."""
        return self.base.start

    def pullback(self, yt):
        """(y, grad theta(y), grad theta(y) sigma(y)) at y = theta^{-1}(yt),
        for a (B, m) batch of transformed noisy states."""
        y = theta_inv(self.map, yt)
        grad = self.map.u.jacobian(y) + np.eye(self.map.u.m)
        return y, grad, grad @ self.base.diffusion(y)

    def coefficients(self, eps):
        """The transformed coefficients at ``eps`` as one callable on (B, dim)
        joint states (x, y~): z -> (drift (B, dim), diffusion (B, m, m))."""
        zmap, q = self.map, self.n_quiet
        noisy_drift = self.base.drift.at(eps)
        quiet_drift = self.base.quiet_drift.at(eps) if q else None

        def func(z):
            y, grad, sigma = self.pullback(z[:, q:])
            joint = np.concatenate([z[:, :q], y], axis=1) if q else y
            drift = np.einsum("nij,nj->ni", grad, noisy_drift(joint))
            if eps != 0.0:
                drift = drift + eps * zmap.lam * zmap.u.clamped(y)
            if q:
                drift = np.concatenate([quiet_drift(joint), drift], axis=1)
            return drift, sigma

        return func


def transform(problem, zmap):
    return TransformedSde(base=problem, map=zmap)
