"""Resolvent-PDE solver and the drift-removing change of variables.

Solves (lambda - L) u = b2 + (b2 . grad) u on a box with homogeneous Neumann
conditions, where L is the second-order part of the diffusion generator.
A solution with small enough norms certifies that theta(x) = x + u(x) is a
bi-Lipschitz homeomorphism, which is then used to push the SDE coefficients
forward to a system with Lipschitz drift.
"""

from __future__ import annotations

import csv
import json
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
    "save_map",
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

def _axis_gradient(values, axes_h, axis):
    """Centered differences, one-sided at the boundary, along one grid axis."""
    return np.gradient(values, axes_h[axis], axis=axis, edge_order=2)


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
        h = self.steps()
        m, d = self.m, len(self.axes)
        jac = np.empty(self.grid_shape + (m, d))
        for c in range(m):
            for i in range(d):
                jac[..., c, i] = _axis_gradient(self.values[..., c], h, i)
        return jac

    def hessian_grid(self):
        """H[..., c, i, j] = d^2 u_c / d x_i d x_j at the nodes."""
        h = self.steps()
        m, d = self.m, len(self.axes)
        jac = self.jacobian_grid()
        hess = np.empty(self.grid_shape + (m, d, d))
        for c in range(m):
            for i in range(d):
                for j in range(d):
                    hess[..., c, i, j] = _axis_gradient(jac[..., c, i], h, j)
        return hess

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
    """
    shape = tuple(len(ax) for ax in axes)
    d = len(shape)
    n_pts = int(np.prod(shape))
    h = [ax[1] - ax[0] for ax in axes]
    strides = np.array([int(np.prod(shape[k + 1:])) for k in range(d)])
    idx_nd = np.stack(np.meshgrid(*[np.arange(n) for n in shape], indexing="ij"),
                      axis=-1).reshape(n_pts, d)

    def flat(nd):
        return nd @ strides

    rows, cols, data = [], [], []
    diag = np.full(n_pts, lam)
    base = np.arange(n_pts)

    def add(nd_neighbor, coeff):
        rows.append(base)
        cols.append(flat(nd_neighbor))
        data.append(coeff)

    for i in range(d):
        aii = a_nodes[:, i, i]
        coeff = 0.5 * aii / h[i] ** 2
        for sgn in (+1, -1):
            nb = idx_nd.copy()
            nb[:, i] = _reflect(nb[:, i] + sgn, shape[i])
            add(nb, -coeff)
        diag += 2 * coeff

    for i in range(d):
        for j in range(i + 1, d):
            aij = a_nodes[:, i, j]
            coeff = aij / (4.0 * h[i] * h[j])  # symmetric pair: 2 * (1/2) a_ij
            for si, sj, sign in ((1, 1, -1.0), (-1, -1, -1.0), (1, -1, 1.0), (-1, 1, 1.0)):
                nb = idx_nd.copy()
                nb[:, i] = _reflect(nb[:, i] + si, shape[i])
                nb[:, j] = _reflect(nb[:, j] + sj, shape[j])
                add(nb, sign * coeff)

    rows.append(base)
    cols.append(base)
    data.append(diag)
    from scipy.sparse import csr_matrix

    A = csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(n_pts, n_pts))
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
    u_norm = float(np.max(np.linalg.norm(gf.values, axis=-1)))
    jac = gf.jacobian_grid()
    grad_norm = float(np.max(_spectral_norm(jac.reshape(-1, gf.m, len(gf.axes)))))
    hess = gf.hessian_grid()
    # sup over nodes of the Euclidean norm over components of per-component
    # Hessian spectral norms (plain sup-norm reading of the bound)
    per_comp = _spectral_norm(hess.reshape(-1, gf.m, len(gf.axes), len(gf.axes))
                              .reshape(-1, len(gf.axes), len(gf.axes)))
    per_comp = per_comp.reshape(-1, gf.m)
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


def _interior_mask(shape):
    mask = np.ones(shape, dtype=bool)
    for axis, n in enumerate(shape):
        sl = [slice(None)] * len(shape)
        sl[axis] = 0
        mask[tuple(sl)] = False
        sl[axis] = n - 1
        mask[tuple(sl)] = False
    return mask.reshape(-1)


def _transport(b2, u, h):
    """(b2 . grad) u at the nodes, by grid differences; (n_nodes, m)."""
    m = u.shape[-1]
    out = np.zeros_like(b2)
    for c in range(m):
        for i in range(m):
            out[:, c] += b2[:, i] * _axis_gradient(u[..., c], h, i).reshape(-1)
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
    b2 = problem.singular_or_zero()(nodes)

    A = _assemble_operator(axes, a_nodes, lam)
    from scipy.sparse.linalg import splu

    lu = splu(A.tocsc())

    u = np.zeros(grid_shape + (m,))
    update = np.inf
    for it in range(1, PICARD_MAX_ITERS + 1):
        rhs = b2 + _transport(b2, u, h)
        u_new = np.stack([lu.solve(rhs[:, c]) for c in range(m)], axis=-1)
        u_new = u_new.reshape(grid_shape + (m,))
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
    flat_u = u.reshape(-1, m)
    res = b2 + _transport(b2, u, h) - np.stack([A @ flat_u[:, c] for c in range(m)], axis=-1)
    interior = _interior_mask(grid_shape)
    residual = float(np.max(np.abs(res[interior]))) if np.any(interior) else 0.0

    # tiny slack so a norm sum of exactly 1/2 is not rejected by roundoff
    certified = sum(norms) <= CERTIFY_NORM_SUM * (1.0 + 1e-9) + 1e-12
    return ZvonkinMap(lam=lam, u=gf, norms=norms, residual=residual,
                      certified=certified, picard_iters=it)


@dataclass
class Lambda0Result:
    lambda0: float
    map: ZvonkinMap
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
            return Lambda0Result(lambda0=lam, map=zmap, trail=trail)
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

    def start(self):
        x0, q = self.base.start, self.n_quiet
        return np.concatenate([x0[:q], theta(self.map, x0[q:])])

    def to_original(self, yt):
        """theta^{-1} of a (B, m) batch of transformed noisy states."""
        return theta_inv(self.map, yt)

    def pullback(self, yt):
        """(y, grad theta(y), grad theta(y) sigma(y)) at y = theta^{-1}(yt),
        for a (B, m) batch of transformed noisy states."""
        y = self.to_original(yt)
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


# ---------------------------------------------------------------------------
# Serialization: JSON header + CSV node values

def save_map(zmap, header_path, values_path):
    header = {
        "lambda": zmap.lam,
        "box_lo": zmap.box.lo.tolist(),
        "box_hi": zmap.box.hi.tolist(),
        "resolution": list(zmap.u.grid_shape),
        "norms": list(zmap.norms),
        "residual": zmap.residual,
        "certified": zmap.certified,
        "margin": MARGIN,
    }
    with open(header_path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")
    flat = zmap.u.values.reshape(-1, zmap.u.m)
    with open(values_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"u{c + 1}" for c in range(zmap.u.m)])
        for row in flat:
            writer.writerow([f"{float(v):.17g}" for v in row])
