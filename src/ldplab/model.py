"""Problem descriptions: moduli of continuity, vector fields, SDE problems,
and the sampled regularity probes used to validate their assumptions.

All probes run on a bounded working box (the quantifiers in the underlying
conditions range over the whole space; the box is the declared numerical
stand-in and is recorded in every report).  Probes are pure functions of
(inputs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expr import EvaluationError, ParseError, parse_expression

__all__ = [
    "Box",
    "Modulus",
    "DiniVerdict",
    "dini_classify",
    "VectorField",
    "coordinate_function",
    "parse_field",
    "DriftFamily",
    "SdeProblem",
    "ProbeResult",
    "probe_lipschitz",
    "probe_ellipticity",
    "probe_modulus",
]

_MONOTONE_GRID = 201                              # points of [0, 1] where phi is checked
_DINI_CUTOFFS = np.logspace(-2, -12, 6)           # dini_classify's lower integration limits
_PROBE_SAMPLES = 2000                             # sampled pairs, or points of probe_sup
_ELLIPTICITY_POINTS = 500                         # sampled points of the ellipticity probe
_ELLIPTICITY_TOL = 1e-9                           # eigenvalues may leave [1/K, K] by this much
_MODULUS_SLACK = 1e-6                             # relative slack of the modulus probe


# ---------------------------------------------------------------------------
# Boxes

@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def of(lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise ValueError("box needs lo < hi componentwise")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError(f"box bounds must be finite, got lo={lo.tolist()}, hi={hi.tolist()}")
        return Box(lo=lo, hi=hi)

    @property
    def dim(self):
        return self.lo.size

    def contains(self, x):
        """(...,) mask of the points of a (..., dim) batch inside the box;
        False for NaN, and for +-inf as the bounds are finite.  The
        comparisons are combined one coordinate at a time, which for a small
        dim is much cheaper than reducing dim-wide rows."""
        x, lo, hi = np.atleast_2d(x), self.lo, self.hi
        inside = (x[..., 0] >= lo[0]) & (x[..., 0] <= hi[0])
        for i in range(1, self.dim):
            inside &= x[..., i] >= lo[i]
            inside &= x[..., i] <= hi[i]
        return inside

    def sample(self, rng, n):
        return self.lo + (self.hi - self.lo) * rng.random((n, self.dim))

    def shrink(self, fraction):
        """Shrink by a fraction of each half-width (margin per side)."""
        mid = 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo) * (1.0 - fraction)
        return Box(lo=mid - half, hi=mid + half)


# ---------------------------------------------------------------------------
# Moduli of continuity

@dataclass
class Modulus:
    """Modulus-of-continuity descriptor phi: its kind and its formula on t > 0.

    kinds: dini_log(beta) -> phi(t) = (log(1 + 1/t))^(-beta), beta > 0
           holder(alpha)  -> phi(t) = t^alpha, alpha in (0,1)
           lipschitz(L)   -> phi(t) = L*t, L finite and >= 0
           expression     -> user expression in the variable t (t > 0)
    """

    kind: str
    formula: Callable     # (n,) array of t > 0 -> (n,) phi(t)

    @staticmethod
    def dini_log(beta):
        if not beta > 0:
            raise ValueError("dini_log needs beta > 0")
        return Modulus("dini_log", lambda t: np.log1p(1.0 / t) ** (-beta))

    @staticmethod
    def holder(alpha):
        if not 0.0 < alpha < 1.0:
            raise ValueError("holder needs alpha in (0,1)")
        return Modulus("holder", lambda t: t ** alpha)

    @staticmethod
    def lipschitz(L):
        if not 0.0 <= L < math.inf:
            raise ValueError("lipschitz needs a finite L >= 0")
        return Modulus("lipschitz", lambda t: L * t)

    @staticmethod
    def from_expression(text):
        expression = parse_expression(text, ["t"])
        return Modulus("expression", lambda t: expression(t=t))

    def phi(self, t):
        """phi(t) for t >= 0, with phi(0) = 0; ``EvaluationError`` for a
        negative t or a negative or non-finite value."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise EvaluationError("modulus argument must be nonnegative")
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.zeros_like(t)
        pos = t > 0
        if np.any(pos):
            out[pos] = self.formula(t[pos])
        if np.any(out < 0) or not np.all(np.isfinite(out)):
            raise EvaluationError("modulus must be nonnegative and finite")
        return out[0] if scalar else out

    def check_monotone(self):
        """Nonnegative and nondecreasing on a probe grid of [0, 1]."""
        grid = np.linspace(0.0, 1.0, _MONOTONE_GRID)
        vals = self.phi(grid)
        return bool(np.all(np.diff(vals) >= -1e-12) and np.all(vals >= 0))


@dataclass
class DiniVerdict:
    finite: bool
    value: float  # extrapolated integral for finite, last partial value otherwise


def _aitken_limit(values):
    """Aitken delta-squared extrapolation of the last three terms."""
    v0, v1, v2 = values[-3], values[-2], values[-1]
    d1, d2 = v1 - v0, v2 - v1
    denom = d2 - d1
    if abs(denom) < 1e-300:
        return v2
    return v2 - d2 * d2 / denom


def dini_classify(m):
    """Classify the integral of phi(s)/s over (0, 1] as finite or divergent.

    Quadrature values V(c) = int_c^1 phi(s)/s ds are computed along a
    decreasing cutoff ladder.  If the tail has visibly converged (relative
    change < 1e-3 over the last three cutoffs) the verdict is finite with an
    Aitken-extrapolated value.  Otherwise the verdict comes from the local
    decay exponent of psi(r) = phi(e^-r) in log r: the substitution s = e^-r
    turns the integral into int psi(r) dr, which converges exactly when psi
    decays faster than 1/r.  The raw Cauchy test alone cannot separate the
    slowly-converging log-moduli (e.g. beta = 1.5) from the divergent ones at
    reachable cutoffs; the exponent refinement can.
    """
    from scipy.integrate import quad

    def integrand(s):
        return float(m.phi(s)) / s

    partials = []                 # the integral from each cutoff to 1
    total = 0.0
    upper = 1.0
    for c in _DINI_CUTOFFS:
        piece, _err = quad(integrand, c, upper, limit=200)
        total += piece
        partials.append(total)
        upper = c

    values = np.array(partials)
    rel = np.abs(np.diff(values[-3:])) / np.maximum(np.abs(values[-3:-1]), 1e-300)
    if np.all(rel < 1e-3):
        return DiniVerdict(finite=True, value=float(_aitken_limit(values)))

    # Local decay exponent of psi(r) = phi(exp(-r)) against log r.
    r = np.log(1.0 / _DINI_CUTOFFS)
    psi = np.array([float(m.phi(math.exp(-ri))) for ri in r])
    if np.any(psi <= 0):
        # phi vanishing on the probe tail: integral of the remaining tail is 0.
        return DiniVerdict(finite=True, value=float(values[-1]))
    lp = np.log(psi)
    lr = np.log(r)
    exps = -(np.diff(lp) / np.diff(lr))
    p_hat = float(exps[-1])
    if p_hat <= 1.05:
        return DiniVerdict(finite=False, value=float(values[-1]))
    if len(exps) >= 2 and exps[-1] > 1.1 * exps[-2]:
        # super-polynomial decay (e.g. Holder): geometric tail, Aitken is exact
        value = float(_aitken_limit(values))
    else:
        # power-law tail psi ~ (r'/r)^(-p): closed-form remainder
        value = float(values[-1] + psi[-1] * r[-1] / (p_hat - 1.0))
    return DiniVerdict(finite=True, value=value)


# ---------------------------------------------------------------------------
# Vector fields

@dataclass
class VectorField:
    """Evaluable field R^in_dim -> R^out_dim (or out_dim x out_dim matrices).

    ``func`` maps a batch (n, in_dim) to (n, out_dim) (or (n, m, m) for
    matrix-valued diffusions).
    """

    in_dim: int
    out_dim: int
    func: object = None
    matrix: bool = False
    declared_modulus: Modulus | None = None
    declared_bound: float | None = None
    lipschitz_const: float | None = None
    name: str = ""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[-1] != self.in_dim:
            raise ValueError(f"field {self.name or '<anon>'} expects dimension {self.in_dim}, "
                             f"got {pts.shape[-1]}")
        out = np.asarray(self.func(pts), dtype=float)
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"field {self.name or '<anon>'} produced non-finite values")
        expected = (pts.shape[0], self.out_dim, self.out_dim) if self.matrix \
            else (pts.shape[0], self.out_dim)
        if out.shape != expected:
            raise ValueError(f"field {self.name or '<anon>'} returned shape {out.shape}, "
                             f"expected {expected}")
        return out[0] if single else out


def coordinate_function(text, in_dim, n_out, extra=()):
    """``';'``-separated coordinate expressions in x1..x<in_dim> (and the
    names in ``extra``) as one batch function ``(x, **extra) -> (n, n_out)``."""
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != n_out:
        raise ParseError(f"expected {n_out} coordinate expression(s), got {len(parts)}", 0)
    exprs = [parse_expression(p, [f"x{i + 1}" for i in range(in_dim)] + list(extra))
             for p in parts]

    def func(x, **values):
        env = {f"x{i + 1}": x[:, i] for i in range(in_dim)}
        env.update(values)
        # the finiteness check is the field's (VectorField.__call__), not each expression's;
        # a constant coordinate broadcasts into its column
        out = np.empty((x.shape[0], len(exprs)))
        for j, e in enumerate(exprs):
            out[:, j] = e.evaluate(env)
        return out

    return func


def parse_field(expression_text, in_dim, out_dim, matrix=False):
    """Parse ';'-separated coordinate expressions into a VectorField."""
    n_out = out_dim * out_dim if matrix else out_dim
    coords = coordinate_function(expression_text, in_dim, n_out)
    func = (lambda x: coords(x).reshape(x.shape[0], out_dim, out_dim)) if matrix else coords
    return VectorField(in_dim=in_dim, out_dim=out_dim, func=func, matrix=matrix)


@dataclass
class DriftFamily:
    """b1^eps as limit plus an explicit perturbation with sup-norm gap -> 0."""

    limit: VectorField
    perturbation: object = None  # eps -> VectorField (the gap b1^eps - b1^0), or None

    def at(self, eps):
        if self.perturbation is None or eps == 0.0:
            return self.limit
        limit, pert = self.limit, self.perturbation(eps).func

        def func(x):
            return limit.func(x) + pert(x)

        return VectorField(in_dim=limit.in_dim, out_dim=limit.out_dim, func=func,
                           name=f"{limit.name}+pert(eps={eps})")


# ---------------------------------------------------------------------------
# SDE problems

def _signature(in_dim, out_dim, matrix):
    """'R^in -> R^out', or 'R^in -> R^(out x out)' for a matrix field."""
    return f"R^{in_dim} -> R^" + (f"({out_dim} x {out_dim})" if matrix else f"{out_dim}")


@dataclass
class SdeProblem:
    """A noisy block Y, and optionally a noise-free block X before it.

    dims = (n,): dX = (b1^eps + eps*b2) dt + sqrt(eps) sigma(X) dW.
    dims = (d1, d2): dX = f^eps dt; dY = (b1^eps + eps*b2(Y)) dt
    + sqrt(eps) sigma(Y) dW.  ``drift`` is b1^eps, R^dim -> R^m for the
    noisy block's size m; ``quiet_drift`` is f^eps, R^dim -> R^d1, given
    exactly when dims has two entries; sigma and b2 act on the noisy block
    only.  eps is always a runtime parameter.
    """

    name: str
    dims: tuple                                # (n,) or (d1, d2)
    horizon_T: float
    ellipticity_K: float
    lipschitz_L: float
    working_box: Box
    start: np.ndarray
    drift: DriftFamily                         # b1 family, R^dim -> R^m
    diffusion: VectorField                     # sigma, R^m -> m x m matrices
    singular_drift: VectorField | None = None  # b2, R^m -> R^m
    quiet_drift: DriftFamily | None = None     # R^dim -> R^d1

    def __post_init__(self):
        if len(self.dims) not in (1, 2) or min(self.dims) < 1:
            raise ValueError(f"dims must be (n,) or (d1, d2) of block sizes of at least 1, "
                             f"got {tuple(self.dims)}")
        if (self.quiet_drift is not None) != (len(self.dims) == 2):
            raise ValueError("a quiet drift is given exactly when dims lists two blocks, "
                             f"got dims {tuple(self.dims)}")
        if not 0 < self.horizon_T < math.inf:
            raise ValueError(f"horizon_T must lie in (0, inf), got {self.horizon_T}")
        if not 1 < self.ellipticity_K < math.inf:
            raise ValueError(f"ellipticity_K must lie in (1, inf), got {self.ellipticity_K}")
        if not 0 <= self.lipschitz_L < math.inf:
            raise ValueError(f"lipschitz_L must lie in [0, inf), got {self.lipschitz_L}")
        dim, m = self.state_dim, self.noisy_dim
        quiet = self.quiet_drift and self.quiet_drift.limit
        for label, field, want in (("drift", self.drift.limit, (dim, m, False)),
                                   ("quiet drift", quiet, (dim, self.n_quiet, False)),
                                   ("diffusion", self.diffusion, (m, m, True)),
                                   ("singular drift", self.singular_drift, (m, m, False))):
            have = None if field is None else (field.in_dim, field.out_dim, field.matrix)
            if have not in (None, want):
                raise ValueError(f"{label} must be a field {_signature(*want)}, got "
                                 f"{field.name or '<anon>'}: {_signature(*have)}")
        if self.singular_drift is not None:
            if self.singular_drift.declared_modulus is None:
                raise ValueError("singular drift needs a declared modulus")
            bound = self.singular_drift.declared_bound
            if bound is not None and not 0 <= bound < math.inf:
                raise ValueError(f"singular drift's declared bound must lie in [0, inf), "
                                 f"got {bound}")
        start = np.asarray(self.start, dtype=float)   # the box is finite: NaN, inf lie outside
        if start.shape != (self.state_dim,) or not self.working_box.contains(start)[0]:
            raise ValueError(f"start must be {self.state_dim} finite number(s) inside the "
                             f"working box, got {start.tolist()}")

    @property
    def state_dim(self):
        return sum(self.dims)

    @property
    def n_quiet(self):
        """Leading noise-free coordinates (d1, or 0)."""
        return sum(self.dims[:-1])

    @property
    def noisy_dim(self):
        return self.dims[-1]

    def noisy_box(self):
        """Working box restricted to the noisy coordinates."""
        q = self.n_quiet
        return Box(lo=self.working_box.lo[q:], hi=self.working_box.hi[q:])


# ---------------------------------------------------------------------------
# Probes

@dataclass
class ProbeResult:
    passed: bool
    value: float
    witness: np.ndarray | None = None


def _pair_samples(box, seed):
    """Sampled pairs of ``box`` at least 1e-12 apart, as (xs, ys, their distances)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    xs, ys = box.sample(rng, _PROBE_SAMPLES), box.sample(rng, _PROBE_SAMPLES)
    gaps = np.linalg.norm(xs - ys, axis=1)
    keep = gaps >= 1e-12
    return xs[keep], ys[keep], gaps[keep]


def probe_sup(f, box, seed=0):
    """Sampled max of |f(x)| over ``box``: a lower bound on the field's sup-norm."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return float(np.max(np.linalg.norm(f(box.sample(rng, _PROBE_SAMPLES)), axis=1)))


def probe_lipschitz(f, box, seed=0):
    """Sampled max of |f(x)-f(y)| / |x-y|: a lower bound on the true constant."""
    xs, ys, gaps = _pair_samples(box, seed)
    fx, fy = f(xs), f(ys)
    if f.matrix:
        num = np.linalg.norm((fx - fy).reshape(len(xs), -1), axis=1)
    else:
        num = np.linalg.norm(fx - fy, axis=1)
    return float(np.max(num / gaps)) if len(gaps) else 0.0


def probe_ellipticity(sigma, K, box, seed=0):
    """Eigenvalues of sigma sigma^T must lie in [1/K, K] on sampled points."""
    if not sigma.matrix:
        raise ValueError("ellipticity probe needs a matrix-valued diffusion")
    if K <= 1:
        raise ValueError("K must exceed 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    pts = box.sample(rng, _ELLIPTICITY_POINTS)
    s = sigma(pts)
    a = s @ np.swapaxes(s, -1, -2)
    eig = np.linalg.eigvalsh(a)
    low, high, tol = eig[:, 0], eig[:, -1], _ELLIPTICITY_TOL
    bad = (low < 1.0 / K - tol) | (high > K + tol)
    if np.any(bad):
        i = int(np.argmax(bad))
        off = float(high[i] if high[i] > K + tol else low[i])
        return ProbeResult(passed=False, value=off, witness=pts[i])
    return ProbeResult(passed=True, value=float(np.max(high)))


def probe_modulus(f, m, box, seed=0):
    """Check |f(x)-f(y)| <= phi(|x-y|) * (1 + _MODULUS_SLACK) on sampled pairs."""
    xs, ys, gaps = _pair_samples(box, seed)
    diff = np.linalg.norm(f(xs) - f(ys), axis=1)
    bound = m.phi(gaps) * (1.0 + _MODULUS_SLACK)
    bad = diff > bound
    if np.any(bad):
        i = int(np.argmax(diff - bound))
        return ProbeResult(passed=False, value=float(diff[i] - m.phi(gaps[i])),
                           witness=np.concatenate([xs[i], ys[i]]))
    margin = float(np.max(diff - bound)) if len(gaps) else 0.0
    return ProbeResult(passed=True, value=margin)
