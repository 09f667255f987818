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

import numpy as np

from .expr import EvaluationError, Expression, ParseError, parse_expression

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
    "drift_family_limit_gap",
]


# ---------------------------------------------------------------------------
# Boxes

@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def cube(dim, half_width=5.0):
        return Box(lo=np.full(dim, -half_width), hi=np.full(dim, half_width))

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

    def contains(self, x, tol=0.0):
        """(...,) mask of the points of a (..., dim) batch inside the box
        widened by ``tol``; False for NaN, and for +-inf as the bounds are
        finite.  The comparisons are combined one coordinate at a time, which
        for a small dim is much cheaper than reducing dim-wide rows."""
        x = np.atleast_2d(x)
        lo, hi = self.lo - tol, self.hi + tol
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
    """Modulus-of-continuity descriptor phi.

    kinds: dini_log(beta) -> phi(t) = (log(1 + 1/t))^(-beta)
           holder(alpha)  -> phi(t) = t^alpha, alpha in (0,1)
           lipschitz(L)   -> phi(t) = L*t
           expression     -> user expression in the variable t (t > 0)
    """

    kind: str
    beta: float = 0.0
    alpha: float = 0.0
    L: float = 0.0
    expression: Expression | None = None

    def __post_init__(self):
        if self.kind == "dini_log" and not self.beta > 0:
            raise ValueError("dini_log needs beta > 0")
        if self.kind == "holder" and not (0.0 < self.alpha < 1.0):
            raise ValueError("holder needs alpha in (0,1)")
        if self.kind == "lipschitz" and self.L < 0:
            raise ValueError("lipschitz needs L >= 0")
        if self.kind == "expression" and self.expression is None:
            raise ValueError("expression modulus needs a parsed expression")
        if self.kind not in ("dini_log", "holder", "lipschitz", "expression"):
            raise ValueError(f"unknown modulus kind {self.kind!r}")

    @staticmethod
    def dini_log(beta):
        return Modulus(kind="dini_log", beta=beta)

    @staticmethod
    def holder(alpha):
        return Modulus(kind="holder", alpha=alpha)

    @staticmethod
    def lipschitz(L):
        return Modulus(kind="lipschitz", L=L)

    @staticmethod
    def from_expression(text):
        return Modulus(kind="expression", expression=parse_expression(text, ["t"]))

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise EvaluationError("modulus argument must be nonnegative")
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.empty_like(t)
        pos = t > 0
        if self.kind == "dini_log":
            out[~pos] = 0.0
            out[pos] = np.log1p(1.0 / t[pos]) ** (-self.beta)
        elif self.kind == "holder":
            out = t ** self.alpha
        elif self.kind == "lipschitz":
            out = self.L * t
        else:
            out[~pos] = 0.0
            if np.any(pos):
                out[pos] = self.expression(t=t[pos])
        if np.any(out < 0) or not np.all(np.isfinite(out)):
            raise EvaluationError("modulus must be nonnegative and finite")
        return out[0] if scalar else out

    def check_monotone(self, n=201):
        """Nonnegative and nondecreasing on a probe grid of [0, 1]."""
        grid = np.linspace(0.0, 1.0, n)
        vals = self.phi(grid)
        return bool(np.all(np.diff(vals) >= -1e-12) and np.all(vals >= 0))


@dataclass
class DiniVerdict:
    finite: bool
    value: float  # extrapolated integral for finite, last partial value otherwise
    partials: list  # (cutoff, integral from cutoff to 1)
    decay_exponent: float | None = None

    @property
    def label(self):
        return "finite" if self.finite else "divergent"


def _aitken_limit(values):
    """Aitken delta-squared extrapolation of the last three terms."""
    v0, v1, v2 = values[-3], values[-2], values[-1]
    d1, d2 = v1 - v0, v2 - v1
    denom = d2 - d1
    if abs(denom) < 1e-300:
        return v2
    return v2 - d2 * d2 / denom


def dini_classify(m, lower_cutoffs=None):
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
    if lower_cutoffs is None:
        lower_cutoffs = np.logspace(-2, -12, 6)
    cutoffs = np.asarray(lower_cutoffs, dtype=float)
    if np.any(np.diff(cutoffs) >= 0) or np.any(cutoffs <= 0) or np.any(cutoffs >= 1):
        raise ValueError("cutoffs must decrease toward 0 within (0,1)")
    from scipy.integrate import quad

    def integrand(s):
        return float(m.phi(s)) / s

    partials = []
    total = 0.0
    upper = 1.0
    for c in cutoffs:
        piece, _err = quad(integrand, c, upper, limit=200)
        total += piece
        partials.append((float(c), total))
        upper = c

    values = np.array([p[1] for p in partials])
    rel = np.abs(np.diff(values[-3:])) / np.maximum(np.abs(values[-3:-1]), 1e-300)
    if np.all(rel < 1e-3):
        return DiniVerdict(finite=True, value=float(_aitken_limit(values)), partials=partials)

    # Local decay exponent of psi(r) = phi(exp(-r)) against log r.
    r = np.log(1.0 / cutoffs)
    psi = np.array([float(m.phi(math.exp(-ri))) for ri in r])
    if np.any(psi <= 0):
        # phi vanishing on the probe tail: integral of the remaining tail is 0.
        return DiniVerdict(finite=True, value=float(values[-1]), partials=partials)
    lp = np.log(psi)
    lr = np.log(r)
    exps = -(np.diff(lp) / np.diff(lr))
    p_hat = float(exps[-1])
    if p_hat <= 1.05:
        return DiniVerdict(finite=False, value=float(values[-1]), partials=partials,
                           decay_exponent=p_hat)
    if len(exps) >= 2 and exps[-1] > 1.1 * exps[-2]:
        # super-polynomial decay (e.g. Holder): geometric tail, Aitken is exact
        value = float(_aitken_limit(values))
    else:
        # power-law tail psi ~ (r'/r)^(-p): closed-form remainder
        value = float(values[-1] + psi[-1] * r[-1] / (p_hat - 1.0))
    return DiniVerdict(finite=True, value=value, partials=partials, decay_exponent=p_hat)


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


def parse_field(expression_text, in_dim, out_dim, matrix=False, **meta):
    """Parse ';'-separated coordinate expressions into a VectorField."""
    n_out = out_dim * out_dim if matrix else out_dim
    coords = coordinate_function(expression_text, in_dim, n_out)
    func = (lambda x: coords(x).reshape(x.shape[0], out_dim, out_dim)) if matrix else coords
    return VectorField(in_dim=in_dim, out_dim=out_dim, func=func, matrix=matrix, **meta)


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

    def gap_field(self, eps):
        if self.perturbation is None:
            return None
        return self.perturbation(eps)


# ---------------------------------------------------------------------------
# SDE problems

@dataclass
class SdeProblem:
    """Full problem description for the non-degenerate and degenerate layouts.

    Non-degenerate: state dim n; dX = (b1^eps + eps*b2) dt + sqrt(eps) sigma dW.
    Degenerate (d1, d2): dX = bbar^eps dt; dY = (Bbar^eps + eps*b) dt
    + sqrt(eps) sigma(Y) dW.  eps is always a runtime parameter.
    """

    name: str
    layout: str  # 'nondegenerate' | 'degenerate'
    horizon_T: float
    ellipticity_K: float
    lipschitz_L: float
    working_box: Box
    start: np.ndarray
    # non-degenerate coefficients
    drift: DriftFamily | None = None          # b1 family (R^n -> R^n)
    singular_drift: VectorField | None = None  # b2 (R^n -> R^n)
    diffusion: VectorField | None = None       # sigma (noisy dim, matrix-valued)
    # degenerate coefficients
    bbar: DriftFamily | None = None            # R^{d1+d2} -> R^{d1}
    Bbar: DriftFamily | None = None            # R^{d1+d2} -> R^{d2}
    dims: tuple = ()                           # (n,) or (d1, d2)

    def __post_init__(self):
        if self.horizon_T <= 0:
            raise ValueError("horizon_T must be positive")
        if self.ellipticity_K <= 1:
            raise ValueError("ellipticity_K must exceed 1")
        if self.layout == "nondegenerate":
            (n,) = self.dims
            if self.diffusion is None or self.diffusion.out_dim != n:
                raise ValueError("diffusion must be square of the state dimension")
        elif self.layout == "degenerate":
            d1, d2 = self.dims
            if self.diffusion is None or self.diffusion.out_dim != d2 \
                    or self.diffusion.in_dim != d2:
                raise ValueError("degenerate diffusion must be d2 x d2 and depend on y only")
            if self.singular_drift is not None and self.singular_drift.in_dim != d2:
                raise ValueError("degenerate singular drift acts on the noisy block only")
        else:
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.singular_drift is not None and self.singular_drift.declared_modulus is None:
            raise ValueError("singular drift needs a declared modulus")

    @property
    def state_dim(self):
        return sum(self.dims)

    @property
    def noisy_dim(self):
        return self.dims[0] if self.layout == "nondegenerate" else self.dims[1]

    def noisy_box(self):
        """Working box restricted to the noisy coordinates."""
        if self.layout == "nondegenerate":
            return self.working_box
        d1, d2 = self.dims
        return Box(lo=self.working_box.lo[d1:], hi=self.working_box.hi[d1:])

    def singular_or_zero(self):
        if self.singular_drift is not None:
            return self.singular_drift
        m = self.noisy_dim
        return VectorField(in_dim=m, out_dim=m, func=lambda x: np.zeros((x.shape[0], m)),
                           name="zero", declared_modulus=Modulus.lipschitz(0.0),
                           declared_bound=0.0, lipschitz_const=0.0)


# ---------------------------------------------------------------------------
# Probes

@dataclass
class ProbeResult:
    passed: bool
    value: float
    witness: np.ndarray | None = None

    def __bool__(self):
        return self.passed


def _pair_samples(box, n_pairs, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    xs = box.sample(rng, n_pairs)
    ys = box.sample(rng, n_pairs)
    return xs, ys


def probe_lipschitz(f, box, n_pairs=2000, seed=0):
    """Sampled max of |f(x)-f(y)| / |x-y|: a lower bound on the true constant."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    xs, ys = _pair_samples(box, n_pairs, seed)
    gaps = np.linalg.norm(xs - ys, axis=1)
    keep = gaps >= 1e-12
    xs, ys, gaps = xs[keep], ys[keep], gaps[keep]
    fx, fy = f(xs), f(ys)
    if f.matrix:
        num = np.linalg.norm((fx - fy).reshape(len(xs), -1), axis=1)
    else:
        num = np.linalg.norm(fx - fy, axis=1)
    return float(np.max(num / gaps)) if len(gaps) else 0.0


def probe_ellipticity(sigma, K, box, n_points=500, seed=0, tol=1e-9):
    """Eigenvalues of sigma sigma^T must lie in [1/K, K] on sampled points."""
    if not sigma.matrix:
        raise ValueError("ellipticity probe needs a matrix-valued diffusion")
    if K <= 1:
        raise ValueError("K must exceed 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    pts = box.sample(rng, n_points)
    s = sigma(pts)
    a = s @ np.swapaxes(s, -1, -2)
    eig = np.linalg.eigvalsh(a)
    low, high = eig[:, 0], eig[:, -1]
    bad = (low < 1.0 / K - tol) | (high > K + tol)
    if np.any(bad):
        i = int(np.argmax(bad))
        off = float(high[i] if high[i] > K + tol else low[i])
        return ProbeResult(passed=False, value=off, witness=pts[i])
    return ProbeResult(passed=True, value=float(np.max(high)))


def probe_modulus(f, m, box, n_pairs=2000, seed=0, slack=1e-6):
    """Check |f(x)-f(y)| <= phi(|x-y|) * (1 + slack) on sampled pairs."""
    xs, ys = _pair_samples(box, n_pairs, seed)
    gaps = np.linalg.norm(xs - ys, axis=1)
    keep = gaps >= 1e-12
    xs, ys, gaps = xs[keep], ys[keep], gaps[keep]
    diff = np.linalg.norm(f(xs) - f(ys), axis=1)
    bound = m.phi(gaps) * (1.0 + slack)
    bad = diff > bound
    if np.any(bad):
        i = int(np.argmax(diff - bound))
        return ProbeResult(passed=False, value=float(diff[i] - m.phi(gaps[i])),
                           witness=np.concatenate([xs[i], ys[i]]))
    margin = float(np.max(diff - bound)) if len(gaps) else 0.0
    return ProbeResult(passed=True, value=margin)


def drift_family_limit_gap(problem, eps, box=None, n_points=2000, seed=0):
    """Sampled sup-norm of b1^eps - b1^0 over the box (both blocks if degenerate)."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0,1)")
    box = box or problem.working_box
    rng = np.random.Generator(np.random.Philox(key=seed))
    pts = box.sample(rng, n_points)
    total = 0.0
    families = [problem.drift] if problem.layout == "nondegenerate" \
        else [problem.bbar, problem.Bbar]
    for fam in families:
        gap = fam.gap_field(eps)
        if gap is None:
            continue
        total = max(total, float(np.max(np.linalg.norm(gap(pts), axis=1))))
    return total
