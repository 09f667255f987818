"""End-to-end verification gates.

Each gate is a pure function returning a GateReport; the CLI `verify` verb
and the acceptance test suite share this list, so a gate passing here is
exactly a criterion passing there.  Gates print nothing; callers render
``report.line()``.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np

from .action import (ball_target, half_space_target, minimize_rate, rate_via_transform,
                     skeleton, ControlPath)
from .ldp import bound_check, fit_slope, ldp_experiment, terminal_event
from .model import Modulus, dini_classify
from .problems import _bundled_text, bundled_sections, load_problem, parse_problem_text
from .simulate import (brownian_increments, coarsen_increments, conjugacy_check,
                       simulate_degenerate)
from .zvonkin import find_lambda0, solve_resolvent, theta, theta_inv, transform

__all__ = ["GateReport", "GATES", "run_gates", "gate_names", "gaussian_reference_slope",
           "memo_ladder", "memo_solve"]


@dataclass
class GateReport:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)
    skipped: bool = False
    wall_s: float | None = None   # set by run_gates; None for a skipped gate

    def __post_init__(self):
        self.passed = bool(self.passed)   # a verdict ending in a NumPy comparison

    def line(self):
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        info = " ".join(f"{k}={_fmt(v)}" for k, v in self.detail.items())
        wall = "" if self.wall_s is None else f" wall_s={self.wall_s:.3g}"
        return f"[{status}] {self.name}: {info}{wall}"


def _fmt(v):
    if isinstance(v, dict):
        return "{" + ",".join(f"{k}:{_fmt(x)}" for k, x in v.items()) + "}"
    if isinstance(v, list):
        return "[" + ",".join(map(_fmt, v)) + "]"
    return f"{v:.5g}" if isinstance(v, float) else str(v)


# ---------------------------------------------------------------------------
# Shared fixtures

# Gate 1's problem: brownian-1d with the constant singular drift b2 = 1.
_CONSTANT_SINGULAR = """
[singular]
field = registry: constant(values=1.0)

[modulus]
kind = lipschitz
l = 0
"""


# Ladders and minimum-action solves on bundled problems, keyed by what they
# compute, not by which gate asks: problem files that differ only in ``name``,
# or in a singular drift that is left out, give one experiment.  The certified
# dini map that gates 2, 3, 4 and 6 read is kept here too.
_EXPERIMENTS = {}
_FIXED_SEED = 0               # gates 3, 5 and 6: the run's seed does not reach them


def _content(name, with_singular):
    dropped = () if with_singular else ("singular", "modulus")
    sections = bundled_sections(name)
    sections["problem"].pop("name")
    return tuple(sorted((s, tuple(sorted(kv.items())))
                        for s, kv in sections.items() if s not in dropped))


def memo_ladder(name, target, eps_ladder, n_paths, n_steps, seed, with_singular=True):
    """``ldp_experiment`` on bundled problem ``name`` for the terminal event
    in ``target``, run once per distinct experiment."""
    key = ("ladder", _content(name, with_singular), target.description, target.coords,
           tuple(eps_ladder), n_paths, n_steps, seed)
    if key not in _EXPERIMENTS:
        _EXPERIMENTS[key] = ldp_experiment(load_problem(name), terminal_event(target),
                                           eps_ladder, n_paths, n_steps, seed,
                                           with_singular=with_singular)
    return _EXPERIMENTS[key]


def _dini_map():
    """dini-tanhlog-1d and its ``find_lambda0`` result at resolution 257, solved once."""
    key = ("dini_map",)
    if key not in _EXPERIMENTS:
        problem = load_problem("dini-tanhlog-1d")
        _EXPERIMENTS[key] = (problem, find_lambda0(problem, resolution=257))
    return _EXPERIMENTS[key]


def memo_solve(name, target, n_intervals, restarts, seed):
    """``minimize_rate`` on bundled problem ``name``, run once per distinct
    solve; solves run at eps = 0, where the singular drift is absent."""
    key = ("solve", _content(name, False), target.description, target.coords,
           n_intervals, restarts, seed)
    if key not in _EXPERIMENTS:
        _EXPERIMENTS[key] = minimize_rate(load_problem(name), target, n_intervals=n_intervals,
                                          restarts=restarts, seed=seed)
    return _EXPERIMENTS[key]


# ---------------------------------------------------------------------------
# Gates (one per acceptance criterion, in order)

def gate_constant_resolvent():
    """Constant perturbation solves to c / lambda and certifies at |c|/lambda <= 1/2."""
    c = 1.0                                   # b2 in _CONSTANT_SINGULAR
    problem = parse_problem_text(_bundled_text("brownian-1d") + _CONSTANT_SINGULAR)
    lam = 4.0
    zmap = solve_resolvent(problem, lam, resolution=129)
    err = float(np.max(np.abs(zmap.u.values - c / lam)))
    res = find_lambda0(problem, resolution=129)
    expected_lambda0 = 2.0  # first ladder value with |c|/lambda <= 1/2
    ok = err <= 1e-8 and res.map.lam == expected_lambda0 and res.map.certified
    return GateReport("constant_resolvent_exactness", ok,
                      {"sup_error": err, "lambda0": res.map.lam,
                       "expected": expected_lambda0})


def gate_norm_certificate():
    """Certified norm sum <= 1/2 with a nonincreasing lambda-ladder trail."""
    problem, res = _dini_map()
    sums = [s for _, _, s in res.trail]
    monotone = all(s2 <= s1 + 1e-12 for s1, s2 in zip(sums, sums[1:]))
    ok = res.map.certified and res.map.norm_sum <= 0.5 and monotone
    return GateReport("norm_certificate", ok,
                      {"lambda0": res.map.lam, "norm_sum": res.map.norm_sum,
                       "ladder_sums": [float(s) for s in sums],
                       "monotone": monotone})


def gate_homeomorphism_roundtrip():
    """theta_inv(theta(x)) = x to 1e-10 with per-step contraction <= 1/2."""
    problem, res = _dini_map()
    zmap = res.map
    rng = np.random.Generator(np.random.Philox(key=_FIXED_SEED))
    pts = zmap.interior_box().sample(rng, 1000)
    ys = theta(zmap, pts)
    worst_err = 0.0
    worst_ratio = 0.0
    for y, x in zip(ys, pts):
        back, steps = theta_inv(zmap, y, record_steps=True)
        worst_err = max(worst_err, float(np.linalg.norm(back - x)))
        # contraction ratios while steps are above rounding noise
        for s1, s2 in zip(steps, steps[1:]):
            if s2 < 1e-13:
                break
            worst_ratio = max(worst_ratio, s2 / s1)
    ok = worst_err <= 1e-10 and worst_ratio <= 0.5 + 1e-6
    return GateReport("homeomorphism_roundtrip", ok,
                      {"max_roundtrip_error": worst_err,
                       "max_contraction_ratio": worst_ratio})


def gate_ito_conjugacy(seed=2024, n_paths=8):
    """Shared-noise transform discrepancy shrinks across three dt-halvings.

    The discrepancy at each step count is averaged over a few independent
    Brownian paths; each path's noise is block-summed from the finest grid so
    all four refinement levels see the same driving noise.
    """
    problem, res = _dini_map()
    zmap = res.map
    eps = 0.5
    fine_steps = 800
    dt_fine = problem.horizon_T / fine_steps
    fine = brownian_increments(seed, range(n_paths), fine_steps, problem.noisy_dim, dt_fine)
    discrepancies = []
    for level in range(4):
        inc = coarsen_increments(fine, 2 ** (3 - level))
        discrepancies.append(float(np.mean(conjugacy_check(problem, zmap, eps, inc))))
    ratios = [a / b for a, b in zip(discrepancies, discrepancies[1:])]
    ok = all(r >= 1.15 for r in ratios)
    return GateReport("ito_conjugacy_refinement", ok,
                      {"discrepancies": "[" + ",".join(f"{d:.2e}" for d in discrepancies) + "]",
                       "ratios": "[" + ",".join(f"{r:.2f}" for r in ratios) + "]"})


def gate_rate_oracles():
    """Closed-form minimum actions: free endpoint and linear-pull endpoint."""
    a, T = 1.0, 1.0
    r_free = memo_solve("free-endpoint", ball_target([a]), 32, 4, _FIXED_SEED)
    free_exact = a ** 2 / (2 * T)
    r_ou = memo_solve("ou-1d", ball_target([a]), 32, 4, _FIXED_SEED)
    ou_exact = 0.5 * a ** 2 / ((1.0 - np.exp(-2.0 * T)) / 2.0)
    err_free = abs(r_free.value - free_exact) / free_exact
    err_ou = abs(r_ou.value - ou_exact) / ou_exact
    ok = err_free <= 0.01 and err_ou <= 0.01
    return GateReport("rate_oracles", ok,
                      {"free_value": r_free.value, "free_exact": free_exact,
                       "free_rel_err": err_free,
                       "ou_value": r_ou.value, "ou_exact": float(ou_exact),
                       "ou_rel_err": float(err_ou)})


def gate_transform_rate_identity():
    """Minimum action agrees through the change of variables; skeletons conjugate."""
    problem, res = _dini_map()
    zmap = res.map
    target = ball_target([1.0])
    direct = memo_solve("dini-tanhlog-1d", target, 32, 4, _FIXED_SEED)
    through = rate_via_transform(problem, zmap, target, n_intervals=32, restarts=4,
                                 seed=_FIXED_SEED)
    rel = abs(direct.value - through.value) / max(abs(direct.value), 1e-12)

    # skeleton conjugacy: the same 20 controls drive both systems, as one batch
    n_steps = 256
    h = zmap.u.steps()[0]
    tol = 0.125 * h ** 2 * max(zmap.norms[2], 1.0) * np.exp(2.0 * problem.horizon_T) \
        + (problem.horizon_T / n_steps) ** 2 * 100.0
    rng = np.random.Generator(np.random.Philox(key=_FIXED_SEED))
    control = ControlPath(hdot=0.5 * rng.standard_normal((20, 8, problem.noisy_dim)),
                          horizon_T=problem.horizon_T)
    gx = skeleton(problem, control, n_steps).states
    gy = skeleton(transform(problem, zmap), control, n_steps).states
    mapped = theta(zmap, gx.reshape(-1, gx.shape[-1])).reshape(gx.shape)
    worst = float(np.max(np.linalg.norm(mapped - gy, axis=-1)))
    ok = rel <= 0.02 and worst <= 10.0 * tol
    return GateReport("transform_rate_identity", ok,
                      {"direct": direct.value, "through": through.value,
                       "rel_gap": rel, "skeleton_sup_err": worst,
                       "allowance": float(10.0 * tol)})


_GAUSS_LADDER = (0.5, 0.25, 0.125, 0.0625)
_DEGEN_LADDER = (1.0 / 36, 1.0 / 54, 1.0 / 72)
_N_PATHS, _DEGEN_PATHS, _N_STEPS = 100_000, 1_000_000, 256
_TAIL = half_space_target([1.0], 1.0)                      # X_T >= 1
_Y_TAIL = half_space_target([1.0], 0.5, coords=(1,))      # Y_T >= 0.5


def gaussian_reference_slope():
    """The prescribed slope fit applied to the exact law of sqrt(eps) W_1 >= 1.

    Closed form, no simulation: the ladder points are (eps, Phi(-1/sqrt(eps)),
    _N_PATHS) for eps in ``_GAUSS_LADDER``.  There the Mills-ratio prefactor of
    the Gaussian tail makes this about -0.600 rather than the eps -> 0 limit
    -1/2.
    """
    from scipy.special import ndtr

    ladder = [(eps, float(ndtr(-1.0 / np.sqrt(eps))), _N_PATHS) for eps in _GAUSS_LADDER]
    return fit_slope(ladder)[0]


def gate_gaussian_slope(seed=2024):
    """Pure-noise terminal tail: Monte Carlo slope against the exact-law fit.

    The slope fitted to the simulated ladder must lie within 10% of the slope
    the same regression gives on the exact probabilities Phi(-1/sqrt(eps)).
    The limit rate 1/2 is not reached on this ladder; the report keeps the
    gap ``limit_gap = reference_slope + 0.5`` in view, and criterion 11
    checks the rate 1/2 itself as a large-deviations bound.
    """
    est = memo_ladder("brownian-1d", _TAIL, _GAUSS_LADDER, _N_PATHS, _N_STEPS, seed)
    reference = gaussian_reference_slope()
    limit = -0.5
    rel = abs(est.slope - reference) / abs(reference)
    ok = rel <= 0.10
    return GateReport("gaussian_slope", ok,
                      {"slope": est.slope, "stderr": est.slope_stderr,
                       "reference_slope": reference, "rel_err": rel,
                       "limit_slope": limit, "limit_gap": reference - limit,
                       "p_hats": [pt.p_hat for pt in est.ladder]})


def gate_singular_insensitivity(seed=2024):
    """Slope with and without the vanishing singular drift term must agree."""
    with_b2, without = (memo_ladder("dini-tanhlog-1d", _TAIL, _GAUSS_LADDER, _N_PATHS,
                                    _N_STEPS, seed, with_singular=flag)
                        for flag in (True, False))
    diff = abs(with_b2.slope - without.slope)
    combined = np.hypot(with_b2.slope_stderr, without.slope_stderr)
    rel = diff / max(abs(without.slope), 1e-12)
    ok = diff <= 2.0 * combined and rel <= 0.10
    return GateReport("singular_insensitivity", ok,
                      {"slope_with": with_b2.slope, "slope_without": without.slope,
                       "diff": diff, "2x_stderr": float(2 * combined),
                       "rel": rel})


def gate_degenerate_slope(seed=2024):
    """Noise-only-in-Y system: Y-marginal slope vs. the minimized rate."""
    problem = load_problem("hamiltonian-2d")
    est = memo_ladder("hamiltonian-2d", _Y_TAIL, _DEGEN_LADDER, _DEGEN_PATHS, _N_STEPS, seed)
    rate = memo_solve("hamiltonian-2d", _Y_TAIL, 32, 4, seed)
    rel = abs(est.slope - (-rate.value)) / rate.value

    # X-block must be noise-free: single-step moves bounded by the drift alone
    path = simulate_degenerate(problem, eps=1.0 / 16, n_steps=_N_STEPS, seed=seed)
    dx = np.abs(np.diff(path.states[:, 0]))
    quiet_sup = float(np.max(np.abs(path.states[:, 1])))  # |quiet drift(x, y)| = |y|
    dt = problem.horizon_T / _N_STEPS
    noise_free = bool(np.max(dx) <= quiet_sup * dt + 1e-12)
    ok = rel <= 0.15 and noise_free
    return GateReport("degenerate_slope", ok,
                      {"slope": est.slope, "rate": rate.value,
                       "rel_err": rel, "x_noise_free": noise_free,
                       "p_hats": [pt.p_hat for pt in est.ladder]})


def gate_dini_classification():
    """Verdicts for the log-moduli and the exact Holder integral value."""
    verdicts = []
    for beta, want in ((1.5, True), (2.0, True), (3.0, True), (0.5, False), (1.0, False)):
        v = dini_classify(Modulus.dini_log(beta))
        verdicts.append({"beta": beta, "finite": v.finite, "passed": v.finite == want})
    holder = []
    for alpha in (0.25, 0.5, 0.75):
        v = dini_classify(Modulus.holder(alpha))
        exact = 1.0 / alpha
        err = abs(v.value - exact) / exact
        holder.append({"alpha": alpha, "value": v.value, "rel_err": err,
                       "passed": v.finite and err <= 1e-3})
    ok = all(c["passed"] for c in verdicts + holder)
    return GateReport("dini_classification", ok, {"verdicts": verdicts, "holder": holder})


def gate_bound_checks(seed=2024):
    """Slope-versus-rate inequality on the ladders of gates 7, 8 and 9."""
    ladders = [
        (memo_ladder("brownian-1d", _TAIL, _GAUSS_LADDER, _N_PATHS, _N_STEPS, seed), 0.5),
        (memo_ladder("dini-tanhlog-1d", _TAIL, _GAUSS_LADDER, _N_PATHS, _N_STEPS, seed), 0.5),
        (memo_ladder("hamiltonian-2d", _Y_TAIL, _DEGEN_LADDER, _DEGEN_PATHS, _N_STEPS, seed),
         memo_solve("hamiltonian-2d", _Y_TAIL, 32, 4, seed)),
    ]
    checks = [asdict(bound_check(est, rate, "upper_for_closed")) for est, rate in ladders]
    return GateReport("bound_checks", all(c["passed"] for c in checks), {"checks": checks})


# ---------------------------------------------------------------------------
# Orchestration

# Each entry takes the run's seed; only the Monte Carlo gates and their bound
# checks are seeded by it, the others keep their own fixed seeds.
GATES = [
    ("constant_resolvent_exactness", lambda seed: gate_constant_resolvent()),
    ("norm_certificate", lambda seed: gate_norm_certificate()),
    ("homeomorphism_roundtrip", lambda seed: gate_homeomorphism_roundtrip()),
    ("ito_conjugacy_refinement", lambda seed: gate_ito_conjugacy()),
    ("rate_oracles", lambda seed: gate_rate_oracles()),
    ("transform_rate_identity", lambda seed: gate_transform_rate_identity()),
    ("gaussian_slope", gate_gaussian_slope),
    ("singular_insensitivity", gate_singular_insensitivity),
    ("degenerate_slope", gate_degenerate_slope),
    ("dini_classification", lambda seed: gate_dini_classification()),
    ("bound_checks", gate_bound_checks),
]


def gate_names():
    return [name for name, _ in GATES]


def run_gates(names=None, seed=2024, skip=()):
    """Run the named gates (all by default); returns a list of GateReport.
    A name in ``names`` or ``skip`` that is no gate's is refused with
    ``ValueError`` before any gate runs."""
    if unknown := (set(names or ()) | set(skip)) - set(gate_names()):
        raise ValueError(f"unknown gate(s): {sorted(unknown)}")
    reports = []
    for name, gate in GATES:
        if names is not None and name not in names:
            continue
        if name in skip:
            reports.append(GateReport(name, True, {"note": "explicitly skipped"},
                                      skipped=True))
            continue
        start = time.perf_counter()
        try:
            report = gate(seed)
        except Exception as exc:  # a crashed gate is a failed gate
            report = GateReport(name, False, {"error": repr(exc),
                                              "traceback": traceback.format_exc()})
        report.wall_s = time.perf_counter() - start
        reports.append(report)
    return reports
