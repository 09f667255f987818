"""The three benchmark workloads, each driven through ldplab's public calls.

Constructing a workload is its set-up (imports happen when this module is
imported).  ``steps(seed)`` lists the timed calls of one round as
(label, operations, call); ``check(outputs)`` compares their outputs with
the independent references in ``checks``; ``summary(outputs)`` gives the
values that must repeat exactly when a round is repeated with the same seed.

Seeds follow the gates: the Monte Carlo ladders use 2024 + seed, the
minimum-action solves 0 + seed (gates 5 and 6) and 2024 + seed (gate 9).
The coupling workload is gate 4 exactly as prescribed, seed 2024 whatever
the benchmark seed, because its ratio bound is not met on every seed.
"""

from __future__ import annotations

import importlib
import re

from ldplab import ball_target, half_space_target, load_problem, terminal_event

import checks

# Traced calls are looked up on their modules at call time, so that spans
# installed after this import see them.  (``import ldplab.action`` would
# give the function ``ldplab.action``, which shadows the module.)
action, ldp, verify = (importlib.import_module(f"ldplab.{m}")
                       for m in ("action", "ldp", "verify"))

N_STEPS = 256
LADDER_PATHS = 32768          # one 32768-row chunk per ladder point
GAUSS_LADDER = (0.5, 0.25, 0.125, 0.0625)
DEGEN_LADDER = (1.0 / 36, 1.0 / 54, 1.0 / 72)
DEGEN_THRESHOLD = 0.5
DEGEN_FRICTION = 0.1          # |Bbar| <= 0.1 on hamiltonian-2d
MIN_ACTION = dict(n_intervals=32, restarts=4)


def _points(ladder):
    return [(pt.eps, pt.hits, pt.n_paths) for pt in ladder]


class McLadder:
    """Gates 7, 8 and 9's ladders at one chunk of paths per point."""

    def __init__(self):
        self.brownian = load_problem("brownian-1d")
        self.dini = load_problem("dini-tanhlog-1d")
        self.hamiltonian = load_problem("hamiltonian-2d")

    def steps(self, seed):
        s = 2024 + seed
        # estimate_probability writes to its event, so each ladder gets its own
        gauss_event, dini_event = (terminal_event(half_space_target([1.0], 1.0))
                                   for _ in range(2))
        y_event = terminal_event(half_space_target([1.0], DEGEN_THRESHOLD, coords=(1,)))
        return [
            ("gaussian_ladder", len(GAUSS_LADDER), lambda: ldp.ldp_experiment(
                self.brownian, gauss_event, GAUSS_LADDER, LADDER_PATHS, N_STEPS, s)),
            ("dini_ladder", len(GAUSS_LADDER), lambda: ldp.ldp_experiment(
                self.dini, dini_event, GAUSS_LADDER, LADDER_PATHS, N_STEPS, s,
                with_singular=True)),
            # at this path count the smallest eps often has no hit, so the
            # slope fit inside ldp_experiment could not run: call each point
            ("degenerate_ladder", len(DEGEN_LADDER), lambda: [
                ldp.estimate_probability(self.hamiltonian, y_event, eps, LADDER_PATHS, N_STEPS,
                                         s, point_index=j)
                for j, eps in enumerate(DEGEN_LADDER)]),
        ]

    @staticmethod
    def check(out):
        result = []
        if "gaussian_ladder" in out:
            g = out["gaussian_ladder"]
            pts = _points(g.ladder)
            result += [checks.check_gaussian_points("gaussian_points", pts),
                       checks.check_fit_reproduced("gaussian_fit", pts, g.slope, g.slope_stderr),
                       checks.check_gaussian_slope("gaussian_slope", pts, g.slope,
                                                   g.slope_stderr)]
        if "dini_ladder" in out:
            d = out["dini_ladder"]
            pts = _points(d.ladder)
            result += [checks.check_drift_bounds("dini_points", pts, lambda e: e, 1.0),
                       checks.check_fit_reproduced("dini_fit", pts, d.slope, d.slope_stderr)]
            if "gaussian_ladder" in out:
                g = out["gaussian_ladder"]
                result.append(checks.check_slopes_agree("dini_slope", d.slope, d.slope_stderr,
                                                        g.slope, g.slope_stderr))
        if "degenerate_ladder" in out:
            result.append(checks.check_drift_bounds(
                "degenerate_points", _points(out["degenerate_ladder"]),
                lambda e: DEGEN_FRICTION + e, DEGEN_THRESHOLD))
        return result

    @staticmethod
    def summary(out):
        return {k: [pt.hits for pt in (v.ladder if hasattr(v, "ladder") else v)]
                for k, v in out.items()}

    @staticmethod
    def path_steps():
        return (2 * len(GAUSS_LADDER) + len(DEGEN_LADDER)) * LADDER_PATHS * N_STEPS


class TransformCoupling:
    """Gate 4: shared-noise original and transformed paths on dini-tanhlog-1d."""

    N_PATHS = 8
    FINE_STEPS = 800

    def __init__(self):
        verify._dini_map()    # the certified map the gate uses, at resolution 257

    def steps(self, seed):
        return [("coupling", 4, lambda: verify.gate_ito_conjugacy(seed=2024,
                                                                  n_paths=self.N_PATHS))]

    @staticmethod
    def check(out):
        if "coupling" not in out:
            return []
        report = out["coupling"]
        found = re.findall(r"[-+0-9.eE]+", report.detail["discrepancies"])
        return [("coupling_gate_verdict", bool(report.passed), {}),
                checks.check_coupling("coupling_ratios", [float(v) for v in found])]

    @staticmethod
    def summary(out):
        return {k: v.detail for k, v in out.items()}

    @classmethod
    def path_steps(cls):
        levels = [cls.FINE_STEPS >> k for k in range(4)]
        return 2 * cls.N_PATHS * sum(levels)   # original and transformed systems


class MinAction:
    """The minimum-action solves of gates 5, 6 and 9 at the gates' arguments."""

    def __init__(self):
        self.free = load_problem("free-endpoint")
        self.ou = load_problem("ou-1d")
        self.hamiltonian = load_problem("hamiltonian-2d")
        self.dini, res = verify._dini_map()
        self.zmap = res.map

    def steps(self, seed):
        unit = ball_target([1.0])
        y_target = half_space_target([1.0], DEGEN_THRESHOLD, coords=(1,))
        return [
            ("free", 1, lambda: action.minimize_rate(self.free, unit, seed=seed, **MIN_ACTION)),
            ("ou", 1, lambda: action.minimize_rate(self.ou, unit, seed=seed, **MIN_ACTION)),
            ("theta", 1, lambda: action.rate_via_transform(self.dini, self.zmap, unit, seed=seed,
                                                    **MIN_ACTION)),
            ("degenerate", 1, lambda: action.minimize_rate(self.hamiltonian, y_target,
                                                    seed=2024 + seed, **MIN_ACTION)),
        ]

    @staticmethod
    def check(out):
        refs = {"free": checks.FREE_RATE, "ou": checks.OU_RATE, "theta": checks.DINI_RATE}
        result = [checks.check_rate(f"rate_{k}", out[k].value, ref)
                  for k, ref in refs.items() if k in out]
        if "degenerate" in out:
            result.append(checks.check_rate(
                "rate_degenerate", out["degenerate"].value,
                checks.pontryagin_degenerate_rate(DEGEN_THRESHOLD, DEGEN_FRICTION)))
        return result

    @staticmethod
    def summary(out):
        return {k: v.value for k, v in out.items()}

    @staticmethod
    def path_steps():
        return None       # RK4 steps depend on the optimizer's path; see action.* counts


WORKLOADS = {"mc-ladder": McLadder, "transform-coupling": TransformCoupling,
             "min-action": MinAction}
