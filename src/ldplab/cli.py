"""Command-line entry point: validate | zvonkin | simulate | rate | ldp | verify.

Every verb resolves its configuration into its parsed arguments and emits
machine-readable outputs under --out, and returns 0 (success) or 1 (a gate,
probe or check failed).  A verb refuses an input by raising ``InputError``
and reports non-convergence by raising ``SolveFailure``; ``main`` alone maps
these to exit codes 2 and 3, and writes ``manifest.json``, echoing the
resolved arguments, after every run it did not refuse (exit 0, 1 or 3).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
from dataclasses import asdict

import numpy as np
import scipy

from . import __version__
from .action import ball_target, half_space_target, minimize_rate
from .expr import EvaluationError, ParseError
from .ldp import bound_check, ldp_experiment, terminal_event
from .model import (drift_family_limit_gap, probe_ellipticity, probe_lipschitz,
                    probe_modulus)
from .problems import list_problems, load_problem
from .simulate import brownian_increments, dynamics, euler
from .verify import gate_names, run_gates
from .zvonkin import MARGIN, SolveFailure, find_lambda0

FORMAT_VERSION = 2

EXIT_OK = 0
EXIT_GATE_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_CONVERGENCE = 3


class InputError(ValueError):
    """A refused invocation: exit 2, and nothing written."""


def _output(out_dir, name):
    """The path of output ``name``, making its directory on first use."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_json(out_dir, name, payload):
    with open(_output(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(args):
    try:
        return load_problem(args.problem)
    except FileNotFoundError as exc:
        raise InputError(f"problem file not found: {exc}") from exc
    except (ParseError, KeyError, ValueError) as exc:
        raise InputError(f"problem file invalid: {exc}") from exc


# ---------------------------------------------------------------------------
# Verbs

def verb_validate(args):
    problem = _load(args)
    checks = []

    def check(name, passed, info, **numbers):
        checks.append({"name": name, "passed": bool(passed), "info": info, **numbers})

    ell = probe_ellipticity(problem.diffusion, problem.ellipticity_K,
                            problem.noisy_box(), seed=args.seed)
    check("ellipticity", ell.passed,
          f"max_eigenvalue={ell.value:.4g}" + ("" if ell.passed else f" witness={ell.witness}"))

    fams = [("x_drift", problem.quiet_drift), ("y_drift", problem.drift)] if problem.n_quiet \
        else [("drift", problem.drift)]
    for label, fam in fams:
        probed = probe_lipschitz(fam.limit, problem.working_box, seed=args.seed)
        ok = probed <= problem.lipschitz_L * (1.0 + 1e-6)
        check(f"{label}_lipschitz", ok, f"probed={probed:.4g} declared={problem.lipschitz_L}")
        if fam.perturbation is not None:
            gaps = [drift_family_limit_gap(fam, problem.working_box, eps, seed=args.seed)
                    for eps in (0.5, 0.25, 0.125)]
            shrinks = all(b <= a for a, b in zip(gaps, gaps[1:])) and gaps[-1] < gaps[0]
            check(f"{label}_gap_shrinks", shrinks,
                  "sup_gaps=" + ",".join(f"{g:.4g}" for g in gaps) + " at eps=0.5,0.25,0.125",
                  sup_gaps=gaps)

    b2 = problem.singular_drift
    if b2 is not None:
        mono = b2.declared_modulus.check_monotone()
        check("modulus_monotone", mono, f"kind={b2.declared_modulus.kind}")
        probe = probe_modulus(b2, b2.declared_modulus, problem.noisy_box(),
                              seed=args.seed)
        check("singular_modulus", probe.passed, f"margin={probe.value:.3g}")
        if b2.declared_bound is not None:
            rng = np.random.Generator(np.random.Philox(key=args.seed))
            pts = problem.noisy_box().sample(rng, 2000)
            sup = float(np.max(np.linalg.norm(b2(pts), axis=1)))
            check("singular_bound", sup <= b2.declared_bound * (1 + 1e-9),
                  f"sup={sup:.4g} declared={b2.declared_bound}")

    for c in checks:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['info']}")
    _write_json(args.out, "validate.json", {"checks": checks})
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_GATE_FAILURE


def verb_zvonkin(args):
    problem = _load(args)
    try:
        res = find_lambda0(problem, resolution=args.resolution,
                           lambda_start=args.lambda_start,
                           max_doublings=args.max_doublings)
    except ValueError as exc:    # a lambda, resolution or doubling count out of range
        raise InputError(str(exc)) from exc
    zmap = res.map
    with open(_output(args.out, "map_values.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"u{c + 1}" for c in range(zmap.u.m)])
        for row in zmap.u.values.reshape(-1, zmap.u.m):
            writer.writerow([f"{float(v):.17g}" for v in row])
    a, b, c = zmap.norms
    print(f"lambda={zmap.lam:g} norms=({a:.6g},{b:.6g},{c:.6g}) "
          f"sum={zmap.norm_sum:.6g} certified={str(zmap.certified).lower()}")
    _write_json(args.out, "certificate.json", {
        "lambda0": zmap.lam, "norms": list(zmap.norms), "norm_sum": zmap.norm_sum,
        "residual": zmap.residual, "certified": zmap.certified,
        "picard_iters": zmap.picard_iters, "resolution": args.resolution,
        "box_lo": zmap.box.lo.tolist(), "box_hi": zmap.box.hi.tolist(), "margin": MARGIN,
        "trail": [{"lambda": l, "norms": list(n), "sum": s} for l, n, s in res.trail]})
    return EXIT_OK


def verb_simulate(args):
    problem = _load(args)
    if not (0.0 <= args.eps <= 1.0 and args.n_steps >= 1 and args.n_paths >= 1):
        raise InputError("--eps must lie in [0, 1]; --n-steps and --n-paths must be positive")
    dt = problem.horizon_T / args.n_steps
    try:
        increments = brownian_increments(args.seed, range(args.n_paths), args.n_steps,
                                         problem.noisy_dim, dt)
    except ValueError as exc:    # path indices beyond the noise keying's range
        raise InputError(str(exc)) from exc
    _, alive, paths = euler(dynamics(problem, args.eps), increments, keep_path=True)
    times = np.arange(args.n_steps + 1) * dt
    for i in range(args.n_paths):
        if not alive[i]:
            print(f"path {i}: escaped the working box", file=sys.stderr)
            continue
        with open(_output(args.out, f"path_{i:04d}.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"z{c + 1}" for c in range(problem.state_dim)])
            for t, row in zip(times, paths[i]):
                writer.writerow([f"{t:.10g}"] + [f"{v:.10g}" for v in row])
    escapes = int(np.sum(~alive))
    _write_json(args.out, "summary.json", {
        "n_paths": args.n_paths, "escapes": escapes, "eps": args.eps,
        "n_steps": args.n_steps})
    print(f"wrote {args.n_paths - escapes} path(s), {escapes} escape(s)")
    return EXIT_OK if escapes == 0 else EXIT_GATE_FAILURE


def _make_target(args, problem):
    """The event's target set; a coordinate outside the state, a negative or
    non-finite radius (for any event) or a non-finite threshold is refused."""
    if not 0.0 <= args.radius < np.inf:
        raise InputError(f"--radius must be a finite non-negative number, got {args.radius}")
    if args.coordinate is not None and not 0 <= args.coordinate < problem.state_dim:
        raise InputError(f"--coordinate must lie in [0, {problem.state_dim}), "
                         f"got {args.coordinate}")
    coords = None
    if problem.n_quiet and args.coordinate is None:
        coords = (problem.state_dim - 1,)
    elif args.coordinate is not None:
        coords = (args.coordinate,)
    center = [args.threshold] if coords else [args.threshold] * problem.state_dim
    try:
        if args.event == "terminal-above":
            return half_space_target([1.0], args.threshold, coords=coords)
        return ball_target(center, radius=args.radius, coords=coords)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def verb_rate(args):
    problem = _load(args)
    target = _make_target(args, problem)
    try:
        result = minimize_rate(problem, target, n_intervals=args.n_intervals,
                               restarts=args.restarts, seed=args.seed)
    except ValueError as exc:    # a target on a noise-free coordinate, say
        raise InputError(str(exc)) from exc
    objectives = [r["objective"] for r in result.restarts]
    spread = max(objectives) - min(objectives)
    payload = {"value": result.value, "endpoint": result.endpoint.tolist(),
               "multistart_spread": spread,
               "converged": result.converged, "n_intervals": result.minimizer.n_intervals,
               "restarts": result.restarts}
    _write_json(args.out, "rate.json", payload)
    print(f"rate value {result.value:.6f} (spread {spread:.2e})")
    if not result.converged:
        raise SolveFailure("the best restart did not converge; see restarts in rate.json")
    return EXIT_OK


def verb_ldp(args):
    problem = _load(args)
    try:
        args.eps_ladder = [float(e) for e in args.eps_ladder.split(",")]
    except ValueError:
        raise InputError(f"--eps-ladder must list numbers: {args.eps_ladder!r}") from None
    ladder = args.eps_ladder
    if not (len(set(ladder)) == len(ladder) >= 3 and all(0.0 < e <= 1.0 for e in ladder)):
        raise InputError(f"--eps-ladder must list at least 3 distinct numbers in (0, 1], "
                         f"got {ladder}")
    if args.n_paths < 100 or args.n_steps < 1:
        raise InputError("--n-paths must be at least 100 and --n-steps positive")
    if args.rate_value is not None and not 0.0 <= args.rate_value < np.inf:
        raise InputError(f"--rate-value must be a finite non-negative number, "
                         f"got {args.rate_value}")
    target = _make_target(args, problem)
    event = terminal_event(target)
    try:
        est = ldp_experiment(problem, event, ladder, args.n_paths, args.n_steps,
                             args.seed, with_singular=args.with_singular)
    except (RuntimeError, ValueError) as exc:    # every path escaped, or too few usable points
        raise SolveFailure(str(exc)) from exc
    with open(_output(args.out, "ladder.csv"), "w", encoding="utf-8") as fh:
        fh.write(est.as_csv())
    payload = {"slope": est.slope, "stderr": est.slope_stderr,
               "points_used": [(1.0 / pt.eps, float(np.log(pt.p_hat))) for pt in est.ladder
                               if 0.0 < pt.p_hat < 1.0],
               "with_singular": args.with_singular,
               "ladder": [{"eps": pt.eps, "hits": pt.hits, "escapes": pt.escapes,
                           "noise_s": pt.noise_s, "step_s": pt.step_s} for pt in est.ladder]}
    checks = []
    if args.rate_value is not None:
        checks = [bound_check(est, args.rate_value, "upper_for_closed")]
        payload["rate_value"] = args.rate_value
        payload["bound_checks"] = [asdict(report) for report in checks]
    _write_json(args.out, "ldp.json", payload)
    print(f"slope {est.slope:.6f} +/- {est.slope_stderr:.6f}")
    for report in checks:
        print(f"[{'PASS' if report.passed else 'FAIL'}] bound_check {report.side}: "
              f"slope {report.slope:.6f}, -rate + margin {report.margin - report.rate:.6f}")
    return EXIT_OK if all(report.passed for report in checks) else EXIT_GATE_FAILURE


def verb_verify(args):
    args.gates = args.gates.split(",") if args.gates else gate_names()
    args.skipped = sorted(set(args.skipped.split(","))) if args.skipped else []
    unknown = set(args.gates + args.skipped) - set(gate_names())
    if unknown:
        raise InputError(f"unknown gate(s): {sorted(unknown)}")
    reports = run_gates(names=args.gates, seed=args.seed, skip=set(args.skipped))
    for rep in reports:
        print(rep.line())
        _write_json(args.out, f"gate_{rep.name}.json", asdict(rep))
    failed = [r for r in reports if not r.passed and not r.skipped]
    if failed:
        print(f"{len(failed)} gate(s) failed: {', '.join(r.name for r in failed)}")
        return EXIT_GATE_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing

def _seed(text):
    """An integer in [0, 2**64), the range of a Philox key word."""
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"seeds are integers in [0, 2**64), got {value}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ldplab",
        description="Large-deviations laboratory for SDEs with singular drifts")
    parser.add_argument("--version", action="version", version=f"ldplab {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, problem_required=True):
        if problem_required:
            p.add_argument("--problem", required=True,
                           help=f"bundled name ({', '.join(list_problems())}) or file path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=_seed, default=2024)

    p = sub.add_parser("validate", help="run regularity and assumption probes")
    common(p)
    p.set_defaults(func=verb_validate)

    p = sub.add_parser("zvonkin", help="solve the resolvent equation and certify the map")
    common(p)
    p.add_argument("--resolution", type=int, default=257)
    p.add_argument("--lambda-start", type=float, default=1.0)
    p.add_argument("--max-doublings", type=int, default=20)
    p.set_defaults(func=verb_zvonkin)

    p = sub.add_parser("simulate", help="sample Euler-Maruyama paths")
    common(p)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--n-steps", type=int, default=256)
    p.add_argument("--n-paths", type=int, default=10)
    p.set_defaults(func=verb_simulate)

    def event_flags(p):
        p.add_argument("--event", choices=("terminal-above", "terminal-ball"),
                       default="terminal-above")
        p.add_argument("--threshold", type=float, default=1.0)
        p.add_argument("--radius", type=float, default=0.0)
        p.add_argument("--coordinate", type=int, default=None)

    p = sub.add_parser("rate", help="minimum-action value for an endpoint target")
    common(p)
    event_flags(p)
    p.add_argument("--n-intervals", type=int, default=32)
    p.add_argument("--restarts", type=int, default=8)
    p.set_defaults(func=verb_rate)

    p = sub.add_parser("ldp", help="Monte Carlo ladder and slope fit")
    common(p)
    event_flags(p)
    p.add_argument("--eps-ladder", default="0.5,0.25,0.125,0.0625")
    p.add_argument("--n-paths", type=int, default=100_000)
    p.add_argument("--n-steps", type=int, default=256)
    p.add_argument("--no-singular", dest="with_singular", action="store_false",
                   help="drop the vanishing singular drift term")
    p.add_argument("--rate-value", type=float, default=None,
                   help="minimized rate to compare against (adds bound checks)")
    p.set_defaults(func=verb_ldp)

    p = sub.add_parser("verify", help="run the acceptance gate suite")
    common(p, problem_required=False)
    p.add_argument("--gates", default=None,
                   help="comma-separated subset of gates (default: all)")
    p.add_argument("--skip", dest="skipped", default=None,
                   help="comma-separated gates to skip (echoed in the report)")
    p.set_defaults(func=verb_verify)
    return parser


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None):
    """Run one verb; the one place where errors become exit codes and where
    ``manifest.json`` is written (after the verb's outputs, for every run not
    refused)."""
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except InputError as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR)
    except EvaluationError as exc:    # a user field leaving its domain on the box
        return _fail(f"field evaluation failed: {exc}", EXIT_INPUT_ERROR)
    except SolveFailure as exc:
        code = _fail(str(exc), EXIT_NO_CONVERGENCE)
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out", "verb")}
    _write_json(args.out, "manifest.json", {
        "format_version": FORMAT_VERSION, "tool_version": __version__, "verb": args.verb,
        "config": config, "versions": {"python": platform.python_version(),
                                       "numpy": np.__version__, "scipy": scipy.__version__}})
    return code


if __name__ == "__main__":
    sys.exit(main())
