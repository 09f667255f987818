"""Command-line entry point: validate | zvonkin | simulate | rate | ldp | verify.

Every verb resolves its configuration, writes a manifest echoing it, and
emits machine-readable outputs under --out.  Exit codes: 0 success,
1 gate/probe failure, 2 input error, 3 numerical non-convergence.
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
from .zvonkin import SolveFailure, find_lambda0, save_map

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_GATE_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_CONVERGENCE = 3


def _write_manifest(out_dir, verb, config):
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"format_version": FORMAT_VERSION, "tool_version": __version__,
                "verb": verb, "config": config,
                "versions": {"python": platform.python_version(),
                             "numpy": np.__version__, "scipy": scipy.__version__}}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_json(out_dir, name, payload):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _load(args):
    try:
        return load_problem(args.problem)
    except FileNotFoundError as exc:
        raise SystemExit(_fail(f"problem file not found: {exc}", EXIT_INPUT_ERROR))
    except (ParseError, KeyError, ValueError) as exc:
        raise SystemExit(_fail(f"problem file invalid: {exc}", EXIT_INPUT_ERROR))


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Verbs

def verb_validate(args):
    problem = _load(args)
    _write_manifest(args.out, "validate", {"problem": args.problem, "seed": args.seed})
    checks = []

    ell = probe_ellipticity(problem.diffusion, problem.ellipticity_K,
                            problem.noisy_box(), seed=args.seed)
    checks.append(("ellipticity", ell.passed,
                   f"max_eigenvalue={ell.value:.4g}" +
                   ("" if ell.passed else f" witness={ell.witness}")))

    fams = [("x_drift", problem.quiet_drift), ("y_drift", problem.drift)] if problem.n_quiet \
        else [("drift", problem.drift)]
    for label, fam in fams:
        probed = probe_lipschitz(fam.limit, problem.working_box, seed=args.seed)
        ok = probed <= problem.lipschitz_L * (1.0 + 1e-6)
        checks.append((f"{label}_lipschitz", ok,
                       f"probed={probed:.4g} declared={problem.lipschitz_L}"))
        for eps in (0.5, 0.25, 0.125):
            if fam.gap_field(eps) is None:
                break
            gap = drift_family_limit_gap(fam, problem.working_box, eps, seed=args.seed)
            checks.append((f"{label}_gap_eps={eps}", True, f"sup_gap={gap:.4g}"))

    b2 = problem.singular_drift
    if b2 is not None:
        mono = b2.declared_modulus.check_monotone()
        checks.append(("modulus_monotone", mono, f"kind={b2.declared_modulus.kind}"))
        probe = probe_modulus(b2, b2.declared_modulus, problem.noisy_box(),
                              seed=args.seed)
        checks.append(("singular_modulus", probe.passed, f"margin={probe.value:.3g}"))
        if b2.declared_bound is not None:
            rng = np.random.Generator(np.random.Philox(key=args.seed))
            pts = problem.noisy_box().sample(rng, 2000)
            sup = float(np.max(np.linalg.norm(b2(pts), axis=1)))
            checks.append(("singular_bound", sup <= b2.declared_bound * (1 + 1e-9),
                           f"sup={sup:.4g} declared={b2.declared_bound}"))

    for name, ok, info in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {info}")
    _write_json(args.out, "validate.json",
                {"checks": [{"name": n, "passed": bool(ok), "info": i}
                            for n, ok, i in checks]})
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_GATE_FAILURE


def verb_zvonkin(args):
    problem = _load(args)
    _write_manifest(args.out, "zvonkin", {
        "problem": args.problem, "seed": args.seed, "resolution": args.resolution,
        "lambda_start": args.lambda_start, "max_doublings": args.max_doublings})
    try:
        res = find_lambda0(problem, resolution=args.resolution,
                           lambda_start=args.lambda_start,
                           max_doublings=args.max_doublings)
    except SolveFailure as exc:
        return _fail(str(exc), EXIT_NO_CONVERGENCE)
    except ValueError as exc:    # a lambda, resolution or doubling count out of range
        return _fail(str(exc), EXIT_INPUT_ERROR)
    zmap = res.map
    save_map(zmap, os.path.join(args.out, "map.json"),
             os.path.join(args.out, "map_values.csv"))
    a, b, c = zmap.norms
    print(f"lambda={zmap.lam:g} norms=({a:.6g},{b:.6g},{c:.6g}) "
          f"sum={zmap.norm_sum:.6g} certified={str(zmap.certified).lower()}")
    _write_json(args.out, "certificate.json", {
        "lambda0": res.lambda0, "norms": list(zmap.norms), "norm_sum": zmap.norm_sum,
        "residual": zmap.residual, "certified": zmap.certified,
        "picard_iters": zmap.picard_iters, "resolution": args.resolution,
        "trail": [{"lambda": l, "norms": list(n), "sum": s} for l, n, s in res.trail]})
    return EXIT_OK


def verb_simulate(args):
    problem = _load(args)
    _write_manifest(args.out, "simulate", {
        "problem": args.problem, "seed": args.seed, "eps": args.eps,
        "n_steps": args.n_steps, "n_paths": args.n_paths})
    if not (0.0 <= args.eps <= 1.0 and args.n_steps >= 1 and args.n_paths >= 1):
        return _fail("--eps must lie in [0, 1]; --n-steps and --n-paths must be positive",
                     EXIT_INPUT_ERROR)
    dt = problem.horizon_T / args.n_steps
    increments = brownian_increments(args.seed, range(args.n_paths), args.n_steps,
                                     problem.noisy_dim, dt)
    _, alive, paths = euler(dynamics(problem, args.eps), increments, keep_path=True)
    times = np.arange(args.n_steps + 1) * dt
    for i in range(args.n_paths):
        if not alive[i]:
            print(f"path {i}: escaped the working box", file=sys.stderr)
            continue
        with open(os.path.join(args.out, f"path_{i:04d}.csv"), "w", newline="",
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
    """The event's target set; an invalid one (a coordinate outside the state, a
    negative radius) is an input error."""
    if args.coordinate is not None and not 0 <= args.coordinate < problem.state_dim:
        raise SystemExit(_fail(f"--coordinate must lie in [0, {problem.state_dim}), "
                               f"got {args.coordinate}", EXIT_INPUT_ERROR))
    coords = None
    if problem.n_quiet and args.coordinate is None:
        coords = (problem.state_dim - 1,)
    elif args.coordinate is not None:
        coords = (args.coordinate,)
    if args.event == "terminal-above":
        normal = [1.0]
        return half_space_target(normal, args.threshold, coords=coords)
    center = [args.threshold] if coords else [args.threshold] * problem.state_dim
    try:
        return ball_target(center, radius=args.radius, coords=coords)
    except ValueError as exc:
        raise SystemExit(_fail(str(exc), EXIT_INPUT_ERROR))


def verb_rate(args):
    problem = _load(args)
    _write_manifest(args.out, "rate", {
        "problem": args.problem, "seed": args.seed, "event": args.event,
        "threshold": args.threshold, "radius": args.radius, "coordinate": args.coordinate,
        "n_intervals": args.n_intervals, "restarts": args.restarts})
    target = _make_target(args, problem)
    try:
        result = minimize_rate(problem, target, n_intervals=args.n_intervals,
                               restarts=args.restarts, seed=args.seed)
    except ValueError as exc:    # a target on a noise-free coordinate, say
        return _fail(str(exc), EXIT_INPUT_ERROR)
    objectives = [r["objective"] for r in result.restarts]
    spread = max(objectives) - min(objectives)
    payload = {"value": result.value, "endpoint": result.endpoint.tolist(),
               "multistart_spread": spread,
               "converged": result.converged, "n_intervals": result.n_intervals,
               "restarts": result.restarts}
    _write_json(args.out, "rate.json", payload)
    print(f"rate value {result.value:.6f} (spread {spread:.2e})")
    if not result.converged:
        return _fail("the best restart did not converge; see restarts in rate.json",
                     EXIT_NO_CONVERGENCE)
    return EXIT_OK


def verb_ldp(args):
    problem = _load(args)
    try:
        eps_ladder = [float(e) for e in args.eps_ladder.split(",")]
    except ValueError:
        return _fail(f"--eps-ladder must list numbers: {args.eps_ladder!r}", EXIT_INPUT_ERROR)
    if not (all(0.0 < e <= 1.0 for e in eps_ladder) and args.n_paths >= 100
            and args.n_steps >= 1):
        return _fail("--eps-ladder must list numbers in (0, 1]; --n-paths must be at "
                     "least 100 and --n-steps positive", EXIT_INPUT_ERROR)
    _write_manifest(args.out, "ldp", {
        "problem": args.problem, "seed": args.seed, "eps_ladder": eps_ladder,
        "n_paths": args.n_paths, "n_steps": args.n_steps, "event": args.event,
        "threshold": args.threshold, "radius": args.radius, "coordinate": args.coordinate,
        "with_singular": not args.no_singular, "rate_value": args.rate_value})
    target = _make_target(args, problem)
    event = terminal_event(target)
    try:
        est = ldp_experiment(problem, event, eps_ladder, args.n_paths, args.n_steps,
                             args.seed, with_singular=not args.no_singular)
    except (RuntimeError, ValueError) as exc:
        return _fail(str(exc), EXIT_NO_CONVERGENCE)
    with open(os.path.join(args.out, "ladder.csv"), "w", encoding="utf-8") as fh:
        fh.write(est.as_csv())
    payload = {"slope": est.slope, "stderr": est.slope_stderr,
               "points_used": [(1.0 / pt.eps, float(np.log(pt.p_hat))) for pt in est.ladder
                               if 0.0 < pt.p_hat < 1.0],
               "with_singular": not args.no_singular,
               "ladder": [{"eps": pt.eps, "hits": pt.hits, "escapes": pt.escapes,
                           "noise_s": pt.noise_s, "step_s": pt.step_s} for pt in est.ladder]}
    if args.rate_value is not None:
        report = bound_check(est, args.rate_value, "upper_for_closed")
        payload["rate_value"] = args.rate_value
        payload["bound_checks"] = [asdict(report)]
    _write_json(args.out, "ldp.json", payload)
    print(f"slope {est.slope:.6f} +/- {est.slope_stderr:.6f}")
    return EXIT_OK


def verb_verify(args):
    names = args.gates.split(",") if args.gates else None
    skip = set(args.skip.split(",")) if args.skip else set()
    unknown = (set(names or []) | skip) - set(gate_names())
    if unknown:
        return _fail(f"unknown gate(s): {sorted(unknown)}", EXIT_INPUT_ERROR)
    _write_manifest(args.out, "verify", {
        "seed": args.seed, "gates": names or gate_names(),
        "skipped": sorted(skip)})
    reports = run_gates(names=names, seed=args.seed, skip=skip)
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
    p.add_argument("--no-singular", action="store_true",
                   help="drop the vanishing singular drift term")
    p.add_argument("--rate-value", type=float, default=None,
                   help="minimized rate to compare against (adds bound checks)")
    p.set_defaults(func=verb_ldp)

    p = sub.add_parser("verify", help="run the acceptance gate suite")
    common(p, problem_required=False)
    p.add_argument("--gates", default=None,
                   help="comma-separated subset of gates (default: all)")
    p.add_argument("--skip", default=None,
                   help="comma-separated gates to skip (echoed in the report)")
    p.set_defaults(func=verb_verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    except SolveFailure as exc:
        return _fail(str(exc), EXIT_NO_CONVERGENCE)
    except EvaluationError as exc:    # a user field leaving its domain on the box
        return _fail(f"field evaluation failed: {exc}", EXIT_INPUT_ERROR)


if __name__ == "__main__":
    sys.exit(main())
