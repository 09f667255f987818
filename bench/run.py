"""ldplab benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ldplab is imported from ``src/`` there.
A run sets the workload up (timed; see ``setup_s``), then repeats whole
rounds of the workload's calls (at least one) while the next round is
expected to end within ``--seconds``, checks the
first round's outputs against independent references and every later round
against the first, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (round time with no
tracing); with ``--trace 1`` they are the per-module ones from spans around
ldplab's public calls.

The host's speed changes by up to 1.8x, in bursts of tens of
milliseconds whose share drifts over minutes as other tenants load it, so
a round's raw wall time says as much about the host as about ldplab.  In an
untraced run a timer signal interrupts the workload every ``PROBE_EVERY``
seconds to time a short fixed kernel that does not touch ldplab
(``ref_kernel``), sampling the host's speed all through the round.
``wall_ref`` is a round's wall time, less the probes, divided by the mean
probe time: the round's cost in kernel times, from which the host's speed
cancels.  A record of the run (set-up samples, per-call times, raw round
and probe times, check details, span aggregates) is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("mc-ladder", "transform-coupling", "min-action")
SETUP_SAMPLES = 5      # one in this process, the rest in fresh interpreters
PROBE_EVERY = 0.25     # seconds between speed probes in an untraced round

# One BLAS thread: the workloads make no large BLAS calls, and idle BLAS
# threads spinning on a small machine only add noise.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]]()
print(time.perf_counter() - t0)
"""


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return value


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def setup_in_fresh_interpreter(workload):
    """Set-up time of the workload in a new Python process, timed inside it."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC_DIR), str(BENCH_DIR), workload],
        capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def ref_kernel():
    """A fixed piece of work without ldplab, timed to gauge the host's speed.

    Like the workloads, it mixes interpreter-bound calls on tiny arrays
    with NumPy random numbers and sweeps over a batch, small enough not to
    raise the run's peak memory.  About 0.02 s on the machine in the README.
    """
    import numpy as np      # after main() has set the BLAS threads

    a = np.ones(4)
    s = 0.0
    for i in range(1000):
        s += float(np.sum(a * i))
    gen = np.random.Generator(np.random.Philox(key=1))
    for _ in range(4):
        z = gen.standard_normal((1024, 64))
        s += float(np.maximum(z.cumsum(axis=1), 0.0).sum())
    return s


class SpeedProbe:
    """Times ``ref_kernel`` every PROBE_EVERY seconds while active (SIGALRM).

    The handler runs in the main thread between the workload's bytecodes,
    so the workload waits while a probe runs; ``total`` is the time the
    probes took, which the caller takes out of its timings.
    """

    def __init__(self):
        self.times = []
        self.total = 0.0

    def _probe(self, signum, frame):
        t0 = perf_counter()
        ref_kernel()
        dt = perf_counter() - t0
        self.times.append(dt)
        self.total += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_round(steps, probe):
    """Run one round; returns (outputs, seconds per step, cpu, failed ops).

    A step's time excludes the speed probes that interrupted it.
    """
    outputs, times, failed = {}, {}, 0
    cpu_round = process_time()
    for label, n_ops, call in steps:
        probed = probe.total if probe else 0.0
        t0 = perf_counter()
        try:
            outputs[label] = call()
        except Exception:  # a failing call fails its operations; the run goes on
            traceback.print_exc()
            failed += n_ops
        times[label] = perf_counter() - t0 - ((probe.total - probed) if probe else 0.0)
    return outputs, times, process_time() - cpu_round, failed


def layer_metrics(snap):
    """Per-module metrics from one snapshot of the tracer's aggregates."""
    calls, self_s, total, counts = snap["calls"], snap["self"], snap["total"], snap["counts"]

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    def named(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    field_calls = calls.get("model.VectorField.__call__", 0)
    return {
        "ldp.self_s": layer_self("ldp"),
        "ldp.path_steps": counts.get("ldp.path_steps", 0),
        "ldp.escapes": counts.get("ldp.escapes", 0),
        "model.field_calls": field_calls,
        "model.field_s": self_s.get("model.VectorField.__call__", 0.0),
        "model.rows_per_call": counts.get("model.rows", 0) / field_calls if field_calls else 0.0,
        "expr.eval_calls": calls.get("expr.Expression.__call__", 0),
        "expr.eval_s": self_s.get("expr.Expression.__call__", 0.0),
        "zvonkin.theta_inv_calls": calls.get("zvonkin.theta_inv", 0),
        "zvonkin.theta_inv_s": self_s.get("zvonkin.theta_inv", 0.0),
        "zvonkin.interp_calls": named("zvonkin.GridFunction.", calls),
        "zvonkin.interp_s": named("zvonkin.GridFunction.", self_s),
        "zvonkin.find_lambda0_s": total.get("zvonkin.find_lambda0", 0.0),
        "zvonkin.picard_iters": counts.get("zvonkin.picard_iters", 0),
        "simulate.paths": counts.get("simulate.paths", 0),
        "simulate.path_steps": counts.get("simulate.path_steps", 0),
        "simulate.self_s": layer_self("simulate"),
        "simulate.increments_s": self_s.get("simulate.brownian_increments", 0.0),
        "action.solves": counts.get("action.solves", 0),
        "action.self_s": layer_self("action"),
        "action.optimizer_iters": counts.get("action.optimizer_iters", 0),
        "action.optimizer_fevals": counts.get("action.optimizer_fevals", 0),
        "verify.self_s": layer_self("verify"),
    }


# Per-module metrics that belong to set-up (the certified map) rather than to a round.
SETUP_LAYER_METRICS = ("zvonkin.find_lambda0_s", "zvonkin.picard_iters")
# Inclusive times of min-action's solves in the traced run, by step label
# (0 on the other workloads, which have no steps with these labels).
RATE_STEPS = {"action.rate_direct_s": ("free", "ou"), "action.rate_theta_s": ("theta",),
              "action.rate_degenerate_s": ("degenerate",)}


def versions():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpus": os.cpu_count(), **{k: os.environ.get(k) for k in BLAS_ENV}}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC_DIR / "ldplab" / "__init__.py").is_file():
        print(f"ldplab sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC_DIR))

    t0 = perf_counter()
    import workloads
    t_import = perf_counter() - t0
    if not Path(sys.modules["ldplab"].__file__).resolve().is_relative_to(SRC_DIR):
        print("ldplab was not imported from src/", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    t0 = perf_counter()
    workload = workloads.WORKLOADS[args.workload]()
    setup_samples = [t_import + perf_counter() - t0]
    setup_snap = tracer.snapshot() if tracer else None
    if not args.trace:
        setup_samples += [setup_in_fresh_interpreter(args.workload)
                          for _ in range(SETUP_SAMPLES - 1)]

    rounds, snaps = [], []
    attempted = failed = 0
    probe = None if tracer else SpeedProbe()
    t_start = perf_counter()
    # whole rounds, at least one, while the next is expected to end in time
    while not rounds or perf_counter() - t_start + statistics.median(
            r["elapsed_s"] for r in rounds) <= args.seconds:
        steps = workload.steps(args.seed)
        t0, n_probes = perf_counter(), len(probe.times) if probe else 0
        with probe or contextlib.nullcontext():
            outputs, times, cpu, n_failed = run_round(steps, probe)
        attempted += sum(n for _, n, _ in steps)
        failed += n_failed
        wall = sum(times.values())
        probes = probe.times[n_probes:] if probe else []
        rounds.append({"wall_s": wall, "elapsed_s": perf_counter() - t0, "cpu_s": cpu,
                       "probe_s": probes, "step_s": times, "outputs": outputs,
                       "wall_ref": wall / statistics.fmean(probes) if probes else None})
        if tracer:
            snaps.append(tracer.snapshot())

    first = rounds[0]["outputs"]
    results = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in workload.check(first)]
    reference = workload.summary(first)
    for i, r in enumerate(rounds[1:], start=2):
        same = workload.summary(r["outputs"]) == reference
        results.append({"name": f"round_{i}_repeats_round_1", "ok": same, "detail": {}})
    correct = all(r["ok"] for r in results)

    walls = [r["wall_s"] for r in rounds]
    if tracer:
        per_round = [layer_metrics(s) for s in snaps]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        setup_metrics = layer_metrics(setup_snap)
        for k in SETUP_LAYER_METRICS:
            metrics[k] = setup_metrics[k]
        for name, labels in RATE_STEPS.items():
            metrics[name] = statistics.median(
                sum(r["step_s"].get(lb, 0.0) for lb in labels) for r in rounds)
        units = {k: ("rows" if k.endswith("rows_per_call") else
                     "s" if k.endswith("_s") else "count") for k in metrics}
    else:
        metrics = {"setup_s": statistics.median(setup_samples),
                   "wall_ref": statistics.median(r["wall_ref"] for r in rounds),
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mib": "MiB"}

    path_steps = workload.path_steps()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "versions": versions(), "setup_samples_s": setup_samples,
        "rounds": [{k: r[k] for k in ("wall_s", "wall_ref", "elapsed_s", "cpu_s", "step_s",
                                      "probe_s")} for r in rounds],
        "wall_s": statistics.median(walls),
        "path_steps_per_round": path_steps,
        "path_steps_per_s": path_steps / statistics.median(walls) if path_steps else None,
        "summary": reference, "checks": results, "metrics": metrics,
        "spans": {"setup": setup_snap, "rounds": snaps} if tracer else None,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for r in results:
        if not r["ok"]:
            print(f"check failed: {r['name']} {r['detail']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
