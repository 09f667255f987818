"""Reference figures quoted in bench/README.md, measured once each.

    python3 bench/reference.py > bench/out/reference.json

- the wall time of gates 4-9 at their prescribed sizes (gate 9 alone takes
  minutes, which is why gates 7-9 at full size are not workloads);
- noise generation against stepping on one 32768 x 256 ladder chunk;
- one 800-step path of the original and of the transformed system;
- the evidence for two repeated computations in the gates: gate 8's
  without-singular ladder against gate 7's ladder, and gate 6's direct
  solve against gate 5's free-endpoint solve;
- gate 4 on the seed after its prescribed one.
"""

import importlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from ldplab import (ball_target, half_space_target, load_problem, terminal_event,  # noqa: E402
                    transform)

action, ldp, simulate, verify = (importlib.import_module(f"ldplab.{m}")
                                 for m in ("action", "ldp", "simulate", "verify"))


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


def chunk_split(name, event, eps, n=32768, n_steps=256):
    problem = load_problem(name)
    dim = problem.noisy_dim
    inc, noise_s = timed(ldp._chunk_increments, 2024, 0, 0, n, n_steps, dim,
                         problem.horizon_T / n_steps)
    _, step_s = timed(ldp._simulate_chunk, problem, event, eps, n_steps, inc)
    return {"noise_s": noise_s, "stepping_s": step_s}


def main():
    out = {"gates_s": {}}
    x_ge_1 = terminal_event(half_space_target([1.0], 1.0))
    y_ge = terminal_event(half_space_target([1.0], 0.5, coords=(1,)))
    out["chunk_32768x256"] = {
        "brownian-1d": chunk_split("brownian-1d", x_ge_1, 0.125),
        "dini-tanhlog-1d": chunk_split("dini-tanhlog-1d", x_ge_1, 0.125),
        "hamiltonian-2d": chunk_split("hamiltonian-2d", y_ge, 1.0 / 54),
    }
    problem, res = verify._dini_map()
    tsde = transform(problem, res.map)
    _, t_orig = timed(simulate.simulate_original, problem, 0.5, 800, 2024)
    _, t_trans = timed(simulate.simulate_transformed, tsde, 0.5, 800, 2024)
    out["path_800_steps_s"] = {"original": t_orig, "transformed": t_trans}

    rep4, out["gates_s"]["ito_conjugacy_refinement"] = timed(verify.gate_ito_conjugacy)
    rep5, out["gates_s"]["rate_oracles"] = timed(verify.gate_rate_oracles)
    rep6, out["gates_s"]["transform_rate_identity"] = timed(verify.gate_transform_rate_identity)
    (rep7, gauss), out["gates_s"]["gaussian_slope"] = timed(verify.gate_gaussian_slope)
    (rep8, _, without), out["gates_s"]["singular_insensitivity"] = timed(
        verify.gate_singular_insensitivity)
    (rep9, _, _), out["gates_s"]["degenerate_slope"] = timed(verify.gate_degenerate_slope)
    out["gate_lines"] = [r.line() for r in (rep4, rep5, rep6, rep7, rep8, rep9)]

    out["gate8_without_vs_gate7"] = {
        "gate7_hits": [p.hits for p in gauss.ladder],
        "gate8_without_hits": [p.hits for p in without.ladder],
        "slopes": [gauss.slope, without.slope]}
    unit = ball_target([1.0])
    free = action.minimize_rate(load_problem("free-endpoint"), unit, n_intervals=32,
                                restarts=4, seed=0)
    direct = action.minimize_rate(problem, unit, n_intervals=32, restarts=4, seed=0)
    out["gate6_direct_vs_gate5_free"] = {
        "values": [free.value, direct.value],
        "controls_equal": bool(np.array_equal(free.minimizer.hdot, direct.minimizer.hdot))}
    out["gate4_seed_2025"] = verify.gate_ito_conjugacy(seed=2025).line()
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
