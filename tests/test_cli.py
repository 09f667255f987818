import argparse
import json
import os
import platform
import shlex
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
import scipy

import ldplab
from ldplab.cli import _build_parser, main
from ldplab.problems import load_problem
from ldplab.simulate import simulate_original
from ldplab.zvonkin import find_lambda0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_validate_bundled_problem(tmp_path, capsys):
    code = main(["validate", "--problem", "brownian-1d", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["verb"] == "validate"
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__, "scipy": scipy.__version__}
    report = json.loads((tmp_path / "validate.json").read_text())
    assert all(c["passed"] for c in report["checks"])


def test_validate_ellipticity_failure(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("""
[problem]
name = bad
dims = 2
ellipticity_K = 2.0

[drift]
limit = expr: 0; 0

[diffusion]
field = registry: identity_matrix(scale=3.0)
""")
    out = tmp_path / "out"
    code = main(["validate", "--problem", str(bad), "--out", str(out)])
    assert code == 1
    report = json.loads((out / "validate.json").read_text())
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed and failed[0]["name"] == "ellipticity"


def test_malformed_file_exit_2(tmp_path):
    bad = tmp_path / "broken.ini"
    bad.write_text("[problem]\ndims = not_a_number\n")
    assert main(["validate", "--problem", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("call", ["tanhlog_dini(2)", "tanhlog_dini(foo=2)"],
                         ids=["positional", "unknown-name"])
def test_bad_registry_call_exit_2(tmp_path, capsys, call):
    bad = tmp_path / "bad.ini"
    bad.write_text((files("ldplab") / "problems" / "dini-tanhlog-1d.ini").read_text()
                   .replace("tanhlog_dini(beta=2, gain=3)", call))
    assert main(["validate", "--problem", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "'tanhlog_dini'" in capsys.readouterr().err


def _brownian_variant(tmp_path, old, new):
    path = tmp_path / "variant.ini"
    text = (files("ldplab") / "problems" / "brownian-1d.ini").read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return str(path)


_INVALID_NUMBERS = [
    ("box_hi = 6.0", "box_hi = inf", "finite"),
    ("horizon = 1.0", "horizon = nan", "horizon_T"),
    ("horizon = 1.0", "horizon = inf", "horizon_T"),
    ("ellipticity_K = 2.0", "ellipticity_K = inf", "ellipticity_K"),
    ("lipschitz_L = 1.0", "lipschitz_L = nan", "lipschitz_L"),
    ("lipschitz_L = 1.0", "lipschitz_L = -1.0", "lipschitz_L must lie in [0, inf)"),
    ("start = 0.0", "start = nan", "start"),
    ("start = 0.0", "start = 0 0", "start"),
    ("start = 0.0", "start = 9.0", "inside the working box"),
]


@pytest.mark.parametrize("verb", ["validate", "simulate", "zvonkin", "rate", "ldp"])
def test_infinite_box_exit_2(tmp_path, capsys, verb):
    """Non-finite numbers, and a start of the wrong length or off the working
    box, are refused when the file is read, whatever the verb."""
    for old, new, needle in _INVALID_NUMBERS:
        bad = _brownian_variant(tmp_path, old, new)
        assert main([verb, "--problem", bad, "--out", str(tmp_path / "o")]) == 2, new
        err = capsys.readouterr().err
        assert err.startswith("error: problem file invalid") and needle in err, (new, err)


def test_field_outside_domain_exit_2(tmp_path, capsys):
    bad = _brownian_variant(tmp_path, "limit = expr: 0", "limit = expr: log(x1)")
    assert main(["validate", "--problem", bad, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "log" in err


def test_registry_wrong_type_exit_2(tmp_path, capsys):
    bad = _brownian_variant(tmp_path, "registry: identity_matrix",
                            "registry: identity_matrix(scale='3')")
    assert main(["validate", "--problem", bad, "--out", str(tmp_path / "o")]) == 2
    assert "'identity_matrix'" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, needle", [
    ("horizon = 1.0", "horizn = 2.0", "unknown key(s) horizn in [problem]"),
    ("perturbation = expr: eps * tanh(x1)", "perturbaton = expr: eps",
     "unknown key(s) perturbaton in [drift]"),
    ("limit = expr: -x1", "limit = expr: -x1\nlimit_x = expr: 0",
     "unknown key(s) limit_x in [drift]"),
    ("[diffusion]", "[difusion]", "unknown section [difusion]"),
    ("[diffusion]", "[modulus]\nkind = holder\nalpha = 0.5\n\n[diffusion]",
     "unknown section [modulus]"),
    ("[problem]", "[DEFAULT]\nhorizon = 2.0\n\n[problem]", "unknown key(s) horizon in [DEFAULT]"),
    ("horizon = 1.0", "layout = nondegenerate\nhorizon = 1.0", "unknown key(s) layout in [problem]"),
], ids=["problem-key", "drift-key", "other-block-key", "section", "modulus-without-singular",
        "default-section", "layout-key"])
def test_unknown_section_or_key_exit_2(tmp_path, capsys, old, new, needle):
    """A section or key that nothing reads is refused, named, instead of
    being ignored: a typo in an optional key would otherwise run with its
    default."""
    text = (files("ldplab") / "problems" / "ou-1d.ini").read_text()
    assert old in text
    bad = tmp_path / "typo.ini"
    bad.write_text(text.replace(old, new))
    assert main(["validate", "--problem", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: problem file invalid") and needle in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old, new, key", [
    ("limit = expr: 0", "limit = registry: zero(in_dim=1)", "in_dim"),
    ("limit = expr: 0", "limit = registry: zero(out_dim=1)", "out_dim"),
    ("limit = expr: 0", "limit = registry: constant(values=0.0, in_dim=1)", "in_dim"),
    ("limit = expr: 0", "limit = registry: identity(n=1)", "n"),
    ("registry: identity_matrix", "registry: identity_matrix(m=1)", "m"),
    ("registry: identity_matrix", "registry: tanh_iso(m=1)", "m"),
], ids=["zero-in_dim", "zero-out_dim", "constant-in_dim", "identity-n", "identity_matrix-m",
        "tanh_iso-m"])
def test_registry_dimension_in_file_exit_2(tmp_path, capsys, old, new, key):
    """A registry field's dimensions come from its block; a file that states
    one is refused, and the error names it."""
    bad = _brownian_variant(tmp_path, old, new)
    assert main(["validate", "--problem", bad, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: problem file invalid") and f"'{key}'" in err, err


def test_missing_file_exit_2(tmp_path):
    assert main(["validate", "--problem", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_zvonkin_writes_certificate(tmp_path, capsys):
    """certificate.json is the one record of the certified map: its lambda,
    norms, grid box and margin; map_values.csv reads back to u bit for bit."""
    code = main(["zvonkin", "--problem", "dini-tanhlog-1d", "--out", str(tmp_path),
                 "--resolution", "129"])
    assert code == 0
    assert capsys.readouterr().out == \
        "lambda=16 norms=(0.0625,0.100335,0.258134) sum=0.420969 certified=true\n"
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["certified"]
    assert cert["resolution"] == 129
    expected = find_lambda0(load_problem("dini-tanhlog-1d"), resolution=129).map
    assert cert["picard_iters"] == expected.picard_iters >= 1
    assert cert["lambda0"] == expected.lam and cert["norms"] == list(expected.norms)
    assert cert["box_lo"] == expected.box.lo.tolist() == [-6.0]
    assert cert["box_hi"] == expected.box.hi.tolist() == [6.0]
    assert cert["margin"] == 0.2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "certificate.json", "manifest.json", "map_values.csv"]
    table = np.loadtxt(tmp_path / "map_values.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(table, expected.u.values.reshape(-1, expected.u.m))


def test_zvonkin_lambda_cap_exit_3(tmp_path):
    """A run that did not converge still ran, so it keeps its manifest."""
    code = main(["zvonkin", "--problem", "dini-tanhlog-1d", "--out", str(tmp_path),
                 "--resolution", "65", "--max-doublings", "1"])
    assert code == 3
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["max_doublings"] == 1


@pytest.mark.parametrize("flags", [
    ["--lambda-start", "inf"],
    ["--lambda-start", "nan"],
    ["--lambda-start", "0"],
    ["--resolution", "10"],
    ["--resolution", "5"],
    ["--max-doublings", "-1"],
], ids=["infinite-lambda", "nan-lambda", "zero-lambda", "coarse-grid", "five-point-grid",
        "negative-doublings"])
def test_zvonkin_input_errors_exit_2(tmp_path, capsys, flags):
    code = main(["zvonkin", "--problem", "dini-tanhlog-1d", "--out", str(tmp_path), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "certificate.json").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_simulate_writes_paths(tmp_path):
    code = main(["simulate", "--problem", "brownian-1d", "--out", str(tmp_path),
                 "--n-paths", "3", "--n-steps", "16"])
    assert code == 0
    files = sorted(tmp_path.glob("path_*.csv"))
    assert len(files) == 3
    header = files[0].read_text().splitlines()[0]
    assert header == "t,z1"


@pytest.mark.parametrize("flags", [
    ["--n-paths", "0"],
    ["--n-steps", "0"],
    ["--eps", "1.5"],
    ["--eps", "nan"],
    ["--n-paths", str(2 ** 40 + 1), "--n-steps", "1"],
], ids=["zero-paths", "zero-steps", "eps-above-one", "nan-eps", "paths-beyond-key-range"])
def test_simulate_input_errors_exit_2(tmp_path, capsys, flags):
    """Each refused input exits 2 with one ``error:`` line and writes no path;
    the path range is refused by the noise stream before any allocation."""
    code = main(["simulate", "--problem", "brownian-1d", "--out", str(tmp_path), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not list(tmp_path.glob("path_*.csv"))
    assert not (tmp_path / "manifest.json").exists()


def test_simulate_counts_escapes_from_one_batch(tmp_path):
    narrow = tmp_path / "narrow.ini"
    narrow.write_text((files("ldplab") / "problems" / "brownian-1d.ini").read_text()
                      .replace("box_lo = -6.0", "box_lo = -1.5")
                      .replace("box_hi = 6.0", "box_hi = 1.5"))
    out = tmp_path / "out"
    code = main(["simulate", "--problem", str(narrow), "--out", str(out), "--eps", "1",
                 "--n-paths", "12", "--n-steps", "32", "--seed", "3"])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    written = sorted(out.glob("path_*.csv"))
    assert 0 < summary["escapes"] < 12
    assert summary["escapes"] + len(written) == 12
    index = int(written[-1].stem.split("_")[1])
    rows = np.loadtxt(written[-1], delimiter=",", skiprows=1)
    path = simulate_original(load_problem(str(narrow)), 1.0, 32, 3, path_index=index)
    for got, want in zip(rows[:, 1], path.states[:, 0]):
        assert float(f"{want:.10g}") == got


def test_workers_flag_removed(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--problem", "brownian-1d", "--out", str(tmp_path), "--workers", "2"])
    assert info.value.code == 2


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
@pytest.mark.parametrize("verb", ["validate", "zvonkin", "simulate", "rate", "ldp", "verify"])
def test_seed_outside_key_range_exit_2(tmp_path, capsys, verb, seed):
    problem = [] if verb == "verify" else ["--problem", "brownian-1d"]
    with pytest.raises(SystemExit) as info:
        main([verb, *problem, "--out", str(tmp_path), "--seed", seed])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_rate_verb(tmp_path):
    code = main(["rate", "--problem", "free-endpoint", "--out", str(tmp_path),
                 "--threshold", "1.0", "--restarts", "3", "--n-intervals", "16"])
    assert code == 0
    payload = json.loads((tmp_path / "rate.json").read_text())
    assert payload["value"] == pytest.approx(0.5, rel=0.01)


def test_rate_verb_records_restarts(tmp_path):
    code = main(["rate", "--problem", "ou-1d", "--out", str(tmp_path),
                 "--restarts", "2", "--n-intervals", "8"])
    assert code == 0
    payload = json.loads((tmp_path / "rate.json").read_text())
    assert payload["converged"] is True
    restarts = payload["restarts"]
    assert len(restarts) == 2
    for record in restarts:
        assert sorted(record) == ["nit", "objective", "status"]
        assert isinstance(record["status"], int) and isinstance(record["nit"], int)
        assert record["objective"] >= payload["value"]
    objectives = [record["objective"] for record in restarts]
    assert payload["multistart_spread"] == max(objectives) - min(objectives)


@pytest.mark.parametrize("flags", [
    ["--problem", "hamiltonian-2d", "--coordinate", "0"],
    ["--problem", "brownian-1d", "--coordinate", "3"],
    ["--problem", "brownian-1d", "--coordinate", "-1"],
    ["--problem", "brownian-1d", "--event", "terminal-ball", "--radius", "-1"],
    ["--problem", "brownian-1d", "--n-intervals", "0"],
    ["--problem", "brownian-1d", "--restarts", "0"],
    ["--problem", "brownian-1d", "--threshold", "nan"],
    ["--problem", "brownian-1d", "--event", "terminal-ball", "--radius", "nan"],
    ["--problem", "brownian-1d", "--event", "terminal-ball", "--threshold", "inf"],
    ["--problem", "brownian-1d", "--radius", "nan"],
    ["--problem", "brownian-1d", "--radius", "-1"],
], ids=["noise-free-coordinate", "coordinate-outside-state", "negative-coordinate",
        "negative-radius", "zero-intervals", "zero-restarts", "nan-threshold", "nan-radius",
        "infinite-center", "nan-radius-half-space", "negative-radius-half-space"])
def test_rate_input_errors_exit_2(tmp_path, capsys, flags):
    code = main(["rate", "--out", str(tmp_path), "--restarts", "1", "--n-intervals", "4",
                 *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "rate.json").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_ldp_verb_small_ladder(tmp_path):
    code = main(["ldp", "--problem", "brownian-1d", "--out", str(tmp_path),
                 "--n-paths", "2000", "--n-steps", "32",
                 "--eps-ladder", "1.0,0.5,0.25", "--threshold", "0.5", "--rate-value", "0.125"])
    assert code == 0
    payload = json.loads((tmp_path / "ldp.json").read_text())
    assert payload["slope"] < 0
    assert payload["points_used"] == [[1.0, -1.2073117055914506], [2.0, -1.4610179073158271],
                                      [4.0, -1.9275791923705898]]
    assert [np.exp(y) for _, y in payload["points_used"]] == pytest.approx(
        [pt["hits"] / 2000 for pt in payload["ladder"]], rel=1e-15)
    (check,) = payload["bound_checks"]
    assert check["margin"] == pytest.approx(2 * payload["stderr"] + 0.0125)
    assert check["rate"] == 0.125 and isinstance(check["passed"], bool)
    lines = (tmp_path / "ladder.csv").read_text().splitlines()
    assert lines[0] == "eps,n_paths,hits,p_hat,ci_lo,ci_hi,escapes"
    assert len(lines) == 4
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [pt["eps"] for pt in payload["ladder"]] == [1.0, 0.5, 0.25]
    for row, pt in zip(rows, payload["ladder"]):
        assert float(row["eps"]) == pt["eps"]
        assert int(row["hits"]) == pt["hits"]
        assert int(row["escapes"]) == pt["escapes"] == 0
        assert pt["noise_s"] > 0 and pt["step_s"] > 0


def test_ldp_reproducible(tmp_path):
    args = ["ldp", "--problem", "brownian-1d", "--n-paths", "1000",
            "--n-steps", "16", "--eps-ladder", "1.0,0.5,0.25", "--threshold", "0.5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "ladder.csv").read_text() == \
        (tmp_path / "b" / "ladder.csv").read_text()


_SMALL_RUNS = {
    "validate": ["--problem", "brownian-1d"],
    "zvonkin": ["--problem", "dini-tanhlog-1d", "--resolution", "65"],
    "simulate": ["--problem", "brownian-1d", "--n-paths", "2", "--n-steps", "4"],
    "rate": ["--problem", "hamiltonian-2d", "--coordinate", "1", "--restarts", "1",
             "--n-intervals", "4"],
    "ldp": ["--problem", "brownian-1d", "--coordinate", "0", "--n-paths", "100",
            "--n-steps", "4", "--eps-ladder", "1.0,0.5,0.25", "--threshold", "0.5",
            "--rate-value", "0.125", "--no-singular"],
    "verify": ["--gates", "dini_classification", "--skip", "dini_classification"],
}


def _strict_json(path):
    """JSON as the standard defines it: NaN and Infinity are refused."""
    def refuse(name):
        raise ValueError(f"{path.name}: non-finite value {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_every_argument_reaches_the_manifest(tmp_path):
    """Each verb's manifest records every argument of its subparser but --out,
    as the verb resolved it; the manifest and every JSON output are standard
    JSON, with no NaN or Infinity."""
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(subparsers) == sorted(_SMALL_RUNS)
    configs = {}
    for verb, flags in _SMALL_RUNS.items():
        out = tmp_path / verb
        assert main([verb, "--out", str(out), *flags]) == 0, verb
        outputs = {path.name: _strict_json(path) for path in out.glob("*.json")}
        manifest = outputs["manifest.json"]
        assert len(outputs) > 1 or verb == "verify", verb
        assert manifest["verb"] == verb
        configs[verb] = manifest["config"]
        dests = {a.dest for a in subparsers[verb]._actions} - {"help", "out"}
        assert set(configs[verb]) == dests, verb
    assert configs["rate"]["coordinate"] == 1
    assert configs["ldp"]["eps_ladder"] == [1.0, 0.5, 0.25]
    assert configs["ldp"]["coordinate"] == 0 and configs["ldp"]["rate_value"] == 0.125
    assert configs["ldp"]["with_singular"] is False
    assert configs["verify"] == {"seed": 2024, "gates": ["dini_classification"],
                                 "skipped": ["dini_classification"]}


def test_ldp_failed_bound_check_exit_1(tmp_path, capsys):
    """A slope that breaks the bound against --rate-value is a failed check:
    exit 1, with every output and the manifest written."""
    code = main(["ldp", "--problem", "brownian-1d", "--out", str(tmp_path),
                 "--eps-ladder", "1,0.5,0.25", "--n-paths", "1000", "--n-steps", "8",
                 "--rate-value", "5"])
    assert code == 1
    (check,) = json.loads((tmp_path / "ldp.json").read_text())["bound_checks"]
    assert check["passed"] is False and check["rate"] == 5.0
    assert "[FAIL] bound_check upper_for_closed" in capsys.readouterr().out
    assert (tmp_path / "manifest.json").exists()


def test_ldp_unusable_ladder_exit_3(tmp_path, capsys):
    """A ladder whose points all have p_hat = 0 cannot be fitted: exit 3, and
    the run keeps its manifest."""
    with pytest.warns(UserWarning, match="dropped 3 ladder point"):
        code = main(["ldp", "--problem", "brownian-1d", "--out", str(tmp_path),
                     "--eps-ladder", "1,0.5,0.25", "--n-paths", "100", "--n-steps", "4",
                     "--threshold", "5"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: slope fit needs at least 3") and err.count("\n") == 1
    assert (tmp_path / "manifest.json").exists()


def test_validate_gap_lines_show_their_own_family(tmp_path, capsys):
    """Each block's gap check reads its own perturbation: 10 eps for X, eps for Y."""
    text = files("ldplab").joinpath("problems/hamiltonian-2d.ini").read_text()
    path = tmp_path / "perturbed.ini"
    path.write_text(text.replace("limit_y = expr: -0.1 * tanh(x2)\n",
                                 "limit_y = expr: -0.1 * tanh(x2)\n"
                                 "perturbation_x = expr: 10 * eps\n"
                                 "perturbation_y = expr: eps\n"))
    assert main(["validate", "--problem", str(path), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "[PASS] x_drift_gap_shrinks: sup_gaps=5,2.5,1.25 at eps=0.5,0.25,0.125\n" in out
    assert "[PASS] y_drift_gap_shrinks: sup_gaps=0.5,0.25,0.125 at eps=0.5,0.25,0.125\n" in out
    checks = json.loads((tmp_path / "out" / "validate.json").read_text())["checks"]
    gaps = {c["name"]: c["sup_gaps"] for c in checks if "sup_gaps" in c}
    assert gaps == {"x_drift_gap_shrinks": [5.0, 2.5, 1.25],
                    "y_drift_gap_shrinks": [0.5, 0.25, 0.125]}


def test_validate_gap_that_does_not_shrink_fails(tmp_path, capsys):
    """ou-1d's gap eps * tanh(x1) shrinks; a perturbation whose gap does not
    shrink with eps fails its check: exit 1."""
    assert main(["validate", "--problem", "ou-1d", "--out", str(tmp_path / "ou")]) == 0
    assert "[PASS] drift_gap_shrinks: sup_gaps=0.5,0.25,0.125 at eps=0.5,0.25,0.125\n" in \
        capsys.readouterr().out
    bad = _brownian_variant(tmp_path, "limit = expr: 0",
                            "limit = expr: 0\nperturbation = expr: 1 + 0 * eps")
    assert main(["validate", "--problem", bad, "--out", str(tmp_path / "o")]) == 1
    assert "[FAIL] drift_gap_shrinks: sup_gaps=1,1,1 at eps=0.5,0.25,0.125\n" in \
        capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--eps-ladder", "0.5,abc"],
    ["--n-paths", "50"],
    ["--n-steps", "0"],
    ["--eps-ladder", "1.0,-0.5,0.25"],
    ["--coordinate", "3"],
    ["--coordinate", "-1"],
    ["--threshold", "inf"],
    ["--threshold", "nan"],
    ["--event", "terminal-ball", "--radius", "nan"],
    ["--radius", "nan"],
    ["--radius", "inf"],
    ["--eps-ladder", "0.5,0.25"],
    ["--eps-ladder", "0.5,0.5,0.5"],
    ["--eps-ladder", "0.5,0.25,0.5"],
    ["--rate-value", "nan"],
    ["--rate-value", "inf"],
    ["--rate-value", "-0.5"],
], ids=["eps-not-a-number", "too-few-paths", "zero-steps", "negative-eps",
        "coordinate-outside-state", "negative-coordinate", "infinite-threshold",
        "nan-threshold", "nan-radius", "nan-radius-half-space", "infinite-radius-half-space",
        "two-point-ladder", "one-eps-three-times",
        "repeated-eps", "nan-rate-value", "infinite-rate-value", "negative-rate-value"])
def test_ldp_input_errors_exit_2(tmp_path, capsys, flags):
    """Each refusal comes before any path is stepped: no ladder, no manifest."""
    code = main(["ldp", "--problem", "brownian-1d", "--out", str(tmp_path),
                 "--n-paths", "200", "--n-steps", "16", "--eps-ladder", "0.5,0.25,0.125",
                 *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not tmp_path.exists() or not list(tmp_path.iterdir())


def test_verify_unknown_gate_exit_2(tmp_path):
    assert main(["verify", "--out", str(tmp_path), "--gates", "no_such_gate"]) == 2
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("flags, code, manifest", [
    (["verify", "--seed", "-1"], 2, False),
    (["rate", "--problem", "brownian-1d", "--threshold", "nan"], 2, False),
    (["zvonkin", "--problem", "dini-tanhlog-1d", "--resolution", "65",
      "--max-doublings", "1"], 3, True),
], ids=["argparse-refusal", "verb-refusal", "no-convergence"])
def test_module_exit_code_and_manifest(tmp_path, flags, code, manifest):
    """``python -m ldplab.cli`` exits with the code that ``main`` returns, and
    writes a manifest exactly for the runs that it did not refuse."""
    env = {**os.environ, "PYTHONPATH": str(Path(ldplab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "ldplab.cli", *flags, "--out", "run"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.count("error:") == 1
    assert (tmp_path / "run" / "manifest.json").exists() is manifest


def test_verify_subset_with_skip(tmp_path, capsys):
    code = main(["verify", "--out", str(tmp_path),
                 "--gates", "dini_classification,constant_resolvent_exactness",
                 "--skip", "constant_resolvent_exactness"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[SKIP] constant_resolvent_exactness" in out
    assert "[PASS] dini_classification" in out
    report = json.loads((tmp_path / "gate_constant_resolvent_exactness.json").read_text())
    assert report["skipped"]
    timed = json.loads((tmp_path / "gate_dini_classification.json").read_text())
    assert isinstance(timed["wall_s"], float) and timed["wall_s"] >= 0
    assert "wall_s=" in out


def test_verify_writes_numbers(tmp_path):
    assert main(["verify", "--out", str(tmp_path), "--gates",
                 "constant_resolvent_exactness,norm_certificate,rate_oracles,"
                 "transform_rate_identity,dini_classification"]) == 0
    for name in ("rate_oracles", "transform_rate_identity"):
        assert json.loads((tmp_path / f"gate_{name}.json").read_text())["passed"] is True
    report = json.loads((tmp_path / "gate_constant_resolvent_exactness.json").read_text())
    assert isinstance(report["detail"]["sup_error"], float)
    sums = json.loads((tmp_path / "gate_norm_certificate.json").read_text())["detail"]
    assert sums["ladder_sums"] and all(isinstance(s, float) for s in sums["ladder_sums"])
    dini = json.loads((tmp_path / "gate_dini_classification.json").read_text())["detail"]
    assert [v["beta"] for v in dini["verdicts"]] == [1.5, 2.0, 3.0, 0.5, 1.0]
    assert [v["finite"] for v in dini["verdicts"]] == [True, True, True, False, False]
    assert all(v["passed"] is True for v in dini["verdicts"] + dini["holder"])
    assert [h["alpha"] for h in dini["holder"]] == [0.25, 0.5, 0.75]
    assert all(isinstance(h["value"], float) and h["rel_err"] <= 1e-3
               for h in dini["holder"])


def test_readme_example_runs(tmp_path):
    """Every ``ldplab`` line of the README's Example block exits 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Example", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert lines and all(line.startswith("ldplab ") for line in lines)
    for line in lines:
        args = shlex.split(line)[1:]
        at = args.index("--out") + 1
        args[at] = str(tmp_path / args[at])
        assert main(args) == 0, line


@pytest.mark.parametrize("code, lazy", [
    ("import ldplab, ldplab.cli",
     ["scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.sparse",
      "scipy.special"]),
    ("from ldplab.problems import load_problem\n"
     "from ldplab.zvonkin import find_lambda0, theta, theta_inv\n"
     "zmap = find_lambda0(load_problem('dini-tanhlog-1d')).map\n"
     "theta_inv(zmap, theta(zmap, [0.3]))",
     ["scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.special"]),
], ids=["package", "map-1d"])
def test_import_loads_no_scipy_submodule(code, lazy):
    """SciPy's integrator, interpolator, optimizer, sparse LU and special
    functions load with the calls that use them, not with the package; a
    certified 1-D map and a theta round trip through it need only the sparse
    LU."""
    code = f"import sys\n{code}\nprint([m for m in {lazy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(ldplab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


_SINGULAR_1D = "\n\n[singular]\nfield = registry: tanhlog_dini(beta=2, gain=3)\nbound = 1.0"


@pytest.mark.parametrize("old, new, needle", [
    pytest.param("dims = 1", "dims = 1 1 1", "dims must list 1 or 2 block sizes, got (1, 1, 1)",
                 id="dims-three-blocks"),
    pytest.param(("dims = 1", "limit = expr: 0"),
                 ("dims = 1 0", "limit_x = expr: 0\nlimit_y = registry: zero"),
                 "block sizes of at least 1, got (1, 0)", id="dims-empty-noisy-block"),
    pytest.param(("dims = 1", "limit = expr: 0"),
                 ("dims = 0 1", "limit_x = registry: zero\nlimit_y = expr: 0"),
                 "block sizes of at least 1, got (0, 1)", id="dims-empty-quiet-block"),
    pytest.param("limit = expr: 0", "limit = registry: linear(matrix=[[1.0, 0.0]])",
                 "drift must be a field R^1 -> R^1, got linear: R^2 -> R^1", id="drift-2-to-1"),
    pytest.param(("dims = 1", "limit = expr: 0"), ("dims = 2", "limit = expr: 0; 0" + _SINGULAR_1D),
                 "singular drift must be a field R^2 -> R^2, got tanhlog_dini: R^1 -> R^1",
                 id="singular-1d-in-2d"),
])
def test_layout_and_dims_checked_before_use(tmp_path, capsys, old, new, needle):
    """A dims line of neither one nor two block sizes, a block size below 1,
    or a field that does not match its block's dimensions exits 2 from every
    verb with one error line instead of a traceback, a division by zero or a
    run on broadcast values.  ``old`` and ``new`` are one replacement or a
    tuple of them."""
    bad = tmp_path / "variant.ini"
    text = (files("ldplab") / "problems" / "brownian-1d.ini").read_text()
    for o, n in zip(*((old, new) if isinstance(old, tuple) else ((old,), (new,)))):
        assert o in text
        text = text.replace(o, n)
    bad.write_text(text)
    for verb in ("validate", "simulate", "ldp"):
        assert main([verb, "--problem", str(bad), "--out", str(tmp_path / "o")]) == 2, verb
        err = capsys.readouterr().err
        assert err.startswith("error: problem file invalid") and needle in err, err
        assert err.count("\n") == 1 and "Traceback" not in err
