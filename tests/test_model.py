import dataclasses
import warnings

import numpy as np
import pytest

from ldplab import model
from ldplab.expr import EvaluationError, parse_expression
from ldplab.model import (Box, Modulus, coordinate_function, dini_classify,
                          drift_family_limit_gap, parse_field, probe_ellipticity,
                          probe_lipschitz, probe_modulus)
from ldplab.problems import build_field, load_problem


# ---------------------------------------------------------------------------
# Boxes

def test_box_contains_and_sample(rng):
    box = Box.of([-1.0, 0.0], [1.0, 2.0])
    pts = box.sample(rng, 100)
    assert np.all(box.contains(pts))
    assert not box.contains(np.array([2.0, 1.0]))[0]


def test_box_shrink():
    box = Box.of([-5.0], [5.0])
    inner = box.shrink(0.2)
    assert inner.lo[0] == pytest.approx(-4.0)
    assert inner.hi[0] == pytest.approx(4.0)


def test_box_rejects_empty():
    with pytest.raises(ValueError):
        Box.of([1.0], [1.0])


@pytest.mark.parametrize("lo, hi", [([-1.0], [np.inf]), ([-np.inf], [1.0]),
                                    ([-1.0, np.nan], [1.0, 1.0])])
def test_box_rejects_non_finite(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        Box.of(lo, hi)


def _contains_by_rows(box, x, tol=0.0):
    """The row reduction ``Box.contains`` used before it went per coordinate."""
    x = np.atleast_2d(x)
    return np.all((x >= box.lo - tol) & (x <= box.hi + tol), axis=-1)


@pytest.mark.parametrize("shape", [(1,), (2,), (200, 1), (200, 2), (8, 25, 2), (40, 3)])
@pytest.mark.parametrize("tol", [0.0, 1e-12, 0.25])
def test_box_contains_equals_row_reduction(rng, shape, tol):
    dim = shape[-1]
    box = Box.of(np.linspace(-1.0, -0.5, dim), np.linspace(1.0, 2.0, dim))
    x = rng.uniform(-2.0, 3.0, shape)
    specials = [box.lo, box.hi, box.lo - tol, box.hi + tol,
                np.nextafter(box.lo - tol, -np.inf), np.nextafter(box.hi + tol, np.inf)]
    for bad in (np.nan, np.inf, -np.inf):
        for c in range(dim):
            row = 0.5 * (box.lo + box.hi)
            row[c] = bad
            specials.append(row)
    rows = x.reshape(-1, dim)
    if len(rows) >= len(specials):
        rows[:len(specials)] = specials
        points = [x]
    else:
        points = [x] + specials
    widened = Box(lo=box.lo - tol, hi=box.hi + tol)
    for pts in points:
        new, old = widened.contains(pts), _contains_by_rows(box, pts, tol=tol)
        assert new.shape == old.shape and np.array_equal(new, old)


# ---------------------------------------------------------------------------
# Moduli

def test_modulus_values():
    m = Modulus.dini_log(2.0)
    assert m.phi(0.0) == 0.0
    t = 0.1
    assert m.phi(t) == pytest.approx(np.log1p(1 / t) ** -2)
    assert Modulus.holder(0.5).phi(0.25) == pytest.approx(0.5)
    assert Modulus.lipschitz(3.0).phi(0.2) == pytest.approx(0.6)


@pytest.mark.parametrize("make", [
    lambda: Modulus.dini_log(0.0), lambda: Modulus.dini_log(float("nan")),
    lambda: Modulus.holder(0.0), lambda: Modulus.holder(1.0),
    lambda: Modulus.holder(float("nan")), lambda: Modulus.lipschitz(-1.0),
    lambda: Modulus.lipschitz(float("nan")), lambda: Modulus.lipschitz(float("inf")),
], ids=["dini-zero", "dini-nan", "holder-zero", "holder-one", "holder-nan",
        "lipschitz-negative", "lipschitz-nan", "lipschitz-inf"])
def test_modulus_constructors_check_their_parameter(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("modulus", [Modulus.dini_log(2.0), Modulus.holder(0.5),
                                     Modulus.lipschitz(3.0), Modulus.from_expression("log(t)")],
                         ids=["dini_log", "holder", "lipschitz", "expression"])
def test_modulus_phi_domain(modulus):
    """phi(0) = 0 without calling the formula (log(0) would fail), and a
    negative argument is refused, whatever the kind."""
    assert modulus.phi(np.array([0.0, 0.0])).tolist() == [0.0, 0.0]
    with pytest.raises(EvaluationError):
        modulus.phi(-0.5)


def test_modulus_monotone_check():
    assert Modulus.dini_log(1.5).check_monotone()
    assert Modulus.holder(0.3).check_monotone()
    decreasing = Modulus.from_expression("1 - t/2")
    assert decreasing.check_monotone() is False


def test_expression_modulus_negative_rejected():
    m = Modulus.from_expression("t - 1")
    with pytest.raises(Exception):
        m.phi(0.5)


@pytest.mark.parametrize("beta,finite", [(0.5, False), (1.0, False), (1.5, True),
                                         (2.0, True), (3.0, True)])
def test_dini_classification_log_family(beta, finite):
    v = dini_classify(Modulus.dini_log(beta))
    assert v.finite == finite


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_dini_holder_exact_value(alpha):
    v = dini_classify(Modulus.holder(alpha))
    assert v.finite
    assert v.value == pytest.approx(1.0 / alpha, rel=1e-3)


def test_dini_lipschitz_finite():
    v = dini_classify(Modulus.lipschitz(2.0))
    assert v.finite
    assert v.value == pytest.approx(2.0, rel=1e-3)


# ---------------------------------------------------------------------------
# Vector fields

def test_parse_field_and_round_trip():
    f = parse_field("x1 + x2; x1 * x2", 2, 2)
    out = f(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(out, [[3.0, 2.0], [7.0, 12.0]])


def test_field_shape_validation():
    f = parse_field("x1", 1, 1)
    with pytest.raises(ValueError):
        f(np.zeros((3, 2)))


def _stacked_columns(text, in_dim, x, extra=(), **values):
    """The former assembly of ``coordinate_function``: each expression's
    value broadcast to a column, then the columns stacked."""
    names = [f"x{i + 1}" for i in range(in_dim)] + list(extra)
    env = {f"x{i + 1}": x[:, i] for i in range(in_dim)}
    env.update(values)
    cols = [np.broadcast_to(np.asarray(parse_expression(p.strip(), names).evaluate(env),
                                       dtype=float), (x.shape[0],))
            for p in text.split(";")]
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("text, in_dim, extra, values", [
    ("x1; 2", 1, (), {}),
    ("x2; -0.1 * tanh(x2); 3", 2, (), {}),
    ("1; 0; 0; 1", 2, (), {}),
    ("eps * tanh(x1)", 1, ("eps",), {"eps": 0.25}),
    ("eps; eps * x1", 1, ("eps",), {"eps": 0.5}),
])
@pytest.mark.parametrize("rows", [1, 9])
def test_coordinate_function_equals_stacked_columns(rng, text, in_dim, extra, values, rows):
    """Columns written in place give the same float64 (n, n_out) array as
    stacking broadcast columns, constant coordinates and 1-row inputs too."""
    x = rng.uniform(-2.0, 2.0, (rows, in_dim))
    n_out = text.count(";") + 1
    got = coordinate_function(text, in_dim, n_out, extra)(x, **values)
    want = _stacked_columns(text, in_dim, x, extra, **values)
    assert got.dtype == np.float64 and got.shape == (rows, n_out)
    assert got.tobytes() == want.tobytes()


def test_probe_lipschitz_linear():
    f = parse_field("2 * x1", 1, 1)
    probed = probe_lipschitz(f, Box.of([-5.0], [5.0]), seed=3)
    assert probed == pytest.approx(2.0, rel=1e-9)
    assert probed <= 2.0 + 1e-9  # sampled value is a lower bound


def test_probe_ellipticity_pass_and_fail():
    eye = build_field("identity_matrix", 2, 2)
    assert probe_ellipticity(eye, 2.0, Box.of([-5.0] * 2, [5.0] * 2)).passed
    skew = build_field("identity_matrix", 2, 2, scale=3.0)
    res = probe_ellipticity(skew, 2.0, Box.of([-5.0] * 2, [5.0] * 2))
    assert not res.passed
    assert res.witness is not None
    assert res.value == pytest.approx(9.0)  # eigenvalue of (3I)(3I)^T


def test_probe_modulus_holder_field():
    f = build_field("holder_root", 1, 1, alpha=0.5, bound=10.0)
    res = probe_modulus(f, Modulus.holder(0.5), Box.of([-5.0], [5.0]))
    assert res.passed  # sqrt concavity: ||x|^0.5 - |y|^0.5| <= |x-y|^0.5


def test_probe_modulus_detects_violation():
    f = parse_field("2 * x1", 1, 1)  # Lipschitz 2 violates phi(t) = t
    res = probe_modulus(f, Modulus.lipschitz(1.0), Box.of([-5.0], [5.0]))
    assert not res.passed
    assert res.witness is not None


def test_registry_tanhlog_respects_declared_modulus(monkeypatch):
    monkeypatch.setattr(model, "_PROBE_SAMPLES", 4000)
    f = build_field("tanhlog_dini", 1, 1, beta=2, gain=3)
    res = probe_modulus(f, f.declared_modulus, Box.of([-6.0], [6.0]))
    assert res.passed


@pytest.mark.parametrize("beta, gain", [(2, 3), (2.0, 3.0), (1, 1), (0.5, 2.0)])
def test_registry_tanhlog_equals_composed_formula(beta, gain):
    """The field computed in place on its own temporaries equals
    tanh(gain x) * min(1, log1p(1/|x|) ** -beta) bit for bit, at the origin,
    the subnormals, the cap's corner 1/(e-1), the box edge and on a dense
    grid, for a contiguous and a strided column; its input is left as it was,
    and 1/x overflowing at a subnormal x raises no warning."""
    f = build_field("tanhlog_dini", 1, 1, beta=beta, gain=gain)
    tiny, corner = np.finfo(float).tiny, 1.0 / (np.e - 1.0)
    special = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, corner, -corner, 6.0, -6.0]
    values = np.concatenate([special, np.linspace(-6.0, 6.0, 20001)])
    joint = np.stack([values[::-1], values], axis=1)
    for x in (values[:, None], joint[:, 1:]):
        before = x.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = f.func(x)
        with np.errstate(divide="ignore", over="ignore"):
            composed = (np.tanh(gain * x[:, 0])
                        * np.minimum(1.0, np.log1p(1.0 / np.abs(x[:, 0])) ** -beta))[:, None]
        assert value.tobytes() == composed.tobytes()
        assert x.tobytes() == before


def test_drift_gap_halves_for_linear_family():
    problem = load_problem("ou-1d")
    gaps = [drift_family_limit_gap(problem.drift, problem.working_box, eps)
            for eps in (0.5, 0.25, 0.125)]
    assert gaps[0] > 0
    assert gaps[0] == pytest.approx(2 * gaps[1], rel=1e-9)
    assert gaps[1] == pytest.approx(2 * gaps[2], rel=1e-9)


def test_drift_family_at_eps():
    problem = load_problem("ou-1d")
    x = np.array([[0.7]])
    b0 = problem.drift.at(0.0)(x)
    b_half = problem.drift.at(0.5)(x)
    assert np.allclose(b_half - b0, 0.5 * np.tanh(0.7))


# ---------------------------------------------------------------------------
# SDE problems

def test_problem_quiet_drift_given_exactly_with_two_blocks():
    """A quiet drift comes with two-entry dims and only with them."""
    brownian, hamiltonian = load_problem("brownian-1d"), load_problem("hamiltonian-2d")
    assert brownian.quiet_drift is None and hamiltonian.quiet_drift is not None
    with pytest.raises(ValueError, match="quiet drift is given exactly when"):
        dataclasses.replace(brownian, quiet_drift=hamiltonian.quiet_drift)
    with pytest.raises(ValueError, match="quiet drift is given exactly when"):
        dataclasses.replace(hamiltonian, quiet_drift=None)
    with pytest.raises(ValueError, match=r"dims must be \(n,\) or \(d1, d2\)"):
        dataclasses.replace(hamiltonian, dims=(1, 1, 1))


@pytest.mark.parametrize("field, value, needle", [
    ("drift", model.DriftFamily(limit=build_field("linear", 2, 1, matrix=[[1.0, 0.0]])),
     r"drift must be a field R\^1 -> R\^1, got linear: R\^2 -> R\^1$"),
    ("diffusion", build_field("identity_matrix", 2, 2),
     r"diffusion must be a field R\^1 -> R\^\(1 x 1\), got identity_matrix: R\^2"),
    ("diffusion", build_field("identity", 1, 1),
     r"diffusion must be a field R\^1 -> R\^\(1 x 1\), got identity: R\^1 -> R\^1$"),
    ("singular_drift", build_field("linear", 1, 2, matrix=[[1.0], [2.0]]),
     r"singular drift must be a field R\^1 -> R\^1, got linear: R\^1 -> R\^2$"),
], ids=["drift", "diffusion-size", "diffusion-vector", "singular"])
def test_problem_checks_every_field_against_its_block(field, value, needle):
    """Each field's (in_dim, out_dim, matrix) must match its block; a
    mismatch is a ValueError naming the field."""
    with pytest.raises(ValueError, match=needle):
        dataclasses.replace(load_problem("brownian-1d"), **{field: value})
