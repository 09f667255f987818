import warnings
from importlib import resources

import numpy as np
import pytest

from ldplab.problems import (_phi_log, build_field, list_problems, load_problem,
                             parse_field_spec, parse_problem_text)


def test_bundled_problems_are_the_shipped_files():
    """The bundled names are the stems of the package's problems/*.ini files, sorted."""
    shipped = [f.name for f in resources.files("ldplab").joinpath("problems").iterdir()]
    assert list_problems() == sorted(n[:-4] for n in shipped if n.endswith(".ini"))
    assert len(list_problems()) == 6


def test_bundled_suite_loads():
    for name in list_problems():
        problem = load_problem(name)
        assert problem.name == name
        assert problem.state_dim >= 1
        z = problem.start
        y = z[problem.state_dim - problem.noisy_dim:]
        assert problem.drift.at(0.25)(z).shape == (problem.noisy_dim,)
        if problem.quiet_drift is not None:
            assert problem.quiet_drift.at(0.25)(z).shape == (problem.n_quiet,)
        assert problem.diffusion(y).shape == (problem.noisy_dim, problem.noisy_dim)
        if problem.singular_drift is not None:
            assert problem.singular_drift(y).shape == (problem.noisy_dim,)


def test_registry_field_params():
    f = build_field("linear", 1, 1, matrix=[[2.0]])
    assert np.allclose(f(np.array([[3.0]])), [[6.0]])
    assert f.lipschitz_const == pytest.approx(2.0)


@pytest.mark.parametrize("name, shape, params", [
    ("identity_matrix", (1.0, 1.0), {}),
    ("identity_matrix", (1, 1), {"scale": "3"}),
    ("tanh_iso", (1, 1), {"amplitude": None}),
    ("linear", (1, 1), {"matrix": [[1.0], [2.0, 3.0]]}),
    ("tanh_iso", (1, 1), {"amplitude": True}),
], ids=["float-dimension", "string", "none", "ragged", "bool"])
def test_registry_wrong_type_names_field(name, shape, params):
    with pytest.raises(ValueError, match=repr(name)):
        build_field(name, *shape, **params)


def test_phi_log_equals_masked_formula():
    """``np.log1p(1/r) ** -beta`` equals the masked formula bit for bit, 0 at
    r = 0 and inf where r**beta overflows included, without writing into
    ``r`` or warning."""
    tiny = np.finfo(float).tiny
    r = np.concatenate([[0.0, 5e-324, 1e-320, tiny / 2, tiny], np.logspace(-300, 300, 1201),
                        [1.0, 1e308, np.finfo(float).max]])
    for beta in (0.25, 1.0, 2.0, 3.7):
        old = np.zeros_like(r)
        pos = r > 0
        with np.errstate(over="ignore"):   # 1/r and r**beta overflow to inf
            old[pos] = np.log1p(1.0 / r[pos]) ** (-beta)
        before = r.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = _phi_log(r, beta)
        assert new.tobytes() == old.tobytes() and r.tobytes() == before
    assert np.isinf(old[-1])


def test_registry_unknown_name():
    with pytest.raises(KeyError):
        build_field("nope", 1, 1)


def test_parse_field_spec_expr_and_registry():
    f = parse_field_spec("expr: x1 ^ 2", 1, 1)
    assert np.allclose(f(np.array([[3.0]])), [[9.0]])
    g = parse_field_spec("registry: holder_root(alpha=0.5, bound=2.0)", 1, 1)
    assert np.allclose(g(np.array([[4.0]])), [[2.0]])


def test_parse_field_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_field_spec("something: x1", 1, 1)


def test_problem_text_degenerate_layout():
    problem = load_problem("hamiltonian-2d")
    assert problem.dims == (1, 1) and problem.n_quiet == 1 and problem.noisy_dim == 1
    z = np.array([[0.5, 0.3]])
    assert np.allclose(problem.quiet_drift.limit(z), [[0.3]])


def test_problem_file_from_path(tmp_path):
    text = load_problem("brownian-1d")  # bundled load works
    path = tmp_path / "custom.ini"
    path.write_text("""
[problem]
name = custom
dims = 2
horizon = 2.0
start = 0.5
ellipticity_K = 2.0

[drift]
limit = expr: -x1 +
    x2; -x2

[diffusion]
field = registry: identity_matrix
""")
    problem = load_problem(str(path))
    assert problem.state_dim == 2
    assert problem.horizon_T == 2.0
    assert np.allclose(problem.start, [0.5, 0.5])
    assert np.array_equal(problem.drift.limit(np.array([[1.0, 3.0]])), [[2.0, -3.0]])


def test_singular_without_modulus_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("""
[problem]
name = bad
dims = 1

[drift]
limit = expr: 0

[singular]
field = expr: x1

[diffusion]
field = registry: identity_matrix
""")
    with pytest.raises(ValueError):
        load_problem(str(path))


_BROWNIAN_SINGULAR = """
[problem]
dims = 1

[drift]
limit = expr: 0

[singular]
field = {field}
{bound}

[modulus]
kind = lipschitz
l = 1

[diffusion]
field = registry: identity_matrix
"""


@pytest.mark.parametrize("field, bound", [
    ("expr: 0.5", "bound = -1.0"),
    ("expr: 0.5", "bound = inf"),
    ("expr: 0.5", "bound = nan"),
    ("registry: constant(values=0.5)", "bound = -0.5"),
    ("registry: tanhlog_dini(bound=-1.0)", ""),
    ("registry: holder_root(bound=1e999)", ""),
], ids=["negative", "inf", "nan", "file-overrides-registry", "registry-negative",
        "registry-inf"])
def test_singular_bound_must_be_finite_and_nonnegative(field, bound):
    """A declared bound of b2 that no sampled sup can meet, or that checks
    nothing, is refused where the problem is built."""
    text = _BROWNIAN_SINGULAR.format(field=field, bound=bound)
    with pytest.raises(ValueError, match=r"declared bound must lie in \[0, inf\)"):
        parse_problem_text(text)


def test_registry_fields_declare_their_own_bound():
    """The bundled singular drifts state their bound through the registry only."""
    for name in ("dini-tanhlog-1d", "hamiltonian-2d", "holder-1d"):
        assert load_problem(name).singular_drift.declared_bound == 1.0
    text = _BROWNIAN_SINGULAR.format(field="registry: tanhlog_dini", bound="bound = 2.5")
    assert parse_problem_text(text).singular_drift.declared_bound == 2.5
