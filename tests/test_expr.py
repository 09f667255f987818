import numpy as np
import pytest

from ldplab.expr import EvaluationError, ParseError, parse_expression


def test_arithmetic_precedence():
    e = parse_expression("1 + 2 * 3 - 4 / 2", [])
    assert e() == pytest.approx(5.0)


def test_power_right_associative_and_tightest():
    e = parse_expression("2 ^ 3 ^ 2", [])
    assert e() == pytest.approx(512.0)
    e2 = parse_expression("-2 ^ 2", [])
    assert e2() == pytest.approx(-4.0)  # unary minus binds looser than ^


def test_variables_vectorized():
    e = parse_expression("x1 * x2 + 1", ["x1", "x2"])
    out = e(x1=np.array([1.0, 2.0]), x2=np.array([3.0, 4.0]))
    assert np.allclose(out, [4.0, 9.0])


def test_functions():
    e = parse_expression("min(1, log(1 + 1/t)) + max(t, 0.5, 2*t)", ["t"])
    t = np.array([0.25, 3.0])
    expected = np.minimum(1.0, np.log(1 + 1 / t)) + np.maximum.reduce(
        [t, np.full_like(t, 0.5), 2 * t])
    assert np.allclose(e(t=t), expected)


_X1 = np.linspace(-2.0, 2.0, 41)
_X2 = np.linspace(-3.0, 1.0, 41)


@pytest.mark.parametrize("src,expected", [
    ("-0.1 * tanh(x2)", -0.1 * np.tanh(_X2)),
    ("-x1^2", -np.power(_X1, 2.0)),
    ("2^-1", np.power(2.0, -1.0)),
    ("8/4/2", 8.0 / 4.0 / 2.0),
    ("1-2-3", 1.0 - 2.0 - 3.0),
    ("+x1", _X1),
])
def test_exact_values(src, expected):
    """The same NumPy operations as written, bit for bit (np.power for ^)."""
    got = parse_expression(src, ["x1", "x2"])(x1=_X1, x2=_X2)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("bad", [
    "1 +", "min(1)", "unknownfn(2)", "x9", "2 $ 3", "(1 + 2", "sin(1, 2)",
    "x1 < 2", "x1.real", "[1]", "1j", "True", "x1 if x1 else 2", "__import__('os')",
    "min(x1, y=2)", "min(*x1)", "lambda: 1", "x1 // 2", "x1 % 2", "'a'", "x1 ** 2",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_expression(bad, ["x1"])


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_expression("1 + $", [])
    assert info.value.position == 4


@pytest.mark.parametrize("src,env", [
    ("log(t)", {"t": 0.0}),
    ("log(t)", {"t": -1.0}),
    ("sqrt(t)", {"t": -4.0}),
    ("1 / t", {"t": 0.0}),
    ("exp(t)", {"t": 1000.0}),
])
def test_domain_errors_are_strict(src, env):
    e = parse_expression(src, ["t"])
    with pytest.raises(EvaluationError):
        e(**env)


def test_missing_variable():
    e = parse_expression("x1 + 1", ["x1"])
    with pytest.raises(EvaluationError):
        e()


def test_scientific_notation():
    e = parse_expression("1.5e-3 + 2E2", [])
    assert e() == pytest.approx(200.0015)
