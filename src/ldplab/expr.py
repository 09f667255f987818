"""Small arithmetic expression language for user-defined scalar/vector fields.

Expressions use variables ``x1..xn`` (or ``t`` for moduli, ``eps`` for drift
families), the operators ``+ - * / ^`` and a fixed set of functions.  Python's
parser reads the text (``^`` as ``**``); a whitelist of its nodes is compiled
into closures, and user text never reaches ``eval``.  The evaluator is strict:
``log``/``sqrt`` of a nonpositive/negative argument and division by zero raise
:class:`EvaluationError` instead of propagating NaN.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParseError",
    "EvaluationError",
    "parse_expression",
    "Expression",
]


class ParseError(ValueError):
    """Syntax error with source position and offending token."""

    def __init__(self, message, position, token=""):
        super().__init__(f"{message} at position {position}" + (f" (near {token!r})" if token else ""))
        self.position = position
        self.token = token


class EvaluationError(ArithmeticError):
    """Raised when an expression hits an invalid numeric domain."""


def _checked(name, fn, domain):
    def wrapper(a):
        if np.any(domain(a)):
            raise EvaluationError(f"{name}: argument outside domain")
        return fn(a)

    return wrapper


# name -> (arity, function); a negative arity is a minimum
_FUNCTIONS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "tanh": (1, np.tanh),
    "exp": (1, _checked("exp", np.exp, lambda a: np.asarray(a) > 700)),
    "log": (1, _checked("log", np.log, lambda a: np.asarray(a) <= 0)),
    "sqrt": (1, _checked("sqrt", np.sqrt, lambda a: np.asarray(a) < 0)),
    "abs": (1, np.abs),
    "min": (-2, lambda *a: np.minimum.reduce(np.broadcast_arrays(*a))),
    "max": (-2, lambda *a: np.maximum.reduce(np.broadcast_arrays(*a))),
}


def _divide(a, b):
    if np.any(b == 0):
        raise EvaluationError("division by zero")
    return a / b


def _power(a, b):
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = np.power(np.asarray(a, dtype=float), b)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("non-finite result of exponentiation")
    return out


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: _divide, ast.Pow: _power}


def _python_source(text):
    """``text`` as Python source (``^`` -> ``**``, blanks -> spaces, leading
    blanks dropped) and, per source index, the index in ``text``."""
    out, where = [], []
    for i, c in enumerate(text):
        if c.isspace():
            if not out:
                continue
            c = " "
        elif c == "*" and text[i + 1:i + 2] == "*":
            raise ParseError("'**' is not an operator, use '^'", i, "**")
        elif c == "#" or not c.isascii():   # Python drops comments, folds look-alikes
            raise ParseError("unexpected character", i, c)
        out.append("**" if c == "^" else c)
        where.extend([i] * len(out[-1]))
    return "".join(out), where + [len(text)]


def _compile(node, variables, text, where):
    """The closure env -> value of an accepted node; ParseError otherwise."""
    def sub(child):
        return _compile(child, variables, text, where)

    def reject(message):
        start, end = where[node.col_offset], where[node.end_col_offset]
        return ParseError(message, start, text[start:end])

    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            value = float(node.value)
        except OverflowError:
            raise reject("number out of range") from None
        return lambda env: value
    if isinstance(node, ast.Name):
        if node.id not in variables:
            raise reject("unknown identifier")
        name = node.id
        return lambda env: env[name]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        arg = sub(node.operand)
        return arg if isinstance(node.op, ast.UAdd) else (lambda env: -arg(env))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op, left, right = _BINARY[type(node.op)], sub(node.left), sub(node.right)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name not in _FUNCTIONS:
            raise reject("unknown function")
        if node.keywords or any(isinstance(a, ast.Starred) for a in node.args):
            raise reject(f"{name} takes positional arguments only")
        arity, fn = _FUNCTIONS[name]
        n = len(node.args)
        if arity >= 0 and n != arity:
            raise reject(f"{name} takes {arity} argument(s), got {n}")
        if arity < 0 and n < -arity:
            raise reject(f"{name} takes at least {-arity} arguments, got {n}")
        args = [sub(a) for a in node.args]
        return lambda env: fn(*[a(env) for a in args])
    raise reject("unsupported syntax")


@dataclass
class Expression:
    """A parsed scalar expression over a fixed variable set."""

    evaluate: object      # env dict -> value
    variables: tuple
    source: str

    def __call__(self, **env):
        missing = [v for v in self.variables if v not in env]
        if missing:
            raise EvaluationError(f"missing variables {missing}")
        out = np.asarray(self.evaluate(env), dtype=float)
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"non-finite value from {self.source!r}")
        return out


def parse_expression(text, variables):
    """Parse one scalar expression using the given variable names."""
    source, where = _python_source(text)
    try:
        tree = ast.parse(source, mode="eval")
    except (SyntaxError, ValueError) as exc:
        offset = getattr(exc, "offset", None)
        pos = where[min(offset - 1, len(source))] if offset else len(text)
        raise ParseError(getattr(exc, "msg", str(exc)), pos, text[pos:pos + 1]) from None
    evaluate = _compile(tree.body, set(variables), text, where)
    return Expression(evaluate=evaluate, variables=tuple(variables), source=text)
