"""Built-in field registry, problem-file parsing, and the bundled problem suite."""

from __future__ import annotations

import ast
import configparser
import inspect
import numbers
from importlib import resources

import numpy as np

from .model import (Box, DriftFamily, Modulus, SdeProblem, VectorField, coordinate_function,
                    parse_field)

__all__ = ["FIELD_REGISTRY", "build_field", "load_problem", "list_problems",
           "bundled_sections"]


# ---------------------------------------------------------------------------
# Field registry

def _phi_log(r, beta):
    """log(1 + 1/r)^(-beta) for r >= 0, beta > 0; at r = 0, 1/r = inf and
    the value is exactly 0."""
    with np.errstate(divide="ignore"):
        return np.log1p(1.0 / np.asarray(r, dtype=float)) ** -beta


def _zero(in_dim, out_dim):
    return VectorField(in_dim=in_dim, out_dim=out_dim,
                       func=lambda x: np.zeros((x.shape[0], out_dim)),
                       name="zero", lipschitz_const=0.0, declared_bound=0.0)


def _identity(n):
    return VectorField(in_dim=n, out_dim=n, func=lambda x: np.array(x, copy=True),
                       name="identity", lipschitz_const=1.0)


def _linear(matrix):
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    return VectorField(in_dim=a.shape[1], out_dim=a.shape[0],
                       func=lambda x: x @ a.T, name="linear",
                       lipschitz_const=float(np.linalg.norm(a, 2)))


def _constant(values, in_dim):
    c = np.atleast_1d(np.asarray(values, dtype=float))
    return VectorField(in_dim=in_dim, out_dim=c.size,
                       func=lambda x: np.broadcast_to(c, (x.shape[0], c.size)).copy(),
                       name="constant", lipschitz_const=0.0,
                       declared_bound=float(np.linalg.norm(c)))


def _identity_matrix(m, scale=1.0):
    eye = scale * np.eye(m)
    return VectorField(in_dim=m, out_dim=m, matrix=True,
                       func=lambda x: np.broadcast_to(eye, (x.shape[0], m, m)).copy(),
                       name="identity_matrix", lipschitz_const=0.0)


def _tanh_iso(m, amplitude=0.1):
    eye = np.eye(m)

    def func(x):
        scale = 1.0 + amplitude * np.tanh(x[:, 0])
        return scale[:, None, None] * eye

    return VectorField(in_dim=m, out_dim=m, matrix=True, func=func, name="tanh_iso")


def _tanhlog_dini(beta=2.0, gain=3.0, bound=1.0):
    """Sign-smoothed 1-D Dini field: tanh(gain*x) * min(bound, phi_log(|x|)).

    Non-Lipschitz at the origin (phi_log has infinite slope there); overall
    modulus is bounded by min(bound, phi_log(t)) + gain*t.
    """

    def func(x):
        r = np.abs(x[:, 0])
        return (np.tanh(gain * x[:, 0]) * np.minimum(bound, _phi_log(r, beta)))[:, None]

    mod = Modulus.from_expression(
        f"min({bound}, log(1 + 1/t)^(-{beta})) + {gain}*t")
    return VectorField(in_dim=1, out_dim=1, func=func, name="tanhlog_dini",
                       declared_modulus=mod, declared_bound=bound)


def _holder_root(alpha=0.5, bound=1.0):
    """1-D Holder field min(bound, |x|^alpha); modulus t^alpha by concavity."""

    def func(x):
        return np.minimum(bound, np.abs(x[:, 0]) ** alpha)[:, None]

    return VectorField(in_dim=1, out_dim=1, func=func, name="holder_root",
                       declared_modulus=Modulus.holder(alpha), declared_bound=bound)


FIELD_REGISTRY = {
    "zero": _zero,
    "identity": _identity,
    "linear": _linear,
    "constant": _constant,
    "identity_matrix": _identity_matrix,
    "tanh_iso": _tanh_iso,
    "tanhlog_dini": _tanhlog_dini,
    "holder_root": _holder_root,
}


def _numeric(value):
    """A number, or a (nested) list or array of numbers: every registry
    parameter's type."""
    if isinstance(value, (list, tuple)):
        return all(_numeric(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def build_field(name, **params):
    if name not in FIELD_REGISTRY:
        raise KeyError(f"unknown registry field {name!r}; known: {sorted(FIELD_REGISTRY)}")
    builder = FIELD_REGISTRY[name]
    try:
        inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise ValueError(f"registry field {name!r}: {exc}") from None
    for key, value in params.items():
        if not _numeric(value):
            raise ValueError(f"registry field {name!r}: {key} must be a number or a list "
                             f"of numbers, got {value!r}")
    try:
        return builder(**params)
    except (TypeError, ValueError) as exc:   # a float dimension, a ragged matrix
        raise ValueError(f"registry field {name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Field / family specs in problem files
#
#   field = expr: <';'-separated coordinate expressions>
#   field = registry: name(param=value, ...)

def _registry_call(body):
    """``name`` or ``name(key=value, ...)`` with literal values, as (name, params)."""
    try:
        node = ast.parse(body, mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"registry field {body!r} is malformed: {exc.msg}") from None
    if isinstance(node, ast.Name):
        return node.id, {}
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        raise ValueError(f"registry field {body!r} must be name or name(key=value, ...)")
    if node.args or any(k.arg is None for k in node.keywords):
        raise ValueError(f"registry field {node.func.id!r} takes keyword arguments only")
    return node.func.id, {k.arg: ast.literal_eval(k.value) for k in node.keywords}


def parse_field_spec(spec, in_dim, out_dim, matrix=False):
    spec = spec.strip().strip('"')
    kind, _, body = spec.partition(":")
    kind = kind.strip().lower()
    body = body.strip().strip('"')
    if kind == "expr":
        return parse_field(body, in_dim, out_dim, matrix=matrix)
    if kind == "registry":
        name, params = _registry_call(body)
        if name in ("zero",):
            params.setdefault("in_dim", in_dim)
            params.setdefault("out_dim", out_dim)
        if name in ("constant",):
            params.setdefault("in_dim", in_dim)
        if name in ("identity",):
            params.setdefault("n", in_dim)
        if name in ("identity_matrix", "tanh_iso"):
            params.setdefault("m", out_dim)
        return build_field(name, **params)
    raise ValueError(f"field spec must start with 'expr:' or 'registry:', got {spec!r}")


def _expression_family(pert_text, in_dim, out_dim):
    """Perturbation family from an expression in x1..xn and eps."""
    coords = coordinate_function(pert_text, in_dim, out_dim, extra=("eps",))

    def family(eps):
        return VectorField(in_dim=in_dim, out_dim=out_dim,
                           func=lambda x: coords(x, eps=float(eps)), name=f"pert(eps={eps})")

    return family


def _parse_modulus(section):
    kind = section.get("kind", "").strip()
    if kind == "dini_log":
        return Modulus.dini_log(float(section["beta"]))
    if kind == "holder":
        return Modulus.holder(float(section["alpha"]))
    if kind == "lipschitz":
        return Modulus.lipschitz(float(section["l"]))
    if kind == "expression":
        return Modulus.from_expression(section["expression"].strip().strip('"'))
    raise ValueError(f"unknown modulus kind {kind!r}")


def _family(section, key_limit, key_pert, in_dim, out_dim):
    limit = parse_field_spec(section[key_limit], in_dim, out_dim)
    pert = None
    if key_pert in section and section[key_pert].strip():
        text = section[key_pert].strip().strip('"')
        kind, _, body = text.partition(":")
        if kind.strip().lower() != "expr":
            raise ValueError("perturbation must be an 'expr:' spec in x1..xn and eps")
        pert = _expression_family(body.strip().strip('"'), in_dim, out_dim)
    return DriftFamily(limit=limit, perturbation=pert)


def _config(text):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(text)
    return cp


def parse_problem_text(text, name_hint=""):
    cp = _config(text)
    prob = cp["problem"]
    layout = prob.get("layout", "nondegenerate").strip()
    dims = tuple(int(d) for d in prob["dims"].split())
    state_dim = sum(dims)
    name = prob.get("name", name_hint).strip()
    horizon = float(prob.get("horizon", "1.0"))
    start = np.array([float(v) for v in prob.get("start", "0").split()], dtype=float)
    if start.size == 1 and state_dim > 1:
        start = np.full(state_dim, float(start[0]))
    K = float(prob.get("ellipticity_k", "2.0"))
    L = float(prob.get("lipschitz_l", "1.0"))
    lo = float(prob.get("box_lo", "-5.0"))
    hi = float(prob.get("box_hi", "5.0"))
    box = Box.of(np.full(state_dim, lo), np.full(state_dim, hi))

    noisy = dims[0] if layout == "nondegenerate" else dims[1]
    diffusion = parse_field_spec(cp["diffusion"]["field"], noisy, noisy, matrix=True)
    if diffusion.matrix is False:
        raise ValueError("diffusion must be matrix-valued")

    singular = None
    if cp.has_section("singular"):
        singular = parse_field_spec(cp["singular"]["field"], noisy, noisy)
        if cp.has_section("modulus"):
            singular.declared_modulus = _parse_modulus(cp["modulus"])
        if singular.declared_modulus is None:
            raise ValueError("singular drift needs a [modulus] section or registry modulus")
        if "bound" in cp["singular"]:
            singular.declared_bound = float(cp["singular"]["bound"])

    kwargs = dict(name=name, layout=layout, horizon_T=horizon, ellipticity_K=K,
                  lipschitz_L=L, working_box=box, start=start, dims=dims,
                  diffusion=diffusion, singular_drift=singular)
    if layout == "nondegenerate":
        (n,) = dims
        kwargs["drift"] = _family(cp["drift"], "limit", "perturbation", n, n)
    else:
        d1, d2 = dims
        kwargs["bbar"] = _family(cp["drift"], "limit_x", "perturbation_x", d1 + d2, d1)
        kwargs["Bbar"] = _family(cp["drift"], "limit_y", "perturbation_y", d1 + d2, d2)
    return SdeProblem(**kwargs)


_BUNDLED = ["brownian-1d", "ou-1d", "free-endpoint", "dini-tanhlog-1d",
            "holder-1d", "hamiltonian-2d"]


def list_problems():
    return list(_BUNDLED)


def bundled_sections(name):
    """The sections of a bundled problem file as {section: {key: value}}."""
    cp = _config(resources.files("ldplab").joinpath(f"problems/{name}.ini").read_text())
    return {section: dict(cp[section]) for section in cp.sections()}


def load_problem(name_or_path):
    """Load a bundled problem by name or a problem file by path."""
    name = str(name_or_path)
    if name in _BUNDLED:
        text = resources.files("ldplab").joinpath(f"problems/{name}.ini").read_text()
        return parse_problem_text(text, name_hint=name)
    with open(name, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_problem_text(text, name_hint=name)
