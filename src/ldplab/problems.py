"""Built-in field registry, problem-file parsing, and the bundled problem suite."""

from __future__ import annotations

import ast
import configparser
import inspect
import numbers
from importlib import resources
from pathlib import Path

import numpy as np

from .model import (Box, DriftFamily, Modulus, SdeProblem, VectorField, coordinate_function,
                    parse_field)

__all__ = ["FIELD_REGISTRY", "build_field", "load_problem", "list_problems",
           "bundled_sections"]


# ---------------------------------------------------------------------------
# Field registry

def _phi_log(r, beta):
    """log(1 + 1/r)^(-beta) for r >= 0, beta > 0, as a new array; where 1/r
    is inf (r = 0 or subnormal) the value is exactly 0."""
    with np.errstate(divide="ignore", over="ignore"):
        phi = np.divide(1.0, r)
        np.log1p(phi, out=phi)
        phi **= -beta             # about r**beta: inf for r above 1e83 at beta = 3.7
    return phi


def _zero(in_dim, out_dim):
    return VectorField(in_dim=in_dim, out_dim=out_dim,
                       func=lambda x: np.zeros((x.shape[0], out_dim)),
                       name="zero", lipschitz_const=0.0, declared_bound=0.0)


def _identity(in_dim, out_dim):
    return VectorField(in_dim=in_dim, out_dim=in_dim, func=lambda x: np.array(x, copy=True),
                       name="identity", lipschitz_const=1.0)


def _linear(in_dim, out_dim, matrix):
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    return VectorField(in_dim=a.shape[1], out_dim=a.shape[0],
                       func=lambda x: x @ a.T, name="linear",
                       lipschitz_const=float(np.linalg.norm(a, 2)))


def _constant(in_dim, out_dim, values):
    c = np.atleast_1d(np.asarray(values, dtype=float))
    return VectorField(in_dim=in_dim, out_dim=c.size,
                       func=lambda x: np.broadcast_to(c, (x.shape[0], c.size)).copy(),
                       name="constant", lipschitz_const=0.0,
                       declared_bound=float(np.linalg.norm(c)))


def _identity_matrix(in_dim, out_dim, scale=1.0):
    eye = scale * np.eye(out_dim)
    return VectorField(in_dim=in_dim, out_dim=out_dim, matrix=True,
                       func=lambda x: np.broadcast_to(eye, (x.shape[0], out_dim, out_dim)).copy(),
                       name="identity_matrix", lipschitz_const=0.0)


def _tanh_iso(in_dim, out_dim, amplitude=0.1):
    eye = np.eye(out_dim)

    def func(x):
        scale = 1.0 + amplitude * np.tanh(x[:, 0])
        return scale[:, None, None] * eye

    return VectorField(in_dim=in_dim, out_dim=out_dim, matrix=True, func=func, name="tanh_iso")


def _tanhlog_dini(in_dim, out_dim, beta=2.0, gain=3.0, bound=1.0):
    """Sign-smoothed 1-D Dini field: tanh(gain*x) * min(bound, phi_log(|x|)).

    Non-Lipschitz at the origin (phi_log has infinite slope there); overall
    modulus is bounded by min(bound, phi_log(t)) + gain*t.
    """

    def func(x):
        cap = _phi_log(np.abs(x[:, 0]), beta)
        np.minimum(bound, cap, out=cap)
        sign = np.multiply(gain, x[:, 0])
        np.tanh(sign, out=sign)
        return np.multiply(sign, cap, out=sign)[:, None]

    mod = Modulus.from_expression(
        f"min({bound}, log(1 + 1/t)^(-{beta})) + {gain}*t")
    return VectorField(in_dim=1, out_dim=1, func=func, name="tanhlog_dini",
                       declared_modulus=mod, declared_bound=bound)


def _holder_root(in_dim, out_dim, alpha=0.5, bound=1.0):
    """1-D Holder field min(bound, |x|^alpha); modulus t^alpha by concavity."""

    def func(x):
        return np.minimum(bound, np.abs(x[:, 0]) ** alpha)[:, None]

    return VectorField(in_dim=1, out_dim=1, func=func, name="holder_root",
                       declared_modulus=Modulus.holder(alpha), declared_bound=bound)


# Every builder takes its block's (in_dim, out_dim) first; one whose parameters
# fix its shape keeps it, and SdeProblem refuses a shape that misfits the block.
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


def build_field(name, in_dim, out_dim, /, **params):
    """Registry field ``name`` of a block R^in_dim -> R^out_dim, with ``params``."""
    if name not in FIELD_REGISTRY:
        raise KeyError(f"unknown registry field {name!r}; known: {sorted(FIELD_REGISTRY)}")
    builder = FIELD_REGISTRY[name]
    try:
        inspect.signature(builder).bind(in_dim, out_dim, **params)
    except TypeError as exc:
        raise ValueError(f"registry field {name!r}: {exc}") from None
    for key, value in params.items():
        if not _numeric(value):
            raise ValueError(f"registry field {name!r}: {key} must be a number or a list "
                             f"of numbers, got {value!r}")
    try:
        return builder(in_dim, out_dim, **params)
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
        return build_field(name, in_dim, out_dim, **params)
    raise ValueError(f"field spec must start with 'expr:' or 'registry:', got {spec!r}")


def _expression_family(pert_text, in_dim, out_dim):
    """Perturbation family from an expression in x1..xn and eps."""
    coords = coordinate_function(pert_text, in_dim, out_dim, extra=("eps",))

    def family(eps):
        return VectorField(in_dim=in_dim, out_dim=out_dim,
                           func=lambda x: coords(x, eps=float(eps)), name=f"pert(eps={eps})")

    return family


# The keys a problem file may set, per section; [drift]'s depend on the block
# count, and [modulus] takes its kind and that kind's one parameter.
_KEYS = {"DEFAULT": (), "diffusion": ("field",), "singular": ("field", "bound"),
         "problem": ("name", "dims", "horizon", "start", "ellipticity_k", "lipschitz_l",
                     "box_lo", "box_hi")}
_DRIFT_KEYS = {1: ("limit", "perturbation"),
               2: ("limit_x", "perturbation_x", "limit_y", "perturbation_y")}
_MODULUS_PARAMETER = {"dini_log": "beta", "holder": "alpha", "lipschitz": "l",
                      "expression": "expression"}


def _refuse_unknown_keys(section, known):
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(unknown)} in [{section.name}]; "
                         f"known: {', '.join(known) or 'none'}")


def _check_keys(cp, n_blocks):
    """Refuse a section or key that nothing reads, naming it."""
    known = dict(_KEYS, drift=_DRIFT_KEYS[n_blocks])
    if cp.has_section("singular"):
        known["modulus"] = None           # _parse_modulus checks it against its kind
    for name in cp:
        if name not in known:
            raise ValueError(f"unknown section [{name}]")
        if known[name] is not None:
            _refuse_unknown_keys(cp[name], known[name])


def _parse_modulus(section):
    kind = section.get("kind", "").strip()
    if kind not in _MODULUS_PARAMETER:
        raise ValueError(f"unknown modulus kind {kind!r}")
    key = _MODULUS_PARAMETER[kind]
    _refuse_unknown_keys(section, ("kind", key))
    if kind == "expression":
        return Modulus.from_expression(section[key].strip().strip('"'))
    return getattr(Modulus, kind)(float(section[key]))


def _family(section, key_limit, key_pert, in_dim, out_dim):
    limit = parse_field_spec(section[key_limit], in_dim, out_dim)
    pert = None
    if section.get(key_pert, "").strip():
        kind, _, body = section[key_pert].strip().strip('"').partition(":")
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
    dims = tuple(int(d) for d in prob["dims"].split())
    if len(dims) not in _DRIFT_KEYS:
        raise ValueError(f"dims must list 1 or 2 block sizes, got {dims}")
    _check_keys(cp, len(dims))
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

    noisy = dims[-1]            # the noisy block comes last
    diffusion = parse_field_spec(cp["diffusion"]["field"], noisy, noisy, matrix=True)

    singular = None
    if cp.has_section("singular"):
        singular = parse_field_spec(cp["singular"]["field"], noisy, noisy)
        if cp.has_section("modulus"):
            singular.declared_modulus = _parse_modulus(cp["modulus"])
        if "bound" in cp["singular"]:
            singular.declared_bound = float(cp["singular"]["bound"])

    # the noisy block's drift is limit/perturbation, or limit_y/perturbation_y
    # beside the noise-free block's limit_x/perturbation_x
    suffix = "_y" if len(dims) == 2 else ""
    drift = _family(cp["drift"], "limit" + suffix, "perturbation" + suffix, state_dim, noisy)
    quiet_drift = None
    if len(dims) == 2:
        quiet_drift = _family(cp["drift"], "limit_x", "perturbation_x", state_dim, dims[0])
    return SdeProblem(name=name, dims=dims, horizon_T=horizon, ellipticity_K=K,
                      lipschitz_L=L, working_box=box, start=start, drift=drift,
                      diffusion=diffusion, singular_drift=singular, quiet_drift=quiet_drift)


_BUNDLED = ["brownian-1d", "ou-1d", "free-endpoint", "dini-tanhlog-1d",
            "holder-1d", "hamiltonian-2d"]


def list_problems():
    return list(_BUNDLED)


def _bundled_text(name):
    return resources.files("ldplab").joinpath(f"problems/{name}.ini").read_text()


def bundled_sections(name):
    """The sections of a bundled problem file as {section: {key: value}}."""
    cp = _config(_bundled_text(name))
    return {section: dict(cp[section]) for section in cp.sections()}


def load_problem(name_or_path):
    """Load a bundled problem by name or a problem file by path."""
    name = str(name_or_path)
    text = _bundled_text(name) if name in _BUNDLED else Path(name).read_text(encoding="utf-8")
    return parse_problem_text(text, name_hint=name)
