"""Span tracing around ldplab's public calls, installed from the benchmark.

``install()`` replaces each traced function or method with a wrapper that
records a span: its name, its duration and the span that called it.  Spans
are aggregated in memory as they close (the hot calls number in the
millions per round, too many to keep one by one): per span name the call
count, inclusive time and self time (duration minus the time covered by its
child spans), and per (parent, child) pair the call count.  A few hooks
count work at the same boundaries: rows per vector-field call, path-steps
and escapes per ladder point, Picard iterations per resolvent solve,
optimizer iterations and evaluations per ``minimize``.

The layer of a span is the ldplab module its name starts with.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter


def _rows(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    shape = getattr(x, "shape", None)
    return 1 if not shape or len(shape) == 1 else int(shape[0])


class Tracer:
    def __init__(self):
        self.stack = []          # open spans: [name, time covered by children]
        self.reset()

    def reset(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, total, self
        self.edges = defaultdict(int)                      # (parent, name) -> calls
        self.counts = defaultdict(int)

    def snapshot(self):
        """Return the aggregates gathered since the last snapshot and reset."""
        snap = {"calls": {k: v[0] for k, v in self.stats.items()},
                "total": {k: v[1] for k, v in self.stats.items()},
                "self": {k: v[2] for k, v in self.stats.items()},
                "counts": dict(self.counts),
                "edges": {f"{p} > {c}": n for (p, c), n in self.edges.items()}}
        self.reset()
        return snap

    def wrap(self, name, fn, hook=None):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                    parent = parent[0]
                st = self.stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                self.edges[parent, name] += 1
            if hook is not None:
                hook(self, parent, args, kwargs, result)
            return result

        return traced


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _hooks():
    """Counters recorded when a span closes, keyed by span name."""
    from ldplab.ldp import estimate_probability
    from ldplab import simulate

    def field(tr, parent, args, kwargs, result):
        tr.counts["model.rows"] += _rows(args, kwargs)

    def ladder_point(tr, parent, args, kwargs, result):
        a = _bound(estimate_probability, args, kwargs)
        tr.counts["ldp.path_steps"] += int(a["n_paths"]) * int(a["n_steps"])
        tr.counts["ldp.escapes"] += int(result.escapes)

    def picard(tr, parent, args, kwargs, result):
        tr.counts["zvonkin.picard_iters"] += int(result.picard_iters)

    def optimizer(tr, parent, args, kwargs, result):
        tr.counts["action.optimizer_iters"] += int(result.nit)
        tr.counts["action.optimizer_fevals"] += int(result.nfev)

    def solve(tr, parent, args, kwargs, result):
        if parent not in ("action.minimize_rate", "action.rate_via_transform"):
            tr.counts["action.solves"] += 1

    def path(fn):
        def hook(tr, parent, args, kwargs, result):
            if parent is None or not parent.startswith("simulate.simulate_"):
                tr.counts["simulate.paths"] += 1
                tr.counts["simulate.path_steps"] += int(_bound(fn, args, kwargs)["n_steps"])
        return hook

    hooks = {"model.VectorField.__call__": field,
             "ldp.estimate_probability": ladder_point,
             "zvonkin.solve_resolvent": picard,
             "action.minimize": optimizer,
             "action.minimize_rate": solve,
             "action.rate_via_transform": solve}
    for fname in ("simulate_original", "simulate_transformed", "simulate_degenerate",
                  "simulate_transformed_degenerate"):
        hooks[f"simulate.{fname}"] = path(getattr(simulate, fname))
    return hooks


# (module, attribute) of every traced call; "Class.method" patches the class.
TRACED = [
    ("model", "VectorField.__call__"),
    ("expr", "Expression.__call__"),
    ("zvonkin", "find_lambda0"),
    ("zvonkin", "solve_resolvent"),
    ("zvonkin", "theta_inv"),
    ("zvonkin", "GridFunction.__call__"),
    ("zvonkin", "GridFunction.jacobian"),
    ("simulate", "simulate_original"),
    ("simulate", "simulate_transformed"),
    ("simulate", "simulate_degenerate"),
    ("simulate", "simulate_transformed_degenerate"),
    ("simulate", "brownian_increments"),
    ("ldp", "estimate_probability"),
    ("ldp", "ldp_experiment"),
    ("action", "minimize_rate"),
    ("action", "rate_via_transform"),
    ("action", "skeleton"),
    ("action", "minimize"),          # scipy.optimize.minimize as action calls it
]


def install():
    """Wrap every traced ldplab call and every verify gate; return the Tracer.

    A module-level function is replaced in every ldplab module that bound
    it, since ``from .zvonkin import theta_inv`` makes a second binding.
    """
    tracer = Tracer()
    hooks = _hooks()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "ldplab" or n.startswith("ldplab."))]
    verify = importlib.import_module("ldplab.verify")
    targets = list(TRACED) + [("verify", n) for n in dir(verify) if n.startswith("gate_")]
    for mod_name, attr in targets:
        module = importlib.import_module(f"ldplab.{mod_name}")
        name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), hooks.get(name)))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, hooks.get(name))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    return tracer
