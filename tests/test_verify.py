"""The experiment memo behind the gates, gate orchestration, and the gate
report the benchmark reads."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from ldplab import verify
from ldplab.action import ball_target, half_space_target
from ldplab.verify import memo_ladder, memo_solve

_X = half_space_target([1.0], 0.5)
_Y = half_space_target([1.0], 0.5, coords=(1,))


def _ladder(name, target=_X, seed=7, with_singular=True):
    return memo_ladder(name, target, (1.0, 0.5, 0.25), 100, 16, seed,
                       with_singular=with_singular)


def _solve(name):
    return memo_solve(name, ball_target([1.0]), 8, 1, 0)


def test_memo_serves_equal_content_under_another_name():
    assert _ladder("brownian-1d") is _ladder("dini-tanhlog-1d", with_singular=False)
    assert _solve("free-endpoint") is _solve("dini-tanhlog-1d")


@pytest.mark.parametrize("first, second", [
    (lambda: _ladder("hamiltonian-2d", _Y),
     lambda: _ladder("hamiltonian-2d", _Y, with_singular=False)),
    (lambda: _ladder("brownian-1d"), lambda: _ladder("brownian-1d", seed=8)),
    (lambda: _ladder("hamiltonian-2d", half_space_target([1.0], 0.5, coords=(0,))),
     lambda: _ladder("hamiltonian-2d", _Y)),
], ids=["with_singular", "seed", "coords"])
def test_memo_misses_different_experiments(first, second):
    est = first()
    assert first() is est
    assert second() is not est


def test_crashed_gate_keeps_traceback(monkeypatch):
    def crash(seed):
        raise RuntimeError("gate crashed")

    monkeypatch.setattr(verify, "GATES", [
        (name, crash if name == "constant_resolvent_exactness" else gate)
        for name, gate in verify.GATES])
    crashed, other = verify.run_gates(names=["constant_resolvent_exactness",
                                             "dini_classification"])
    assert not crashed.passed and not crashed.skipped
    assert crashed.detail["error"] == "RuntimeError('gate crashed')"
    assert "Traceback" in crashed.detail["traceback"]
    assert "in crash" in crashed.detail["traceback"]
    assert other.name == "dini_classification" and other.passed


def _bench_module(monkeypatch, name):
    """``bench/<name>.py`` loaded without writing bytecode into bench/."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave bench/ as it is
    spec = importlib.util.spec_from_file_location(f"bench_{name}", bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_coupling_check_reads_gate_report(monkeypatch):
    workloads = _bench_module(monkeypatch, "workloads")
    workloads.TransformCoupling()
    workloads.MinAction()
    checks = workloads.TransformCoupling.check({"coupling": verify.gate_ito_conjugacy()})
    assert checks and all(ok for _, ok, _ in checks), checks


def test_bench_workload_calls_bind(monkeypatch):
    """Every step of the three benchmark workloads calls ldplab with arguments
    that bind to the real signatures.  The calls are stubbed, so nothing is
    simulated or solved: a signature change that would crash a benchmark run
    fails here instead."""
    workloads = _bench_module(monkeypatch, "workloads")
    # ``from ldplab import action`` would give the function that shadows the module
    action, ldp = (importlib.import_module(f"ldplab.{m}") for m in ("action", "ldp"))
    called = []
    for module, name in [(ldp, "estimate_probability"), (ldp, "ldp_experiment"),
                         (verify, "gate_ito_conjugacy"), (action, "minimize_rate"),
                         (action, "rate_via_transform")]:
        def stub(*args, _sig=inspect.signature(getattr(module, name)), _name=name, **kwargs):
            _sig.bind(*args, **kwargs)
            called.append(_name)
        monkeypatch.setattr(module, name, stub)
    for workload in workloads.WORKLOADS.values():
        for _, _, call in workload().steps(0):
            call()
    assert sorted(set(called)) == ["estimate_probability", "gate_ito_conjugacy",
                                   "ldp_experiment", "minimize_rate", "rate_via_transform"]


def test_bench_traced_calls_resolve(monkeypatch):
    """Every call the benchmark's tracer wraps exists under its traced name, so
    a rename in ldplab fails here rather than in a traced benchmark run."""
    tracing = _bench_module(monkeypatch, "tracing")
    for mod_name, attr in tracing.TRACED:
        obj = importlib.import_module(f"ldplab.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (mod_name, attr)
