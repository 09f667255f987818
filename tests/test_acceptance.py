"""Acceptance suite: one gate per criterion, one pass/fail line each.

Gates 7, 8, 9 and 11 share their Monte Carlo ladders and gate 9's rate
through the experiment memo in ``ldplab.verify``, so each ladder runs once
per session.
"""


from ldplab.verify import (gate_bound_checks, gate_constant_resolvent,
                           gate_degenerate_slope, gate_dini_classification,
                           gate_gaussian_slope, gate_homeomorphism_roundtrip,
                           gate_ito_conjugacy, gate_norm_certificate, gate_rate_oracles,
                           gate_singular_insensitivity, gate_transform_rate_identity)


def _check(report):
    print(report.line())
    assert report.passed, report.line()


def test_criterion_01_constant_resolvent_exactness():
    _check(gate_constant_resolvent())


def test_criterion_02_norm_certificate():
    _check(gate_norm_certificate())


def test_criterion_03_homeomorphism_roundtrip():
    _check(gate_homeomorphism_roundtrip())


def test_criterion_04_ito_conjugacy():
    _check(gate_ito_conjugacy())


def test_criterion_05_rate_oracles():
    _check(gate_rate_oracles())


def test_criterion_06_transform_rate_identity():
    _check(gate_transform_rate_identity())


def test_criterion_07_gaussian_slope():
    _check(gate_gaussian_slope())


def test_criterion_08_singular_insensitivity():
    _check(gate_singular_insensitivity())


def test_criterion_09_degenerate_slope():
    _check(gate_degenerate_slope())


def test_criterion_10_dini_classification():
    _check(gate_dini_classification())


def test_criterion_11_bound_checks():
    _check(gate_bound_checks())
