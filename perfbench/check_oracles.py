"""Tests of the benchmark's own oracles, percentile rule and tracer.

    python3 -m pytest -q perfbench/check_oracles.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("n,m,b", [(2, 40, 7), (2, 2000, 1000), (3, 6000, 2999),
                                   (4, 6000, 5999), (2, 10000, 10000), (2, 6000, 0)])
def test_football_log_norm_matches_mpmath(n, m, b):
    with mpmath.workdps(50):
        ref = mpmath.log(mpmath.beta(b + 1, m - b + 1) / n)
    assert abs(oracles.football_log_norm(n, m, b) - float(ref)) <= 1e-9


@pytest.mark.parametrize("d,m,b", [((2, 3), 6000, 1000), ((3, 5), 5997, 600),
                                   ((2, 7), 6000, 0), ((2, 7), 6000, 856)])
def test_wpl_log_norm_matches_mpmath(d, m, b):
    d0, d1 = d
    e = b * d1
    with mpmath.workdps(50):
        ref = mpmath.log(mpmath.beta(e + 1, m + 1 - e) / (d0 * d1))
    assert abs(oracles.wpl_log_norm(d0, d1, m, b) - float(ref)) <= 1e-9


def test_football_log_norm_matches_factorial_closed_form():
    from orbk.quadrature import monomial_norm_closed_form

    for n in (1, 2, 3, 4):
        for N in range(0, 13):
            for k in range(N + 1):
                exact = math.log(monomial_norm_closed_form(n, N, k))
                assert abs(oracles.football_log_norm(n, n * N, n * k) - exact) <= 1e-12


@pytest.mark.parametrize("spec", workloads.GRAM_MODELS)
def test_lattice_points_match_invariant_monomials(spec):
    from orbk.groups import GroupAction, invariant_monomials

    for m in range(0, 61, spec.get("n", 1)):
        if spec["kind"] == "football":
            found = invariant_monomials(GroupAction.cyclic(spec["n"], [1, 0]), m)
        else:
            found = invariant_monomials(GroupAction.trivial(2), m, weights=spec["d"])
        assert oracles.lattice_points(spec, m) == found


def test_football_density_matches_library_closed_form():
    from orbk.bergman import football_density_closed_form

    for n in (2, 3, 4):
        for m in (n, 10 * n, 600):
            m -= m % n
            for u in (0.0, 0.3, 1.0, 3.7):
                ref = football_density_closed_form(n, m, u)
                assert abs(oracles.football_density(n, m, u) - ref) <= 1e-12 * ref


def test_recovery_rule_flags_rise_and_high_final_value():
    assert oracles.recovery_curve_ok([0.1, 0.05, 0.01]) == [True, True, True]
    assert oracles.recovery_curve_ok([0.1, 0.2, 0.01]) == [True, False, True]
    assert oracles.recovery_curve_ok([0.1, 0.05, 0.03]) == [True, True, False]


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(47)]
    p, value = run.tail_percentile(samples)
    assert p == 78 and value == 36.0
    assert sum(s > value for s in samples) == 10
    assert run.tail_percentile(samples[:10]) == (None, math.inf)


def test_tracer_restores_bindings_and_counts_nodes():
    from orbk import quadrature, sections
    from orbk.models import build_model

    original = sections.integrate_radial
    with Tracer() as tracer:
        assert sections.integrate_radial is not original
        sections.build_section_space(build_model({"kind": "football", "n": 2}), 20)
    assert sections.integrate_radial is original
    assert quadrature.integrate_radial.__module__ == "orbk.quadrature"
    summary = tracer.summary(1)
    assert summary["quadrature.integrate_radial"]["calls"] == 11
    assert tracer.counters["sections.basis_elements"] == 11
    assert tracer.counters["quadrature.nodes"] >= 11 * 200


def test_tracer_reports_a_moved_function_as_missing(monkeypatch):
    import orbk
    from orbk import cli, localmodel

    for module in (orbk, cli, localmodel):
        monkeypatch.delattr(module, "check_identities")
    with Tracer() as tracer:
        pass
    assert "localmodel.check_identities" not in tracer.available
    one_pass = [([1.0], [1.0], {}, {})]
    metrics = run.layer_metrics(tracer, one_pass, one_pass, 0.0)
    assert metrics["localmodel.check_identities.self_s"] is None
    assert metrics["localmodel.grid_points"] is None
    assert metrics["quadrature.integrate_radial.calls"] == 0


def test_speedometer_reads_its_own_yardstick_at_nominal_speed():
    meter = speed.Speedometer()
    steps = 5_000_000  # 0.2 s at nominal speed, long enough for ticks
    with meter.timing() as took:
        speed.spin(steps)
    assert meter.ticks
    assert took["nominal_s"] == pytest.approx(steps * speed.NOMINAL_STEP_S, rel=0.25)
