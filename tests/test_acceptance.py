"""Acceptance gate: one test per headline claim, pinned tolerances.

Each test prints a single PASS line naming the criterion; a failure anywhere
here means the artifact does not meet its contract.
"""

import math
import time

import numpy as np
import pytest

from orbk.asymptotics import (
    character_sum_bound,
    fit_decay_rate,
    fit_expansion,
    lower_bound_scan,
    pair_with_test_function,
    recover_potential,
)
from orbk.bergman import (
    density,
    football_density_closed_form,
    metric_pullback_deviation,
)
from orbk.errors import NoiseFloorError
from orbk.groups import GroupAction
from orbk.index import b_coefficient, rrk_euler_characteristic
from orbk.localmodel import ModelGrid, check_identities, default_suite, phase_critical_data
from orbk.models import build_football, build_wpl
from orbk.sections import RadialBump, build_section_space

from group_oracles import classical_cyclic_sum


def _report(name, detail, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"PASS {name}: {detail} ({elapsed:.1f}s)")


def test_01_fixed_point_value():
    t0 = time.monotonic()
    worst = 0.0
    for n in (2, 3, 4):
        for m in range(n, 81, n):
            closed = football_density_closed_form(n, m, 0.0)
            assert closed == n * (m + 1)
            space = build_section_space(build_football(n), m)
            rel = abs(density(space, 0j) - closed) / closed
            worst = max(worst, rel)
            assert rel < 1e-9
    _report("criterion 1 (fixed-point density n(m+1))",
            f"worst Gram-path rel err {worst:.2e}", t0, 10)


def test_02_delta_coefficients():
    t0 = time.monotonic()
    from fractions import Fraction

    for n in range(2, 13):
        b = b_coefficient(build_football(n).singular_points[0])
        assert b.exact == Fraction(n - 1, 2 * n)
        assert b.imag_residual < 1e-12
    for n in range(2, 51):
        value, expected = classical_cyclic_sum(n)
        assert abs(value - expected) < 1e-12
    _report("criterion 2 (b = (n-1)/2n exact, classical sum to n=50)",
            "all exact certificates match", t0, 1)


def test_03_index_equals_dimension():
    t0 = time.monotonic()
    checked = 0
    for n in range(1, 7):
        reports = rrk_euler_characteristic(build_football(n), [n * N for N in range(0, 31)])
        assert len(reports) == 31
        for N, report in enumerate(reports):
            assert report.matches_oracle, (n, N)
            checked += 1
    for d in [(1, 2), (2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (5, 6),
              (2, 7), (3, 7), (4, 7), (5, 7), (6, 7)]:
        reports = rrk_euler_characteristic(build_wpl(*d), range(0, 61))
        assert len(reports) == 61
        for m, report in enumerate(reports):
            assert report.matches_oracle, (d, m)
            checked += 1
    _report("criterion 3 (index = section count, exact rationals)",
            f"{checked} degree/model pairs", t0, 5)


def test_04_expansion_coefficients():
    t0 = time.monotonic()
    for n in (2, 3):
        ms = [m for m in range(n, 201) if m % n == 0]
        rhos = [football_density_closed_form(n, m, 1.0) for m in ms]
        fit = fit_expansion(ms, rhos, dim=1, terms=2, r_proxy=1.0)
        a0, a1 = fit.coefficients
        assert abs(a0 - 1.0) < 1e-6, (n, a0)
        assert abs(a1 - 1.0) < 1e-3, (n, a1)
    _report("criterion 4 (fit a0 = 1, a1 = 1)", "footballs n=2,3, m<=200", t0, 30)


def test_05_distributional_pairing():
    t0 = time.monotonic()
    phi = RadialBump(1.0, 0.0, 2.0)
    for n in (2, 3, 4):
        target = 400 - (400 % n)
        ms = sorted({target - n * k for k in range(0, 8)})
        result = pair_with_test_function(build_football(n), ms, phi)
        b = (n - 1) / (2.0 * n)
        rel = abs(result.limit - b) / b
        assert rel < 0.02, (n, rel)
        # O(1/m): error times m stays bounded along the run
        scaled = [e * m for e, m in zip(result.errors, result.ms)]
        assert max(scaled) < 10 * min(s for s in scaled if s > 0) + 1.0
    _report("criterion 5 (pairing limit b phi(0) at m~400)",
            "within 2% with O(1/m) errors", t0, 120)


def test_06_tail_decay_and_noise_floor():
    t0 = time.monotonic()
    ms = [2 * k for k in range(5, 101)]
    fit = fit_decay_rate(
        ms, [football_density_closed_form(2, m, 0.5) for m in ms], 0.5)
    assert fit.r_squared > 0.99
    assert fit.delta_per_r > 0
    with pytest.raises(NoiseFloorError):
        fit_decay_rate(
            ms, [football_density_closed_form(2, m, 1.0) for m in ms], 1.0)
    _report("criterion 6 (exponential tail, noise floor at r=1)",
            f"R2 = {fit.r_squared:.4f}, delta/r = {fit.delta_per_r:.3f}", t0, 10)


def test_07_character_sum_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(2, 13))
        weights = [int(w) for w in rng.integers(0, order, size=dim)]
        action = GroupAction.cyclic(order, weights)
        z = [complex(a, b) for a, b in rng.normal(0, 0.7, size=(dim, 2))]
        m = int(rng.integers(1, 51))
        orbit, invariant = character_sum_bound(action, z, m)
        assert orbit > 0 and invariant > 0
        rel = abs(orbit - invariant) / invariant
        worst = max(worst, rel)
        assert rel < 1e-10
    _report("criterion 7 (orbit sum = invariant-monomial sum)",
            f"100 cases, worst rel err {worst:.2e}", t0, 10)


def test_08_density_band():
    t0 = time.monotonic()
    grid = np.linspace(0.0, 10.0, 200)
    mins, overall = lower_bound_scan(
        build_football(2), [m for m in range(10, 201, 2)], grid)
    maxima = [
        max(football_density_closed_form(2, m, float(u)) / (m + 1) for u in grid)
        for m in range(10, 201, 2)
    ]
    assert overall > 0.4
    assert max(maxima) < 2.1
    _report("criterion 8 (rho/(m+1) stays in a positive band)",
            f"band [{overall:.3f}, {max(maxima):.3f}] over m in [10,200]", t0, 20)


def test_09_local_model_identities():
    t0 = time.monotonic()
    grid = ModelGrid(x_points=512, y_points=256)
    report = check_identities(grid, default_suite(grid))
    assert report.max_d0 < 1e-6
    assert report.max_rstar_r < 1e-6
    fine = ModelGrid(x_points=1024, y_points=256)
    probe = lambda g: check_identities(g, [np.exp(3j * g.y)]).max_d0
    ratio = probe(grid) / probe(fine)
    assert 8.0 < ratio < 32.0
    _report("criterion 9 (D0 R = 0 and R* R = I)",
            f"max residuals {report.max_d0:.2e} / {report.max_rstar_r:.2e}, "
            f"h-ratio {ratio:.1f}", t0, 10)


def test_10_phase_critical_point():
    t0 = time.monotonic()
    data = phase_critical_data()
    assert max(abs(v) for v in data.gradient + data.fd_gradient) < 1e-10
    ref = ((0.0, 1.0), (1.0, 1j))
    err = max(abs(data.fd_hessian[i][j] - ref[i][j])
              for i in range(2) for j in range(2))
    assert err < 1e-6
    assert abs(data.determinant + 1.0) < 1e-12
    _report("criterion 10 (phase gradient 0, Hessian [[0,1],[1,i]], det -1)",
            f"fd Hessian err {err:.2e}", t0, 10)


def test_11_potential_recovery_trend():
    t0 = time.monotonic()
    curve = recover_potential(
        build_football(2), RadialBump(0.1, 1.0, 3.0), [20, 40, 60, 80, 100])
    vals = list(curve.values())
    assert all(b <= a * (1 + 1e-9) for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.02
    _report("criterion 11 (perturbation recovery: monotone, < 0.02 at m=100)",
            f"final sup error {vals[-1]:.4f}", t0, 60)


def test_12_pullback_deviation_halves():
    t0 = time.monotonic()
    model = build_football(2)
    zs = [complex(math.sqrt(r)) for r in np.linspace(0.5, 2.0, 8)]
    dev_m = metric_pullback_deviation(build_section_space(model, 10), zs)
    dev_2m = metric_pullback_deviation(build_section_space(model, 20), zs)
    worst = 0.0
    for (_, a), (_, b) in zip(dev_m, dev_2m):
        if a > 0:
            worst = max(worst, b / a)
    assert worst <= 0.75
    _report("criterion 12 (pullback deviation ratio <= 0.75 when m doubles)",
            f"worst ratio {worst:.3f}", t0, 60)
