import math

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
from orbk.bergman import football_density_closed_form
from orbk.errors import ModelSpecError, NoiseFloorError, UnsupportedModelError
from orbk.groups import GroupAction
from orbk.models import build_football, build_wpl
from orbk.sections import RadialBump


def test_fit_smooth_model_is_exact():
    ms = list(range(5, 60, 5))
    rhos = [m + 1.0 for m in ms]
    fit = fit_expansion(ms, rhos, dim=1, terms=2)
    a0, a1 = fit.coefficients
    assert a0 == pytest.approx(1.0, abs=1e-12)
    assert a1 == pytest.approx(1.0, abs=1e-10)
    assert max(abs(r) for r in fit.residuals) < 1e-9


def test_fit_constant_input_degenerate_regression():
    ms = list(range(5, 60, 5))
    c = 4.25
    fit = fit_expansion(ms, [c] * len(ms), dim=1, terms=2)
    a0, a1 = fit.coefficients
    assert a0 == pytest.approx(0.0, abs=1e-12)
    assert a1 == pytest.approx(c, abs=1e-10)


def test_fit_football_coefficients_at_r_one():
    for n in (2, 3):
        ms = [n * k for k in range(5, 67)]
        rhos = [football_density_closed_form(n, m, 1.0) for m in ms]
        fit = fit_expansion(ms, rhos, dim=1, terms=2, r_proxy=1.0)
        a0, a1 = fit.coefficients
        assert a0 == pytest.approx(1.0, abs=1e-6)
        assert a1 == pytest.approx(1.0, abs=1e-3)


def test_fit_requires_enough_points():
    with pytest.raises(ModelSpecError):
        fit_expansion([2, 4], [3.0, 5.0], dim=1, terms=2)


def test_decay_fit_football_half():
    ms = [2 * k for k in range(5, 100)]
    rhos = [football_density_closed_form(2, m, 0.5) for m in ms]
    fit = fit_decay_rate(ms, rhos, 0.5)
    assert fit.r_squared > 0.99
    assert fit.slope < 0
    assert fit.delta_per_r > 0
    assert fit.delta_per_r2 > 0


def test_decay_noise_floor_at_r_one():
    # the single nontrivial character term vanishes identically at r = 1
    ms = [2 * k for k in range(5, 60)]
    rhos = [football_density_closed_form(2, m, 1.0) for m in ms]
    with pytest.raises(NoiseFloorError):
        fit_decay_rate(ms, rhos, 1.0)


def test_decay_smooth_model_has_no_residual():
    ms = list(range(5, 60))
    rhos = [m + 1.0 for m in ms]
    with pytest.raises(NoiseFloorError):
        fit_decay_rate(ms, rhos, 0.5)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pairing_limit_matches_delta_coefficient(n):
    model = build_football(n)
    ms = [n * k for k in (20, 40, 60, 80, 100)]
    phi = RadialBump(1.0, 0.0, 2.0)
    result = pair_with_test_function(model, ms, phi)
    b = (n - 1) / (2.0 * n)
    assert result.reference == pytest.approx(b)
    assert result.limit == pytest.approx(b, rel=2e-3)
    # successive errors shrink like O(1/m)
    errs = result.errors
    assert errs[-1] < errs[0]


def test_pairing_zero_test_function():
    model = build_football(2)
    result = pair_with_test_function(model, [20, 40], RadialBump(0.0, 0.0, 2.0))
    assert all(abs(v) < 1e-14 for v in result.values)


def test_pairing_linear_in_amplitude():
    model = build_football(2)
    ms = [2 * k for k in (20, 40, 60, 80)]
    result = pair_with_test_function(model, ms, RadialBump(2.0, 0.0, 2.0))
    assert result.reference == pytest.approx(0.5)
    assert result.limit == pytest.approx(0.5, rel=1e-2)


def test_pairing_rejects_smooth_and_unbounded():
    with pytest.raises(UnsupportedModelError):
        pair_with_test_function(build_football(1), [10], RadialBump(1.0, 0.0, 1.0))
    with pytest.raises(ModelSpecError):
        pair_with_test_function(
            build_football(2), [10], RadialBump(1.0, 0.0, 1e7)
        )


def test_recover_unperturbed_curve_tends_to_zero():
    model = build_football(2)
    ms = [20, 40, 80]
    curve = recover_potential(model, RadialBump(0.0, 1.0, 3.0), ms)
    vals = [curve[m] for m in ms]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] < 0.05


def test_recover_on_weighted_line_matches_football():
    # in the radial variable t, P(1, 2) is the football CP^1 / mu_2 in even degrees
    phi = RadialBump(0.1, 1.0, 3.0)
    ms = [20, 40, 60]
    football = recover_potential(build_football(2), phi, ms)
    weighted = recover_potential(build_wpl(1, 2), phi, ms)
    for m in ms:
        assert weighted[m] == pytest.approx(football[m], rel=1e-9)


def test_recover_bump_trend():
    model = build_football(2)
    ms = [20, 40, 60, 80, 100]
    curve = recover_potential(model, RadialBump(0.1, 1.0, 3.0), ms)
    vals = [curve[m] for m in ms]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.02


def test_lower_bound_smooth_model_is_one():
    mins, overall = lower_bound_scan(build_football(1), [5, 10, 20])
    assert overall == pytest.approx(1.0, abs=1e-12)


def test_lower_bound_stable_under_degree_doubling():
    mins, overall = lower_bound_scan(build_football(2), [20, 40, 80, 160])
    assert overall > 0.4
    vals = list(mins.values())
    assert max(vals) - min(vals) < 0.1


def test_character_bound_trivial_group():
    orbit, invariant = character_sum_bound(GroupAction.trivial(1), [0.3 + 0.1j], 5)
    assert orbit == pytest.approx(1.0)
    assert invariant == pytest.approx(1.0)


def test_character_bound_mu2_unit_circle():
    orbit, invariant = character_sum_bound(GroupAction.cyclic(2, [1]), [1.0 + 0j], 2)
    assert orbit == pytest.approx(1.0)
    assert invariant == pytest.approx(1.0)


def test_character_bound_mu3_random_points():
    rng = np.random.default_rng(11)
    action = GroupAction.cyclic(3, [1, 2])
    for _ in range(5):
        z = [complex(a, b) for a, b in rng.normal(0, 0.8, size=(2, 2))]
        orbit, invariant = character_sum_bound(action, z, 30)
        assert orbit == pytest.approx(invariant, rel=1e-10)
        assert orbit > 0


def test_character_bound_desk_scale_guard():
    with pytest.raises(ModelSpecError):
        character_sum_bound(GroupAction.cyclic(2, [1]), [0.5 + 0j], 10_000)
