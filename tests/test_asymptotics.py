import fractions
import itertools
import json
import math
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from orbk.asymptotics import (
    character_sum_bound,
    fit_decay_rate,
    fit_expansion,
    lower_bound_scan,
    pair_with_test_function,
    recover_potential,
)
from orbk.bergman import football_density_closed_form
from orbk.errors import ModelSpecError, NoiseFloorError, OrbkError, UnsupportedModelError
from orbk.cli import main
from orbk.groups import MAX_DEGREE, GroupAction
from orbk.models import build_football, build_wpl
from orbk.quadrature import QuadratureRule
from orbk.sections import RadialBump, build_section_space

from group_oracles import is_invariant, reference_character_sum_bound


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


def test_pairing_quadrature_failure_names_the_degree():
    starved = QuadratureRule(radial_nodes=8, max_radial_nodes=8)
    with pytest.raises(OrbkError, match="degree 20") as info:
        pair_with_test_function(build_football(2), [20], RadialBump(1.0, 0.0, 2.0), rule=starved)
    assert info.value.field == "m"


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


def _invariant_side_reference(action, z, m):
    """The invariant side term by term: is_invariant on each multi-index, the
    log multinomial term accumulated with math.lgamma, summed in order."""
    log_abs2 = [math.log(abs(zz) ** 2) if abs(zz) > 0 else -math.inf for zz in z]
    shift = m * math.log1p(sum(abs(zz) ** 2 for zz in z))
    total = 0.0
    for alpha in itertools.product(range(m + 1), repeat=action.dim):
        if sum(alpha) > m or not is_invariant(action, alpha):
            continue
        if any(a > 0 and la == -math.inf for a, la in zip(alpha, log_abs2)):
            continue
        lt = math.lgamma(m + 1) - math.lgamma(m - sum(alpha) + 1)
        for a, la in zip(alpha, log_abs2):
            if a > 0:
                lt += a * la - math.lgamma(a + 1)
        total += math.exp(lt - shift)
    return action.order * total


def test_character_bound_matches_sequential_reference():
    rng = np.random.default_rng(3)
    for case in range(24):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(2, 13))
        action = GroupAction.cyclic(order, [int(w) for w in rng.integers(0, order, dim)])
        z = [complex(a, b) for a, b in rng.normal(0, 0.7, size=(dim, 2))]
        if case % 4 == 0:
            z[int(rng.integers(0, dim))] = 0j  # only alpha_j = 0 survives there
        m = int(rng.integers(1, 31))
        orbit, invariant = character_sum_bound(action, z, m)
        assert invariant == pytest.approx(_invariant_side_reference(action, z, m), rel=1e-12)
        assert orbit == pytest.approx(invariant, rel=1e-10)


def _charsum_draws(seed, cases):
    """(action, z, m) of each case, drawn as `orbk charsum --seed seed` draws them."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(2, 13))
        action = GroupAction.cyclic(order, [int(w) for w in rng.integers(0, order, size=dim)])
        z = [complex(a, b) for a, b in rng.normal(0, 0.7, size=(dim, 2))]
        yield action, z, int(rng.integers(1, 51))


def test_character_bound_equals_the_reference_on_the_cli_cases(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["charsum", "--seed", "0", "--out", "r.json"])
    assert result.exit_code == 0, result.output
    rows = json.loads((tmp_path / "r.json").read_text())["rows"]
    for row, (action, z, m) in zip(rows, _charsum_draws(0, 100), strict=True):
        assert (row["dim"], row["m"]) == (action.dim, m)
        assert ((row["orbit_sum"], row["invariant_sum"])
                == reference_character_sum_bound(action, z, m))


def test_character_bound_equals_the_reference_on_drawn_cases():
    # cyclic and two-generator groups; some z_j = 0, now and then z = 0
    rng = np.random.default_rng(12)
    drawn = []
    while len(drawn) < 200:
        dim = int(rng.integers(1, 4))
        gens = [(int(q), [int(w) for w in rng.integers(0, q, size=dim)])
                for q in rng.integers(2, 13, size=int(rng.integers(1, 3)))]
        action = GroupAction.from_integers(dim, gens)
        if action.order > 24:  # past the desk-scale guard
            continue
        z = [complex(a, b) for a, b in rng.normal(0, 0.7, size=(dim, 2))]
        if len(drawn) % 3 == 0:
            z[int(rng.integers(0, dim))] = 0j
        if len(drawn) % 25 == 0:
            z = [0j] * dim
        m = int(rng.integers(0, 61))
        assert character_sum_bound(action, z, m) == reference_character_sum_bound(action, z, m)
        drawn.append(action)
    assert sum(len(a.moduli) == 2 and a.order > max(a.moduli) for a in drawn) >= 20


def test_character_bound_at_declared_corner():
    # dim 3, order 24, m = 200: the lattice is split into blocks
    z = [0.1 + 0.02j, 0.05j, -0.08 + 0.03j]
    for action in (GroupAction.cyclic(24, [1, 5, 7]),
                   GroupAction.from_spec([{"order": 2, "weights": [1, 1, 0]},
                                          {"order": 12, "weights": [1, 0, 5]}])):
        assert action.order == 24
        orbit, invariant = character_sum_bound(action, z, 200)
        assert abs(invariant - 1.0) > 0.05  # not just the identity term
        assert orbit == pytest.approx(invariant, rel=1e-10)


def test_hot_paths_leave_the_fraction_oracle_alone(monkeypatch, tmp_path):
    # the exact oracles live with the tests; the library's group code and the
    # checks built on it make no Fraction at all
    def forbidden(*args, **kwargs):
        raise AssertionError("a Fraction was made on a hot path")

    for module in [mod for name, mod in sys.modules.items() if name.startswith("orbk")]:
        for name in ("is_invariant", "character_phase", "character_sum"):
            assert not hasattr(module, name)
    monkeypatch.setattr(fractions.Fraction, "__new__", forbidden)
    space = build_section_space(build_football(2), MAX_DEGREE)
    assert space.dim == MAX_DEGREE // 2 + 1
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["charsum", "--cases", "100"])
    assert result.exit_code == 0, result.output
    assert "PASS charsum: 100 cases" in result.output
    cone = '{"kind":"cone","group":{"order":9973,"weights":[1,2]}}'
    result = CliRunner().invoke(main, ["bcoef", "--model", cone])
    assert result.exit_code == 0, result.output
