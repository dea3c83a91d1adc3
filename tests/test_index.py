from fractions import Fraction

import pytest

from orbk.groups import GroupAction
from orbk.index import (
    b_coefficient,
    classical_cyclic_sum,
    det_positivity_check,
    point_correction,
    rrk_euler_characteristic,
)
from orbk.models import SingularPoint, build_football, build_wpl


def _free_point(action):
    return SingularPoint(
        chart_id="u0",
        group_order=action.order,
        tangent_weights=(1,) * action.dim if action.dim == 1 else tuple(),
        fiber_weight=0,
        action=action,
    )


@pytest.mark.parametrize("n", range(2, 13))
def test_football_b_coefficient_exact(n):
    point = build_football(n).singular_points[0]
    b = b_coefficient(point)
    assert b.exact == Fraction(n - 1, 2 * n)
    assert b.value == pytest.approx(float(b.exact), abs=1e-13)
    assert b.imag_residual < 1e-12


def test_b_coefficient_trivial_group_is_zero():
    point = SingularPoint(
        chart_id="u0", group_order=1, tangent_weights=(1,),
        fiber_weight=0, action=GroupAction.trivial(1),
    )
    b = b_coefficient(point)
    assert b.value == 0.0


def test_b_coefficient_minus_identity_in_dim_two():
    # single nontrivial element -I: det(I - (-I)) = 4, so b = (1/2)(1/4)
    action = GroupAction.cyclic(2, [1, 1])
    point = SingularPoint(
        chart_id="u0", group_order=2, tangent_weights=(1, 1),
        fiber_weight=0, action=action,
    )
    b = b_coefficient(point)
    assert b.value == pytest.approx(1.0 / 8.0, abs=1e-14)


def test_b_coefficient_invariant_under_weight_inversion():
    # mu_5 with weight 2 and with weight 3 = 2^{-1} give the same b
    a2 = GroupAction.cyclic(5, [2])
    a3 = GroupAction.cyclic(5, [3])
    p2 = SingularPoint("u0", 5, (2,), 0, a2)
    p3 = SingularPoint("u0", 5, (3,), 0, a3)
    assert b_coefficient(p2).value == pytest.approx(b_coefficient(p3).value)


def test_det_positivity_pairs():
    action = GroupAction.cyclic(3, [1])
    point = SingularPoint("u0", 3, (1,), 0, action)
    prods = det_positivity_check(point)
    assert all(p == pytest.approx(3.0) for p in prods)

    action5 = GroupAction.cyclic(5, [1, 2])
    point5 = SingularPoint("u0", 5, (1, 2), 0, action5)
    assert all(p > 0 for p in det_positivity_check(point5))


@pytest.mark.parametrize("n", range(2, 51))
def test_classical_cyclic_sum(n):
    value, expected = classical_cyclic_sum(n)
    assert expected == (n - 1) / 2.0
    assert value == pytest.approx(expected, abs=1e-12)


def test_football_index_closed_form():
    # smooth part m/n + 1/n plus two corrections of (n-1)/(2n) each... the
    # total telescopes to N + 1 for m = nN
    for n in (2, 3, 5):
        for N in (0, 1, 7):
            report = rrk_euler_characteristic(build_football(n), n * N)
            assert report.total == N + 1
            assert report.dimension_oracle == N + 1
            assert report.matches_oracle


def test_football_index_off_step_degrees():
    # degrees that are not multiples of n still count correctly
    model = build_football(3)
    for m in range(0, 40):
        report = rrk_euler_characteristic(model, m)
        assert report.matches_oracle, m
        assert report.dimension_oracle == m // 3 + 1


def test_wpl_one_two_parity():
    model = build_wpl(1, 2)
    for m in range(0, 30):
        report = rrk_euler_characteristic(model, m)
        assert report.matches_oracle
        expected = m // 2 + 1
        assert report.total == expected
        # correction sign flips with the parity of m
        corr = report.corrections[0].exact
        assert corr == Fraction(1, 4) if m % 2 == 0 else Fraction(-1, 4)


@pytest.mark.parametrize("d", [(2, 3), (3, 5), (4, 7), (5, 7), (6, 7)])
def test_wpl_index_matches_lattice_count(d):
    model = build_wpl(*d)
    for m in range(0, 61):
        report = rrk_euler_characteristic(model, m)
        assert report.matches_oracle, (d, m)


def test_point_correction_is_exact_rational():
    point = build_football(4).singular_points[0]
    rec = point_correction(point, 8)
    assert isinstance(rec.exact, Fraction)
    assert rec.numeric == pytest.approx(float(rec.exact), abs=1e-9)
