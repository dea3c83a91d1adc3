import cmath
import math
from fractions import Fraction

import pytest

from orbk import index
from orbk.groups import GroupAction
from orbk.index import b_coefficient, point_correction, rrk_euler_characteristic
from orbk.models import SingularPoint, build_football, build_wpl

from group_oracles import classical_cyclic_sum, det_positivity_check, fraction_b_coefficient


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


def _cone_point(spec):
    action = GroupAction.from_spec(spec)
    return SingularPoint("u0", action.order, (), 0, action)


B_POINTS = {f"football{n}-{p.chart_id}": p for n in range(2, 13)
            for p in build_football(n).singular_points}
B_POINTS.update({f"wpl{d0}_{d1}-{p.chart_id}": p for d0, d1 in [(1, 2), (2, 3), (3, 5), (2, 7),
                                                                 (11, 13)]
                 for p in build_wpl(d0, d1).singular_points})
B_POINTS.update({
    "cone12": _cone_point({"order": 12, "weights": [1, 5, 7]}),
    "cone9973": _cone_point({"order": 9973, "weights": [1, 2]}),
    "cone97x101": _cone_point([{"order": 97, "weights": [1, 2]},
                               {"order": 101, "weights": [3, 1]}]),
})


@pytest.mark.parametrize("name", B_POINTS)
def test_b_coefficient_equals_the_fraction_reference(name):
    point = B_POINTS[name]
    b = b_coefficient(point)
    assert (b.value, b.exact, b.imag_residual) == fraction_b_coefficient(point.action)


@pytest.mark.parametrize("n", range(2, 51))
def test_classical_cyclic_sum(n):
    value, expected = classical_cyclic_sum(n)
    assert expected == (n - 1) / 2.0
    assert value == pytest.approx(expected, abs=1e-12)


def test_football_index_closed_form():
    # smooth part m/n + 1/n plus two corrections of (n-1)/(2n) each... the
    # total telescopes to N + 1 for m = nN
    for n in (2, 3, 5):
        Ns = (0, 1, 7)
        reports = rrk_euler_characteristic(build_football(n), [n * N for N in Ns])
        for N, report in zip(Ns, reports):
            assert report.power == n * N
            assert report.total == N + 1
            assert report.dimension_oracle == N + 1
            assert report.matches_oracle


def test_football_index_off_step_degrees():
    # degrees that are not multiples of n still count correctly
    model = build_football(3)
    reports = rrk_euler_characteristic(model, range(0, 40))
    assert len(reports) == 40
    for m, report in enumerate(reports):
        assert report.matches_oracle, m
        assert report.dimension_oracle == m // 3 + 1


def test_wpl_one_two_parity():
    model = build_wpl(1, 2)
    for m, report in enumerate(rrk_euler_characteristic(model, range(0, 30))):
        assert report.matches_oracle
        expected = m // 2 + 1
        assert report.total == expected
        # correction sign flips with the parity of m
        corr = report.corrections[0].exact
        assert corr == Fraction(1, 4) if m % 2 == 0 else Fraction(-1, 4)


@pytest.mark.parametrize("d", [(2, 3), (3, 5), (4, 7), (5, 7), (6, 7)])
def test_wpl_index_matches_lattice_count(d):
    model = build_wpl(*d)
    for m, report in enumerate(rrk_euler_characteristic(model, range(0, 61))):
        assert report.matches_oracle, (d, m)


def test_point_correction_is_exact_rational():
    point = build_football(4).singular_points[0]
    (rec,) = point_correction(point, [8])
    assert isinstance(rec.exact, Fraction)
    assert rec.numeric == pytest.approx(float(rec.exact), abs=1e-9)


def _scalar_index(model, m):
    """The index of one degree as it was taken before ranges were batched:
    Fraction sums, the per-k cmath cross-check and the listed basis.  Returns
    the total, (exact, numeric) per singular point and the section count."""
    corrections = []
    for p in model.singular_points:
        d = p.group_order
        t, f = p.tangent_weights[0] % d, p.fiber_weight % d
        j = f * m * pow(t, -1, d) % d
        exact = (Fraction(d - 1, 2) if j == 0 else j - 1 - Fraction(d - 1, 2)) / d
        numeric = 0j
        for k in range(1, d):
            a, b = f * m * k % d, t * k % d
            numeric += (0.5j * cmath.exp(1j * math.pi * (2 * a - b) / d)
                        / math.sin(math.pi * b / d))
        corrections.append((exact, (numeric / d).real))
    smooth = (Fraction(m, model.quotient_order)
              + sum(Fraction(1, c.group.order) for c in model.charts) / 2)
    total = smooth + sum(exact for exact, _ in corrections)
    return total, corrections, len(model.section_basis(m))


@pytest.mark.parametrize("model", [build_football(1), build_football(4), build_wpl(1, 2),
                                   build_wpl(3, 5), build_wpl(6, 7)])
def test_batched_index_matches_the_scalar_index(model):
    ms = [0, 1, 2, 17, 60, 59, 3, 3, 211]  # unsorted, with a repeat
    reports = rrk_euler_characteristic(model, ms)
    assert [report.power for report in reports] == ms
    for m, report in zip(ms, reports):
        total, corrections, count = _scalar_index(model, m)
        assert report.total == total
        assert report.dimension_oracle == count
        assert [c.exact for c in report.corrections] == [exact for exact, _ in corrections]
        for c, (_, numeric) in zip(report.corrections, corrections):
            assert c.numeric == pytest.approx(numeric, abs=1e-12)
        assert report.smooth_part + sum(c.exact for c in report.corrections) == total


def test_cross_check_catches_a_wrong_exact_value(monkeypatch):
    # on the football of order 5, chart u0 reads j = 4m mod 5: j = 3 only at m = 2
    right = index._s_value
    monkeypatch.setattr(index, "_s_value", lambda d, j: right(d, j) + 2 * (j == 3))
    model = build_football(5)
    with pytest.raises(AssertionError, match=r"u0 at m=2: "):
        rrk_euler_characteristic(model, [0, 1, 2, 3, 4])
    rrk_euler_characteristic(model, [0, 1, 3, 4])  # no degree reads j = 3
