import math

import numpy as np
import pytest

from orbk.bergman import (
    density,
    football_density_closed_form,
    football_offdiagonal_closed_form,
    integrated_density,
    metric_pullback_deviation,
)
from orbk.errors import ParameterError
from orbk.groups import MAX_DEGREE
from orbk.models import build_football, build_wpl
from orbk.sections import build_section_space


def test_fixed_point_value():
    for n in (2, 3, 4):
        for N in (1, 4, 10):
            m = n * N
            assert football_density_closed_form(n, m, 0.0) == pytest.approx(
                n * (m + 1), rel=1e-12
            )
            space = build_section_space(build_football(n), m)
            assert density(space, 0j) == pytest.approx(n * (m + 1), rel=1e-10)


def test_smooth_sphere_density_is_constant():
    for r in (0.0, 0.3, 1.0, 4.2):
        assert football_density_closed_form(1, 10, r) == pytest.approx(11.0)
    space = build_section_space(build_football(1), 10)
    for z in (0j, 0.5 + 0.5j, 2.0 + 0j):
        assert density(space, z) == pytest.approx(11.0, rel=1e-10)


def test_football_two_cancellation_at_r_one():
    # m=2, r=1: the nontrivial-character term ((1-1)/2)^2 vanishes
    assert football_density_closed_form(2, 2, 1.0) == pytest.approx(3.0, abs=1e-14)


def test_large_degree_ratio_tends_to_one():
    # away from the fixed points the density approaches the smooth value m+1
    for N in (50, 100, 200):
        m = 2 * N
        assert football_density_closed_form(2, m, 1.0) / (m + 1) == pytest.approx(
            1.0, abs=1e-10
        )


def test_closed_form_exact_values():
    # the k = 0 term is exactly 1 and the k != 0 terms are exactly 1 at r = 0
    for n in (1, 2, 3, 5, 7):
        for m in (n, 60 * n, 3 * 70 * n, MAX_DEGREE - MAX_DEGREE % n):
            assert football_density_closed_form(n, m, 0.0) == n * (m + 1)
            assert np.all(football_density_closed_form(n, m, np.zeros(3)) == n * (m + 1))
    for m in (0, 7, 150, MAX_DEGREE):
        r = np.array([0.0, 0.3, 1.0, 4.2, 1e3])
        assert np.all(football_density_closed_form(1, m, r) == m + 1)
        assert np.all(football_offdiagonal_closed_form(1, m, r) == 0.0)


def test_closed_form_scalar_and_array_forms_agree():
    r = np.linspace(0.0, 10.0, 41)
    for n, m in ((2, 10), (3, 300), (5, 1005)):
        values = football_density_closed_form(n, m, r)
        assert isinstance(football_density_closed_form(n, m, 0.5), float)
        assert values.shape == r.shape
        assert list(values) == [football_density_closed_form(n, m, float(u)) for u in r]
        off = football_offdiagonal_closed_form(n, m, r)
        assert np.allclose(m + 1 + off, values, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_closed_form_matches_high_precision_sum(n):
    mpmath = pytest.importorskip("mpmath")
    r = np.array([0.0, 0.01, 0.2, 0.5, 1.0, 1.7, 4.0, 10.0, 1e3])
    top = MAX_DEGREE - MAX_DEGREE % n
    for m in (n, 31 * n, 100 - 100 % n, 333 * n, top // 2 - top // 2 % n, top):
        values = football_density_closed_form(n, m, r)
        with mpmath.workdps(50):
            zetas = [mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(n)]
            for u, value in zip(r, values):
                u = mpmath.mpf(float(u))
                exact = (m + 1) * mpmath.re(sum(((1 + u * z) / (1 + u)) ** m for z in zetas))
                assert abs(value - exact) <= 1e-11 * abs(exact), (m, u)


def test_closed_form_rejects_bad_degree_and_radius():
    with pytest.raises(ParameterError):
        football_density_closed_form(3, 10, 0.5)
    with pytest.raises(ParameterError):
        football_offdiagonal_closed_form(2, 7, 0.5)
    with pytest.raises(ParameterError):
        football_density_closed_form(2, 10, np.array([0.5, -1.0]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_path_matches_closed_form(n):
    model = build_football(n)
    for m in (n * 2, n * 9):
        space = build_section_space(model, m)
        for r in np.linspace(0.0, 4.0, 9):
            z = complex(math.sqrt(r))
            assert density(space, z) == pytest.approx(
                football_density_closed_form(n, m, r), rel=1e-9
            )


def test_density_on_second_chart():
    model = build_football(3)
    space = build_section_space(model, 9)
    # u1 coordinate w = 1/z: same quotient point, same density
    r = 2.5
    z = complex(math.sqrt(r))
    assert density(space, 1.0 / z, "u1") == pytest.approx(
        density(space, z, "u0"), rel=1e-9
    )
    # on P(d0, d1) the chart-u1 point of u0 = |z|^2 has u1 = u0^(-d0/d1)
    for d0, d1 in [(1, 2), (2, 3), (3, 5), (2, 7)]:
        model = build_wpl(d0, d1)
        for m in (d0 * d1, 2 * d0 * d1 + d0, 40):
            space = build_section_space(model, m)
            for u0 in (0.2, 1.0, 3.7):
                w = complex(math.sqrt(u0 ** (-d0 / d1)))
                assert density(space, w, "u1") == pytest.approx(
                    density(space, complex(math.sqrt(u0)), "u0"), rel=1e-12
                )


def test_wpl_density_positive():
    space = build_section_space(build_wpl(1, 2), 6)
    vals = [density(space, complex(x)) for x in (0.0, 0.5, 1.5)]
    assert all(v > 0 for v in vals)


def test_split_at_fixed_point():
    n, m = 3, 12
    diag = m + 1
    off = football_offdiagonal_closed_form(n, m, 0.0)
    assert off == pytest.approx((n - 1) * (m + 1), rel=1e-12)
    assert diag + off == pytest.approx(football_density_closed_form(n, m, 0.0))


def test_split_smooth_has_no_offdiagonal():
    assert football_offdiagonal_closed_form(1, 7, 0.9) == 0.0


def test_offdiagonal_exponential_bound():
    # |offdiag| <= n(m+1) e^{-delta m r'} along m for fixed r > 0
    n, r = 2, 0.5
    vals = [
        abs(football_offdiagonal_closed_form(n, m, r)) / (n * (m + 1))
        for m in range(10, 80, 2)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_trace_identity():
    # integral of the density against the volume form equals dim H^0
    models = [(build_football(n), m) for n, m in [(1, 6), (2, 8), (3, 12)]]
    models += [(build_wpl(*d), m) for d, m in [((1, 2), 7), ((2, 3), 13), ((3, 5), 30)]]
    for model, m in models:
        space = build_section_space(model, m)
        assert integrated_density(space) == pytest.approx(space.dim, rel=1e-8)


def test_pullback_deviation_zero_on_smooth_model():
    space = build_section_space(build_football(1), 10)
    for _, dev in metric_pullback_deviation(space, [0.8 + 0j, 1.2 + 0j]):
        assert dev < 1e-8


def test_pullback_deviation_shrinks_when_degree_doubles():
    model = build_football(2)
    zs = [complex(math.sqrt(r)) for r in np.linspace(0.5, 2.0, 6)]
    dev10 = metric_pullback_deviation(build_section_space(model, 10), zs)
    dev20 = metric_pullback_deviation(build_section_space(model, 20), zs)
    for (_, a), (_, b) in zip(dev10, dev20):
        assert b <= 0.75 * a + 1e-9


def test_pullback_deviation_grows_toward_singularity():
    model = build_football(2)
    space = build_section_space(model, 12)
    rs = [2.0, 1.0, 0.5, 0.25]
    devs = [metric_pullback_deviation(space, [complex(math.sqrt(r))])[0][1]
            for r in rs]
    assert devs[-1] > devs[0]
