from fractions import Fraction

import numpy as np
import pytest

from orbk.errors import QuadratureError
from orbk.quadrature import (
    QuadratureRule,
    integrate_polar,
    integrate_radial,
    integrate_windows,
    monomial_norm_closed_form,
)


def test_exact_antiderivative():
    assert integrate_radial(lambda r: (1 + r) ** -2.0) == pytest.approx(1.0, rel=1e-11)


def test_beta_integral_values():
    assert integrate_radial(lambda r: r * (1 + r) ** -4.0) == pytest.approx(
        1.0 / 6.0, rel=1e-11
    )
    assert integrate_radial(lambda r: r**2 * (1 + r) ** -5.0) == pytest.approx(
        1.0 / 12.0, rel=1e-11
    )


@pytest.mark.parametrize("a,b", [(0, 2), (3, 6), (10, 14), (25, 40)])
def test_beta_family(a, b):
    # int_0^inf r^a (1+r)^{-b} dr = B(a+1, b-a-1)
    from math import gamma

    exact = gamma(a + 1) * gamma(b - a - 1) / gamma(b)
    got = integrate_radial(lambda r: r ** float(a) * (1 + r) ** -float(b))
    assert got == pytest.approx(exact, rel=1e-10)


def test_node_doubling_is_stable():
    rule_coarse = QuadratureRule(radial_nodes=50)
    rule_fine = QuadratureRule(radial_nodes=400)
    f = lambda r: r**3 * (1 + r) ** -8.0
    assert integrate_radial(f, rule_coarse) == pytest.approx(
        integrate_radial(f, rule_fine), rel=1e-10
    )


def test_breakpoints_handle_kinked_integrand():
    # |r - 1| kink: piecewise rule converges where the plain one struggles
    f = lambda r: np.abs(r - 1.0) * (1 + r) ** -5.0
    got = integrate_radial(f, breakpoints=(1.0,))
    # exact: split the integral at r=1 and evaluate both Beta pieces
    assert got == pytest.approx(18.0 / 96.0, rel=1e-10)


def test_nonconvergent_integrand_raises():
    rule = QuadratureRule(radial_nodes=8, rel_tol=1e-15, max_radial_nodes=16)
    with pytest.raises(QuadratureError):
        integrate_radial(lambda r: np.cos(50 * r) * (1 + r) ** -2.0, rule)


def test_non_finite_sample_raises():
    with np.errstate(divide="ignore"), pytest.raises(QuadratureError):
        integrate_radial(lambda r: 1.0 / (r - r))


def test_angular_exactness():
    # trig polynomials up to the node count integrate exactly
    for k in (0, 1, 5, 20):
        got = integrate_polar(lambda r, t: np.exp(1j * k * t) * (1 + r) ** -2.0)
        expected = 1.0 if k == 0 else 0.0
        assert abs(got - expected) < 1e-12


def test_monomial_norm_closed_form():
    assert monomial_norm_closed_form(1, 1, 0) == Fraction(1, 2)
    assert monomial_norm_closed_form(2, 1, 1) == Fraction(1, 6)
    for n in (1, 2, 3, 7):
        assert monomial_norm_closed_form(n, 0, 0) == Fraction(1, n)


@pytest.mark.parametrize("n,N,k", [(1, 3, 1), (2, 2, 0), (2, 2, 2), (3, 4, 2)])
def test_monomial_norm_against_quadrature(n, N, k):
    m = n * N
    a = n * k
    exact = monomial_norm_closed_form(n, N, k)
    got = integrate_radial(lambda r: r ** float(a) * (1 + r) ** -(m + 2.0)) / n
    assert got == pytest.approx(float(exact), rel=1e-10)


def test_windows_integrate_each_row_on_its_own_pieces():
    # row i: x^i on [0, 1], split at 1/2 for the second row
    edges = np.array([[0.0, 0.0, 1.0], [0.0, 0.5, 1.0], [1.0, 1.0, 2.0]])
    powers = np.array([1.0, 2.0, 3.0])

    def log_f(rows, x):
        with np.errstate(divide="ignore"):  # the empty piece of row 0 sits at 0
            return powers[rows, None] * np.log(x)

    logs, orders = integrate_windows(log_f, edges)
    assert np.allclose(logs, np.log([0.5, 1.0 / 3.0, 15.0 / 4.0]), atol=1e-14)
    assert list(orders) == [96, 96, 96]


def test_windows_reject_non_finite_samples():
    with np.errstate(invalid="ignore"), pytest.raises(QuadratureError):
        integrate_windows(lambda rows, x: np.sqrt(x - 0.5), np.array([[0.0, 1.0]]))


def test_windows_double_only_unconverged_rows_up_to_the_cap():
    def log_f(rows, x):
        # row 1 oscillates fast, so only it needs more nodes
        return np.log(2.0 + np.cos(np.where(rows[:, None] == 1, 400.0, 1.0) * x))

    logs, orders = integrate_windows(log_f, np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert orders[0] == 96 and orders[1] > 96
    assert logs[1] == pytest.approx(np.log(2.0 + np.sin(400.0) / 400.0), abs=1e-12)
    with pytest.raises(QuadratureError):
        integrate_windows(log_f, np.array([[0.0, 1.0], [0.0, 1.0]]),
                          QuadratureRule(max_radial_nodes=96))


def test_windows_never_sample_past_a_cap_off_the_doubling_ladder():
    # orders run 48, 96, 192, ...; a cap of 150 stops the pass at 96
    seen = []

    def log_f(rows, x):
        seen.append(x.shape[1])
        return np.log(2.0 + np.cos(400.0 * x))

    with pytest.raises(QuadratureError, match="at 96 nodes"):
        integrate_windows(log_f, np.array([[0.0, 1.0]]), QuadratureRule(max_radial_nodes=150))
    assert seen == [48, 96]


@pytest.mark.parametrize("n", [48, 128, 200])
def test_gauss_legendre_nodes_are_exact_to_degree_2n_minus_1(n):
    # orders up to 128 come from numpy, larger from scipy
    from orbk.quadrature import _leggauss

    s, w = _leggauss(n)
    assert np.all(np.diff(s) > 0) and 0.0 < s[0] and s[-1] < 1.0
    for k in (0, 1, n, 2 * n - 1):
        assert np.dot(w, s**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)
