import math

import numpy as np
import pytest

from orbk.bergman import density, football_density_closed_form
from orbk.errors import (
    ModelSpecError,
    ParameterError,
    QuadratureError,
    UnsupportedModelError,
)
from orbk.groups import MAX_DEGREE, GroupAction, invariant_monomials
from orbk.models import build_cone, build_football, build_wpl
from orbk.quadrature import QuadratureRule, monomial_norm_closed_form
from orbk.sections import (
    RadialBump,
    _perturbed_radial_density,
    build_perturbed_space,
    build_section_space,
    gram_entry_polar,
)


def test_football_gram_matches_closed_form():
    space = build_section_space(build_football(2), 4)
    assert space.dim == 3
    for k in range(3):
        expected = float(monomial_norm_closed_form(2, 2, k))
        assert space.gram[k, k] == pytest.approx(expected, rel=1e-10)


def test_constant_section_norm():
    for n in (1, 2, 5):
        space = build_section_space(build_football(n), 0)
        assert space.dim == 1
        assert space.gram[0, 0] == pytest.approx(1.0 / n, rel=1e-10)


def test_wpl_dimension():
    space = build_section_space(build_wpl(1, 2), 5)
    assert space.dim == 3
    assert space.basis == ((1, 2), (3, 1), (5, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadrature_vs_closed_form_norms(n):
    for N in (1, 5, 12, 20):
        space = build_section_space(build_football(n), n * N)
        for k, (a, _) in enumerate(space.basis):
            expected = float(monomial_norm_closed_form(n, N, a // n))
            assert space.gram[k, k] == pytest.approx(expected, rel=1e-9)


def test_gram_hermitian_positive_diagonal():
    space = build_section_space(build_football(3), 12)
    g = space.gram
    assert np.allclose(g, g.T.conj(), atol=1e-12)
    assert np.all(np.linalg.eigvalsh(g) > 0)
    assert np.allclose(g - np.diag(np.diag(g)), 0.0, atol=1e-12)


def test_dim_equals_invariant_monomial_count():
    for n, m in [(2, 8), (3, 9), (4, 16)]:
        space = build_section_space(build_football(n), m)
        mons = invariant_monomials(GroupAction.cyclic(n, [1, 0]), m)
        assert space.dim == len(mons)


def test_off_diagonal_gram_entries_vanish():
    # angular quadrature of the full polar entries, not torus symmetry by fiat
    model = build_football(2)
    for (alpha, beta) in [((0, 6), (2, 4)), ((2, 4), (6, 0)), ((4, 2), (4, 2))]:
        entry = gram_entry_polar(model, 6, alpha, beta)
        if alpha == beta:
            expected = float(monomial_norm_closed_form(2, 3, alpha[0] // 2))
            assert entry.real == pytest.approx(expected, rel=1e-9)
            assert abs(entry.imag) < 1e-12
        else:
            assert abs(entry) < 1e-12
    # P(2, 3) in degree 12: basis (0, 4), (3, 2), (6, 0)
    model = build_wpl(2, 3)
    space = build_section_space(model, 12)
    for i, alpha in enumerate(space.basis):
        for beta in space.basis:
            entry = gram_entry_polar(model, 12, alpha, beta)
            if alpha == beta:
                assert entry.real == pytest.approx(space.gram[i, i], rel=1e-9)
            else:
                assert abs(entry) < 1e-12


def test_orthonormalization_identity():
    # T* G T = I for the orthonormalizing transform
    space = build_section_space(build_football(3), 15)
    t = space.transform
    assert np.allclose(t.T.conj() @ space.gram @ t, np.eye(space.dim), atol=1e-9)


def test_power_must_match_bundle_step():
    with pytest.raises(ModelSpecError):
        build_section_space(build_football(3), 7)


def test_negative_power_rejected():
    with pytest.raises(ModelSpecError):
        build_section_space(build_football(2), -2)


def test_cone_has_no_global_sections():
    model = build_cone(GroupAction.cyclic(3, [1, 2]))
    with pytest.raises(UnsupportedModelError):
        build_section_space(model, 3)


def test_bump_calculus():
    bump = RadialBump(0.5, 2.0, 1.0)
    u = np.linspace(0.0, 4.0, 500)
    h = 1e-6
    d_num = (bump.value(u + h) - bump.value(u - h)) / (2 * h)
    assert np.allclose(bump.derivative(u), d_num, atol=1e-7)
    dd_num = (bump.derivative(u + h) - bump.derivative(u - h)) / (2 * h)
    assert np.allclose(bump.second_derivative(u), dd_num, atol=1e-5)
    assert bump.value(3.5) == 0.0
    assert bump.support_max == 3.0


@pytest.mark.parametrize("args,field", [
    ((0.1, 1.0, 0.0), "width"),
    ((0.1, 1.0, -1.0), "width"),
    ((0.1, 1.0, math.inf), "width"),
    ((0.1, 1.0, math.nan), "width"),
    ((0.1, math.nan, 3.0), "center"),
    ((math.inf, 1.0, 3.0), "amplitude"),
])
def test_bump_rejects_degenerate_shapes(args, field):
    with pytest.raises(ParameterError) as info:
        RadialBump(*args)
    assert info.value.field == field


def test_perturbed_metric_positivity_guard():
    model = build_football(2)
    build_perturbed_space(model, 4, RadialBump(0.1, 1.0, 3.0))
    with pytest.raises(ModelSpecError):
        build_perturbed_space(model, 4, RadialBump(5.0, 1.0, 1.0))


@pytest.mark.parametrize("bump", [
    (1e-3, 1.006, 0.005),  # rho reaches -241 on a support 0.01 wide
    (-0.05, 1.0, 3.0),  # rho (1+t)^2 reaches -0.64 near t = 3.52
    (0.03, 5.0, 3.0),  # negative only at the far side of the support
])
def test_positivity_guard_sees_the_whole_support(bump):
    phi = RadialBump(*bump)
    t = np.linspace(max(0.0, phi.center - phi.width), phi.support_max, 200001)
    assert np.min(_perturbed_radial_density(t, phi)) < 0.0
    with pytest.raises(ModelSpecError) as info:
        build_perturbed_space(build_football(2), 20, phi)
    assert info.value.field == "amplitude"


def test_zero_perturbation_is_identity():
    model = build_football(2)
    base = build_section_space(model, 10)
    pert = build_perturbed_space(model, 10, RadialBump(0.0, 1.0, 3.0))
    assert np.allclose(pert.gram, base.gram, rtol=1e-12)


def test_constant_perturbation_scales_gram():
    # phi == c multiplies every entry by e^{-mc}
    model = build_football(2)
    m, c = 10, 0.05
    base = build_section_space(model, m)

    class Flat(RadialBump):
        def value(self, u):
            return np.full_like(np.asarray(u, dtype=float), c)

        def derivative(self, u):
            return np.zeros_like(np.asarray(u, dtype=float))

        def second_derivative(self, u):
            return np.zeros_like(np.asarray(u, dtype=float))

    pert = build_perturbed_space(model, m, Flat(c, 0.0, 30.0))
    assert np.allclose(pert.gram, base.gram * math.exp(-m * c), rtol=1e-9)


def test_small_bump_perturbs_gram_at_first_order():
    model = build_football(2)
    m, eps = 8, 1e-3
    base = build_section_space(model, m)
    pert = build_perturbed_space(model, m, RadialBump(eps, 1.0, 3.0))
    rel = np.abs(np.diag(pert.gram) / np.diag(base.gram) - 1.0)
    assert np.all(rel < 5 * m * eps)
    assert np.all(rel > 0)


def _chart_exponents(space):
    chart = space.model.charts[0]
    return [a[chart.fibre_index] * chart.root for a in space.basis]


def _log_beta_norm(model, m, e):
    """log B(e+1, m-e+1)/q, the exact norm of the monomial read as t^e."""
    return (math.lgamma(e + 1) + math.lgamma(m - e + 1) - math.lgamma(m + 2)
            - math.log(model.quotient_order))


def _exact_density(space, u):
    """The orthonormal sum of chart u0 at |z|^2 = u over exact norms."""
    model, m = space.model, space.power
    root = model.charts[0].root
    total = 0.0
    for e in _chart_exponents(space):
        log_norm = _log_beta_norm(model, m, e)
        if u == 0.0:
            total += math.exp(-log_norm) if e == 0 else 0.0
        else:
            total += math.exp(e / root * math.log(u) - m * math.log1p(u ** (1 / root))
                              - log_norm)
    return total


@pytest.mark.parametrize("model", [build_football(2), build_wpl(2, 3)],
                         ids=["football2", "wpl23"])
def test_gram_path_at_max_degree(model):
    space = build_section_space(model, MAX_DEGREE)
    for u in (0.0, 0.7):
        if model.kind == "football":
            exact = football_density_closed_form(2, MAX_DEGREE, u)
        else:
            exact = _exact_density(space, u)
        got = density(space, complex(math.sqrt(u)))
        assert got == pytest.approx(exact, rel=1e-9)


def test_log_norms_match_high_precision_log_beta():
    # lgamma itself drifts by ~2e-11 at this degree, so the judge is mpmath
    mpmath = pytest.importorskip("mpmath")
    m = MAX_DEGREE
    space = build_section_space(build_football(1), m)
    for e in (0, 1, m // 3, m // 2, m - 1, m):
        with mpmath.workdps(50):
            exact = float(mpmath.log(mpmath.beta(e + 1, m - e + 1)))
        # basis (a, m - a) in lexicographic order: chart exponent e at m - e
        assert abs(space.log_gram_diag[m - e] - exact) <= 1e-11


def _perturbed_log_norm_reference(n, m, e, phi):
    """log norm^2 of t^e under the bump phi by mpmath.quad, from the integral
    t^e (1+t)^-m e^(-m phi) ((1+t)^-2 + phi' + t phi'') dt / n over [0, inf),
    taken in x = t/(1+t) and split at the bump edges and around the peak of
    x^e (1-x)^(m-e) e^(-m phi): the root of x + t phi'(t) = e/m, or x = 0 or 1
    when e = 0 or m.  The integrand is divided by that peak value, since
    mpmath.quad stops at an absolute error near its working precision."""
    import mpmath

    amp, c, w = (mpmath.mpf(v) for v in (phi.amplitude, phi.center, phi.width))

    def bump(t):  # phi, phi' and phi'' at t
        s = (t - c) / w
        if abs(s) >= 1:
            return mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0)
        return (amp * (1 - s**2) ** 3, -6 * amp * s * (1 - s**2) ** 2 / w,
                -6 * amp * (1 - s**2) * (1 - 5 * s**2) / w**2)

    def terms(x):  # e log x + (m-e) log(1-x) - m phi(t) and the density in t
        t = x / (1 - x)
        value, d1, d2 = bump(t)
        log_x = e * mpmath.log(x) if e else 0
        return log_x + (m - e) * mpmath.log(1 - x) - m * value, (1 + t) ** -2 + d1 + t * d2

    if 0 < e < m:
        def slope(x):
            t = x / (1 - x)
            return x + t * bump(t)[1] - mpmath.mpf(e) / m

        peak = mpmath.findroot(slope, mpmath.mpf(e) / m)
        log_scale, density_t = terms(peak)
        t = peak / (1 - peak)
        sigma = peak * (1 - peak) / mpmath.sqrt(m * t * density_t)  # -L'' = m t rho in log t
    else:  # the peak is x = 0 or x = 1, where the log is -m phi(0) or 0
        peak, sigma = mpmath.mpf(e // m), 1 / mpmath.mpf(m)
        log_scale = -m * bump(mpmath.mpf(0))[0] if e == 0 else mpmath.mpf(0)

    def f(x):
        if x <= 0 or x >= 1:
            return mpmath.mpf(0)
        log_main, density_t = terms(x)
        return mpmath.exp(log_main - log_scale) * density_t / (1 - x) ** 2

    points = {mpmath.mpf(0), mpmath.mpf(1)}
    points |= {edge / (1 + edge) for edge in (c - w, c + w) if edge > 0}
    points |= {peak + k * sigma for k in range(-12, 13, 2) if 0 < peak + k * sigma < 1}
    return float(mpmath.log(mpmath.quad(f, sorted(points)) / n) + log_scale)


def _check_perturbed_log_norms(n, m, bump, exponents):
    mpmath = pytest.importorskip("mpmath")
    phi = RadialBump(*bump)
    space = build_perturbed_space(build_football(n), m, phi)
    for e in exponents:
        with mpmath.workdps(30):
            ref = _perturbed_log_norm_reference(n, m, e, phi)
        assert abs(space.log_gram_diag[(m - e) // n] - ref) <= 1e-9, e


def test_perturbed_log_norms_match_mpmath_quadrature():
    # support [1/2, 7/2] in t: edges at x = 1/3 and 7/9, chart exponents 150, 350
    _check_perturbed_log_norms(2, 450, (0.01, 2.0, 1.5), (148, 150, 152, 348, 350, 352))


@pytest.mark.parametrize("m,bump,exponents", [
    # the benchmark's bump at its top degree: the end rows, the window that
    # straddles the support edge t = 4 (x = 0.8, e = 1280) and e = 960, whose
    # peak x = 0.727 lies 11 widths from e/m
    (1600, (0.09, 1.0, 3.0), (0, 2, 960, 1280, 1290, 1600)),
    # a dip: -0.03 is near the least amplitude with a positive form
    (800, (-0.03, 1.0, 3.0), (0, 200, 616, 640, 800)),
], ids=["m1600", "m800-dip"])
def test_perturbed_log_norms_match_mpmath_at_benchmark_degrees(m, bump, exponents):
    _check_perturbed_log_norms(2, m, bump, exponents)


@pytest.mark.parametrize("n,m,bump", [(2, 1600, (0.09, 1.0, 3.0)), (3, 1599, (0.12, 0.5, 3.5))])
def test_every_perturbed_row_converges_at_a_low_order(n, m, bump):
    # deterministic stand-in for a timing guard: windows on the true peak keep
    # the rows of the benchmark's heaviest recover builds at the first order
    # (all of them do; windows levelled from e/m instead leave 9.6-9.9% at 192)
    space = build_perturbed_space(build_football(n), m, RadialBump(*bump))
    nodes = np.array(space.quadrature_nodes)
    assert nodes.max() <= 192
    assert np.mean(nodes == 96) >= 0.95


@pytest.mark.parametrize("model,m", [(build_football(2), 3360), (build_football(2), 5760),
                                     (build_wpl(3, 5), 3640)],
                         ids=["football2-3360", "football2-5760", "wpl35-3640"])
def test_high_degrees_build_and_pass_the_density_oracle(model, m):
    space = build_section_space(model, m)
    for got, e in zip(space.log_gram_diag, _chart_exponents(space)):
        assert got == pytest.approx(_log_beta_norm(model, m, e), abs=1e-9)
    for u in (0.0, 0.7):
        got = density(space, complex(math.sqrt(u)))
        assert got == pytest.approx(_exact_density(space, u), rel=1e-9)


def test_every_gram_row_converges_at_a_fixed_order():
    # deterministic stand-in for a timing guard: the window rule must keep
    # every row at a low Gauss-Legendre order, as it does from m=40 to 10000
    space = build_section_space(build_football(2), 6000)
    assert len(space.quadrature_nodes) == space.dim
    assert max(space.quadrature_nodes) <= 256


def test_gram_pass_raises_at_its_node_cap():
    rule = QuadratureRule(max_radial_nodes=48)
    with pytest.raises(QuadratureError):
        build_section_space(build_football(2), 40, rule)
