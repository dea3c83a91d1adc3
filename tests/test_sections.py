import math

import numpy as np
import pytest

from orbk.errors import ModelSpecError, UnsupportedModelError
from orbk.groups import GroupAction, invariant_monomials
from orbk.models import build_cone, build_football, build_wpl
from orbk.quadrature import monomial_norm_closed_form
from orbk.sections import (
    RadialBump,
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


def test_perturbed_metric_positivity_guard():
    model = build_football(2)
    build_perturbed_space(model, 4, RadialBump(0.1, 1.0, 3.0))
    with pytest.raises(ModelSpecError):
        build_perturbed_space(model, 4, RadialBump(5.0, 1.0, 1.0))


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


def test_section_space_json_roundtrip():
    import json

    space = build_section_space(build_football(2), 6)
    payload = json.loads(space.to_json())
    assert payload["power"] == 6
    assert len(payload["basis"]) == space.dim
