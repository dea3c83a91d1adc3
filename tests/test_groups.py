import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from orbk import groups
from orbk.errors import ModelSpecError
from orbk.groups import (MAX_DEGREE, MAX_ORDER, GroupAction, invariant_counts,
                         invariant_monomials)
from orbk.models import build_football, build_wpl

from group_oracles import (character_sum, character_value, fraction_closure, from_generators,
                           is_invariant)


def test_cyclic_basic_structure():
    g = GroupAction.cyclic(4, [1, 3])
    assert g.order == 4
    assert g.dim == 2
    assert g.denominator == 4
    for elem in g.elements:
        for x in elem:
            assert type(x) is int
            assert 0 <= x < g.denominator


def test_closure_exhaustive_small_orders():
    # elements form a group under componentwise addition mod N
    for order in range(2, 13):
        g = GroupAction.cyclic(order, [1, order - 1, 2])
        elems = set(g.elements)
        assert len(elems) == g.order
        for a, b in itertools.product(g.elements, repeat=2):
            s = tuple((x + y) % g.denominator for x, y in zip(a, b))
            assert s in elems


def test_from_generators_matches_cyclic():
    gen = (Fraction(1, 6), Fraction(5, 6))
    g = from_generators(2, [gen])
    assert g.order == 6
    assert g == GroupAction.cyclic(6, [1, 5])


def test_generators_are_held_reduced():
    # e^{2 pi i (3, 6, -3) / 12} = e^{2 pi i (1, 2, 3) / 4}: weights mod q over the order
    g = GroupAction.cyclic(12, [3, 6, -3])
    assert (g.weights, g.moduli, g.denominator, g.order) == (((1, 2, 3),), (4,), 4, 4)
    assert GroupAction.cyclic(5, [10]).moduli == (1,)  # the identity generates the trivial group
    h = GroupAction.from_spec([{"order": 4, "weights": [1, 0]}, {"order": 6, "weights": [0, 2]}])
    assert (h.weights, h.moduli, h.denominator, h.order) == (((1, 0), (0, 1)), (4, 3), 12, 12)
    assert h.elements == tuple((3 * a, 4 * b) for a in range(4) for b in range(3))
    assert GroupAction.trivial(2).elements == ((0, 0),)
    rng = np.random.default_rng(9)
    for _ in range(200):  # the reduction agrees with reducing the rotation numbers
        q, w = int(rng.integers(1, 40)), [int(x) for x in rng.integers(-50, 50, 3)]
        assert GroupAction.cyclic(q, w) == from_generators(3, [[Fraction(x, q) for x in w]])


def test_group_order_bound():
    assert GroupAction.cyclic(MAX_ORDER, [1]).order == MAX_ORDER
    start = time.perf_counter()
    for build in (lambda: GroupAction.cyclic(1_000_000_007, [1, 2]),  # N past the bound
                  lambda: GroupAction.cyclic(MAX_ORDER + 1, [1]),
                  lambda: GroupAction.from_spec([{"order": 101, "weights": [1, 2]},
                                                 {"order": 103, "weights": [3, 1]}]),
                  # N = 101 but 101^2 elements: refused while they are listed
                  lambda: GroupAction.from_spec([{"order": 101, "weights": [1, 0]},
                                                 {"order": 101, "weights": [0, 1]}])):
        with pytest.raises(ModelSpecError, match="exceeds supported order"):
            build()
    assert time.perf_counter() - start < 0.5


def test_identity_character_is_one():
    g = GroupAction.cyclic(5, [2, 3])
    ident = g.elements.index((0, 0))
    assert character_value(g, ident, (7, 11)) == 1


def test_mu2_sign_flip():
    g = GroupAction.cyclic(2, [1])
    assert g.denominator == 2
    flip = g.elements.index((1,))
    assert character_value(g, flip, (3,)) == pytest.approx(-1)


def test_mu3_phase_sum():
    g = GroupAction.cyclic(3, [1, 2])
    assert g.denominator == 3
    gen = g.elements.index((1, 2))
    assert character_value(g, gen, (1, 1)) == pytest.approx(1)


def test_character_sum_trivial_group():
    g = GroupAction.trivial(3)
    total, inv = character_sum(g, (4, 0, 9))
    assert total == pytest.approx(1)
    assert inv


def test_character_sum_mu2_odd():
    g = GroupAction.cyclic(2, [1])
    total, inv = character_sum(g, (1,))
    assert abs(total) < 1e-14
    assert not inv


def test_character_sum_mu4_invariant():
    g = GroupAction.cyclic(4, [1, 3])
    total, inv = character_sum(g, (1, 1))
    assert total == pytest.approx(4)
    assert inv


@pytest.mark.parametrize("order", [2, 3, 5, 7, 12])
def test_character_orthogonality_brute_force(order):
    # sum over G of chi_alpha(g) is |G| when alpha is invariant and 0 otherwise
    g = GroupAction.cyclic(order, [1, order // 2 + 1])
    for a0 in range(0, 13, 3):
        for a1 in range(0, 13, 4):
            total, inv = character_sum(g, (a0, a1))
            if inv:
                assert total == pytest.approx(g.order)
            else:
                assert abs(total) < 1e-12
            assert inv == is_invariant(g, (a0, a1))


def test_football_invariant_monomials():
    n, N = 3, 5
    g = GroupAction.cyclic(n, [1, 0])
    mons = invariant_monomials(g, n * N)
    assert mons == [(n * k, n * N - n * k) for k in range(N + 1)]
    assert len(mons) == N + 1


def test_trivial_group_all_monomials():
    g = GroupAction.trivial(2)
    assert len(invariant_monomials(g, 2)) == 3


def test_mu2_diagonal_degree3_empty():
    g = GroupAction.cyclic(2, [1, 1])
    assert invariant_monomials(g, 3) == []


def test_weighted_lattice_points():
    g = GroupAction.trivial(2)
    pts = invariant_monomials(g, 5, weights=(1, 2))
    assert pts == [(1, 2), (3, 1), (5, 0)]


def test_monomial_enumeration_bounds():
    g = GroupAction.trivial(1)
    with pytest.raises(ModelSpecError):
        invariant_monomials(g, 100_000)


def test_from_spec_roundtrip():
    g = GroupAction.from_spec({"order": 6, "weights": [1, 5]})
    assert g.order == 6
    h = GroupAction.from_spec([{"order": 2, "weights": [1]}])
    assert h.order == 2
    with pytest.raises(ModelSpecError):
        GroupAction.from_spec([{"order": 0, "weights": [1]}])


def _fraction_monomials(action, degree, weights=None):
    """The exact oracle: is_invariant over an itertools enumeration, in
    lexicographic order (the last exponent is what the degree leaves)."""
    weights = weights or (1,) * action.dim
    out = []
    for head in itertools.product(*(range(degree // w + 1) for w in weights[:-1])):
        rest = degree - sum(a * w for a, w in zip(head, weights))
        if rest >= 0 and rest % weights[-1] == 0:
            alpha = head + (rest // weights[-1],)
            if is_invariant(action, alpha):
                out.append(alpha)
    return out


def _random_actions(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(1, 4))
        gens = []
        for _ in range(int(rng.integers(1, 3))):  # cyclic or two generators
            order = int(rng.integers(2, 13))
            gens.append([Fraction(int(w), order) for w in rng.integers(0, order, size=dim)])
        weights = None if rng.random() < 0.5 else tuple(int(w) for w in rng.integers(1, 4, dim))
        yield from_generators(dim, gens), int(rng.integers(0, 31)), weights


def test_invariant_monomials_match_fraction_oracle_on_random_actions():
    for action, degree, weights in _random_actions(seed=5, count=120):
        assert (invariant_monomials(action, degree, weights)
                == _fraction_monomials(action, degree, weights))


MODELS = {f"football{n}": (build_football, (n,)) for n in range(1, 8)}
MODELS.update({f"wpl{d0}_{d1}": (build_wpl, (d0, d1)) for d0, d1 in [(1, 2), (2, 3), (3, 5),
                                                                     (2, 7)]})


def _catalog_groups():
    for build, args in MODELS.values():
        model = build(*args)
        yield from (chart.group for chart in model.charts)
        yield model.basis_action


def test_elements_match_the_fraction_closure():
    actions = [action for action, _, _ in _random_actions(seed=5, count=120)]
    for action in actions + list(_catalog_groups()):
        as_fractions = tuple(tuple(Fraction(e, action.denominator) for e in element)
                             for element in action.elements)
        assert as_fractions == fraction_closure(action)  # the same elements in the same order


@pytest.mark.parametrize("name", MODELS)
def test_section_bases_match_fraction_oracle(name):
    build, args = MODELS[name]
    model = build(*args)
    for m in list(range(61)) + [997, 3000, 9870, MAX_DEGREE]:
        assert model.section_basis(m) == _fraction_monomials(
            model.basis_action, m, model.degree_weights)


def test_lattice_blocks_split_by_leading_coordinate(monkeypatch):
    whole = np.concatenate(list(groups.lattice_blocks(3, 40, (1, 2, 1))))
    monkeypatch.setattr(groups, "BLOCK_ROWS", 50)
    blocks = list(groups.lattice_blocks(3, 40, (1, 2, 1)))
    assert len(blocks) > 1 and max(len(b) for b in blocks) <= 50
    assert np.array_equal(np.concatenate(blocks), whole)
    assert [tuple(r) for r in whole.tolist()] == _fraction_monomials(
        GroupAction.trivial(3), 40, (1, 2, 1))


def test_invariant_monomial_count_bound_raises(monkeypatch):
    monkeypatch.setattr(groups, "MAX_RESULT_COUNT", 100)
    assert len(invariant_monomials(GroupAction.trivial(2), 99)) == 100
    with pytest.raises(ModelSpecError):
        invariant_monomials(GroupAction.trivial(2), 100)


def _listed_counts(action, degrees, weights=None):
    return [len(invariant_monomials(action, m, weights)) for m in degrees]


def test_invariant_counts_match_listed_bases_on_random_actions():
    for action, degree, weights in _random_actions(seed=5, count=120):
        degrees = list(range(31)) + [degree]
        assert invariant_counts(action, degrees, weights).tolist() == _listed_counts(
            action, degrees, weights)


@pytest.mark.parametrize("name", MODELS)
def test_section_counts_match_section_bases(name):
    build, args = MODELS[name]
    model = build(*args)
    degrees = list(range(201)) + [9870, MAX_DEGREE]
    assert model.section_counts(degrees).tolist() == [len(model.section_basis(m))
                                                      for m in degrees]


@pytest.mark.parametrize("degrees", [
    [7, 0, 30, 2, 19],  # unsorted
    list(range(10, 1, -2)),  # descending, as --m 10:2:-2 gives
    [5, 5, 0, 5, 12, 0],  # duplicated
    [],
])
def test_invariant_counts_keep_the_order_of_the_degrees(degrees):
    for action, weights in [(GroupAction.cyclic(3, [1, 2, 0]), None),
                            (GroupAction.cyclic(4, [1, 3]), (2, 3))]:
        counts = invariant_counts(action, degrees, weights)
        assert counts.tolist() == _listed_counts(action, degrees, weights)


def test_invariant_counts_chunks_end_inside_a_degree_list(monkeypatch):
    action, weights = from_generators(
        3, [[Fraction(1, 4), Fraction(3, 4), Fraction(1, 2)]]), (1, 2, 1)
    # plain counts 55, 10, 120, 1, 45, 45, 78, 3, 105: with 50 rows a chunk, the
    # small ones share chunks and the others are counted over lattice_blocks
    degrees = [9, 3, 14, 0, 8, 8, 11, 1, 13]
    whole = invariant_counts(action, degrees, weights).tolist()
    monkeypatch.setattr(groups, "BLOCK_ROWS", 50)
    calls = []
    expand = groups._expand
    monkeypatch.setattr(groups, "_expand",
                        lambda w, ds: calls.append(list(ds)) or expand(w, ds))
    assert invariant_counts(action, degrees, weights).tolist() == whole
    assert whole == _listed_counts(action, degrees, weights)
    chunks = [c for c in calls if len(c) > 1]
    assert chunks and all(sum(math.comb(m + 2, 2) for m in c) <= 50 for c in chunks)


@pytest.mark.parametrize("bad,message", [(-1, "non-negative"),
                                         (MAX_DEGREE + 1, "exceeds bound")])
def test_invariant_counts_check_every_degree_first(monkeypatch, bad, message):
    monkeypatch.setattr(groups, "_expand", None)  # no degree may be counted
    for degrees in ([bad], [3, bad], [5, 4, bad, 2]):
        with pytest.raises(ModelSpecError, match=message) as info:
            invariant_counts(GroupAction.trivial(2), degrees)
        assert info.value.field == "m"
