"""Exact rational oracles for the integer group code of `orbk.groups`.

A group element is held here as it is written on paper: a tuple of rotation
numbers t_j in [0, 1) as Fractions, the element diag(e^{2 pi i t_j}).  The
closure, the characters and the invariance test use only Fraction
arithmetic; `fraction_b_coefficient` and `reference_character_sum_bound` are
the float computations of `b_coefficient` and `character_sum_bound` run over
those Fraction elements, in the same element and operation order, so the
library's integer path must reproduce them bit for bit.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import chain

import numpy as np

from orbk.groups import GroupAction, lattice_blocks

RotationVector = tuple[Fraction, ...]


def from_generators(dim: int, generators) -> GroupAction:
    """The group of rational rotation vectors t as integers: per generator
    q = the lcm of the denominators of t mod 1 and W_j = q t_j."""
    gens = [[Fraction(x) % 1 for x in g] for g in generators]
    assert all(len(g) == dim for g in gens)
    moduli = [math.lcm(*(t.denominator for t in g)) for g in gens]
    weights = [tuple(t.numerator * (q // t.denominator) for t in g)
               for g, q in zip(gens, moduli)]
    return GroupAction(dim=dim, weights=tuple(weights), moduli=tuple(moduli))


def fraction_generators(action: GroupAction) -> list[RotationVector]:
    return [tuple(Fraction(w, q) for w in ws) for ws, q in zip(action.weights, action.moduli)]


def fraction_closure(action: GroupAction) -> tuple[RotationVector, ...]:
    """Every element as rotation numbers, by breadth-first closure under
    addition mod 1 of the generators, sorted."""
    gens = fraction_generators(action)
    identity = (Fraction(0),) * action.dim
    elements, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                s = tuple((x + y) % 1 for x, y in zip(e, g))
                if s not in elements:
                    elements.add(s)
                    nxt.append(s)
        frontier = nxt
    return tuple(sorted(elements))


def fraction_element(action: GroupAction, g: int) -> RotationVector:
    """Element g of the library's list, read as rotation numbers e_j / N."""
    return tuple(Fraction(e, action.denominator) for e in action.elements[g])


def character_phase(action: GroupAction, g: int, alpha) -> Fraction:
    """Exact rational phase (mod 1) of the character alpha at element g."""
    rot = fraction_element(action, g)
    return sum((Fraction(a) * t for a, t in zip(alpha, rot)), Fraction(0)) % 1


def character_value(action: GroupAction, g: int, alpha) -> complex:
    """alpha(g) = exp(2 pi i sum_j alpha_j t_j(g)), computed from the exact phase."""
    if g >= action.order:
        raise IndexError(f"element index {g} out of range (order {action.order})")
    return cmath.exp(2j * cmath.pi * character_phase(action, g, alpha))


def is_invariant(action: GroupAction, alpha) -> bool:
    """Exact test: the character alpha is trivial on every generator."""
    for gen in fraction_generators(action):
        phase = sum((Fraction(a) * t for a, t in zip(alpha, gen)), Fraction(0))
        if phase.denominator != 1:
            return False
    return True


def character_sum(action: GroupAction, alpha) -> tuple[complex, bool]:
    """Sum of alpha(g) over the group, with the exact invariance verdict.

    The complex sum equals |G| when alpha is trivial on G and 0 otherwise;
    both facts are asserted against the rational-arithmetic verdict.
    """
    total = sum(character_value(action, g, alpha) for g in range(action.order))
    invariant = is_invariant(action, alpha)
    expected = float(action.order) if invariant else 0.0
    if abs(total - expected) >= 1e-10:
        raise AssertionError(
            f"character sum {total} inconsistent with invariance verdict {invariant}"
        )
    return total, invariant


def _det_factor(rot: RotationVector) -> complex:
    out = 1.0 + 0.0j
    for t in rot:
        out *= 1.0 - cmath.exp(2j * cmath.pi * t)
    return out


def det_positivity_check(point) -> list[float]:
    """det(I-g|T) det(I-g^{-1}|T) per nontrivial g; each must be real positive."""
    out = []
    for rot in fraction_closure(point.action):
        if not any(rot):
            continue
        prod = _det_factor(rot) * _det_factor(tuple((-t) % 1 for t in rot))
        if abs(prod.imag) >= 1e-12 or prod.real <= 0:
            raise AssertionError(f"paired determinant {prod} not positive real")
        out.append(prod.real)
    return out


def classical_cyclic_sum(n: int) -> tuple[float, float]:
    """(sum_k 1/(1-zeta^k), exact (n-1)/2) for the order-n roots of unity."""
    total = sum(1.0 / (1.0 - cmath.exp(2j * cmath.pi * k / n)) for k in range(1, n))
    if abs(total.imag) >= 1e-12:
        raise AssertionError("classical sum should be real")
    return total.real, (n - 1) / 2.0


def fraction_b_coefficient(action: GroupAction) -> tuple[float, Fraction | None, float]:
    """(value, exact, imag_residual) of b over the Fraction closure: the sum
    of 1/det(I - g) in conjugate pairs, in the order of the sorted elements."""
    elements = fraction_closure(action)
    order = len(elements)
    if order == 1:
        return 0.0, Fraction(0), 0.0
    index_of = {e: i for i, e in enumerate(elements)}
    total, done = 0.0 + 0.0j, set()
    for g in range(1, order):
        if g in done:
            continue
        ginv = index_of[tuple((-t) % 1 for t in elements[g])]
        done.add(g)
        if ginv == g:
            total += 1.0 / _det_factor(elements[g])
        else:
            done.add(ginv)
            pair = 1.0 / _det_factor(elements[g]) + 1.0 / _det_factor(elements[ginv])
            total += complex(pair.real, pair.imag)
    total /= order
    exact = None
    if action.dim == 1 and len(action.moduli) <= 1:
        exact = Fraction(order - 1, 2 * order)
    return total.real, exact, abs(total.imag)


def reference_character_sum_bound(action: GroupAction, z, m: int) -> tuple[float, float]:
    """Both sides of the character-sum identity the long way: the orbit side
    over the Fraction closure, the invariant side over the whole
    (dim + 1)-coordinate lattice, masked by a matrix product and then cut to
    the rows with alpha_j = 0 wherever z_j = 0."""
    z = np.asarray(z, dtype=complex)
    norm2 = float(np.sum(np.abs(z) ** 2))
    elements = fraction_closure(action)
    orbit = 0.0 + 0.0j
    for rot in elements:
        diag = tuple(cmath.exp(2j * cmath.pi * t) for t in rot)
        inner = sum(d * abs(zz) ** 2 for d, zz in zip(diag, z))
        orbit += ((1.0 + inner) / (1.0 + norm2)) ** m

    n = action.dim
    weights = np.array(action.weights, dtype=np.int64).reshape(-1, n)
    moduli = np.array(action.moduli, dtype=np.int64)
    log_abs2 = [(math.log(abs(zz) ** 2) if abs(zz) > 0 else -math.inf) for zz in z]
    zero = np.isinf(log_abs2)
    lgf = np.array([math.lgamma(k + 1) for k in range(m + 1)])
    lm, shift = lgf[m], m * math.log1p(norm2)

    def block_terms(block):  # rows (alpha, m - |alpha|)
        block = block[np.all((block[:, :n] @ weights.T) % moduli == 0, axis=1)]
        block = block[~np.any(block[:, :n][:, zero] > 0, axis=1)]
        lt = lm - lgf[block[:, n]]
        for j in np.flatnonzero(~zero):
            lt += block[:, j] * log_abs2[j] - lgf[block[:, j]]
        return np.exp(lt - shift).tolist()

    invariant = math.fsum(chain.from_iterable(map(block_terms, lattice_blocks(n + 1, m))))
    return orbit.real, invariant * len(elements)
