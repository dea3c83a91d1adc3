"""Finite abelian diagonal unitary groups, characters, invariant monomials.

Group elements are diagonal matrices diag(e^{2 pi i t_1}, ..., e^{2 pi i t_n})
stored as tuples of exact rational rotation numbers t_j in [0, 1).  Each
generator g is also held as integers: a modulus q_g (the lcm of its
denominators) and weights W_gj = q_g t_j, so a multi-index alpha is invariant
iff (W @ alpha) % q == 0.  Invariant monomials and the character-sum identity
test whole blocks of a numpy multi-index lattice that way.  The Fraction path
(`is_invariant`, `character_phase`, `character_sum`) is the exact oracle the
tests compare against; complex exponentials are evaluated only when a numeric
value is requested.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ModelSpecError

MAX_DEGREE = 10_000
MAX_RESULT_COUNT = 1_000_000
BLOCK_ROWS = 1 << 16  # lattice rows held at once, above which a lattice is split

RotationVector = tuple[Fraction, ...]


def _reduce_mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def _add(a: RotationVector, b: RotationVector) -> RotationVector:
    return tuple(_reduce_mod1(x + y) for x, y in zip(a, b))


@dataclass(frozen=True)
class GroupAction:
    """A finite abelian group acting diagonally on C^dim."""

    dim: int
    generators: tuple[RotationVector, ...]
    elements: tuple[RotationVector, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def from_generators(cls, dim: int, generators: Iterable[Sequence[Fraction]]) -> "GroupAction":
        if dim < 1:
            raise ModelSpecError(f"a group acts on C^dim with dim >= 1, not {dim}")
        gens = []
        for g in generators:
            if len(g) != dim:
                raise ModelSpecError(f"generator length {len(g)} != dim {dim}")
            gens.append(tuple(_reduce_mod1(Fraction(x)) for x in g))
        identity = tuple(Fraction(0) for _ in range(dim))
        elements = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    s = _add(e, g)
                    if s not in elements:
                        elements.add(s)
                        nxt.append(s)
            frontier = nxt
            if len(elements) > 10_000:
                raise ModelSpecError("group closure exceeds supported order")
        return cls(dim=dim, generators=tuple(gens), elements=tuple(sorted(elements)))

    @classmethod
    def cyclic(cls, order: int, weights: Sequence[int]) -> "GroupAction":
        """mu_order acting by e^{2 pi i w_j / order} on the j-th coordinate."""
        if order < 1:
            raise ModelSpecError("group order must be positive")
        return cls.from_generators(len(weights), [[Fraction(w, order) for w in weights]])

    @classmethod
    def trivial(cls, dim: int) -> "GroupAction":
        return cls.from_generators(dim, [])

    @classmethod
    def from_spec(cls, spec) -> "GroupAction":
        """Parse {"order": q, "weights": [...]} or a list of such generators."""
        if isinstance(spec, str):
            spec = json.loads(spec)
        if isinstance(spec, dict):
            spec = [spec]
        gens = []
        dim = None
        for item in spec:
            try:
                q = int(item["order"])
                w = [int(x) for x in item["weights"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelSpecError(f"bad group spec entry: {item!r}") from exc
            if q < 1:
                raise ModelSpecError("group order must be positive")
            if dim is None:
                dim = len(w)
            elif len(w) != dim:
                raise ModelSpecError("generators have inconsistent dimension")
            gens.append([Fraction(x, q) for x in w])
        if dim is None:
            raise ModelSpecError("empty group spec")
        return cls.from_generators(dim, gens)

    def element_matrix_diagonal(self, g: int) -> tuple[complex, ...]:
        """Diagonal entries e^{2 pi i t_j} of element g."""
        return tuple(cmath.exp(2j * cmath.pi * t) for t in self.elements[g])

    @cached_property
    def integer_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, q): per generator the modulus q_g = lcm of its denominators and
        the integer weights W_gj = q_g t_j, shapes (generators, dim) and
        (generators,)."""
        moduli = [math.lcm(*(t.denominator for t in gen)) for gen in self.generators]
        weights = [[t.numerator * (q // t.denominator) for t in gen]
                   for gen, q in zip(self.generators, moduli)]
        return (np.array(weights, dtype=np.int64).reshape(len(moduli), self.dim),
                np.array(moduli, dtype=np.int64))

    def invariant_mask(self, alphas: np.ndarray) -> np.ndarray:
        """Which rows alpha of an integer array are trivial characters of G."""
        weights, moduli = self.integer_weights
        return np.all((alphas @ weights.T) % moduli == 0, axis=1)


def character_phase(action: GroupAction, g: int, alpha: Sequence[int]) -> Fraction:
    """Exact rational phase (mod 1) of the character alpha at element g."""
    rot = action.elements[g]
    return _reduce_mod1(sum((Fraction(a) * t for a, t in zip(alpha, rot)), Fraction(0)))


def character_value(action: GroupAction, g: int, alpha: Sequence[int]) -> complex:
    """alpha(g) = exp(2 pi i sum_j alpha_j t_j(g)), computed from the exact phase."""
    if g >= action.order:
        raise IndexError(f"element index {g} out of range (order {action.order})")
    return cmath.exp(2j * cmath.pi * character_phase(action, g, alpha))


def is_invariant(action: GroupAction, alpha: Sequence[int]) -> bool:
    """Exact test: the character alpha is trivial on every generator."""
    for gen in action.generators:
        phase = sum((Fraction(a) * t for a, t in zip(alpha, gen)), Fraction(0))
        if phase.denominator != 1:
            return False
    return True


def character_sum(action: GroupAction, alpha: Sequence[int]) -> tuple[complex, bool]:
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


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ModelSpecError("degree must be non-negative", field="m")
    if degree > MAX_DEGREE:
        raise ModelSpecError(f"degree {degree} exceeds bound {MAX_DEGREE}", field="m")


def _degree_weights(action: GroupAction, weights: Sequence[int] | None) -> list[int]:
    if weights is None:
        return [1] * action.dim
    if len(weights) != action.dim:
        raise ModelSpecError("degree weights inconsistent with action dimension")
    return [int(w) for w in weights]


def _expand(weights: Sequence[int], degrees: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every alpha >= 0 with sum_j w_j alpha_j equal to one of the degrees, and
    per row the index of its degree.  Rows run degree by degree, each degree
    in lexicographic order: coordinates are expanded one at a time over the
    remaining budget and the last one is what the budget leaves, when w_last
    divides it."""
    rest = np.asarray(degrees, dtype=np.int64)
    index = np.arange(len(rest))
    columns: list[np.ndarray] = []  # 1-d until the end: 2-d boolean indexing is slow
    for w in weights[:-1]:
        counts = rest // w + 1
        parent = np.repeat(np.arange(len(rest)), counts)
        a = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        columns = [c[parent] for c in columns] + [a]
        rest = rest[parent] - a * w
        index = index[parent]
    last = weights[-1]
    if last != 1:
        keep = rest % last == 0
        columns, rest, index = [c[keep] for c in columns], rest[keep] // last, index[keep]
    return np.column_stack(columns + [rest]), index


def lattice_blocks(dim: int, degree: int,
                   weights: Sequence[int] | None = None) -> Iterator[np.ndarray]:
    """All alpha >= 0 with sum(alpha) == degree (or sum d_j alpha_j == degree)
    as int64 arrays whose rows, block after block, run in lexicographic order.

    A lattice whose expansion could exceed BLOCK_ROWS rows (bounded by the
    plain count C(degree + dim - 1, dim - 1)) is split by its leading
    coordinate, so memory does not grow with the lattice.
    """
    weights = [1] * dim if weights is None else [int(w) for w in weights]
    if math.comb(degree + dim - 1, dim - 1) <= BLOCK_ROWS:
        yield _expand(weights, [degree])[0]
        return
    for a in range(degree // weights[0] + 1):
        for block in lattice_blocks(dim - 1, degree - a * weights[0], weights[1:]):
            yield np.column_stack([np.full(len(block), a, dtype=np.int64), block])


def invariant_monomials(
    action: GroupAction,
    total_degree: int,
    weights: Sequence[int] | None = None,
) -> list[tuple[int, ...]]:
    """Monomial exponents of the given (plain or weighted) degree fixed by G.

    Result is in lexicographic order and deterministic.  `weights` selects the
    weighted-degree rule sum_j d_j alpha_j = total_degree; None means plain
    total degree.
    """
    _check_degree(total_degree)
    weights = _degree_weights(action, weights)
    out: list[tuple[int, ...]] = []
    for block in lattice_blocks(action.dim, total_degree, weights):
        found = block[action.invariant_mask(block)]
        if len(out) + len(found) > MAX_RESULT_COUNT:
            raise ModelSpecError("invariant monomial count exceeds bound")
        out.extend(map(tuple, found.tolist()))
    return out


def invariant_counts(action: GroupAction, degrees: Sequence[int],
                     weights: Sequence[int] | None = None) -> np.ndarray:
    """len(invariant_monomials(action, m, weights)) for every m in `degrees`,
    in their order, without listing a monomial.

    Every degree is checked before any is counted.  Consecutive degrees are
    expanded together while their plain counts sum to at most BLOCK_ROWS; each
    such chunk is masked once and its invariant rows are counted per degree
    with np.bincount.  A degree whose plain count alone passes BLOCK_ROWS is
    counted over its lattice_blocks.  A count lists nothing, so
    MAX_RESULT_COUNT does not bound it.
    """
    degrees = [int(m) for m in degrees]
    for m in degrees:
        _check_degree(m)
    weights = _degree_weights(action, weights)
    plain = [math.comb(m + action.dim - 1, action.dim - 1) for m in degrees]
    counts = np.zeros(len(degrees), dtype=np.int64)
    start = 0
    while start < len(degrees):
        if plain[start] > BLOCK_ROWS:
            blocks = lattice_blocks(action.dim, degrees[start], weights)
            counts[start] = sum(int(np.count_nonzero(action.invariant_mask(b))) for b in blocks)
            start += 1
            continue
        stop, held = start, 0
        while stop < len(degrees) and held + plain[stop] <= BLOCK_ROWS:
            held += plain[stop]
            stop += 1
        rows, index = _expand(weights, degrees[start:stop])
        counts[start:stop] = np.bincount(index[action.invariant_mask(rows)],
                                         minlength=stop - start)
        start = stop
    return counts
