"""Finite abelian diagonal unitary groups and invariant monomials.

A group is defined by integers: per generator g a modulus q_g and weights
W_gj, acting by e^{2 pi i W_gj / q_g} on the j-th coordinate, each generator
held reduced (W_g mod q_g, with q_g its order).  A multi-index alpha is
invariant iff sum_j W_gj alpha_j = 0 mod q_g for every g; invariant monomials
and the character-sum identity test whole blocks of a numpy multi-index
lattice that way.  The elements are integer numerators e_j over the common
denominator N = lcm(q), the element diag(e^{2 pi i e_j / N}), listed as the
sums of generator multiples mod N.  The exact Fraction path (rational
rotation numbers closed under addition, characters, the invariance test) is
the oracle the tests compare against and lives with them; complex
exponentials are evaluated only when a numeric value is requested.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import ModelSpecError

MAX_DEGREE = 10_000
MAX_RESULT_COUNT = 1_000_000
MAX_ORDER = 10_000  # group elements listed at most
BLOCK_ROWS = 1 << 16  # lattice rows held at once, above which a lattice is split


@dataclass(frozen=True)
class GroupAction:
    """A finite abelian group acting diagonally on C^dim, generated by
    e^{2 pi i weights[g][j] / moduli[g]} on the j-th coordinate.  Its
    elements are listed on construction."""

    dim: int
    weights: tuple[tuple[int, ...], ...]
    moduli: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ModelSpecError(f"a group acts on C^dim with dim >= 1, not {self.dim}")
        if self.denominator > MAX_ORDER:  # the group has an element of order N
            raise ModelSpecError("group closure exceeds supported order")
        self.elements  # listed now, so a group past MAX_ORDER is refused here

    @classmethod
    def from_integers(cls, dim: int, generators: Sequence[tuple[int, Sequence[int]]]
                      ) -> "GroupAction":
        """The group of the generators (q, w), each e^{2 pi i w_j / q} on the
        j-th coordinate, held reduced: w mod q over the order q / gcd(q, w)."""
        weights, moduli = [], []
        for q, w in generators:
            if q < 1:
                raise ModelSpecError("group order must be positive")
            if len(w) != dim:
                raise ModelSpecError(f"generator length {len(w)} != dim {dim}")
            w = [x % q for x in w]
            k = math.gcd(q, *w)
            weights.append(tuple(x // k for x in w))
            moduli.append(q // k)
        return cls(dim=dim, weights=tuple(weights), moduli=tuple(moduli))

    @classmethod
    def cyclic(cls, order: int, weights: Sequence[int]) -> "GroupAction":
        """mu_order acting by e^{2 pi i w_j / order} on the j-th coordinate."""
        return cls.from_integers(len(weights), [(order, weights)])

    @classmethod
    def trivial(cls, dim: int) -> "GroupAction":
        return cls.from_integers(dim, [])

    @classmethod
    def from_spec(cls, spec) -> "GroupAction":
        """Parse {"order": q, "weights": [...]} or a list of such generators."""
        if isinstance(spec, str):
            spec = json.loads(spec)
        if isinstance(spec, dict):
            spec = [spec]
        gens = []
        for item in spec:
            try:
                q, w = int(item["order"]), [int(x) for x in item["weights"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelSpecError(f"bad group spec entry: {item!r}") from exc
            if gens and len(w) != len(gens[0][1]):
                raise ModelSpecError("generators have inconsistent dimension")
            gens.append((q, w))
        if not gens:
            raise ModelSpecError("empty group spec")
        return cls.from_integers(len(gens[0][1]), gens)

    @cached_property
    def denominator(self) -> int:
        """N = lcm(q), over which every element's numerators are integers."""
        return math.lcm(*self.moduli)

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """Every element as its numerators e_j in [0, N) over N, sorted.

        Each generator adds the cosets group + k * generator (mod N) for
        k = 1, 2, ... until k * generator lies in the group already.
        """
        n = self.denominator
        group = {(0,) * self.dim}
        for w, q in zip(self.weights, self.moduli):
            step = [x * (n // q) for x in w]
            base = list(group)
            shift = tuple(step)
            while shift not in group:
                group.update(tuple((a + b) % n for a, b in zip(e, shift)) for e in base)
                if len(group) > MAX_ORDER:
                    raise ModelSpecError("group closure exceeds supported order")
                shift = tuple((a + b) % n for a, b in zip(shift, step))
        return tuple(sorted(group))

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_matrix_diagonal(self, g: int) -> tuple[complex, ...]:
        """Diagonal entries e^{2 pi i e_j / N} of element g."""
        n = self.denominator
        return tuple(cmath.exp(2j * cmath.pi * (e / n)) for e in self.elements[g])

    def invariant_mask(self, alphas: np.ndarray,
                       coords: Sequence[int] | None = None) -> np.ndarray:
        """Which rows alpha of an integer array are trivial characters of G.

        Column i holds alpha at coordinate coords[i] (all coordinates in
        order by default); the coordinates not listed are 0 and further
        columns are ignored.  Each generator's phase is a sum of columns.
        """
        coords = range(self.dim) if coords is None else coords
        keep = np.ones(len(alphas), dtype=bool)
        for w, q in zip(self.weights, self.moduli):
            phase = np.zeros(len(alphas), dtype=np.int64)
            for i, j in enumerate(coords):
                if w[j]:
                    phase += alphas[:, i] * w[j]
            keep &= np.remainder(phase, q, out=phase) == 0
        return keep


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
