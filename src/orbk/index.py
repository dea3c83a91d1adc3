"""Exact singular coefficients and Riemann-Roch-type Euler characteristics.

All curve-level index arithmetic is exact: rationals, or integer numerators
over one common denominator across a range of degrees.  The singular
corrections use the equivariant form with the 1/|G| factor and the fiber
character of the bundle frame; the correction of the cyclic point with data
(d, tangent weight t, fiber exponent f, power m) reduces by substitution to
S_j = sum_k zeta^{jk}/(1 - zeta^k) with j = f m t^{-1} mod d, whose value is
the exact rational (d-1)/2 for j = 0 and j - 1 - (d-1)/2 otherwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UnsupportedModelError
from .groups import GroupAction
from .models import OrbifoldModel, SingularPoint


@dataclass(frozen=True)
class BCoefficient:
    """Delta coefficient at a singular point: value plus optional certificate."""

    value: float
    exact: Fraction | None
    imag_residual: float


@dataclass(frozen=True)
class CorrectionRecord:
    chart_id: str
    group_order: int
    twice_s: int  # 2 S_j: the correction is twice_s / (2 group_order)
    numeric: float

    @property
    def exact(self) -> Fraction:
        return Fraction(self.twice_s, 2 * self.group_order)


@dataclass(frozen=True)
class IndexReport:
    kind: str
    power: int
    corrections: tuple[CorrectionRecord, ...]
    total: Fraction
    dimension_oracle: int

    @property
    def smooth_part(self) -> Fraction:
        """deg_orb + chi_orb/2: the total less the singular corrections."""
        return self.total - sum((c.exact for c in self.corrections), Fraction(0))

    @property
    def matches_oracle(self) -> bool:
        return self.total == self.dimension_oracle


def _det_factor(action: GroupAction, g: int) -> complex:
    n = action.denominator
    out = 1.0 + 0.0j
    for e in action.elements[g]:
        out *= 1.0 - cmath.exp(2j * cmath.pi * (e / n))
    return out


def b_coefficient(point: SingularPoint) -> BCoefficient:
    """(1/|G|) sum_{g != 1} 1/det(I - g|T), grouped in conjugate pairs."""
    action = point.action
    order = action.order
    if order == 1:
        return BCoefficient(value=0.0, exact=Fraction(0), imag_residual=0.0)
    n = action.denominator
    index_of = {e: i for i, e in enumerate(action.elements)}
    total = 0.0 + 0.0j
    done = set()
    for g in range(1, order):  # element 0 is the identity
        if g in done:
            continue
        ginv = index_of[tuple(-e % n for e in action.elements[g])]
        done.add(g)
        if ginv == g:
            total += 1.0 / _det_factor(action, g)
        else:
            done.add(ginv)
            pair = 1.0 / _det_factor(action, g) + 1.0 / _det_factor(action, ginv)
            total += complex(pair.real, pair.imag)
    total /= order
    imag = abs(total.imag)
    if imag >= 1e-12:
        raise AssertionError(f"b coefficient imaginary part {imag} too large")
    exact = None
    if action.dim == 1 and len(action.moduli) <= 1:
        # cyclic in dimension one: classical value (d-1)/(2d)
        exact = Fraction(order - 1, 2 * order)
        if abs(total.real - float(exact)) >= 1e-12:
            raise AssertionError("complex sum disagrees with exact certificate")
    return BCoefficient(value=total.real, exact=exact, imag_residual=imag)


def _s_value(d: int, j: np.ndarray) -> np.ndarray:
    """Exact 2 S_j, S_j = sum_{k=1}^{d-1} zeta^{jk}/(1-zeta^k), for an int64
    array of j already reduced mod d: d - 1 at j = 0, 2j - 2 - (d - 1) else."""
    return np.where(j == 0, d - 1, 2 * j - 2 - (d - 1))


CHECK_TERMS = 1 << 16  # (degree, k) terms of the float cross-check held at once


def point_correction(point: SingularPoint, ms) -> list[CorrectionRecord]:
    """Exact equivariant corrections of one cyclic point, one record per
    bundle power of `ms`, each cross-checked against the float character sum."""
    d = point.group_order
    if len(point.tangent_weights) != 1:
        raise UnsupportedModelError("curve corrections need one tangent weight")
    t = point.tangent_weights[0] % d
    f = point.fiber_weight % d
    fm = f * np.asarray(ms, dtype=np.int64) % d
    twice_s = _s_value(d, fm * pow(t, -1, d) % d)
    # float cross-check of the same character sum, (degrees x (d-1)) terms a
    # chunk.  Both phases are reduced mod d in integers, and 1 - e^{i theta} =
    # -2i sin(theta/2) e^{i theta/2} replaces the subtraction, which cancels
    # digits when theta is small
    k = np.arange(1, d, dtype=np.int64)
    b = t * k % d
    sines = np.sin(np.pi * b / d)
    numeric = np.empty(len(fm), dtype=complex)
    step = max(1, CHECK_TERMS // max(d - 1, 1))
    for lo in range(0, len(fm), step):
        a = fm[lo:lo + step, None] * k % d
        terms = 0.5j * np.exp(1j * np.pi * (2 * a - b) / d) / sines
        numeric[lo:lo + step] = terms.sum(axis=1) / d
    bad = np.flatnonzero(np.abs(numeric - twice_s / (2 * d)) >= 1e-9)
    if len(bad):
        i = bad[0]
        raise AssertionError(
            f"{point.chart_id} at m={ms[i]}: exact correction "
            f"{Fraction(int(twice_s[i]), 2 * d)} disagrees with complex sum {numeric[i]}")
    return [CorrectionRecord(point.chart_id, d, s, x)
            for s, x in zip(twice_s.tolist(), numeric.real.tolist())]


def rrk_euler_characteristic(model: OrbifoldModel, ms) -> list[IndexReport]:
    """deg_orb + chi_orb/2 plus the equivariant singular corrections, one
    report per degree of `ms`.

    deg_orb = m/q and chi_orb = sum over charts of 1/|G_chart|.  The sum is
    taken in int64 numerators over one common denominator (2q on the catalog's
    curves, far from overflow).  The total must reproduce the section count of
    the basis rule exactly; the caller is expected to treat any mismatch as a
    hard failure.
    """
    ms = [int(m) for m in ms]
    oracles = model.section_counts(ms).tolist()
    q = model.quotient_order
    orders = [c.group.order for c in model.charts]
    points = model.singular_points
    den = 2 * math.lcm(q, *orders, *(p.group_order for p in points))
    total = np.asarray(ms, dtype=np.int64) * (den // q) + sum(den // (2 * g) for g in orders)
    records = [point_correction(p, ms) for p in points]
    for p, recs in zip(points, records):
        scale = den // (2 * p.group_order)
        total += scale * np.array([r.twice_s for r in recs], dtype=np.int64)
    corrections = list(zip(*records)) if records else [()] * len(ms)
    return [IndexReport(kind=model.kind, power=m, corrections=c, total=Fraction(n, den),
                        dimension_oracle=o)
            for m, c, n, o in zip(ms, corrections, total.tolist(), oracles)]
