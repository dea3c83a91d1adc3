"""Exact singular coefficients and Riemann-Roch-type Euler characteristics.

All curve-level index arithmetic is done in exact rationals.  The singular
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

from .errors import ModelSpecError, UnsupportedModelError
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
    exact: Fraction
    numeric: float


@dataclass(frozen=True)
class IndexReport:
    kind: str
    power: int
    smooth_part: Fraction
    corrections: tuple[CorrectionRecord, ...]
    total: Fraction
    dimension_oracle: int

    @property
    def matches_oracle(self) -> bool:
        return self.total == self.dimension_oracle


def _det_factor(action: GroupAction, g: int) -> complex:
    out = 1.0 + 0.0j
    for t in action.elements[g]:
        out *= 1.0 - cmath.exp(2j * cmath.pi * t)
    return out


def b_coefficient(point: SingularPoint) -> BCoefficient:
    """(1/|G|) sum_{g != 1} 1/det(I - g|T), grouped in conjugate pairs."""
    action = point.action
    order = action.order
    if order == 1:
        return BCoefficient(value=0.0, exact=Fraction(0), imag_residual=0.0)
    inverse_of = {}
    zero = tuple(Fraction(0) for _ in range(action.dim))
    index_of = {e: i for i, e in enumerate(action.elements)}
    for i, e in enumerate(action.elements):
        inv = tuple((zero[j] - e[j]) % 1 for j in range(action.dim))
        inverse_of[i] = index_of[inv]
    total = 0.0 + 0.0j
    done = set()
    for g in range(order):
        if action.elements[g] == zero or g in done:
            continue
        ginv = inverse_of[g]
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
    if action.dim == 1 and len(action.generators) <= 1:
        # cyclic in dimension one: classical value (d-1)/(2d)
        exact = Fraction(order - 1, 2 * order)
        if abs(total.real - float(exact)) >= 1e-12:
            raise AssertionError("complex sum disagrees with exact certificate")
    return BCoefficient(value=total.real, exact=exact, imag_residual=imag)


def det_positivity_check(point: SingularPoint) -> list[float]:
    """det(I-g|T) det(I-g^{-1}|T) per nontrivial g; each must be real positive."""
    action = point.action
    zero = tuple(Fraction(0) for _ in range(action.dim))
    index_of = {e: i for i, e in enumerate(action.elements)}
    out = []
    for g in range(action.order):
        if action.elements[g] == zero:
            continue
        inv = tuple((Fraction(0) - t) % 1 for t in action.elements[g])
        prod = _det_factor(action, g) * _det_factor(action, index_of[inv])
        if abs(prod.imag) >= 1e-12 or prod.real <= 0:
            raise AssertionError(f"paired determinant {prod} not positive real")
        out.append(prod.real)
    return out


def _s_value(d: int, j: int) -> Fraction:
    """Exact S_j = sum_{k=1}^{d-1} zeta^{jk}/(1-zeta^k), j taken mod d."""
    j %= d
    if j == 0:
        return Fraction(d - 1, 2)
    return Fraction(j) - 1 - Fraction(d - 1, 2)


def point_correction(point: SingularPoint, m: int) -> CorrectionRecord:
    """Exact equivariant correction of one cyclic point for bundle power m."""
    d = point.group_order
    if len(point.tangent_weights) != 1:
        raise UnsupportedModelError("curve corrections need one tangent weight")
    t = point.tangent_weights[0] % d
    f = point.fiber_weight % d
    t_inv = pow(t, -1, d)
    exact = _s_value(d, f * m * t_inv) / d
    # float cross-check of the same character sum.  Both phases are reduced
    # mod d in integers, and 1 - e^{i theta} = -2i sin(theta/2) e^{i theta/2}
    # replaces the subtraction, which cancels digits when theta is small
    total = 0.0 + 0.0j
    for k in range(1, d):
        a, b = f * m * k % d, t * k % d
        total += 0.5j * cmath.exp(1j * math.pi * (2 * a - b) / d) / math.sin(math.pi * b / d)
    total /= d
    if abs(total - float(exact)) >= 1e-9:
        raise AssertionError(
            f"exact correction {exact} disagrees with complex sum {total}"
        )
    return CorrectionRecord(
        chart_id=point.chart_id, group_order=d, exact=exact, numeric=total.real
    )


def rrk_euler_characteristic(model: OrbifoldModel, m: int) -> IndexReport:
    """deg_orb + chi_orb/2 plus the equivariant singular corrections.

    deg_orb = m/q and chi_orb = sum over charts of 1/|G_chart|.  The total
    must reproduce the section count of the basis rule exactly; the caller is
    expected to treat any mismatch as a hard failure.
    """
    oracle = len(model.section_basis(m))
    deg = Fraction(m, model.quotient_order)
    chi = sum((Fraction(1, c.group.order) for c in model.charts), Fraction(0))
    smooth = deg + chi / 2
    corrections = tuple(point_correction(p, m) for p in model.singular_points)
    total = smooth + sum((c.exact for c in corrections), Fraction(0))
    return IndexReport(
        kind=model.kind,
        power=m,
        smooth_part=smooth,
        corrections=corrections,
        total=total,
        dimension_oracle=oracle,
    )


def classical_cyclic_sum(n: int) -> tuple[float, float]:
    """(sum_k 1/(1-zeta^k), exact (n-1)/2) for the order-n roots of unity."""
    total = sum(1.0 / (1.0 - cmath.exp(2j * cmath.pi * k / n)) for k in range(1, n))
    if abs(total.imag) >= 1e-12:
        raise AssertionError("classical sum should be real")
    return total.real, (n - 1) / 2.0
