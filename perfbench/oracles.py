"""Exact oracles the benchmark judges every op against.

They are written from the mathematics, not from the library: log-Beta norms
through lgamma, integer lattice counts, the finite root-of-unity closed form
of the football density and the exact delta coefficient b = (n-1)/(2n).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

LOG_NORM_TOL = 1e-9
DENSITY_REL_TOL = 1e-9
RECOVERY_FINAL_MAX = 0.02
PAIRING_REL_TOL = 0.02


def log_beta(x: int, y: int) -> float:
    """log B(x, y) for positive integers."""
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def football_log_norm(n: int, m: int, b: int) -> float:
    """log of B(b+1, m-b+1)/n, the squared norm of the chart monomial z^b."""
    return log_beta(b + 1, m - b + 1) - math.log(n)


def wpl_log_norm(d0: int, d1: int, m: int, b: int) -> float:
    """log of B(b d1 + 1, m + 1 - b d1)/(d0 d1) on P(d0, d1)."""
    e = b * d1
    return log_beta(e + 1, m + 1 - e) - math.log(d0 * d1)


def lattice_points(spec: dict, m: int) -> list[tuple[int, int]]:
    """Exponents (a, b) of the invariant monomials Z_0^a Z_1^b of degree m.

    Football CP^1/mu_n: a + b = m with n | a.  P(d0, d1): d0 a + d1 b = m.
    """
    if spec["kind"] == "football":
        n = spec["n"]
        return [(a, m - a) for a in range(0, m + 1, n)]
    d0, d1 = spec["d"]
    return [(a, (m - d0 * a) // d1) for a in range(m // d0 + 1)
            if (m - d0 * a) % d1 == 0]


def exact_log_norms(spec: dict, m: int, basis) -> list[float]:
    if spec["kind"] == "football":
        return [football_log_norm(spec["n"], m, b) for _, b in basis]
    d0, d1 = spec["d"]
    return [wpl_log_norm(d0, d1, m, b) for _, b in basis]


def football_density(n: int, m: int, u: float) -> float:
    """(m+1) sum_k Re ((1 + u zeta^k)/(1 + u))^m over the n-th roots of unity."""
    total = 0.0
    for k in range(n):
        zeta = cmath.exp(2j * cmath.pi * k / n)
        total += (((1.0 + u * zeta) / (1.0 + u)) ** m).real
    return (m + 1) * total


def wpl_density(d0: int, d1: int, m: int, u: float) -> float:
    """Orthonormal-sum density on chart u0 of P(d0, d1), from exact norms."""
    t = u ** (1.0 / d1)
    total = 0.0
    for a in range(m // d0 + 1):
        rest = m - d0 * a
        if rest % d1:
            continue
        b = rest // d1
        if u == 0.0:
            if b == 0:
                total += math.exp(-wpl_log_norm(d0, d1, m, 0))
            continue
        total += math.exp(b * math.log(u) - m * math.log1p(t)
                          - wpl_log_norm(d0, d1, m, b))
    return total


def exact_density(spec: dict, m: int, u: float) -> float:
    if spec["kind"] == "football":
        return football_density(spec["n"], m, u)
    return wpl_density(*spec["d"], m, u)


def delta_coefficient(n: int) -> Fraction:
    """Exact b = (n-1)/(2n) of a cyclic cone point of order n."""
    return Fraction(n - 1, 2 * n)


def recovery_curve_ok(values: list[float]) -> list[bool]:
    """Per-degree verdicts of the CLI recovery rule on one curve.

    The curve must not increase (1e-9 slack, as in the CLI) and its value at
    the largest degree must be below RECOVERY_FINAL_MAX.
    """
    ok = [math.isfinite(v) for v in values]
    for i in range(1, len(values)):
        if values[i] > values[i - 1] * (1 + 1e-9):
            ok[i] = False
    if values and not values[-1] < RECOVERY_FINAL_MAX:
        ok[-1] = False
    return ok


def pairing_ok(n: int, amplitude: float, limit: float) -> bool:
    """CLI pairing rule: limit within 2% of b * phi(0); phi is centred at 0."""
    ref = float(delta_coefficient(n)) * amplitude
    return abs(limit - ref) <= PAIRING_REL_TOL * abs(ref)
