"""Bergman density: the orthonormal-sum path and the football closed form.

`density` sums the orthonormalised sections of any section space.  On the
football CP^1/mu_n, at degrees m divisible by n, the density is also the
closed form (m+1) sum_k ((1 + r zeta^k)/(1 + r))^m over the n-th roots of
unity; one vectorised sum evaluates it and its off-diagonal part (k != 0),
which the CLI checks, the pairing, the lower bound and the metric pullback
read.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ParameterError, QuadratureError
from .quadrature import integrate_radial
from .sections import SectionSpace, _perturbed_radial_density


def density(space: SectionSpace, z: complex, chart_id: str = "u0") -> float:
    """sum_i a(z)^m |f_i(z)|^2 over the orthonormalized basis, in the given chart."""
    chart = space.model.chart(chart_id)
    m = space.power
    lg = np.asarray(space.log_gram_diag)
    exps = np.array([a[chart.fibre_index] for a in space.basis], dtype=float)
    u = abs(z) ** 2
    # scalar math.log/log1p, not the numpy ones of _log_terms: they differ in
    # the last bit, and density reports are compared byte for byte
    if u == 0.0:
        logs = np.where(exps == 0, -lg, -np.inf)
    else:
        logs = exps * math.log(u) - m * math.log1p(u ** (1.0 / chart.root)) - lg
    return float(np.sum(np.exp(logs)))


def _log_terms(space: SectionSpace, t) -> np.ndarray:
    """log a^m |f_i|^2 of each orthonormal section (rows) at the radial
    variable t of chart u0 (columns)."""
    chart = space.model.charts[0]
    exps = np.array([a[chart.fibre_index] * chart.root for a in space.basis],
                    dtype=float)
    lg = np.asarray(space.log_gram_diag)
    lt = np.log(np.maximum(t, 1e-300))  # exp(e*lt) underflows cleanly at t=0
    return (
        exps[:, None] * lt[None, :]
        - space.power * np.log1p(t)[None, :]
        - lg[:, None]
    )


def _root_of_unity_sum(n: int, m: int, r, start: float):
    """(m+1) (start + sum_{k=1}^{n-1} Re(((1 + r zeta^k)/(1 + r))^m)), zeta = e^{2 pi i/n}.

    Vectorised in r; a float for a scalar r.  The real and imaginary parts of
    each term's base are divided by the real 1 + r one by one, as CPython's
    complex / float division does (numpy's complex division multiplies by a
    reciprocal), and the terms are added in k order, so the values are those
    of a scalar complex loop.  The conjugate terms k and n - k make the sum
    real, so only real parts are taken.
    """
    if m % n != 0:
        raise ParameterError(f"degree {m} is not a multiple of {n}", field="m")
    r = np.asarray(r, dtype=float)
    if (r < 0).any():
        raise ParameterError("r must be non-negative", field="r")
    s = 1.0 + r
    w = np.empty(r.shape, dtype=complex)
    total = np.full(r.shape, start)
    for k in range(1, n):
        zeta = cmath.exp(2j * cmath.pi * k / n)
        np.divide(1.0 + r * zeta.real, s, out=w.real)
        np.divide(r * zeta.imag, s, out=w.imag)
        total += (w ** m).real
    total *= m + 1
    return float(total) if total.ndim == 0 else total


def football_density_closed_form(n: int, m: int, r):
    """(m+1) sum_{k=0}^{n-1} ((1 + r e^{2 pi i k/n})/(1+r))^m at chart radius r."""
    return _root_of_unity_sum(n, m, r, 1.0)  # the k = 0 term is exactly 1


def football_offdiagonal_closed_form(n: int, m: int, r):
    """The k != 0 part of the closed form: the exponentially small tail."""
    return _root_of_unity_sum(n, m, r, 0.0)


def metric_pullback_deviation(
    space: SectionSpace,
    points: list[complex],
    h: float = 1e-3,
) -> list[tuple[float, float]]:
    """|(1/m) d d-bar log rho_m| per grid point, via Richardson differences.

    Returns (|z|, deviation) pairs.  d d-bar is a quarter Laplacian in the
    chart coordinates; the 5-point stencil is evaluated at steps h and h/2.
    """
    n = space.model.football_order()
    m = space.power
    if m <= 0:
        raise ParameterError("the pullback deviation needs a positive degree", field="m")

    def lap(c, four, step):
        return (four[0] + four[1] + four[2] + four[3] - 4.0 * c) / step**2

    out = []
    for z in points:
        x, y = z.real, z.imag
        # the centre, then the four neighbours at step h and at step h/2
        stencil = [(x, y)] + [p for step in (h, h / 2.0) for p in
                              ((x + step, y), (x - step, y), (x, y + step), (x, y - step))]
        rho = football_density_closed_form(n, m, [a * a + b * b for a, b in stencil])
        if rho.min() < 1e-300:
            raise QuadratureError("density too small to take log")
        logs = [math.log(v) for v in rho]  # math.log, not np.log: the report's last bits
        d1 = lap(logs[0], logs[1:5], h)
        d2 = lap(logs[0], logs[5:], h / 2.0)
        richardson = (4.0 * d2 - d1) / 3.0
        ddbar = richardson / 4.0
        out.append((abs(z), abs(ddbar) / m))
    return out


def integrated_density(space: SectionSpace) -> float:
    """Integral of rho over the model; equals dim H^0 by the trace identity."""
    # the unperturbed trace identity uses the unperturbed volume
    q = space.model.quotient_order

    def f(t):
        t = np.asarray(t, dtype=float)
        terms = np.exp(_log_terms(space, t))
        return np.sum(terms, axis=0) * (_perturbed_radial_density(t, None) / q)

    return integrate_radial(f)
