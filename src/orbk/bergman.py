"""Bergman density: orthonormal-sum path, closed form, split, metric pullback."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, QuadratureError
from .models import OrbifoldModel, geodesic_distance_proxy
from .quadrature import integrate_radial
from .sections import SectionSpace, _perturbed_radial_density


@dataclass
class DensitySample:
    """Density values over a set of chart points."""

    model: OrbifoldModel
    power: int
    chart_id: str
    points: list[complex]
    r_proxy: list[float]
    values: list[float]
    split: list[tuple[float, float]] | None = None


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


def football_density_closed_form(n: int, m: int, r: float) -> float:
    """(m+1) sum_{k=0}^{n-1} ((1 + r e^{2 pi i k/n})/(1+r))^m at chart radius r."""
    if r < 0:
        raise ParameterError("r must be non-negative", field="r")
    if m % n != 0:
        raise ParameterError(f"degree {m} is not a multiple of {n}", field="m")
    total = 0.0 + 0.0j
    for k in range(n):
        zeta = cmath.exp(2j * cmath.pi * k / n)
        total += ((1.0 + r * zeta) / (1.0 + r)) ** m
    total *= m + 1
    if abs(total.imag) >= 1e-10:
        raise AssertionError(f"closed-form imaginary part {total.imag} too large")
    return total.real


def football_offdiagonal_closed_form(n: int, m: int, r: float) -> float:
    """The k != 0 part of the closed form: the exponentially small tail."""
    total = 0.0 + 0.0j
    for k in range(1, n):
        zeta = cmath.exp(2j * cmath.pi * k / n)
        total += ((1.0 + r * zeta) / (1.0 + r)) ** m
    total *= m + 1
    if abs(total.imag) >= 1e-10:
        raise AssertionError(f"closed-form imaginary part {total.imag} too large")
    return total.real


def split_density(space: SectionSpace, z: complex) -> tuple[float, float]:
    """(diagonal, off-diagonal) parts; diagonal is the smooth m+1 term."""
    n = space.model.football_order()
    m = space.power
    r = abs(z) ** 2
    diag = float(m + 1)
    off = football_offdiagonal_closed_form(n, m, r)
    total = density(space, z)
    if abs((diag + off) - total) > 1e-10 * max(1.0, total):
        raise AssertionError("split does not reassemble the density")
    return diag, off


def density_sweep(
    model: OrbifoldModel,
    power: int,
    points: list[complex],
    chart_id: str = "u0",
) -> DensitySample:
    """Closed-form density and its split on a set of chart points."""
    n = model.football_order()
    values = []
    split = []
    for z in points:
        u = abs(z) ** 2
        values.append(football_density_closed_form(n, power, u))
        split.append((float(power + 1), football_offdiagonal_closed_form(n, power, u)))
    return DensitySample(
        model=model,
        power=power,
        chart_id=chart_id,
        points=list(points),
        r_proxy=[geodesic_distance_proxy(model, chart_id, z) for z in points],
        values=values,
        split=split,
    )


def _log_density_closed_form(n: int, m: int, x: float, y: float) -> float:
    u = x * x + y * y
    rho = football_density_closed_form(n, m, u)
    if rho < 1e-300:
        raise QuadratureError("density too small to take log")
    return math.log(rho)


def metric_pullback_deviation(
    space: SectionSpace,
    points: list[complex],
    h: float = 1e-3,
) -> list[tuple[float, float]]:
    """|(1/m) d d-bar log rho_m| per grid point, via Richardson differences.

    Returns (r_proxy, deviation) pairs.  d d-bar is a quarter Laplacian in the
    chart coordinates; the 5-point stencil is evaluated at steps h and h/2.
    """
    n = space.model.football_order()
    m = space.power
    if m <= 0:
        raise ParameterError("the pullback deviation needs a positive degree", field="m")

    def lap(x, y, step):
        c = _log_density_closed_form(n, m, x, y)
        s = (
            _log_density_closed_form(n, m, x + step, y)
            + _log_density_closed_form(n, m, x - step, y)
            + _log_density_closed_form(n, m, x, y + step)
            + _log_density_closed_form(n, m, x, y - step)
        )
        return (s - 4.0 * c) / step**2

    out = []
    for z in points:
        x, y = z.real, z.imag
        d1 = lap(x, y, h)
        d2 = lap(x, y, h / 2.0)
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
