"""Spaces of holomorphic sections: invariant bases, Gram matrices, transforms.

Gram matrices of the catalog models are diagonal by torus symmetry; entries
are kept as logarithms because monomial norms underflow double precision well
before the powers the asymptotic checks need.

Every entry is the norm of a monomial read as t^e on chart u0.  In
x = t/(1+t) its integrand is x^e (1-x)^(m-e), a peak at the Laplace point
x* = e/m of width ~ 1/sqrt(m), so all entries of a space are integrated in
one batched pass, each on a window around its own peak (see _log_norms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedBasisError, ModelSpecError, ParameterError
from .models import OrbifoldModel
from .quadrature import QuadratureRule, integrate_polar, integrate_windows


@dataclass(frozen=True)
class RadialBump:
    """C^2 compactly supported radial function A (1 - ((u-c)/w)^2)^3.

    u is the chart radial variable |z|^2; support is |u - c| < w intersected
    with u >= 0.
    """

    amplitude: float
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        for field in ("amplitude", "center", "width"):
            if not math.isfinite(getattr(self, field)):
                raise ParameterError(f"{field} must be finite", field=field)
        if self.width <= 0:
            raise ParameterError("width must be positive", field="width")

    def value(self, u):
        s = (np.asarray(u, dtype=float) - self.center) / self.width
        inside = np.abs(s) < 1.0
        return np.where(inside, self.amplitude * (1.0 - s**2) ** 3, 0.0)

    def derivative(self, u):
        s = (np.asarray(u, dtype=float) - self.center) / self.width
        inside = np.abs(s) < 1.0
        return np.where(
            inside, -6.0 * self.amplitude * s * (1.0 - s**2) ** 2 / self.width, 0.0
        )

    def second_derivative(self, u):
        s = (np.asarray(u, dtype=float) - self.center) / self.width
        inside = np.abs(s) < 1.0
        return np.where(
            inside,
            -6.0 * self.amplitude * (1.0 - s**2) * (1.0 - 5.0 * s**2) / self.width**2,
            0.0,
        )

    @property
    def support_max(self) -> float:
        return self.center + self.width


def _perturbed_radial_density(t, phi: RadialBump | None):
    """Density in t of the (perturbed) Kahler form: d/dt[t d(log(1+t)+phi)/dt]."""
    t = np.asarray(t, dtype=float)
    base = 1.0 / (1.0 + t) ** 2
    if phi is None:
        return base
    return base + phi.derivative(t) + t * phi.second_derivative(t)


@dataclass(frozen=True)
class SectionSpace:
    """Orthonormalized basis data for H^0(M, generator^power)."""

    model: OrbifoldModel
    power: int  # degree m in the ample generator
    basis: tuple[tuple[int, ...], ...]
    log_gram_diag: tuple[float, ...]
    perturbation: RadialBump | None = None
    # Gauss-Legendre order per window piece each diagonal entry was accepted at
    quadrature_nodes: tuple[int, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def gram(self) -> np.ndarray:
        return np.diag(np.exp(np.asarray(self.log_gram_diag)))

    @property
    def transform(self) -> np.ndarray:
        """T with T* G T = I (diagonal by torus symmetry)."""
        return np.diag(np.exp(-0.5 * np.asarray(self.log_gram_diag)))


# Rows whose per-row data (exponents, peaks, windows) is held at once.
_BLOCK = 256
# A window holds every point where the log integrand is within this of its
# peak; what lies outside weighs less than e^-40 of the peak.
_DEPTH = 40.0


def _log_bump_factor(t, phi: RadialBump, m: int):
    """log of e^{-m phi(t)} rho(t) (1+t)^2, the factor a bump puts on the
    degree-m norm integrand in x = t/(1+t); rho is the perturbed density
    _perturbed_radial_density, (1+t)^-2 without the bump."""
    # the form is positive (checked on a grid); clamp for the log
    rho = np.maximum(_perturbed_radial_density(t, phi), 1e-300)
    return -m * phi.value(t) + np.log(rho) + 2.0 * np.log1p(t)


def _window(a, b, m: int, depth: float):
    """Offsets (left, right) from the peak x* = a/m of x^a (1-x)^b on [0, 1]
    beyond which its log lies more than depth below the peak value.

    With u = m d / a, v = m d / b and log1p(u) <= u - u^2/(2(1+u)) for u >= 0,
    log1p(u) <= u - u^2/2 for -1 < u <= 0, the log at offset d > 0 is at most
    -a u^2/(2(1+u)) and -(m d)^2/(2b); mirrored for d < 0.
    """
    if m == 0:
        return np.zeros_like(a), np.ones_like(a)

    def reach(near, far):
        return np.minimum(depth + np.sqrt(depth * (depth + 2.0 * near)),
                          np.sqrt(2.0 * depth * far)) / m

    return -np.minimum(reach(b, a), a / m), np.minimum(reach(a, b), b / m)


def _log_norms(model: OrbifoldModel, m: int, basis, phi: RadialBump | None,
               rule: QuadratureRule | None):
    """log norm^2 of the degree-m basis monomials, each read as t^e on chart
    u0, and the Gauss-Legendre order each was accepted at.

    The integrand t^e (1+t)^-m (1+t)^-2 dt / q is x^e (1-x)^(m-e) dx / q in
    x = t/(1+t), times _log_bump_factor under a bump.  Each row is integrated
    in the offset d = x - x* from its peak x* = e/m, over its _window, split
    at the bump edges.  A bump moves the log integrand by at most the spread
    of its factor, so the window depth grows by that spread.
    """
    depth, breaks = _DEPTH, []
    if phi is not None:
        t = np.linspace(0.0, max(50.0, phi.support_max), 4001)
        margin = float(np.min(_perturbed_radial_density(t, phi)))
        if margin <= 0.0:
            raise ModelSpecError(f"perturbed form not positive: margin {margin:.3e}",
                                 field="amplitude")
        depth += float(np.ptp(_log_bump_factor(t, phi, m)))
        breaks = [edge / (1.0 + edge)
                  for edge in (phi.center - phi.width, phi.center + phi.width) if edge > 0]
    chart = model.charts[0]
    scale = max(m, 1)  # m = 0: the constant integrand on [0, 1]
    log_q = math.log(model.quotient_order)
    logs, orders = [], []
    for start in range(0, len(basis), _BLOCK):
        a = chart.root * np.array([alpha[chart.fibre_index]
                                   for alpha in basis[start:start + _BLOCK]], dtype=float)
        b = m - a
        xs, cxs = a / scale, (scale - a) / scale  # x* and 1 - x*
        # x* where a = 0 and 1 - x* where b = 0 only meet zero exponents
        xs_safe = np.where(a > 0, xs, 1.0)
        cxs_safe = np.where(b > 0, cxs, 1.0)
        lo, hi = _window(a, b, m, depth)
        edges = np.column_stack([lo] + [np.clip(x - xs, lo, hi) for x in breaks] + [hi])

        def log_f(rows, d):
            # a log1p(d / x*) + b log1p(-d / (1 - x*)), in place
            lf = d / xs_safe[rows, None]
            rest = d / -cxs_safe[rows, None]
            with np.errstate(divide="ignore"):
                np.log1p(lf, out=lf)
                np.log1p(rest, out=rest)
            lf *= a[rows, None]
            rest *= b[rows, None]
            lf += rest
            if phi is not None:
                lf += _log_bump_factor((xs[rows, None] + d) / (cxs[rows, None] - d), phi, m)
            return lf

        block, nodes = integrate_windows(log_f, edges, rule)
        peak = a * np.log(xs_safe) + b * np.log(cxs_safe) - log_q
        logs.extend((peak + block).tolist())
        orders.extend(nodes.tolist())
    return logs, orders


def build_section_space(
    model: OrbifoldModel,
    power: int,
    rule: QuadratureRule | None = None,
) -> SectionSpace:
    """Invariant monomial basis of H^0 with its quadrature Gram matrix."""
    return _build(model, power, None, rule)


def build_perturbed_space(
    model: OrbifoldModel,
    power: int,
    phi: RadialBump,
    rule: QuadratureRule | None = None,
) -> SectionSpace:
    """Like build_section_space but with weight h^m e^{-m phi} and volume of
    the perturbed form; the basis monomials are unchanged.  phi is a function
    of the radial variable t of chart u0 (|z|^2 on a football), and the form
    must be positive on [0, max(50, phi.support_max)]."""
    return _build(model, power, phi, rule)


def _build(model, power, phi, rule) -> SectionSpace:
    if power < 0:
        raise ModelSpecError("power must be non-negative", field="m")
    if power % model.bundle_step != 0:
        raise ModelSpecError(
            f"power {power} not a multiple of bundle step {model.bundle_step}", field="m")
    basis = model.section_basis(power)
    if not basis:
        raise ModelSpecError(f"no sections in degree {power}", field="m")
    logs, nodes = _log_norms(model, power, basis, phi, rule)
    # the Gram matrix is diagonal, so the orthonormalizing solve is entrywise
    # and its effective (correlation) condition number is 1; only degenerate
    # entries make the basis unusable
    if any(not math.isfinite(x) for x in logs):
        raise IllConditionedBasisError("ill-conditioned basis")
    return SectionSpace(
        model=model,
        power=power,
        basis=tuple(basis),
        log_gram_diag=tuple(logs),
        perturbation=phi,
        quadrature_nodes=tuple(nodes),
    )


def gram_entry_polar(model: OrbifoldModel, power: int, alpha, beta,
                     rule: QuadratureRule | None = None) -> complex:
    """Full polar-quadrature Gram entry <z^alpha, z^beta> on chart u0.

    Exposes the off-diagonal entries so torus orthogonality can be verified
    rather than assumed; intended for modest powers.
    """
    chart = model.charts[0]
    a, b = alpha[chart.fibre_index], beta[chart.fibre_index]
    half_e = (a + b) * chart.root / 2.0
    rule = rule or QuadratureRule(angular_nodes=2 * power + 5)

    def f(t, theta):
        radial = np.exp(half_e * np.log(t) - (power + 2) * np.log1p(t))
        return np.exp(1j * (a - b) * theta) * radial / model.quotient_order

    return complex(integrate_polar(f, rule))
