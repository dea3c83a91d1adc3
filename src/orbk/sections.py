"""Spaces of holomorphic sections: invariant bases, Gram matrices, transforms.

Gram matrices of the catalog models are diagonal by torus symmetry; entries
are kept as logarithms because monomial norms underflow double precision well
before the powers the asymptotic checks need.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedBasisError, ModelSpecError
from .models import OrbifoldModel
from .quadrature import QuadratureRule, integrate_polar, integrate_radial


@dataclass(frozen=True)
class RadialBump:
    """C^2 compactly supported radial function A (1 - ((u-c)/w)^2)^3.

    u is the chart radial variable |z|^2; support is |u - c| < w intersected
    with u >= 0.
    """

    amplitude: float
    center: float = 0.0
    width: float = 1.0

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

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": self.model.params | {"kind": self.model.kind},
                "power": self.power,
                "basis": [list(b) for b in self.basis],
                "log_gram_diag": list(self.log_gram_diag),
            },
            sort_keys=True,
        )


def _log_integral(log_f, rule: QuadratureRule | None = None,
                  breakpoints=()) -> float:
    """log of integral of exp(log_f(r)) dr over [0, inf), overflow-safe."""
    rule = rule or QuadratureRule()
    r0, _ = rule.radial_points(rule.radial_nodes)
    with np.errstate(divide="ignore"):
        shift = float(np.max(log_f(r0)))
    if not math.isfinite(shift):
        raise ModelSpecError("degenerate norm integrand")

    def f(r):
        with np.errstate(divide="ignore"):
            lf = log_f(r)
        return np.exp(lf - shift)

    return shift + math.log(integrate_radial(f, rule, breakpoints=breakpoints))


def _log_norm(model: OrbifoldModel, m: int, e: int, phi: RadialBump | None,
              rule: QuadratureRule | None) -> float:
    """log norm^2 of the degree-m basis monomial read as t^e on chart u0.

    The integrand is t^e (1+t)^-m e^{-m phi(t)} against the (perturbed) volume
    density in t, over the quotient order q.
    """
    # The chart picks one of two float orderings of this integrand, the one
    # its model has always used: which Gram builds near the top degrees
    # converge depends on the integrand's last bit.  Merging the two waits for
    # the peak-aware Gram quadrature, which replaces this integrand.
    fold = model.charts[0].folds_measure and phi is None
    weight = m + 2 if fold else m
    log_q = math.log(model.quotient_order)

    def log_f(t):
        t = np.asarray(t, dtype=float)
        lf = e * np.log(t) - weight * np.log1p(t)
        if phi is not None:
            lf = lf - m * phi.value(t)
        if not fold:
            # density can only vanish on a null set; clamp for the log
            lf = lf + np.log(np.maximum(_perturbed_radial_density(t, phi), 1e-300))
        return lf - log_q

    breaks = ()
    if phi is not None:
        breaks = tuple(
            b for b in (phi.center - phi.width, phi.center + phi.width) if b > 0
        )
    return _log_integral(log_f, rule, breakpoints=breaks)


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
    of the radial variable t of chart u0 (|z|^2 on a football)."""
    t = np.linspace(0.0, 50.0, 4001)
    margin = float(np.min(_perturbed_radial_density(t, phi)))
    if margin <= 0.0:
        raise ModelSpecError(f"perturbed form not positive: margin {margin:.3e}")
    return _build(model, power, phi, rule)


def _build(model, power, phi, rule) -> SectionSpace:
    if power < 0:
        raise ModelSpecError("power must be non-negative")
    if power % model.bundle_step != 0:
        raise ModelSpecError(
            f"power {power} not a multiple of bundle step {model.bundle_step}"
        )
    basis = model.section_basis(power)
    if not basis:
        raise ModelSpecError(f"no sections in degree {power}")
    chart = model.charts[0]
    logs = [
        _log_norm(model, power, a[chart.fibre_index] * chart.root, phi, rule)
        for a in basis
    ]
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
