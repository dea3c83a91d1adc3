"""Spaces of holomorphic sections: invariant bases, Gram matrices, transforms.

Gram matrices of the catalog models are diagonal by torus symmetry; entries
are kept as logarithms because monomial norms underflow double precision well
before the powers the asymptotic checks need.

Every entry is the norm of a monomial read as t^e on chart u0.  In
x = t/(1+t) its integrand is x^e (1-x)^(m-e), a peak at the Laplace point
x* = e/m of width ~ 1/sqrt(m), so all entries of a space are integrated in
one batched pass, each on a window around its own peak (see _log_norms).
A radial bump moves each peak; the window is then centred on the moved one.
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

    def _shape(self, u):
        """s = (u - c)/w, p = 1 - s^2 and the support mask |s| < 1."""
        s = (np.asarray(u, dtype=float) - self.center) / self.width
        return s, 1.0 - s * s, np.abs(s) < 1.0

    def value(self, u):
        s, p, inside = self._shape(u)
        return np.where(inside, self.amplitude * (p * p * p), 0.0)

    def derivative(self, u):
        s, p, inside = self._shape(u)
        return np.where(inside, -6.0 * self.amplitude * s * (p * p) / self.width, 0.0)

    def second_derivative(self, u):
        s, p, inside = self._shape(u)
        return np.where(
            inside, -6.0 * self.amplitude * p * (1.0 - 5.0 * s * s) / self.width**2, 0.0)

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
# A bumped row's peak is bracketed on one of this many cells of the support
# before Newton steps; peak and edge searches take at most _NEWTON_STEPS, and
# an edge stops within _EDGE_SLACK of its level (any iterate is sound).
_PEAK_CELLS = 64
_NEWTON_STEPS = 12
_EDGE_SLACK = 0.25


def _log_bump_factor(t, phi: RadialBump, m: int):
    """log of e^{-m phi(t)} rho(t) (1+t)^2, the factor a bump puts on the
    degree-m norm integrand in x = t/(1+t); rho is the perturbed density
    _perturbed_radial_density, (1+t)^-2 without the bump."""
    # the form is positive (_factor_range); clamp for the log
    rho = np.maximum(_perturbed_radial_density(t, phi), 1e-300)
    return -m * phi.value(t) + np.log(rho) + 2.0 * np.log1p(t)


def _factor_range(phi: RadialBump) -> tuple[float, float]:
    """Least and greatest value of rho(t) (1+t)^2 over t >= 0, rho the
    perturbed density; ModelSpecError (on amplitude) if the least is not
    positive, i.e. the perturbed form is not a Kahler form.

    Off the support the product is 1.  On it, 1 + (1+t)^2 (phi' + t phi'')
    is a polynomial of degree 7 in s = (t-c)/w, whose extremes over
    [max(-1, -c/w), 1] lie at the ends or at real roots of its derivative;
    the real part of every root is tried, which only adds points.
    """
    amp, c, w = phi.amplitude, phi.center, phi.width
    values = np.ones(1)
    s_min = max(-1.0, -c / w)
    if s_min < 1.0:
        # coefficients from the constant term up: (1+t)^2 (1-s^2) times
        # s (1-s^2) + (c/w + s)(1 - 5 s^2), the bracket of phi' + t phi''
        poly = np.convolve(np.convolve([1.0 + c, w], [1.0 + c, w]), [1.0, 0.0, -1.0])
        poly = -6.0 * amp / w * np.convolve(poly, [c / w, 2.0, -5.0 * c / w, -6.0])
        poly[0] += 1.0
        crit = np.roots((poly[1:] * np.arange(1, len(poly)))[::-1])
        s = np.concatenate([[s_min, 1.0], np.clip(crit.real, s_min, 1.0)])
        values = np.concatenate([values, np.polynomial.polynomial.polyval(s, poly)])
    low, high = float(np.min(values)), float(np.max(values))
    if low <= 0.0:
        raise ModelSpecError(f"perturbed form not positive: rho (1+t)^2 reaches {low:.3e}",
                             field="amplitude")
    return low, high


def _window(a, b, m: int, depth: float):
    """Offsets (left, right) from the peak x* = a/m of x^a (1-x)^b on [0, 1]
    beyond which its log lies more than depth below the peak value: the
    window of an unperturbed row.

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


def _peaks(phi: RadialBump, y, t_lo: float, t_hi: float):
    """The t in (t_lo, t_hi) with k(t) = t/(1+t) + t phi'(t) = y, for y
    strictly between k(t_lo) and k(t_hi): k increases (its derivative is
    rho), so y is bracketed by one cell of a grid on [t_lo, t_hi], and
    Newton steps stay in that cell."""
    t_grid = np.linspace(t_lo, t_hi, _PEAK_CELLS + 1)
    k_grid = t_grid / (1.0 + t_grid) + t_grid * phi.derivative(t_grid)
    j = np.searchsorted(k_grid, y)
    lo, hi = t_grid[j - 1], t_grid[j]
    t = lo + (hi - lo) * (y - k_grid[j - 1]) / (k_grid[j] - k_grid[j - 1])
    for _ in range(_NEWTON_STEPS):
        step = (t / (1.0 + t) + t * phi.derivative(t) - y) / _perturbed_radial_density(t, phi)
        t = np.clip(t - step, lo, hi)
        if np.all(np.abs(step) <= 1e-12 * (1.0 + t)):
            break
    return t


def _newton_edges(phi: RadialBump, m: int, a, level, tau):
    """Newton steps on g(tau) = a tau - m psi(e^tau) - level, psi = log(1+t) +
    phi, from points tau where g <= 0.  g is concave, so each step keeps
    g <= 0 and moves towards the nearer root; stops once every g is within
    _EDGE_SLACK of 0."""
    for _ in range(_NEWTON_STEPS):
        t = np.exp(tau)
        g = a * tau - m * (np.log1p(t) + phi.value(t)) - level
        if np.all(g >= -_EDGE_SLACK):
            break
        tau = tau - g / (a - m * (t / (1.0 + t) + t * phi.derivative(t)))
    return tau


def _bump_windows(phi: RadialBump, m: int, a, b, depth: float):
    """Peak (x^, 1 - x^) of each row's bumped integrand and the offsets
    (left, right) from x^ of its window, the points where the main part
    L = a log t - m psi(t) lies depth below L(x^) (see _log_norms)."""
    scale = max(m, 1)
    xs, cxs = a / scale, (scale - a) / scale
    with np.errstate(divide="ignore"):
        t_hat = xs / cxs  # off the support the peak is the unperturbed one
    t_lo, t_hi = max(0.0, phi.center - phi.width), max(0.0, phi.center + phi.width)
    bumped = (t_lo / (1.0 + t_lo) < xs) & (xs < t_hi / (1.0 + t_hi))
    if bumped.any():
        t = _peaks(phi, xs[bumped], t_lo, t_hi)
        t_hat[bumped] = t
        xs[bumped], cxs[bumped] = t / (1.0 + t), 1.0 / (1.0 + t)
    with np.errstate(invalid="ignore"):  # t^ = inf where b = 0: phi is 0 there
        phi_hat = phi.value(t_hat)
    level = (a * np.log(np.where(a > 0, xs, 1.0)) + b * np.log(np.where(b > 0, cxs, 1.0))
             - m * phi_hat - depth)
    # Starts with g <= 0: t psi' is 0 at t = 0 and has derivative rho > 0,
    # so psi increases and L <= a tau - m psi(0); right of the support
    # phi = 0 and L <= -b tau.
    left, right = a > 0, b > 0
    start = np.concatenate([
        (level[left] + m * float(phi.value(0.0))) / a[left],
        np.maximum(math.log(t_hi) if t_hi > 0 else -math.inf, -level[right] / b[right])])
    tau = _newton_edges(phi, m, np.concatenate([a[left], a[right]]),
                        np.concatenate([level[left], level[right]]), start)
    lo, hi = -xs, cxs.copy()  # x = 0 and x = 1 where a row has no edge there
    lo[left] = 1.0 / (1.0 + np.exp(-tau[:np.count_nonzero(left)])) - xs[left]
    hi[right] = cxs[right] - 1.0 / (1.0 + np.exp(tau[np.count_nonzero(left):]))
    return xs, cxs, lo, hi


def _bump_groups(phi: RadialBump, xs, lo, hi):
    """Rows by integrand and pieces: (rows, edges, bumped) with edges the
    window split at every bump edge strictly inside it; rows whose window
    misses the support carry no bump factor."""
    ends = [e / (1.0 + e) if e > 0 else 0.0 for e in (phi.center - phi.width,
                                                     phi.center + phi.width)]
    offsets = np.column_stack([x - xs for x in ends])
    touch = (lo < offsets[:, 1]) & (hi > offsets[:, 0])
    inner = (lo[:, None] < offsets) & (offsets < hi[:, None]) & (np.array(ends) > 0.0)
    count = np.count_nonzero(inner, axis=1)
    breaks = np.sort(np.where(inner, offsets, np.inf), axis=1)  # inner ones first
    groups = [(np.flatnonzero(~touch), np.column_stack([lo, hi])[~touch], False)]
    for k in range(len(ends) + 1):
        rows = np.flatnonzero(touch & (count == k))
        groups.append((rows, np.column_stack([lo[rows], breaks[rows, :k], hi[rows]]), True))
    return [group for group in groups if len(group[0])]


def _log_norms(model: OrbifoldModel, m: int, basis, phi: RadialBump | None,
               rule: QuadratureRule | None):
    """log norm^2 of the degree-m basis monomials, each read as t^e on chart
    u0, and the Gauss-Legendre order each was accepted at.

    The integrand t^e (1+t)^-m (1+t)^-2 dt / q is x^e (1-x)^(m-e) dx / q in
    x = t/(1+t), times _log_bump_factor under a bump.  Each row is integrated
    in the offset d = x - x^ from its peak x^ over a window outside which the
    integrand weighs less than e^-40 of its peak.

    Unperturbed, x^ = e/m and the window is _window.  Under a bump phi the
    main part L = a log x + b log(1-x) - m phi(t), a = e, b = m - e, is
    a tau - m psi(e^tau) in tau = log t with psi = log(1+t) + phi, and
    L'' = -m t rho(t) < 0 in tau wherever the form is positive
    (_factor_range).  So L is strictly concave: x^ solves x + t phi'(t) = a/m
    (_peaks), {L >= L(x^) - depth} is one interval, and Newton from outside
    reaches its edges (_newton_edges).  The rest of the integrand, log of
    rho (1+t)^2, does not depend on m, so depth = 40 + its spread.  Rows
    with a = 0 or b = 0 peak at x = 0 or 1 and have one edge.  A window is
    split at the bump edges strictly inside it, and rows whose window misses
    the support carry no bump factor.
    """
    chart = model.charts[0]
    scale = max(m, 1)  # m = 0: the constant integrand on [0, 1]
    log_q = math.log(model.quotient_order)
    if phi is not None:
        low, high = _factor_range(phi)
        depth = _DEPTH + math.log(high) - math.log(low)
    logs, orders = [], []
    for start in range(0, len(basis), _BLOCK):
        a = chart.root * np.array([alpha[chart.fibre_index]
                                   for alpha in basis[start:start + _BLOCK]], dtype=float)
        b = m - a
        if phi is None:
            xs, cxs = a / scale, (scale - a) / scale  # x* and 1 - x*
            lo, hi = _window(a, b, m, _DEPTH)
            groups = [(np.arange(len(a)), np.column_stack([lo, hi]), False)]
        else:
            xs, cxs, lo, hi = _bump_windows(phi, m, a, b, depth)
            groups = _bump_groups(phi, xs, lo, hi)
        # x^ where a = 0 and 1 - x^ where b = 0 only meet zero exponents
        xs_safe = np.where(a > 0, xs, 1.0)
        cxs_safe = np.where(b > 0, cxs, 1.0)
        block, nodes = np.empty(len(a)), np.empty(len(a), dtype=int)
        for sel, edges, bumped in groups:
            def log_f(rows, d, sel=sel, bumped=bumped):
                # a log1p(d / x^) + b log1p(-d / (1 - x^)), in place
                rows = sel[rows]
                lf = d / xs_safe[rows, None]
                rest = d / -cxs_safe[rows, None]
                with np.errstate(divide="ignore"):
                    np.log1p(lf, out=lf)
                    np.log1p(rest, out=rest)
                lf *= a[rows, None]
                rest *= b[rows, None]
                lf += rest
                if bumped:
                    lf += _log_bump_factor((xs[rows, None] + d) / (cxs[rows, None] - d),
                                           phi, m)
                return lf

            block[sel], nodes[sel] = integrate_windows(log_f, edges, rule)
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
    of the radial variable t of chart u0 (|z|^2 on a football), and the
    perturbed form must be positive (ModelSpecError on amplitude if not)."""
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
