"""Radial and angular quadrature plus exact factorial norm integrals.

Scalar integrals over r in [0, inf) (pairings, the trace identity, polar Gram
entries) use the substitution s = r/(1+r), which maps the rational integrands
appearing there to polynomial-like functions on [0, 1); radial resolution is
doubled until two successive values agree.

Families of sharply peaked integrands, such as the monomial norms of a
section space, go through integrate_windows instead: every row gets its own
finite window around its peak, and all rows are integrated together on one
(rows x nodes) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import QuadratureError


def _piecewise_points(n: int, breakpoints):
    """Nodes/weights for [0, inf) split at the breakpoints.

    Finite pieces get plain Gauss-Legendre; the last piece [b, inf) uses the
    shifted substitution r = b + s/(1-s).
    """
    s, w = _leggauss(n)
    edges = [0.0] + list(breakpoints)
    rs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        rs.append(a + (b - a) * s)
        ws.append((b - a) * w)
    last = edges[-1]
    rs.append(last + s / (1.0 - s))
    ws.append(w / (1.0 - s) ** 2)
    return np.concatenate(rs), np.concatenate(ws)


@lru_cache(maxsize=32)
def _leggauss(n: int):
    # numpy's eigenvalue route needs no scipy.special import but is O(n^3),
    # so only the small orders of the window pass take it; scipy's Newton
    # iteration serves the rest
    if n <= 128:
        x, w = np.polynomial.legendre.leggauss(n)
    else:
        from scipy.special import roots_legendre
        x, w = roots_legendre(n)
    # map from [-1, 1] to [0, 1]
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre radial nodes (after s = r/(1+r)) and equispaced angles.

    radial_nodes is the first order of integrate_radial; rel_tol and
    max_radial_nodes bound integrate_windows as well.
    """

    radial_nodes: int = 200
    angular_nodes: int = 64
    rel_tol: float = 1e-11
    max_radial_nodes: int = 51200

    def angles(self):
        return 2.0 * np.pi * np.arange(self.angular_nodes) / self.angular_nodes


def integrate_radial(f, rule: QuadratureRule | None = None,
                     breakpoints: Sequence[float] = ()) -> float:
    """Integral of f over [0, inf) via the s = r/(1+r) substitution.

    f must accept a numpy array of radii and decay at least like (1+r)^-2.
    The node count is doubled until two successive values agree to rel_tol.
    breakpoints mark interior points where f loses smoothness (e.g. compact
    bump edges); the integral is then taken piecewise.
    """
    rule = rule or QuadratureRule()
    breakpoints = sorted(b for b in breakpoints if b > 0 and math.isfinite(b))
    n = rule.radial_nodes
    prev = None
    while True:
        r, w = _piecewise_points(n, breakpoints)
        vals = np.asarray(f(r))
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("non-finite integrand sample")
        total = math.fsum((w * vals.real).tolist())
        if np.iscomplexobj(vals):
            total = complex(total, math.fsum((w * vals.imag).tolist()))
        if prev is not None:
            scale = max(1.0, abs(total))
            if abs(total - prev) <= rule.rel_tol * scale:
                return total
        if n >= rule.max_radial_nodes:
            raise QuadratureError(
                f"radial quadrature failed to converge at {n} nodes"
            )
        prev = total
        n *= 2


WINDOW_NODES = 48  # first Gauss-Legendre order per window piece
# Integrand samples evaluated at once: rows go in chunks of at most this many
# samples, so the arrays stay at 16 kB whatever order a row needs.  Larger
# chunks save per-chunk overhead but raise the allocation peak of a build.
WINDOW_SAMPLES = 2048


def integrate_windows(log_f, edges, rule: QuadratureRule | None = None):
    """Per-row log of the integral of exp(log_f) over the row's own window.

    edges is a (rows, pieces + 1) array of nondecreasing points: row i is
    integrated over [edges[i, 0], edges[i, -1]], piecewise between its interior
    edges.  log_f(rows, x) returns the log integrand of the listed rows at x
    as a new array of the shape of x, (len(rows), k).  Each row is integrated
    with Gauss-Legendre at n and 2n nodes per piece, from n = WINDOW_NODES, and
    is accepted when the two values agree to rule.rel_tol; the rows that do
    not are doubled again, and QuadratureError is raised when the next order
    would pass rule.max_radial_nodes.

    Returns the logs and, per row, the order per piece it was accepted at.
    """
    rule = rule or QuadratureRule()
    edges = np.asarray(edges, dtype=float)
    logs = np.empty(len(edges))
    orders = np.zeros(len(edges), dtype=int)
    # the largest sample of its first pass scales each row to O(1)
    shift = np.full(len(edges), np.nan)
    rows = np.arange(len(edges))
    prev = None
    n = WINDOW_NODES
    while len(rows):
        s, w = _leggauss(n)
        total = np.empty(len(rows))
        chunk = max(1, WINDOW_SAMPLES // (n * (edges.shape[1] - 1)))
        for i in range(0, len(rows), chunk):
            part = rows[i:i + chunk]
            width = np.diff(edges[part], axis=1)
            x = width[:, :, None] * s
            x += edges[part, :-1, None]
            lf = log_f(part, x.reshape(len(part), -1))
            del x
            if prev is None:
                shift[part] = np.max(lf, axis=1)
            lf -= shift[part, None]
            vals = np.exp(lf, out=lf)
            if not np.all(np.isfinite(vals)):
                raise QuadratureError("non-finite integrand sample")
            vals = vals.reshape(width.shape + (n,))
            vals *= w
            total[i:i + chunk] = np.sum(np.sum(vals, axis=2) * width, axis=1)
            del lf, vals
        if prev is not None:
            done = np.abs(total - prev) <= rule.rel_tol * np.abs(total)
            with np.errstate(divide="ignore"):
                logs[rows[done]] = shift[rows[done]] + np.log(total[done])
            orders[rows[done]] = n
            rows, total = rows[~done], total[~done]
        if len(rows) and 2 * n > rule.max_radial_nodes:
            raise QuadratureError(f"window quadrature failed to converge at {n} nodes")
        prev = total
        n *= 2
    return logs, orders


def integrate_polar(f, rule: QuadratureRule | None = None) -> complex:
    """Integral over C of f(r, theta) r-measure style: int f dr dtheta/(2 pi).

    f takes (r, theta) broadcastable arrays; angular average is exact for
    trigonometric polynomials of degree < angular_nodes.
    """
    rule = rule or QuadratureRule()
    theta = rule.angles()

    def radial(r):
        vals = f(r[:, None], theta[None, :])
        return np.mean(vals, axis=1)

    return integrate_radial(radial, rule)


def monomial_norm_closed_form(n_order: int, N: int, k: int) -> Fraction:
    """Exact L^2 norm squared of the k-th invariant football monomial.

    Equals (nk)! (nN-nk)! / (n (nN+1)!) with n = n_order, the reciprocal
    square of the orthonormalization coefficient of Z_0^{nk} Z_1^{nN-nk}.
    """
    if not 0 <= k <= N:
        raise ValueError(f"k={k} outside [0, {N}]")
    n, m = n_order, n_order * N
    return Fraction(
        math.factorial(n * k) * math.factorial(m - n * k),
        n * math.factorial(m + 1),
    )
