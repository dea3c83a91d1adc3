"""Coefficient fitting, decay rates, distributional limits, potential recovery.

The expansion variable throughout is m, the degree in the ample generator; on
a football m = (order) * N so the smooth density is exactly m + 1 and the
leading coefficients are a_0 = a_1 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .bergman import (_log_terms, football_density_closed_form,
                      football_offdiagonal_closed_form)
from .errors import ModelSpecError, NoiseFloorError, QuadratureError, UnsupportedModelError
from .groups import GroupAction, lattice_blocks
from .index import b_coefficient
from .models import OrbifoldModel
from .quadrature import QuadratureRule, integrate_radial
from .sections import RadialBump, build_perturbed_space

NOISE_FLOOR = 1e-14
DECAY_MIN_POINTS = 5  # degrees a decay fit needs above the noise floor


@dataclass
class ExpansionFit:
    ms: list[int]
    terms: int
    coefficients: list[float]
    residuals: list[float]
    condition: float


@dataclass
class DecayFit:
    ms: list[int]
    log_residuals: list[float]
    slope: float
    r_squared: float
    delta_per_r: float
    delta_per_r2: float


@dataclass
class PairingResult:
    ms: list[int]
    values: list[float]
    limit: float
    reference: float
    errors: list[float]


def fit_expansion(ms, rhos, dim: int, terms: int, r_proxy: float | None = None,
                  tail_gate: float = 1e-12) -> ExpansionFit:
    """Least-squares fit of rho(m) against (m^dim, m^(dim-1), ...).

    Only m beyond the point where the estimated singular tail drops below
    tail_gate contribute; the Vandermonde is column-scaled and its condition
    checked.
    """
    ms = np.asarray(ms, dtype=float)
    rhos = np.asarray(rhos, dtype=float)
    keep = np.ones(len(ms), dtype=bool)
    if r_proxy is not None and r_proxy > 0:
        resid = np.abs(rhos - (ms + 1.0))
        good = resid > NOISE_FLOOR
        if np.count_nonzero(good) >= 5:
            slope, _ = np.polyfit(ms[good], np.log(resid[good]), 1)
            if slope < 0:
                keep = np.exp(slope * ms) * np.max(rhos) <= tail_gate * rhos
                if np.count_nonzero(keep) < terms + 3:
                    keep = np.ones(len(ms), dtype=bool)
    ms_f = ms[keep]
    rhos_f = rhos[keep]
    if len(ms_f) < terms + 3:
        raise ModelSpecError("m-range too short for the requested fit", field="m")
    cols = [ms_f ** (dim - j) for j in range(terms)]
    A = np.stack(cols, axis=1)
    scale = np.linalg.norm(A, axis=0)
    A_scaled = A / scale
    cond = np.linalg.cond(A_scaled)
    if cond > 1e10:
        raise ModelSpecError("reduce R or extend m-range", field="m")
    coef, *_ = np.linalg.lstsq(A_scaled, rhos_f, rcond=None)
    coef = coef / scale
    residuals = rhos_f - A @ coef
    return ExpansionFit(
        ms=[int(m) for m in ms_f],
        terms=terms,
        coefficients=list(coef),
        residuals=list(residuals),
        condition=float(cond),
    )


def fit_decay_rate(ms, rhos, r: float) -> DecayFit:
    """log-linear regression of |rho_m - (m+1)| against m near a singularity."""
    if len(ms) < DECAY_MIN_POINTS:
        raise ModelSpecError(
            f"{len(ms)} degrees, a decay fit needs at least {DECAY_MIN_POINTS}", field="m")
    ms = np.asarray(ms, dtype=float)
    resid = np.abs(np.asarray(rhos, dtype=float) - (ms + 1.0))
    good = resid > NOISE_FLOOR
    if np.count_nonzero(good) < DECAY_MIN_POINTS:
        raise NoiseFloorError("increase r or lower m")
    x = ms[good]
    y = np.log(resid[good])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if slope >= 0:
        raise NoiseFloorError("no decay detected; increase r or lower m")
    delta = -slope
    return DecayFit(
        ms=[int(m) for m in x],
        log_residuals=list(y),
        slope=float(slope),
        r_squared=r2,
        delta_per_r=delta / r,
        delta_per_r2=delta / r**2,
    )


def pair_with_test_function(
    model: OrbifoldModel,
    ms,
    phi: RadialBump,
    chart_id: str = "u0",
    rule: QuadratureRule | None = None,
) -> PairingResult:
    """Pairing of the singular density part with a radial test function.

    Computes int (rho_m - (m+1)) phi dV over the singular chart per m and
    Richardson-extrapolates the limit in 1/m; the reference is b * phi(0).
    """
    n = model.football_order()
    if n < 2:
        raise UnsupportedModelError("smooth model has no singular part")
    point = model.singular_point(chart_id)
    if phi.support_max >= 1e6:
        raise ModelSpecError("test function support touches chart boundary",
                             field="width")

    def value(m):
        def f(u):
            tail = football_offdiagonal_closed_form(n, m, u)
            return tail * phi.value(u) / (n * (1.0 + u) ** 2)

        try:
            return integrate_radial(f, rule)
        except QuadratureError as exc:
            raise QuadratureError(f"pairing integral at degree {m}: {exc}", field="m") from exc

    values = {m: value(m) for m in ms}
    ms_sorted = sorted(values)
    vals = [values[m] for m in ms_sorted]
    if len(vals) >= 2:
        m1, m2 = ms_sorted[-2], ms_sorted[-1]
        limit = (m2 * vals[-1] - m1 * vals[-2]) / (m2 - m1)
    else:
        limit = vals[-1]
    ref = b_coefficient(point).value * float(phi.value(0.0))
    return PairingResult(
        ms=list(ms_sorted),
        values=vals,
        limit=limit,
        reference=ref,
        errors=[abs(v - ref) for v in vals],
    )


def recover_potential(
    model: OrbifoldModel,
    phi: RadialBump,
    ms,
    grid: np.ndarray | None = None,
) -> dict[int, float]:
    """sup-norm curve of |phi - (1/m) log(rho~_m / (m+1))| over a chart grid.

    rho~ is the density of the phi-perturbed orthonormal basis measured with
    the unperturbed metric h.  The grid holds values of the radial variable t
    of chart u0 (|z|^2 on a football).
    """
    if grid is None:
        grid = np.linspace(0.0, 10.0, 200)
    t = np.asarray(grid, dtype=float)
    target = phi.value(t)

    def sup_for(m):
        logs = _log_terms(build_perturbed_space(model, m, phi), t)
        mx = np.max(logs, axis=0)
        rho_log = mx + np.log(np.sum(np.exp(logs - mx[None, :]), axis=0))
        return float(np.max(np.abs(target - (rho_log - math.log(m + 1)) / m)))

    return {m: sup_for(m) for m in sorted(ms)}


def lower_bound_scan(
    model: OrbifoldModel,
    ms,
    grid: np.ndarray | None = None,
) -> tuple[dict[int, float], float]:
    """Per-m minimum of rho_m / (m+1)^dim over the grid, and the overall inf."""
    n = model.football_order()
    if grid is None:
        grid = np.linspace(0.0, 10.0, 200)

    def min_for(m):
        return float(np.min(football_density_closed_form(n, m, grid) / (m + 1) ** model.dim))

    mins = {m: min_for(m) for m in sorted(ms)}
    return mins, min(mins.values())


def character_sum_bound(
    action: GroupAction, z, m: int
) -> tuple[float, float]:
    """Both sides of the finite-group positivity identity at z.

    orbit side: sum_g ((1 + <gz, z>)/(1 + |z|^2))^m over the group;
    invariant side: |G| * sum over invariant multi-indices of the multinomial
    term.  Character orthogonality makes them equal.  A multi-index with
    alpha_j > 0 where z_j = 0 has a zero term, so the invariant side expands
    only the coordinates with z_j != 0 plus the remainder m - |alpha|, masks
    that lattice with the group's integer weights, takes each term in log
    space from a log-factorial table, and sums with math.fsum, so the value
    does not depend on how the lattice is blocked.
    """
    if action.order > 24 or m > 200 or action.dim > 3:
        raise ModelSpecError("character-sum bound limited to desk scale")
    z = np.asarray(z, dtype=complex)
    norm2 = float(np.sum(np.abs(z) ** 2))
    orbit = 0.0 + 0.0j
    for g in range(action.order):
        diag = action.element_matrix_diagonal(g)
        inner = sum(d * abs(zz) ** 2 for d, zz in zip(diag, z))
        orbit += ((1.0 + inner) / (1.0 + norm2)) ** m
    if abs(orbit.imag) >= 1e-10 * max(1.0, abs(orbit.real)):
        raise AssertionError("orbit sum should be real")

    coords = [j for j, zz in enumerate(z) if abs(zz) > 0]
    log_abs2 = [math.log(abs(z[j]) ** 2) for j in coords]
    lgf = np.array([math.lgamma(k + 1) for k in range(m + 1)])  # log k!
    lm, shift = lgf[m], m * math.log1p(norm2)

    def block_terms(block):  # rows (alpha at coords, m - |alpha|)
        block = block[action.invariant_mask(block, coords)]
        lt = lm - lgf[block[:, -1]]
        for i, la in enumerate(log_abs2):
            lt += block[:, i] * la - lgf[block[:, i]]
        return np.exp(lt - shift).tolist()

    blocks = lattice_blocks(len(coords) + 1, m)
    invariant = math.fsum(chain.from_iterable(map(block_terms, blocks)))
    return orbit.real, invariant * action.order
