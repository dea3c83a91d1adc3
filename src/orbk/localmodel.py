"""Discrete verification of the Bargmann-type model operator and phase data.

R maps functions on the periodic y-grid to functions on the (x, y)-grid mode
by mode: f^(eta) -> f^(eta) e^{-x^2 eta/2} (eta/pi)^{1/4}, on positive
frequencies only.  Negative and zero modes lie outside the model's frequency
cone and are annihilated (and reported).

R, D_0 and R* R are diagonal in the y-frequency, so check_identities
evaluates both identities per mode via Parseval: one FFT of the whole suite
and two weight vectors per grid.  apply_R, apply_R_star and apply_D0 are the
grid-space operators and the reference for those per-mode sums.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class ModelGrid:
    x_points: int = 512
    y_points: int = 256
    x_max: float = 6.0

    def __post_init__(self):
        if self.x_points < 2:
            raise ParameterError("x_points must be at least 2", field="x_points")
        if self.y_points < 1 or self.y_points & (self.y_points - 1) != 0:
            raise ParameterError("y_points must be a power of two", field="y_points")
        if self.x_max < 6.0:
            raise ParameterError("x_max must be at least 6 for negligible tails",
                                 field="x_max")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.x_max, self.x_max, self.x_points)

    @property
    def hx(self) -> float:
        return 2.0 * self.x_max / (self.x_points - 1)

    @property
    def y(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.y_points) / self.y_points

    @property
    def etas(self) -> np.ndarray:
        """Signed integer frequencies in FFT order."""
        return np.fft.fftfreq(self.y_points, d=1.0 / self.y_points)

    def positive_mask(self) -> np.ndarray:
        e = self.etas
        return (e > 0) & (e < self.y_points // 2)


def _check_band_limited(grid: ModelGrid, fhat: np.ndarray) -> bool:
    q = grid.y_points
    top = np.abs(grid.etas) >= q // 4
    peak = np.max(np.abs(fhat))
    if peak == 0:
        return True
    if np.max(np.abs(fhat[top])) > 1e-10 * peak:
        warnings.warn("input not band-limited; accuracy not guaranteed")
        return False
    return True


def apply_R(grid: ModelGrid, f: np.ndarray) -> np.ndarray:
    """R f on the (x, y) grid; f is sampled on the y grid."""
    fhat = np.fft.fft(f) / grid.y_points
    _check_band_limited(grid, fhat)
    x = grid.x
    mask = grid.positive_mask()
    etas = grid.etas[mask]
    coef = fhat[mask] * (etas / np.pi) ** 0.25
    gauss = np.exp(-0.5 * np.outer(x**2, etas))      # (x, eta)
    phases = np.exp(1j * np.outer(etas, grid.y))     # (eta, y)
    return (gauss * coef[None, :]) @ phases


def apply_R_star(grid: ModelGrid, g: np.ndarray) -> np.ndarray:
    """Adjoint of R: functions on (x, y) back to the y grid (positive modes)."""
    ghat = np.fft.fft(g, axis=1) / grid.y_points
    mask = grid.positive_mask()
    etas = grid.etas[mask]
    gauss = np.exp(-0.5 * np.outer(grid.x**2, etas))
    integ = grid.hx * np.sum(gauss * ghat[:, mask], axis=0)
    fhat = np.zeros(grid.y_points, dtype=complex)
    fhat[mask] = integ * (etas / np.pi) ** 0.25
    return np.fft.ifft(fhat * grid.y_points)


def _dx4(grid: ModelGrid, g: np.ndarray) -> np.ndarray:
    """4th-order central x-derivative along axis 0, zero-padded (Gaussian tails vanish)."""
    p = np.zeros((g.shape[0] + 4,) + g.shape[1:], dtype=g.dtype)
    p[2:-2] = g
    return (-p[4:] + 8.0 * p[3:-1] - 8.0 * p[1:-3] + p[:-4]) / (12.0 * grid.hx)


def _abs_dy(grid: ModelGrid, g: np.ndarray) -> np.ndarray:
    ghat = np.fft.fft(g, axis=1)
    return np.fft.ifft(ghat * np.abs(grid.etas)[None, :], axis=1)


def apply_D0(grid: ModelGrid, g: np.ndarray) -> np.ndarray:
    """D_0 g = (1/i)(d/dx + x |D_y|) g."""
    return (_dx4(grid, g) + grid.x[:, None] * _abs_dy(grid, g)) / 1j


def _mode_weights(grid: ModelGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per positive mode eta: the D_0 R weight w(eta) and the R* R multiplier M(eta).

    Mode eta of R f is f^(eta) (eta/pi)^{1/4} G with G = e^{-x^2 eta/2} on the
    x grid, and D_0 acts on it as (dx4 + x eta)/i.  So
    |D_0 R f|^2 = 2 pi sum_eta |f^(eta)|^2 w(eta) with
    w = h_x (eta/pi)^{1/2} sum_x |dx4 G + x eta G|^2, and R* R multiplies
    f^(eta) by M = h_x (eta/pi)^{1/2} sum_x G^2.
    """
    etas = grid.etas[grid.positive_mask()]
    x = grid.x
    gauss = np.exp(-0.5 * np.outer(x**2, etas))      # (x, eta), real
    d0 = _dx4(grid, gauss) + np.outer(x, etas) * gauss
    scale = grid.hx * np.sqrt(etas / np.pi)
    return scale * np.sum(d0 * d0, axis=0), scale * np.sum(gauss * gauss, axis=0)


@dataclass
class IdentityReport:
    d0_residuals: list[float]
    rstar_r_residuals: list[float]
    outside_cone_fractions: list[float]
    checked: int  # functions with a positive-frequency part; the rest read 0

    @property
    def max_d0(self) -> float:
        return max(self.d0_residuals)

    @property
    def max_rstar_r(self) -> float:
        return max(self.rstar_r_residuals)


def check_identities(grid: ModelGrid, test_functions: list[np.ndarray]) -> IdentityReport:
    """Relative residuals of D_0 R = 0 and R* R = I on the test suite.

    Residuals are measured against the positive-frequency part of each input;
    the annihilated (zero/negative frequency) fraction is reported separately.
    R, D_0 and R* R act mode by mode, so by Parseval each squared norm is a
    weighted sum of |f^(eta)|^2 over one FFT of the whole suite; no (x, y)
    array is built.  apply_R, apply_D0 and apply_R_star give the same figures
    on the grid.
    """
    suite = np.asarray(test_functions, dtype=complex).reshape(len(test_functions),
                                                               grid.y_points)
    fhat = np.fft.fft(suite, axis=1) / grid.y_points
    power = np.abs(fhat) ** 2
    mask = grid.positive_mask()
    inside = power[:, mask]
    n_in = np.sqrt(np.sum(inside, axis=1))
    n_out = np.sqrt(np.sum(power[:, ~mask], axis=1))
    n_all = np.sqrt(np.sum(power, axis=1))
    checked = n_in > 1e-12 * n_all
    for row in fhat[checked]:  # one warning per checked function, as apply_R gives
        _check_band_limited(grid, row)
    d0_weight, multiplier = _mode_weights(grid)
    norm = np.where(checked, n_in, 1.0)
    d0 = np.where(checked, np.sqrt(inside @ d0_weight) / norm, 0.0)
    rr = np.where(checked, np.sqrt(inside @ (multiplier - 1.0) ** 2) / norm, 0.0)
    return IdentityReport(
        d0_residuals=d0.tolist(),
        rstar_r_residuals=rr.tolist(),
        outside_cone_fractions=(n_out / np.where(n_all > 0, n_all, 1.0)).tolist(),
        checked=int(np.count_nonzero(checked)),
    )


def default_suite(grid: ModelGrid, seed: int = 7) -> list[np.ndarray]:
    """Band-limited suite: low single modes plus positive-frequency packets."""
    y = grid.y
    fs = [np.exp(1j * k * y) for k in (1, 2, 3)]
    rng = np.random.default_rng(seed)
    for center in (1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6):
        width = 0.6
        fhat = np.zeros(grid.y_points, dtype=complex)
        etas = grid.etas
        mask = grid.positive_mask()
        amp = np.exp(-((etas - center) ** 2) / (2.0 * width**2))
        phase = np.exp(2j * np.pi * rng.random(grid.y_points))
        fhat[mask] = (amp * phase)[mask]
        fs.append(np.fft.ifft(fhat * grid.y_points))
    return fs


def phase_function(t: complex, theta: complex) -> complex:
    """Diagonal reduced phase (t/i)(e^{i theta} - 1) - theta."""
    return t / 1j * (np.exp(1j * theta) - 1.0) - theta


@dataclass
class PhaseData:
    gradient: tuple[complex, complex]
    hessian: tuple[tuple[complex, complex], tuple[complex, complex]]
    determinant: complex
    fd_gradient: tuple[complex, complex]
    fd_hessian: tuple[tuple[complex, complex], tuple[complex, complex]]


def phase_critical_data(h: float = 1e-3) -> PhaseData:
    """Critical point data of the reduced phase at (t, theta) = (1, 0).

    Analytic values (gradient 0, Hessian [[0, 1], [1, i]], det -1) are checked
    by Richardson-extrapolated central differences of step h.
    """
    if not 0 < h < math.inf:
        raise ParameterError(f"step h must be positive and finite, not {h}", field="h")
    grad = (
        (np.exp(0j) - 1.0) / 1j,  # d_t at theta=0
        1.0 * np.exp(0j) - 1.0,   # d_theta at t=1
    )
    hess = ((0.0 + 0.0j, 1.0 + 0.0j), (1.0 + 0.0j, 1j))

    def central(f, x0, step):
        return (f(x0 + step) - f(x0 - step)) / (2.0 * step)

    def rich(f, x0):
        return (4.0 * central(f, x0, h / 2.0) - central(f, x0, h)) / 3.0

    fd_grad = (
        rich(lambda t: phase_function(t, 0.0), 1.0),
        rich(lambda th: phase_function(1.0, th), 0.0),
    )

    def second(f, x0, step):
        return (f(x0 + step) - 2.0 * f(x0) + f(x0 - step)) / step**2

    def rich2(f, x0):
        return (4.0 * second(f, x0, h / 2.0) - second(f, x0, h)) / 3.0

    def mixed(step):
        return (
            phase_function(1.0 + step, step)
            - phase_function(1.0 + step, -step)
            - phase_function(1.0 - step, step)
            + phase_function(1.0 - step, -step)
        ) / (4.0 * step**2)

    fd_hess = (
        (rich2(lambda t: phase_function(t, 0.0), 1.0),
         (4.0 * mixed(h / 2.0) - mixed(h)) / 3.0),
        ((4.0 * mixed(h / 2.0) - mixed(h)) / 3.0,
         rich2(lambda th: phase_function(1.0, th), 0.0)),
    )
    det = hess[0][0] * hess[1][1] - hess[0][1] * hess[1][0]
    return PhaseData(
        gradient=grad,
        hessian=hess,
        determinant=det,
        fd_gradient=fd_grad,
        fd_hessian=fd_hess,
    )
