import numpy as np
import pytest

from orbk.localmodel import (
    ModelGrid,
    apply_D0,
    apply_R,
    apply_R_star,
    check_identities,
    default_suite,
    phase_critical_data,
    phase_function,
)


@pytest.fixture(scope="module")
def grid():
    return ModelGrid()


def test_single_mode_closed_form(grid):
    # R e^{iy} = e^{iy} e^{-x^2/2} pi^{-1/4}
    f = np.exp(1j * grid.y)
    g = apply_R(grid, f)
    expected = np.exp(1j * grid.y)[None, :] * (
        np.exp(-0.5 * grid.x**2) * np.pi**-0.25
    )[:, None]
    assert np.max(np.abs(g - expected)) < 1e-12


def test_zero_input(grid):
    g = apply_R(grid, np.zeros(grid.y_points, dtype=complex))
    assert np.all(g == 0)


def test_norm_preservation(grid):
    rng = np.random.default_rng(5)
    coef = rng.normal(size=8) + 1j * rng.normal(size=8)
    f = sum(c * np.exp(1j * (k + 1) * grid.y) for k, c in enumerate(coef))
    g = apply_R(grid, f)
    norm_f = np.sqrt(np.sum(np.abs(f) ** 2) * (2 * np.pi / grid.y_points))
    norm_g = np.sqrt(np.sum(np.abs(g) ** 2) * grid.hx * (2 * np.pi / grid.y_points))
    assert norm_g == pytest.approx(norm_f, rel=1e-8)


def test_rstar_r_recovers_positive_frequencies(grid):
    f = np.exp(2j * grid.y) + 0.5 * np.exp(3j * grid.y)
    back = apply_R_star(grid, apply_R(grid, f))
    assert np.max(np.abs(back - f)) < 1e-8


def test_single_mode_d0_residual(grid):
    report = check_identities(grid, [np.exp(2j * grid.y)])
    assert report.max_d0 < 1e-6
    assert report.max_rstar_r < 1e-10


def test_gaussian_packet_identities(grid):
    env = np.exp(-0.5 * ((np.arange(1, 20) - 3.0)) ** 2)
    f = sum(a * np.exp(1j * k * grid.y) for k, a in enumerate(env, start=1))
    report = check_identities(grid, [f])
    assert report.max_rstar_r < 1e-6


def test_negative_mode_outside_cone(grid):
    report = check_identities(grid, [np.exp(-3j * grid.y)])
    assert report.outside_cone_fractions[0] == pytest.approx(1.0)
    assert report.max_d0 == 0.0


def test_identity_report_counts_checked_functions(grid):
    report = check_identities(grid, [np.exp(-3j * grid.y), np.exp(2j * grid.y)])
    assert report.checked == 1
    tiny = ModelGrid(y_points=2)  # fftfreq 0, -1: no positive frequency at all
    assert check_identities(tiny, default_suite(tiny)).checked == 0


def test_default_suite_residuals(grid):
    report = check_identities(grid, default_suite(grid))
    assert report.max_d0 < 1e-6
    assert report.max_rstar_r < 1e-6


def test_d0_residual_h_convergence():
    res = {}
    for nx in (512, 1024):
        g = ModelGrid(x_points=nx)
        res[nx] = check_identities(g, [np.exp(3j * g.y)]).max_d0
    ratio = res[512] / res[1024]
    assert 8.0 < ratio < 32.0  # 4th order: 16 within a factor 2


def test_translation_commutes_with_R(grid):
    # R commutes with shifts in y
    f = np.exp(1j * grid.y) + 0.3 * np.exp(4j * grid.y)
    shift = 7
    f_shifted = np.roll(f, shift)
    g = apply_R(grid, f)
    g_shifted = apply_R(grid, f_shifted)
    assert np.max(np.abs(np.roll(g, shift, axis=1) - g_shifted)) < 1e-10


def test_band_limit_warning(grid):
    hot = np.exp(1j * (grid.y_points // 3) * grid.y)
    with pytest.warns(UserWarning, match="band-limited"):
        apply_R(grid, hot)


def test_apply_D0_kills_kernel_elements(grid):
    g = apply_R(grid, np.exp(1j * grid.y))
    resid = apply_D0(grid, g)
    assert np.max(np.abs(resid)) < 1e-6


def test_phase_value_and_gradient():
    assert phase_function(1.0, 0.0) == 0
    data = phase_critical_data()
    assert max(abs(v) for v in data.gradient) < 1e-14
    assert max(abs(v) for v in data.fd_gradient) < 1e-10


def test_phase_hessian():
    data = phase_critical_data()
    assert data.hessian == ((0.0, 1.0), (1.0, 1j))
    ref = ((0.0, 1.0), (1.0, 1j))
    err = max(
        abs(data.fd_hessian[i][j] - ref[i][j]) for i in range(2) for j in range(2)
    )
    assert err < 1e-6
    assert data.determinant == pytest.approx(-1.0)


def test_phase_gradient_off_critical_set():
    t, th = 1.0, 0.1
    h = 1e-6
    dth = (phase_function(t, th + h) - phase_function(t, th - h)) / (2 * h)
    assert abs(dth) > 1e-3


def _grid_path(grid, f):
    """The identities on the (x, y) grid: R, D_0 and R* applied, discrete L^2 norms."""
    dy = 2.0 * np.pi / grid.y_points
    fhat = np.fft.fft(f)
    fhat[~grid.positive_mask()] = 0.0
    fp = np.fft.ifft(fhat)
    nf = np.sqrt(dy * np.sum(np.abs(fp) ** 2))
    n_all = np.sqrt(dy * np.sum(np.abs(f) ** 2))
    if nf <= 1e-12 * n_all:
        return 0.0, 0.0, False
    g = apply_R(grid, f)
    d0 = np.sqrt(grid.hx * dy * np.sum(np.abs(apply_D0(grid, g)) ** 2)) / nf
    rr = np.sqrt(dy * np.sum(np.abs(apply_R_star(grid, g) - fp) ** 2)) / nf
    return d0, rr, True


@pytest.mark.parametrize("x_points", [512, 1024])
def test_mode_sums_match_grid_operators(x_points):
    grid = ModelGrid(x_points=x_points)
    y = grid.y
    mixed = np.exp(-3j * y) + 0.5 * np.exp(2j * y) + 0.25j * np.exp(5j * y) + 0.1
    suite = default_suite(grid) + [mixed]
    report = check_identities(grid, suite)
    oracle = [_grid_path(grid, f) for f in suite]
    assert report.checked == sum(ok for *_, ok in oracle)
    for d0, rr, ref in zip(report.d0_residuals, report.rstar_r_residuals, oracle):
        assert d0 == pytest.approx(ref[0], rel=1e-7)
        assert rr < 1e-13 and ref[1] < 1e-13


def test_outside_cone_fraction_from_its_own_modes(grid):
    report = check_identities(grid, default_suite(grid))
    assert max(report.outside_cone_fractions) < 1e-14  # only positive modes
    mixed = np.exp(-3j * grid.y) + np.exp(2j * grid.y)
    half = check_identities(grid, [mixed]).outside_cone_fractions[0]
    assert half == pytest.approx(2**-0.5, abs=1e-15)


def test_check_identities_warns_once_per_unlimited_function(grid):
    hot = np.exp(1j * (grid.y_points // 3) * grid.y)
    with pytest.warns(UserWarning, match="band-limited") as record:
        report = check_identities(grid, [hot, np.exp(2j * grid.y)])
    assert len(record) == 1
    assert len(report.d0_residuals) == 2 and report.checked == 2
