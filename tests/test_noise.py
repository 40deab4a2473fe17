"""Correlation models: closed forms, transforms, moments, file parsing."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import wofz

from noise_radiance import (
    InvariantViolationError,
    NoiseModel,
    NoiseSum,
    OutOfSupportWarning,
    ParseError,
    PointwiseUndefinedError,
    QuadratureNonConvergentError,
    corr_laplace,
    corr_moment,
    correlation_reach,
    correlation_time,
    eval_correlation,
    fourier_transform_quadrature,
    load_correlation_file,
    spectral_density,
    validate_admissible,
)
from noise_radiance.noise import MAX_GAUSSIAN_PANELS, _poly_exp_integral

SETTINGS = settings(max_examples=25, deadline=None)


# ---------------------------------------------------------------------------
# pointwise correlation
# ---------------------------------------------------------------------------


def test_exponential_correlation_at_zero():
    # f(s) = e^{-|s|/tau} / (2 tau): f(0) = 1/(2 tau)
    model = NoiseModel.exponential(1.0)
    assert eval_correlation(model, 0.0) == pytest.approx(0.5, rel=1e-15)


def test_exponential_correlation_normalization():
    # independent check: integral of f over the whole line is 1
    model = NoiseModel.exponential(1.0)
    s = np.linspace(0.0, 60.0, 240_001)
    total = 2.0 * integrate.simpson(eval_correlation(model, s), x=s)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_gaussian_correlation_normalization():
    model = NoiseModel.gaussian(0.8)
    s = np.linspace(0.0, 10.0 * 0.8, 80_001)
    total = 2.0 * integrate.simpson(eval_correlation(model, s), x=s)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_correlation_evenness_exponential():
    model = NoiseModel.exponential(1.0)
    assert eval_correlation(model, 2.0) == eval_correlation(model, -2.0)


@SETTINGS
@given(
    s=st.floats(-30.0, 30.0),
    tau=st.floats(0.1, 5.0),
    kind=st.sampled_from(["exponential", "gaussian"]),
)
def test_correlation_evenness_property(s, tau, kind):
    model = getattr(NoiseModel, kind)(tau)
    assert eval_correlation(model, s) == eval_correlation(model, -s)


def test_white_pointwise_rejected():
    with pytest.raises(PointwiseUndefinedError):
        eval_correlation(NoiseModel.white(), 0.3)


def test_tabulated_copy_of_exponential_interpolates():
    s = np.linspace(-10.0, 10.0, 4001)
    table = NoiseModel.tabulated(s, np.exp(-np.abs(s)) / 2.0)
    got = eval_correlation(table, 1.0)
    assert got == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-6)


def test_tabulated_outside_support_warns_and_zeroes():
    s = np.linspace(0.0, 5.0, 51)
    table = NoiseModel.tabulated(s, np.exp(-s))
    with pytest.warns(OutOfSupportWarning):
        val = eval_correlation(table, 7.0)
    assert val == 0.0


def test_tabulated_two_sided_folds_even():
    s = np.linspace(-6.0, 6.0, 241)
    table = NoiseModel.tabulated(s, np.exp(-s * s))
    assert table.samples[0][0] == 0.0
    assert eval_correlation(table, 1.5) == eval_correlation(table, -1.5)


def test_tabulated_asymmetric_input_rejected():
    s = np.linspace(-6.0, 6.0, 241)
    f = np.exp(-s * s)
    f[100] *= 1.0 + 1e-5  # s = -1, where f is O(e^{-1})
    with pytest.raises(InvariantViolationError):
        NoiseModel.tabulated(s, f)


def test_tabulated_needs_enough_points():
    with pytest.raises(InvariantViolationError):
        NoiseModel.tabulated([0.0, 1.0, 2.0], [1.0, 0.5, 0.2])


# ---------------------------------------------------------------------------
# spectral densities
# ---------------------------------------------------------------------------


def test_white_density_is_flat():
    model = NoiseModel.white()
    for omega in (0.0, 0.37, -12.0, 400.0):
        assert spectral_density(model, omega) == 1.0


def test_white_density_scales():
    assert spectral_density(NoiseModel.white(scale=2.5), 3.0) == 2.5


def test_exponential_density_closed_form():
    # f~ = 1 / (1 + omega^2 tau^2): at omega = tau = 1 exactly 1/2
    model = NoiseModel.exponential(1.0)
    assert spectral_density(model, 1.0) == pytest.approx(0.5, rel=1e-15)


def test_gaussian_density_at_zero():
    assert spectral_density(NoiseModel.gaussian(1.0), 0.0) == 1.0


@SETTINGS
@given(
    omega=st.floats(0.0, 40.0),
    tau=st.floats(0.1, 4.0),
    kind=st.sampled_from(["exponential", "gaussian"]),
)
def test_density_evenness_property(omega, tau, kind):
    model = getattr(NoiseModel, kind)(tau)
    assert spectral_density(model, omega) == spectral_density(model, -omega)


@SETTINGS
@given(
    omega=st.floats(-10.0, 10.0),
    tau=st.floats(0.2, 3.0),
    c=st.floats(0.1, 7.0),
)
def test_density_scaling_property(omega, tau, c):
    base = NoiseModel.exponential(tau)
    scaled = NoiseModel.exponential(tau, scale=c)
    assert spectral_density(scaled, omega) == pytest.approx(
        c * spectral_density(base, omega), rel=1e-14
    )


@pytest.mark.parametrize("maker", [NoiseModel.exponential, NoiseModel.gaussian])
def test_density_matches_fourier_quadrature(maker):
    # independent oracle: cosine-weighted quadrature of the pointwise
    # correlation reproduces the closed-form transform
    tau = 0.9
    model = maker(tau)
    for omega in np.linspace(-20.0 / tau, 20.0 / tau, 9):
        oracle = fourier_transform_quadrature(model, float(omega))
        closed = spectral_density(model, float(omega))
        assert closed == pytest.approx(oracle, rel=1e-6, abs=1e-12)


def test_tabulated_transform_matches_analytic_value():
    # cos(5s) e^{-s^2} has transform (sqrt(pi)/2)(e^{-(w-5)^2/4} + e^{-(w+5)^2/4})
    s = np.linspace(0.0, 4.0, 81)
    table = NoiseModel.tabulated(s, np.cos(5.0 * s) * np.exp(-s * s))
    got = spectral_density(table, 0.0)
    exact = math.sqrt(math.pi) * math.exp(-25.0 / 4.0)
    assert got == pytest.approx(exact, rel=1e-5)


def test_tabulated_transform_nonconvergent_raises():
    # the table ends at e^-5 = 6.7e-3 of its peak, above the 1e-6 decay limit
    s = np.linspace(0.0, 5.0, 33)
    table = NoiseModel.tabulated(s, np.exp(-s))
    with pytest.raises(QuadratureNonConvergentError):
        spectral_density(table, 0.5)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_admissible_exponential():
    report = validate_admissible(NoiseModel.exponential(1.0), np.linspace(-50, 50, 100))
    assert report.admissible
    assert report.min_density > 0.0
    assert report.offenders == ()


def test_admissible_white_any_grid():
    report = validate_admissible(NoiseModel.white(), [0.0, 1.0, -3.0])
    assert report.admissible


def test_inadmissible_tabulated_flagged_near_zero():
    # (1 - 1.5 s^2) e^{-s^2/2} transforms to sqrt(2 pi)(-0.5 + 1.5 w^2) e^{-w^2/2}:
    # genuinely negative around w = 0
    s = np.linspace(0.0, 8.0, 321)
    table = NoiseModel.tabulated(s, (1.0 - 1.5 * s * s) * np.exp(-s * s / 2.0))
    report = validate_admissible(table, np.linspace(-10.0, 10.0, 201))
    assert not report.admissible
    assert report.min_density == pytest.approx(-0.5 * math.sqrt(2.0 * math.pi), rel=1e-6)
    assert all(abs(w) <= 0.6 for w, _ in report.offenders)


# ---------------------------------------------------------------------------
# correlation file parsing
# ---------------------------------------------------------------------------


def test_load_correlation_round_trip(tmp_path):
    s = np.linspace(0.0, 6.0, 61)
    f = np.exp(-s * s / 2.0)
    path = tmp_path / "corr.txt"
    lines = ["# lag  value"] + [f"{a:.17g} {b:.17g}" for a, b in zip(s, f)]
    path.write_text("\n".join(lines) + "\n")
    model = load_correlation_file(path)
    assert eval_correlation(model, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_load_correlation_bad_column_count(tmp_path):
    path = tmp_path / "corr.txt"
    path.write_text("0.0 1.0\n0.5 0.9 7\n1.0 0.5\n1.5 0.2\n")
    with pytest.raises(ParseError) as exc_info:
        load_correlation_file(path)
    assert exc_info.value.line == 2


def test_load_correlation_non_increasing(tmp_path):
    path = tmp_path / "corr.txt"
    path.write_text("0.0 1.0\n1.0 0.5\n0.5 0.7\n2.0 0.1\n")
    with pytest.raises(ParseError) as exc_info:
        load_correlation_file(path)
    assert exc_info.value.line == 3


def test_load_correlation_unparseable_number(tmp_path):
    path = tmp_path / "corr.txt"
    path.write_text("0.0 1.0\n0.5 oops\n1.0 0.5\n1.5 0.2\n")
    with pytest.raises(ParseError) as exc_info:
        load_correlation_file(path)
    assert exc_info.value.line == 2


def test_load_correlation_too_few_points(tmp_path):
    path = tmp_path / "corr.txt"
    path.write_text("# comment only\n0.0 1.0\n1.0 0.5\n")
    with pytest.raises(ParseError):
        load_correlation_file(path)


# ---------------------------------------------------------------------------
# weighted moments
# ---------------------------------------------------------------------------


def test_white_moment_half_weight():
    # delta at the integration endpoint contributes half its mass
    model = NoiseModel.white(scale=3.0)
    assert corr_laplace(model, 2.0 + 1.0j, 1.0) == 1.5 + 0.0j
    assert corr_moment(model, 0.5j, 4.0, k=1) == 0.0
    assert corr_laplace(model, 1.0, 0.0) == 0.0


def _moment_quadrature(model, c, t, k):
    reach = min(t, correlation_reach(model))
    x = np.linspace(0.0, reach, 200_001)
    f = eval_correlation(model, x)
    return integrate.simpson(x**k * np.exp(c * x) * f, x=x)


@pytest.mark.parametrize(
    "c,t,k",
    [
        (-0.3 + 1.7j, 8.0, 0),
        (0.2 - 0.9j, 5.0, 2),
        (-0.05 + 4.0j, 30.0, 1),
        (0.0 + 0.0j, 3.0, 5),
    ],
)
def test_exponential_moment_vs_quadrature(c, t, k):
    model = NoiseModel.exponential(0.7, scale=1.3)
    got = corr_moment(model, c, t, k)
    ref = _moment_quadrature(model, c, t, k)
    assert got == pytest.approx(ref, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize(
    "c,t,k",
    [
        (-0.4 + 2.0j, 6.0, 0),
        (0.3 + 0.5j, 9.0, 3),
        (1.2j, 100.0, 1),
    ],
)
def test_gaussian_moment_vs_quadrature(c, t, k):
    model = NoiseModel.gaussian(0.9, scale=0.8)
    got = corr_moment(model, c, t, k)
    ref = _moment_quadrature(model, c, t, k)
    assert got == pytest.approx(ref, rel=1e-7, abs=1e-12)


def _gaussian_moment_closed_form(tau: float, c: complex, t: float) -> complex:
    # int_0^t exp(c x - x^2/2 tau^2) dx / (tau sqrt(2 pi)) through the
    # Faddeeva function: (w(i u0) - exp(c t - t^2/2 tau^2) w(i u1)) / 2
    u0 = -c * tau / math.sqrt(2.0)
    u1 = u0 + t / (math.sqrt(2.0) * tau)
    return complex(0.5 * (wofz(1j * u0) - np.exp(c * t - t * t / (2.0 * tau * tau)) * wofz(1j * u1)))


def test_gaussian_moment_over_panel_cap_raises():
    # resolving Im(c) = 1e7 over the gaussian's reach needs ~6e7 panels;
    # a capped quadrature returned 3.5e-6 i here against the exact 3.99e-8 i
    assert _gaussian_moment_closed_form(1.0, 1e7j, 20.0) == pytest.approx(3.989422804e-8j, rel=1e-9)
    with pytest.raises(QuadratureNonConvergentError, match="panels"):
        corr_moment(NoiseModel.gaussian(1.0), 1e7j, 20.0)
    # one panel beyond the cap is already refused
    c_over = 1j * (MAX_GAUSSIAN_PANELS + 0.5) * math.pi / 2.0
    with pytest.raises(QuadratureNonConvergentError):
        corr_moment(NoiseModel.gaussian(1.0), c_over, 1.0)


def test_gaussian_moment_at_panel_cap_is_accurate():
    # panel width pi / (2 |c|) over [0, 1]: this c needs exactly the cap
    c = 1j * (MAX_GAUSSIAN_PANELS - 0.5) * math.pi / 2.0
    got = corr_moment(NoiseModel.gaussian(1.0), c, 1.0)
    assert got == pytest.approx(_gaussian_moment_closed_form(1.0, c, 1.0), rel=1e-8)


@pytest.mark.parametrize(
    "model",
    [
        NoiseModel.white(),
        NoiseModel.exponential(1.0),
        NoiseModel.gaussian(0.7),
        NoiseModel.tabulated(np.linspace(0.0, 3.0, 31), np.exp(-np.linspace(0.0, 3.0, 31))),
        NoiseSum((NoiseModel.white(), NoiseModel.gaussian(0.7))),
    ],
    ids=["white", "exponential", "gaussian", "tabulated", "sum"],
)
def test_negative_time_is_a_typed_error(model):
    with pytest.raises(InvariantViolationError, match="t must be >= 0"):
        corr_moment(model, 0.3 + 1.0j, -1.0, 2)


def test_tabulated_moment_vs_quadrature():
    s = np.linspace(0.0, 7.0, 141)
    model = NoiseModel.tabulated(s, np.exp(-s * s / 2.0), scale=1.1)
    c, t, k = -0.2 + 1.4j, 5.0, 2
    x = np.linspace(0.0, min(t, 7.0), 200_001)
    ref = 1.1 * np.trapezoid(
        x**k * np.exp(c * x) * np.interp(x, s, np.exp(-s * s / 2.0)), x
    )
    got = corr_moment(model, c, t, k)
    assert got == pytest.approx(ref, rel=1e-7)


@SETTINGS
@given(
    re=st.floats(-1.0, 1.0),
    im=st.floats(-6.0, 6.0),
    t=st.floats(0.1, 40.0),
    k=st.integers(0, 5),
)
def test_poly_exp_integral_vs_quadrature(re, im, t, k):
    alpha = complex(re, im)
    x = np.linspace(0.0, t, 20_001)
    ref = integrate.simpson(x**k * np.exp(alpha * x), x=x)
    got = _poly_exp_integral(alpha, t, k)
    assert got == pytest.approx(ref, rel=1e-6, abs=1e-9 * max(1.0, abs(ref)))


def test_poly_exp_integral_branch_continuity():
    # series branch below |alpha t| = 0.9 meets the recursion branch above
    t = 1.0
    for k in range(6):
        lo = _poly_exp_integral(0.89 + 0.0j, t, k)
        hi = _poly_exp_integral(0.91 + 0.0j, t, k)
        mid = 0.5 * (lo + hi)
        ref = _poly_exp_integral(0.90 + 0.0j, t, k)
        assert abs(mid - ref) < 1e-3 * abs(ref)
        # and each branch agrees with dense quadrature
        x = np.linspace(0.0, t, 40_001)
        for alpha, val in ((0.89, lo), (0.91, hi)):
            q = integrate.simpson(x**k * np.exp(alpha * x), x=x)
            assert val == pytest.approx(q, rel=1e-9)


# ---------------------------------------------------------------------------
# sums, reaches, misc
# ---------------------------------------------------------------------------


def test_noise_sum_density_adds():
    a = NoiseModel.white(scale=1.0)
    b = NoiseModel.gaussian(2.0, scale=3.0)
    total = NoiseSum((a, b))
    w = 0.4
    assert spectral_density(total, w) == pytest.approx(
        spectral_density(a, w) + spectral_density(b, w), rel=1e-15
    )
    assert total.kind == "sum(white+gaussian)"
    assert total.scale == 4.0


def test_noise_sum_needs_parts():
    with pytest.raises(InvariantViolationError):
        NoiseSum(())


def test_correlation_reach_values():
    assert correlation_reach(NoiseModel.white()) == 0.0
    assert correlation_reach(NoiseModel.exponential(2.0)) == 90.0
    assert correlation_reach(NoiseModel.gaussian(3.0)) == 30.0
    assert correlation_time(NoiseModel.white()) == 0.0


def test_scale_must_be_positive():
    with pytest.raises(InvariantViolationError):
        NoiseModel.white(scale=0.0)
    with pytest.raises(InvariantViolationError):
        NoiseModel.exponential(-1.0)
