"""Independent numerical cross-checks for the closed-form kernel algebra.

Nothing in here reuses the reduced expressions from ``kernels``: the long
derivations are re-done as direct quadrature of the defining time-ordered
integrals.  The only analytic ingredients allowed are elementary
single-exponential antiderivatives (int exp(c x) dx) and the even symmetry
of the correlation function - both trivially checkable, neither part of the
algebra under test.

Contents:

* ``oracle_dT1_dt`` / ``oracle_dT2_dt`` / ``oracle_dT3_dt``: the time
  derivative of each second-order kernel, computed as boundary slices of
  the defining four-dimensional integral, reduced to one-dimensional
  quadrature against f with exact exponential inner integrals.  In the
  shifted coordinates (lag from the upper limit) the large exponents cancel
  identically, so these are well conditioned at any damping-time product.
* ``brute_force_kernel``: tensor-grid Simpson over the full 4-d domain
  (small times only) - validates the slice oracles themselves.
* ``fourier_transform_quadrature``: f~ by adaptive quadrature.
* ``polarization_overlap_quadrature``: polarization sum over the photon
  sphere by product quadrature.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InvariantViolationError
from .kernels import KernelParams
from .noise import (
    WHITE,
    AnyNoise,
    NoiseModel,
    NoiseSum,
    correlation_reach,
    correlation_time,
    eval_correlation,
)

_GL_ORDER = 16
_GLX, _GLW = np.polynomial.legendre.leggauss(_GL_ORDER)


def _ramp(c: complex, length: float) -> complex:
    # int_0^length exp(c x) dx
    z = c * length
    if abs(z) < 1e-6:
        return length * (1.0 + z * (0.5 + z / 6.0))
    return (cmath.exp(z) - 1.0) / c


def _interval_exp(c: complex, x1, x2):
    # int_{x1}^{x2} exp(c x) dx, vectorized over x1/x2 arrays
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if abs(c) * float(np.max(x2 - x1, initial=0.0)) < 1e-6:
        mid = x2 - x1
        return np.exp(c * x1) * mid * (1.0 + c * mid * 0.5)
    return (np.exp(c * x2) - np.exp(c * x1)) / c


def _panel_nodes(lo: float, hi: float, n_panels: int):
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * _GLX[None, :]).ravel()
    w = (half[:, None] * _GLW[None, :]).ravel()
    return x, w


def _panel_count(reach: float, speed: float) -> int:
    return int(min(600, max(8, math.ceil(reach * speed / 2.0))))


def correlation_pair_integral(noise: AnyNoise, pu: complex, pw: complex, t: float) -> complex:
    """S(pu, pw) = int_0^t du int_0^t dw exp(-pu u - pw w) f(w - u).

    Computed by substituting s = w - u: the u integral is a single
    exponential over an interval (done exactly), the s integral is
    quadrature against f on its support.
    """
    if isinstance(noise, NoiseSum):
        return sum(correlation_pair_integral(part, pu, pw, t) for part in noise.parts)
    if noise.kind == WHITE:
        # f = scale * delta(s); the diagonal w = u is interior, full weight
        return noise.scale * complex(_interval_exp(-(pu + pw), 0.0, t))
    reach = min(t, correlation_reach(noise))
    tau = max(correlation_time(noise), 1e-12)
    c_inner = -(pu + pw)
    speed = abs(pw) + abs(pu + pw) + 2.0 / tau
    n_panels = _panel_count(reach, speed)
    total = 0.0 + 0.0j
    for lo, hi in ((-reach, 0.0), (0.0, reach)):
        s, w = _panel_nodes(lo, hi, n_panels)
        fs = eval_correlation(noise, s)
        u1 = np.maximum(0.0, -s)
        u2 = t - np.maximum(0.0, s)
        inner = _interval_exp(c_inner, u1, u2)
        total += complex(np.sum(w * fs * np.exp(-pw * s) * inner))
    return total


def _one_sided_weighted(noise: AnyNoise, g, t: float, phase_speed: float) -> complex:
    """int_0^{min(t, reach)} f(w) g(w) dw,  white -> scale * g(0) / 2.

    The white-noise delta sits at the lower endpoint of the domain, hence
    the half weight (it is the boundary limit of an even, normalized
    correlation).
    """
    if isinstance(noise, NoiseSum):
        return sum(_one_sided_weighted(part, g, t, phase_speed) for part in noise.parts)
    if noise.kind == WHITE:
        return 0.5 * noise.scale * complex(g(np.zeros(1))[0])
    reach = min(t, correlation_reach(noise))
    tau = max(correlation_time(noise), 1e-12)
    n_panels = _panel_count(reach, phase_speed + 2.0 / tau)
    s, w = _panel_nodes(0.0, reach, n_panels)
    fs = eval_correlation(noise, s)
    return complex(np.sum(w * fs * np.asarray(g(s))))


def _t1_exponents(p: KernelParams):
    alpha = 1j * (p.delta_fn + p.omega_k) - p.gamma_n
    beta = 1j * p.delta_ni + p.gamma_n
    gbar = -1j * (p.delta_fm + p.omega_k) - p.gamma_m
    delta = -1j * p.delta_mi + p.gamma_m
    return alpha, beta, gbar, delta


def oracle_dT1_dt(p: KernelParams, noise: AnyNoise, t: float) -> complex:
    """d/dt of the noise-first-squared kernel, by boundary-slice quadrature."""
    alpha, beta, gbar, delta = _t1_exponents(p)
    s_fn = correlation_pair_integral
    slice1 = (s_fn(noise, beta, delta + gbar, t) - s_fn(noise, beta, delta, t)) / (-gbar)
    slice2 = (s_fn(noise, delta, beta + alpha, t) - s_fn(noise, delta, beta, t)) / (-alpha)
    return slice1 + slice2


def oracle_dT2_dt(p: KernelParams, noise: AnyNoise, t: float) -> complex:
    """d/dt of the cross-ordering kernel, by boundary-slice quadrature."""
    alpha, beta, _, _ = _t1_exponents(p)
    delta2 = -1j * p.delta_fm - p.gamma_m
    mu2 = -1j * (p.delta_mi + p.omega_k) + p.gamma_m
    s_fn = correlation_pair_integral
    slice_a = (
        s_fn(noise, beta, delta2 + mu2, t)
        - cmath.exp(-mu2 * t) * s_fn(noise, beta, delta2, t)
    ) / mu2

    def g(w):
        return np.exp(-beta * w) * _interval_exp(-alpha, np.zeros_like(w), w)

    w1 = _one_sided_weighted(noise, g, t, abs(beta) + abs(alpha))
    slice_b = (1.0 - cmath.exp(-mu2 * t)) / mu2 * w1
    return slice_a + slice_b


def oracle_dT3_dt(p: KernelParams, noise: AnyNoise, t: float) -> complex:
    """d/dt of the photon-first-squared kernel, by boundary-slice quadrature."""
    nu_n = 1j * p.delta_fn - p.gamma_n
    mu_n = 1j * (p.delta_ni + p.omega_k) + p.gamma_n
    delta2 = -1j * p.delta_fm - p.gamma_m
    mu2 = -1j * (p.delta_mi + p.omega_k) + p.gamma_m
    wp = p.omega_plus

    pref_a = (cmath.exp(1j * wp * t) - cmath.exp(nu_n * t)) / mu_n

    def g_a(w):
        return (np.exp(-1j * wp * (t - w)) - np.exp(delta2 * (t - w))) / mu2

    slice_a = pref_a * _one_sided_weighted(noise, g_a, t, wp + abs(delta2))

    pref_b = (cmath.exp(-1j * wp * t) - cmath.exp(delta2 * t)) / mu2

    def g_b(w):
        return (np.exp(1j * wp * (t - w)) - np.exp(nu_n * (t - w))) / mu_n

    slice_b = pref_b * _one_sided_weighted(noise, g_b, t, wp + abs(nu_n))
    return slice_a + slice_b


# ---------------------------------------------------------------------------
# small-time 4-d brute force (validates the slice oracles themselves)
# ---------------------------------------------------------------------------


def _simpson_weights(n: int, h: float) -> np.ndarray:
    if n % 2 == 0:
        raise InvariantViolationError("Simpson rule needs an odd node count")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def brute_force_kernel(
    which: str, p: KernelParams, noise: NoiseModel, t: float, n: int = 33
) -> complex:
    """Tensor-grid Simpson of a second-order kernel over its full 4-d domain.

    Inner times are rescaled onto [0, 1] so the ordered region becomes a
    box.  Needs a pointwise-evaluable correlation (no white noise) and is
    only affordable at small t; its job is to validate the slice oracles.
    """
    alpha, beta, gbar, delta = _t1_exponents(p)
    delta2 = -1j * p.delta_fm - p.gamma_m
    mu2 = -1j * (p.delta_mi + p.omega_k) + p.gamma_m
    nu_n = 1j * p.delta_fn - p.gamma_n
    mu_n = 1j * (p.delta_ni + p.omega_k) + p.gamma_n
    if which == "T1":
        p2, p1, p4, p3 = alpha, beta, gbar, delta
        pair = ("inner", "inner")
    elif which == "T2":
        p2, p1, p4, p3 = alpha, beta, delta2, mu2
        pair = ("inner", "outer")
    elif which == "T3":
        p2, p1, p4, p3 = nu_n, mu_n, delta2, mu2
        pair = ("outer", "outer")
    else:
        raise InvariantViolationError(f"unknown kernel {which!r}")

    t_nodes = np.linspace(0.0, t, n)
    x_nodes = np.linspace(0.0, 1.0, n)
    wt = _simpson_weights(n, t / (n - 1))
    wx = _simpson_weights(n, 1.0 / (n - 1))

    # amplitude side: t2 outer, t1 = t2 * x inner
    e2 = t_nodes[:, None] * np.exp(p2 * t_nodes[:, None] + p1 * t_nodes[:, None] * x_nodes[None, :])
    e2 = e2 * wt[:, None] * wx[None, :]
    # conjugate side: t4 outer, t3 = t4 * y inner
    e4 = t_nodes[:, None] * np.exp(p4 * t_nodes[:, None] + p3 * t_nodes[:, None] * x_nodes[None, :])
    e4 = e4 * wt[:, None] * wx[None, :]

    time_a = (
        t_nodes[:, None] * x_nodes[None, :] if pair[0] == "inner" else np.broadcast_to(t_nodes[:, None], (n, n))
    )
    time_b = (
        t_nodes[:, None] * x_nodes[None, :] if pair[1] == "inner" else np.broadcast_to(t_nodes[:, None], (n, n))
    )
    lag = time_a[:, :, None, None] - time_b[None, None, :, :]
    fvals = eval_correlation(noise, lag.ravel()).reshape(lag.shape)
    return complex(np.einsum("ab,cd,abcd->", e2, e4, fvals))


# ---------------------------------------------------------------------------
# transform and sphere cross-checks
# ---------------------------------------------------------------------------


def fourier_transform_quadrature(noise: AnyNoise, omega: float) -> float:
    """f~(omega) = int f(s) exp(i omega s) ds by adaptive cosine quadrature.

    QUADPACK's cosine rule is only good to about 1e-9 across the kinks of
    a tabulated model's linear interpolant, and a one-sided table that
    starts at s0 > 0 jumps from 0 to f(s0) there, which it resolves worse
    still (1.21472 against an exact 1.21937 for a 57-row e^{-s} table from
    s0 = 0.5).  Check tabulated transforms against a per-segment exact
    integral instead.  scipy is imported here, on first use, so that the
    package itself loads without it.
    """
    from scipy import integrate

    if isinstance(noise, NoiseSum):
        return sum(fourier_transform_quadrature(part, omega) for part in noise.parts)
    if noise.kind == WHITE:
        return noise.scale
    reach = correlation_reach(noise)

    def f(s):
        return float(eval_correlation(noise, s))

    val, _ = integrate.quad(f, 0.0, reach, weight="cos", wvar=omega, limit=400)
    return 2.0 * val


def polarization_overlap_quadrature(
    j: int, jp: int, n_theta: int = 24, n_phi: int = 48
) -> float:
    """sum_pol int dOmega eps_pol^j eps_pol^jp over the photon sphere.

    Gauss-Legendre in cos(theta) times trapezoid in phi, with the two
    transverse unit vectors built explicitly for every direction.
    """
    cos_t, w_t = np.polynomial.legendre.leggauss(n_theta)
    sin_t = np.sqrt(1.0 - cos_t**2)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    w_phi = 2.0 * math.pi / n_phi

    total = 0.0
    for ct, st, wt in zip(cos_t, sin_t, w_t):
        # theta-hat and phi-hat span the plane transverse to k-hat
        e1 = np.stack([ct * np.cos(phi), ct * np.sin(phi), -st * np.ones_like(phi)])
        e2 = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
        val = e1[j] * e1[jp] + e2[j] * e2[jp]
        total += wt * w_phi * float(np.sum(val))
    return total
