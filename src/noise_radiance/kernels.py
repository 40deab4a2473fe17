"""Finite-time second-order kernels and their long-time emission rates.

Emitting one photon out of a noise-driven bound system is a second-order
process: one vertex exchanges energy with the classical noise, the other
creates the photon.  Squaring the amplitude and averaging over noise
realizations leaves three families of double-time-ordered integrals,

* ``kernel_T1``: noise-first ordering times its own conjugate,
* ``kernel_T2``: noise-first times the conjugate of photon-first,
* ``kernel_T3``: photon-first times its own conjugate,

each indexed by a pair (n, m) of intermediate levels.  The transition
probability is a coupling-weighted sum of these, and the emission rate is
its time derivative.

Two regimes matter:

* undamped intermediate levels (all widths zero): the kernels keep growing
  and their derivative never settles -- including a spurious secular piece
  weighted by the noise spectrum at the intermediate-level gap;
* damped intermediate levels (widths > 0): transients die off like
  exp(-Gamma t) and the derivative converges to the ``rate_T*_longtime``
  closed forms, weighted by the noise spectrum at the emitted line only.

Everything here reduces to two primitives: the ordered double exponential
integral and the correlation-weighted double integral ``I(a, b, t)``; both
get series branches where their closed forms cancel catastrophically.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, ResonantMixedTermError, ZeroWidthError
from .noise import AnyNoise, _poly_exp_integral, corr_laplace, corr_moment, spectral_density

#: below this phase the (exp(z) - 1)/rate forms switch to power series
SMALL_PHASE = 1e-4

#: |(a + b) t| below which I(a, b, t) switches to its near-cancellation series
NEAR_CANCEL_PHASE = 0.02

_VERTEX_FLOOR = 1e-12


def exp_time_integral(rate: complex, t: float) -> complex:
    """int_0^t exp(rate * x) dx, continuous through rate = 0 (-> t)."""
    z = complex(rate) * t
    if abs(z) < SMALL_PHASE:
        return t * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z * (1.0 / 24.0 + z / 120.0))))
    return (cmath.exp(z) - 1.0) / rate


def ordered_double_exp(u: complex, v: complex, t: float) -> complex:
    """int_0^t dt1 exp(v t1) int_{t1}^t dt2 exp(u t2).

    The closed form (exp((u+v)t) - exp(u t))/(u v) - exp_time_integral(u+v, t)/u
    degenerates when |u t| or |v t| is small; series branches cover those
    corners (including both small, -> t^2/2).
    """
    u = complex(u)
    v = complex(v)
    zu, zv = u * t, v * t
    if abs(zu) < SMALL_PHASE and abs(zv) < SMALL_PHASE:
        total = 0.0 + 0.0j
        for j in range(5):
            for m in range(5):
                total += (
                    v**j
                    * u**m
                    * t ** (j + m + 2)
                    / (math.factorial(j + 1) * math.factorial(m) * (j + m + 2))
                )
        return total
    if abs(zu) < SMALL_PHASE:
        ec = exp_time_integral(v, t)
        total = 0.0 + 0.0j
        for m in range(5):
            total += (
                u**m
                / math.factorial(m + 1)
                * (t ** (m + 1) * ec - _poly_exp_integral(v, t, m + 1))
            )
        return total
    if abs(zv) < SMALL_PHASE:
        total = 0.0 + 0.0j
        for j in range(5):
            total += v**j / math.factorial(j + 1) * _poly_exp_integral(u, t, j + 1)
        return total
    s = u + v
    return (cmath.exp(s * t) - cmath.exp(u * t)) / (u * v) - exp_time_integral(s, t) / u


@dataclass(frozen=True)
class KernelValue:
    """A single-mode kernel with its derivative and resonant split.

    ``resonant`` peaks where the noise supplies the full energy deficit of
    the transition; ``nonresonant`` is the remainder (for damped kernels, a
    transient with magnitude exactly exp(-gamma t)/(|u||v|)).  The two parts
    always sum to ``value``.
    """

    value: complex
    derivative: complex
    resonant: complex
    nonresonant: complex


def _guard_vertex(z: complex, what: str) -> None:
    if abs(z) < _VERTEX_FLOOR:
        raise InvariantViolationError(
            f"{what} vanishes; this parameter point sits on a degenerate vertex"
        )


def kernel_single_mode_undamped(a: float, b: float, t: float) -> KernelValue:
    """Second-order kernel for one noise frequency, no level decay.

    T(a, b, t) = int_0^t dt2 int_0^{t2} dt1 exp(i a t2) exp(i b t1), where
    a carries the photon-vertex energy mismatch and b the noise-vertex
    mismatch.  Split: the resonant part peaks at a + b = 0 (noise covers the
    whole deficit), the nonresonant part at b = 0; both are sinc-shaped with
    height growing like t at their peak.
    """
    _guard_vertex(1j * a, "photon vertex denominator i*a")
    s = a + b
    ia = 1j * a
    resonant = -exp_time_integral(1j * s, t) / ia
    nonresonant = cmath.exp(ia * t) * exp_time_integral(1j * b, t) / ia
    value = ordered_double_exp(1j * a, 1j * b, t)
    derivative = cmath.exp(ia * t) * exp_time_integral(1j * b, t)
    return KernelValue(value=value, derivative=derivative, resonant=resonant, nonresonant=nonresonant)


def kernel_single_mode_damped(a: float, b: float, gamma: float, t: float) -> KernelValue:
    """Second-order kernel for one noise frequency with intermediate decay.

    Same double integral as the undamped kernel but the intermediate level
    decays between the two vertices: u = i a - gamma, v = i b + gamma.
    The nonresonant part is the pure transient -exp(u t)/(u v), whose
    magnitude is exp(-gamma t)/(|u| |v|); at gamma = 0 the ``value`` reduces
    exactly to the undamped kernel (the split differs by a bounded
    regrouping).
    """
    if gamma < 0.0:
        raise InvariantViolationError("width must be >= 0")
    u = 1j * a - gamma
    v = 1j * b + gamma
    _guard_vertex(u, "damped vertex denominator i*a - gamma")
    _guard_vertex(v, "damped vertex denominator i*b + gamma")
    s = 1j * (a + b)
    value = ordered_double_exp(u, v, t)
    nonresonant = -cmath.exp(u * t) / (u * v)
    resonant = -exp_time_integral(s, t) / u + cmath.exp(s * t) / (u * v)
    derivative = cmath.exp(u * t) * exp_time_integral(v, t)
    return KernelValue(value=value, derivative=derivative, resonant=resonant, nonresonant=nonresonant)


# ---------------------------------------------------------------------------
# correlation-weighted double integral
# ---------------------------------------------------------------------------


def correlation_double_integral(noise: AnyNoise, a: complex, b: complex, t: float) -> complex:
    """I(a, b, t) = int_0^t int_0^t exp(a t1 + b t2) f(t1 - t2) dt1 dt2.

    Closed form in terms of one-sided Laplace moments of f; near b = -a the
    closed form cancels, so an expansion in eps = a + b (through eps^4)
    takes over.  The series needs the moments of order 0..5 at a and at -a;
    each is fetched once.
    """
    a = complex(a)
    b = complex(b)
    eps = a + b
    if abs(eps * t) < NEAR_CANCEL_PHASE:
        pos = [corr_moment(noise, a, t, m) for m in range(6)]
        neg = [corr_moment(noise, -a, t, m) for m in range(6)]
        total = 0.0 + 0.0j
        for k in range(5):
            near = 0.0 + 0.0j
            for m in range(k + 2):
                near += math.comb(k + 1, m) * t ** (k + 1 - m) * (-1.0) ** m * pos[m]
            far = t ** (k + 1) * neg[0] - neg[k + 1]
            total += eps**k / math.factorial(k + 1) * (near + far)
        return total
    la = corr_laplace(noise, a, t)
    lb = corr_laplace(noise, b, t)
    lma = corr_laplace(noise, -a, t)
    lmb = corr_laplace(noise, -b, t)
    return (cmath.exp(eps * t) * (lmb + lma) - (la + lb)) / eps


def correlation_double_integral_derivative(
    noise: AnyNoise, a: complex, b: complex, t: float
) -> complex:
    """d/dt of :func:`correlation_double_integral` (exact boundary slices)."""
    a = complex(a)
    b = complex(b)
    return cmath.exp((a + b) * t) * (
        corr_laplace(noise, -b, t) + corr_laplace(noise, -a, t)
    )


# ---------------------------------------------------------------------------
# noise-averaged kernels for an intermediate-level pair (n, m)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelParams:
    """Frequencies and widths entering one (n, m) kernel term.

    delta_ab means (E_a - E_b)/hbar for levels of the driven system:
    f = final, i = initial, n and m = the two intermediate levels (n from
    the amplitude, m from its conjugate).  omega_k is the emitted photon
    frequency.  The level energies must close: delta_fn + delta_ni equals
    delta_fm + delta_mi, both being the total drop f <- i.
    """

    delta_fn: float
    delta_ni: float
    delta_fm: float
    delta_mi: float
    omega_k: float
    gamma_n: float = 0.0
    gamma_m: float = 0.0

    def __post_init__(self):
        scale = max(
            1.0,
            abs(self.delta_fn),
            abs(self.delta_ni),
            abs(self.delta_fm),
            abs(self.delta_mi),
        )
        if abs((self.delta_fn + self.delta_ni) - (self.delta_fm + self.delta_mi)) > 1e-9 * scale:
            raise InvariantViolationError(
                "level frequencies do not close: delta_fn + delta_ni != delta_fm + delta_mi"
            )
        if self.gamma_n < 0.0 or self.gamma_m < 0.0:
            raise InvariantViolationError("widths must be >= 0")
        if self.omega_k <= 0.0:
            raise InvariantViolationError("photon frequency must be positive")

    @property
    def omega_plus(self) -> float:
        """Total oscillation frequency of the emitted line: delta_fi + omega_k."""
        return self.delta_fn + self.delta_ni + self.omega_k

    @classmethod
    def from_system(cls, spec, k: float, f: int, n: int, m: int, constants=None) -> "KernelParams":
        from .system import CouplingConstants, bohr_frequency

        c = constants or CouplingConstants()
        return cls(
            delta_fn=bohr_frequency(spec, f, n, c),
            delta_ni=bohr_frequency(spec, n, spec.initial, c),
            delta_fm=bohr_frequency(spec, f, m, c),
            delta_mi=bohr_frequency(spec, m, spec.initial, c),
            omega_k=c.light_speed * k,
            gamma_n=float(spec.widths[n]),
            gamma_m=float(spec.widths[m]),
        )


def _t1_vertices(p: KernelParams) -> tuple[complex, complex]:
    alpha = 1j * (p.delta_fn + p.omega_k) - p.gamma_n
    gbar = -1j * (p.delta_fm + p.omega_k) - p.gamma_m
    return alpha, gbar


def _t2_vertices(p: KernelParams) -> tuple[complex, complex]:
    a_v = 1j * (p.delta_fn + p.omega_k) - p.gamma_n
    b_v = -1j * (p.delta_mi + p.omega_k) + p.gamma_m
    return a_v, b_v


def _t3_vertices(p: KernelParams) -> tuple[complex, complex]:
    c_v = 1j * (p.delta_ni + p.omega_k) + p.gamma_n
    d_v = -1j * (p.delta_mi + p.omega_k) + p.gamma_m
    return c_v, d_v


def kernel_T1(p: KernelParams, noise: AnyNoise, t: float) -> complex:
    """Noise-first ordering squared, exact at finite t.

    Grows linearly once transients die; undamped it also carries the
    secular piece weighted by the noise spectrum at the n <- i gap.
    """
    alpha, gbar = _t1_vertices(p)
    _guard_vertex(alpha, "T1 photon vertex")
    _guard_vertex(gbar, "T1 conjugate photon vertex")
    beta = 1j * p.delta_ni + p.gamma_n
    delta = -1j * p.delta_mi + p.gamma_m
    wp = p.omega_plus
    ii = correlation_double_integral
    total = (
        cmath.exp((alpha + gbar) * t) * ii(noise, beta, delta, t)
        - cmath.exp(alpha * t) * ii(noise, beta, -1j * wp, t)
        - cmath.exp(gbar * t) * ii(noise, 1j * wp, delta, t)
        + ii(noise, 1j * wp, -1j * wp, t)
    )
    return total / (alpha * gbar)


def kernel_T2(p: KernelParams, noise: AnyNoise, t: float) -> complex:
    """Cross term: noise-first ordering times conjugated photon-first one.

    Enters the transition probability through twice its real part (with the
    coupling product for (n, m)).
    """
    a_v, b_v = _t2_vertices(p)
    _guard_vertex(a_v, "T2 photon vertex")
    _guard_vertex(b_v, "T2 conjugate photon vertex")
    beta = 1j * p.delta_ni + p.gamma_n
    cm = -1j * p.delta_fm - p.gamma_m
    wp = p.omega_plus
    ii = correlation_double_integral
    total = (
        cmath.exp(a_v * t) * ii(noise, beta, -1j * wp, t)
        - cmath.exp(a_v * t) * ii(noise, beta, cm, t)
        - ii(noise, 1j * wp, -1j * wp, t)
        + ii(noise, 1j * wp, cm, t)
    )
    return total / (a_v * b_v)


def kernel_T3(p: KernelParams, noise: AnyNoise, t: float) -> complex:
    """Photon-first ordering squared, exact at finite t."""
    c_v, d_v = _t3_vertices(p)
    _guard_vertex(c_v, "T3 photon vertex")
    _guard_vertex(d_v, "T3 conjugate photon vertex")
    cn = 1j * p.delta_fn - p.gamma_n
    cm = -1j * p.delta_fm - p.gamma_m
    wp = p.omega_plus
    ii = correlation_double_integral
    total = (
        ii(noise, 1j * wp, -1j * wp, t)
        - ii(noise, 1j * wp, cm, t)
        - ii(noise, cn, -1j * wp, t)
        + ii(noise, cn, cm, t)
    )
    return total / (c_v * d_v)


def _require_damped(p: KernelParams, what: str) -> None:
    if p.gamma_n <= 0.0 or p.gamma_m <= 0.0:
        raise ZeroWidthError(
            f"{what} has no long-time limit when an intermediate level has zero "
            f"width (gamma_n={p.gamma_n}, gamma_m={p.gamma_m})"
        )


def rate_T1_longtime(p: KernelParams, noise: AnyNoise) -> complex:
    """Long-time derivative of T1: f~(line) over the two photon vertices."""
    _require_damped(p, "T1 rate")
    alpha, gbar = _t1_vertices(p)
    return spectral_density(noise, p.omega_plus) / (alpha * gbar)


def rate_T2_longtime(p: KernelParams, noise: AnyNoise) -> complex:
    """Long-time derivative of T2 (note the minus sign)."""
    _require_damped(p, "T2 rate")
    a_v, b_v = _t2_vertices(p)
    return -spectral_density(noise, p.omega_plus) / (a_v * b_v)


def rate_T3_longtime(p: KernelParams, noise: AnyNoise) -> complex:
    """Long-time derivative of T3."""
    _require_damped(p, "T3 rate")
    c_v, d_v = _t3_vertices(p)
    return spectral_density(noise, p.omega_plus) / (c_v * d_v)


# ---------------------------------------------------------------------------
# residual cross term between resonant and transient pieces
# ---------------------------------------------------------------------------


def _residual_pieces(p: KernelParams, noise: AnyNoise, t: float) -> tuple[complex, complex, float]:
    wp = p.omega_plus
    scale = max(1.0, abs(p.delta_ni), abs(p.delta_fn) + p.omega_k)
    if abs(wp) < 1e-9 * scale:
        raise ResonantMixedTermError(
            "the emitted line frequency delta_fi + omega_k is (numerically) zero; "
            "the cross term does not average out there"
        )
    d1 = 1j * p.delta_ni + p.gamma_n
    d2 = 1j * (p.delta_fn + p.omega_k) - p.gamma_n
    _guard_vertex(d1, "residual cross denominator i*delta_ni + gamma_n")
    _guard_vertex(d2, "residual cross denominator")
    term1 = (
        cmath.exp(1j * wp * t) / d1 * corr_laplace(noise, -1j * p.delta_mi - p.gamma_m, t)
    )
    term2 = (
        cmath.exp(-1j * wp * t)
        / d2
        * corr_laplace(noise, 1j * (p.delta_fm + p.omega_k) - p.gamma_m, t)
    )
    return term1, term2, wp


def residual_cross_rate(p: KernelParams, noise: AnyNoise, t: float) -> complex:
    """Instantaneous derivative of the resonant-transient cross term.

    This contribution oscillates at the emitted line frequency; it carries
    no net weight in the emission rate (see the window mean) but bounds the
    ripple a finite observation window can see.
    """
    term1, term2, wp = _residual_pieces(p, noise, t)
    return (term1 + term2) / (1j * wp)


def residual_cross_window_mean(
    p: KernelParams,
    noise: AnyNoise,
    t: float,
    periods: int = 50,
    samples_per_period: int = 64,
) -> complex:
    """Average of :func:`residual_cross_rate` over whole oscillation periods."""
    term1, term2, wp = _residual_pieces(p, noise, t)
    del term1, term2
    length = 2.0 * math.pi * periods / abs(wp)
    ts = np.linspace(t, t + length, periods * samples_per_period + 1)
    vals = np.array([residual_cross_rate(p, noise, float(x)) for x in ts])
    return complex(np.trapezoid(vals, ts) / length)


def residual_cross_bound(p: KernelParams, noise: AnyNoise, t: float) -> float:
    """Bound on |residual_cross_rate| at time t (triangle inequality)."""
    term1, term2, wp = _residual_pieces(p, noise, t)
    return (abs(term1) + abs(term2)) / abs(wp)
