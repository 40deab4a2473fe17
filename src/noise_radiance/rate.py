"""Photon emission spectra of a noise-driven bound system.

The observable is the rate of photon emission per unit wavenumber,
resolved in the photon's magnitude k and summed over propagation
directions, polarizations, final levels, and noise channels:

    dGamma/dk = (8 pi / 3) * k^2 * (gamma / hbar^2)
                * sum_{f, channels, directions} |X - Y|^2 * f~(delta_fi + omega_k)

where, for each final level f,

    X = sum_n R[f,n] N[n,i] / (i (delta_fn + omega_k) - Gamma_n)
    Y = sum_n N[f,n] R[n,i] / (i (delta_ni + omega_k) + Gamma_n)

are the two time orderings (photon vertex last / photon vertex first).
At each k the regularized rate is one array evaluation: the coupling
products of both orderings are formed as (channel, direction, f, n)
arrays, divided by their propagators, reduced over n, and weighted by
f~ evaluated once on the final-level line frequencies delta_fi + omega_k.
The (8 pi / 3) factor is the polarization sum over the photon sphere for
matrix elements with no preferred direction; the k^2 is the mode-density
jacobian.  The single-mode normalization sqrt(hbar/(2 epsilon0 omega (2 pi)^3))
lives inside the radiation elements (see ``system.radiation_matrix``), so
only the k-dependence of the spectrum - not its absolute normalization -
is meaningful until the user fixes their own field conventions.

Two modes:

* ``regularized`` - the long-time rate above, valid when every
  contributing intermediate level has a nonzero width (enforced via
  ``ZeroWidthError``).  The noise enters only at the emitted line
  frequency delta_fi + omega_k.
* ``naive`` - all widths forced to zero, the finite-time transition
  probability assembled exactly, and the rate taken as a windowed
  difference quotient [P(t+W) - P(t)] / W.  This keeps the secular
  contribution weighted by the noise spectrum at the intermediate-level
  gaps, which is exactly the pathology the regularized mode removes;
  exposing both makes the difference measurable.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EdgeLevelWarning,
    InvariantViolationError,
    NonGroundInitialWarning,
    ZeroWidthError,
)
from .kernels import (
    KernelParams,
    kernel_T1,
    kernel_T2,
    kernel_T3,
    rate_T1_longtime,
    rate_T2_longtime,
    rate_T3_longtime,
)
from .noise import AnyNoise, spectral_density
from .system import (
    CouplingConstants,
    SystemSpec,
    delta_matrix,
    mode_amplitude,
    radiation_matrix,
)

#: polarization sum over the photon sphere, sum_pol int dOmega eps^j eps^j'
ANGULAR_POLARIZATION_FACTOR = 8.0 * math.pi / 3.0

#: relative change of the spectrum under dropping the top level that
#: triggers the truncation warning
TRUNCATION_SENSITIVITY = 0.01

MODES = ("regularized", "naive")


@dataclass(frozen=True)
class EmissionSpectrum:
    """A computed spectrum: photon wavenumbers, rates, and conventions."""

    k: np.ndarray
    rate: np.ndarray
    mode: str
    metadata: dict[str, str] = field(default_factory=dict)


def _structure_matrices(spec: SystemSpec) -> tuple[np.ndarray, ...]:
    """k-independent part of the radiation elements (zero pattern included)."""
    if spec.radiation_override is not None:
        return spec.radiation_override
    return tuple((-spec.charge / spec.mass) * p for p in spec.dipole_p)


def _pathway_numerators(spec: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Coupling products of both orderings, shape (channel, direction, f, n).

    Photon last: R[f,n] N[n,i]; photon first: N[f,n] R[n,i].  R is the
    k-independent structure part; the mode amplitude multiplies later.
    """
    noise_ops = np.stack(spec.noise_ops)
    rad = np.stack(_structure_matrices(spec))
    i = spec.initial
    photon_last = rad[None, :, :, :] * noise_ops[:, None, None, :, i]
    photon_first = noise_ops[:, None, :, :] * rad[None, :, None, :, i]
    return photon_last, photon_first


def check_contributing_widths(spec: SystemSpec) -> None:
    """Reject zero-width levels that actually enter as intermediates.

    A level with Gamma = 0 is fine as long as no second-order pathway
    passes through it; if one does, the long-time rate does not exist
    (the transition probability keeps a secular term).
    """
    photon_last, photon_first = _pathway_numerators(spec)
    carried = np.any((np.abs(photon_last) > 0.0) | (np.abs(photon_first) > 0.0), axis=(0, 1, 2))
    blocked = np.flatnonzero(carried & ~(spec.widths > 0.0))
    if blocked.size:
        raise ZeroWidthError(
            f"level {spec.labels[blocked[0]]!r} has zero width but carries a "
            f"second-order pathway; the long-time rate diverges through it"
        )


def _propagate(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    # a level without coupling must drop out even if its (never used)
    # propagator happens to be resonant with zero width
    coupled = num != 0.0
    return np.sum(np.where(coupled, num / np.where(coupled, denom, 1.0), 0.0), axis=-1)


def _line_weights(
    spec: SystemSpec, noise: AnyNoise, k: float, constants: CouplingConstants
) -> np.ndarray:
    """|X - Y|^2 f~(delta_fi + omega_k) at one k, shape (channel, direction, f)."""
    deltas = delta_matrix(spec, constants)
    omega_k = constants.light_speed * k
    i = spec.initial
    photon_last, photon_first = _pathway_numerators(spec)
    x_amp = _propagate(photon_last, 1j * (deltas + omega_k) - spec.widths)
    y_amp = _propagate(photon_first, 1j * (deltas[:, i] + omega_k) + spec.widths)
    line_density = spectral_density(noise, deltas[:, i] + omega_k)
    return np.abs(mode_amplitude(k, constants) * (x_amp - y_amp)) ** 2 * line_density


def emission_line_weight(
    spec: SystemSpec,
    noise: AnyNoise,
    k: float,
    f: int,
    ell: int,
    j: int,
    constants: CouplingConstants | None = None,
) -> float:
    """|X - Y|^2 f~(delta_fi + omega_k) for one (final, channel, direction)."""
    c = constants or CouplingConstants()
    return float(_line_weights(spec, noise, k, c)[ell, j, f])


def pair_rate_terms(
    spec: SystemSpec,
    noise: AnyNoise,
    k: float,
    f: int,
    ell: int,
    j: int,
    constants: CouplingConstants | None = None,
) -> tuple[complex, complex, complex]:
    """The same line weight split into the three kernel families.

    Returns (R11, R12, R22), the coupling-weighted sums of the long-time
    kernel rates over intermediate pairs (n, m).  Their combination
    R11 + 2 Re R12 + R22 equals :func:`emission_line_weight`; keeping both
    routes separately computable is the point.
    """
    c = constants or CouplingConstants()
    r_mat = radiation_matrix(spec, k, j, c)
    n_mat = spec.noise_ops[ell]
    i = spec.initial
    r11 = 0.0 + 0.0j
    r12 = 0.0 + 0.0j
    r22 = 0.0 + 0.0j
    for n in range(spec.size):
        x_n = r_mat[f, n] * n_mat[n, i]
        y_n = n_mat[f, n] * r_mat[n, i]
        if x_n == 0.0 and y_n == 0.0:
            continue
        for m in range(spec.size):
            x_m = r_mat[f, m] * n_mat[m, i]
            y_m = n_mat[f, m] * r_mat[m, i]
            if x_m == 0.0 and y_m == 0.0:
                continue
            params = KernelParams.from_system(spec, k, f, n, m, c)
            if x_n != 0.0 and x_m != 0.0:
                r11 += x_n * np.conj(x_m) * rate_T1_longtime(params, noise)
            if x_n != 0.0 and y_m != 0.0:
                r12 += x_n * np.conj(y_m) * rate_T2_longtime(params, noise)
            if y_n != 0.0 and y_m != 0.0:
                r22 += y_n * np.conj(y_m) * rate_T3_longtime(params, noise)
    return r11, r12, r22


def emission_rate_at_k(
    spec: SystemSpec,
    noise: AnyNoise,
    k: float,
    constants: CouplingConstants | None = None,
) -> float:
    """Regularized dGamma/dk at one wavenumber: one array evaluation."""
    c = constants or CouplingConstants()
    check_contributing_widths(spec)
    return _regularized_rate(spec, noise, k, c)


def _regularized_rate(spec: SystemSpec, noise: AnyNoise, k: float, c: CouplingConstants) -> float:
    # callers have run check_contributing_widths on this system
    total = float(np.sum(_line_weights(spec, noise, k, c)))
    return ANGULAR_POLARIZATION_FACTOR * k * k * c.gamma / (c.hbar * c.hbar) * total


def finite_time_probability(
    spec: SystemSpec,
    noise: AnyNoise,
    f: int,
    k: float,
    t: float,
    constants: CouplingConstants | None = None,
    zero_widths: bool = False,
) -> float:
    """Exact second-order transition probability into (f, one photon at k).

    Sums the three finite-time kernels over intermediate pairs with the
    coupling products, over all channels and directions, including the
    gamma/hbar^2 noise-strength prefactor.  ``zero_widths`` evaluates the
    undamped kernels regardless of the widths stored on the system.
    """
    c = constants or CouplingConstants()
    r_structure = _structure_matrices(spec)
    deltas = delta_matrix(spec, c)
    omega_k = c.light_speed * k
    widths = np.zeros(spec.size) if zero_widths else spec.widths
    i = spec.initial
    alpha_k = mode_amplitude(k, c)
    total = 0.0 + 0.0j
    for ell in range(len(spec.noise_ops)):
        n_mat = spec.noise_ops[ell]
        for j in range(len(spec.dipole_p)):
            r_mat = alpha_k * r_structure[j]
            for n in range(spec.size):
                x_n = r_mat[f, n] * n_mat[n, i]
                y_n = n_mat[f, n] * r_mat[n, i]
                if x_n == 0.0 and y_n == 0.0:
                    continue
                for m in range(spec.size):
                    x_m = r_mat[f, m] * n_mat[m, i]
                    y_m = n_mat[f, m] * r_mat[m, i]
                    if x_m == 0.0 and y_m == 0.0:
                        continue
                    params = KernelParams(
                        delta_fn=float(deltas[f, n]),
                        delta_ni=float(deltas[n, i]),
                        delta_fm=float(deltas[f, m]),
                        delta_mi=float(deltas[m, i]),
                        omega_k=omega_k,
                        gamma_n=float(widths[n]),
                        gamma_m=float(widths[m]),
                    )
                    if x_n != 0.0 and x_m != 0.0:
                        total += x_n * np.conj(x_m) * kernel_T1(params, noise, t)
                    if x_n != 0.0 and y_m != 0.0:
                        total += 2.0 * (x_n * np.conj(y_m) * kernel_T2(params, noise, t)).real
                    if y_n != 0.0 and y_m != 0.0:
                        total += y_n * np.conj(y_m) * kernel_T3(params, noise, t)
    prob = complex(total)
    return prob.real * c.gamma / (c.hbar * c.hbar)


def naive_rate_at_k(
    spec: SystemSpec,
    noise: AnyNoise,
    k: float,
    time: float,
    window: float,
    constants: CouplingConstants | None = None,
) -> float:
    """Undamped dGamma/dk as a windowed difference quotient.

    All widths are forced to zero, the exact finite-time probability is
    assembled at ``time`` and ``time + window``, and the slope is returned.
    Unlike the regularized rate this retains the secular weight at the
    intermediate-level gaps and never settles as the window grows.
    """
    c = constants or CouplingConstants()
    if not (time > 0.0) or not (window > 0.0):
        raise InvariantViolationError("naive mode needs a positive time and window")
    p_lo = 0.0
    p_hi = 0.0
    for f in range(spec.size):
        p_lo += finite_time_probability(spec, noise, f, k, time, c, zero_widths=True)
        p_hi += finite_time_probability(spec, noise, f, k, time + window, c, zero_widths=True)
    # gamma/hbar^2 already lives inside the probabilities
    return ANGULAR_POLARIZATION_FACTOR * k * k * (p_hi - p_lo) / window


def _drop_top_level(spec: SystemSpec) -> SystemSpec | None:
    top = int(np.argmax(spec.energies))
    if spec.size <= 2 or top == spec.initial:
        return None
    keep = [idx for idx in range(spec.size) if idx != top]
    sel = np.ix_(keep, keep)
    new_initial = spec.initial - (1 if top < spec.initial else 0)
    return SystemSpec(
        labels=tuple(spec.labels[idx] for idx in keep),
        energies=spec.energies[keep],
        widths=spec.widths[keep],
        noise_ops=tuple(op[sel] for op in spec.noise_ops),
        dipole_p=tuple(op[sel] for op in spec.dipole_p),
        mass=spec.mass,
        charge=spec.charge,
        initial=new_initial,
        radiation_override=(
            None
            if spec.radiation_override is None
            else tuple(op[sel] for op in spec.radiation_override)
        ),
    )


def spectrum(
    spec: SystemSpec,
    noise: AnyNoise,
    k_values,
    mode: str = "regularized",
    constants: CouplingConstants | None = None,
    time: float | None = None,
    window: float | None = None,
    threads: int | None = None,
    check_truncation: bool = True,
) -> EmissionSpectrum:
    """Emission spectrum over a wavenumber grid.

    Each k is computed independently, in a fixed summation order, one after
    another.  ``threads`` is accepted for callers that pass it and changes
    nothing: the per-k work is Python code or small numpy calls that hold
    the interpreter lock, so worker threads never ran faster.  In
    regularized mode each k is one array evaluation; intermediates stay of
    the system's size for any grid length.
    """
    c = constants or CouplingConstants()
    if mode not in MODES:
        raise InvariantViolationError(f"unknown mode {mode!r}; expected one of {MODES}")
    ks = np.asarray(k_values, dtype=float)
    if ks.ndim != 1 or ks.size == 0 or not np.all(ks > 0.0):
        raise InvariantViolationError("k grid must be a nonempty 1-d array of positive values")
    if float(spec.energies[spec.initial]) > float(np.min(spec.energies)):
        warnings.warn(
            "initial level is not the ground level; spontaneous decay channels "
            "outside this model will compete with the noise-induced emission",
            NonGroundInitialWarning,
            stacklevel=2,
        )
    if mode == "naive":
        if time is None or window is None:
            raise InvariantViolationError("naive mode needs time= and window=")

        def rate_at(k: float) -> float:
            return naive_rate_at_k(spec, noise, k, time, window, c)

    else:
        # once per system; the k loop then skips the check
        check_contributing_widths(spec)

        def rate_at(k: float) -> float:
            return _regularized_rate(spec, noise, k, c)

    values = np.array([rate_at(float(k)) for k in ks], dtype=float)

    if check_truncation:
        reduced = _drop_top_level(spec)
        if reduced is not None:
            try:
                red_spec = spectrum(
                    reduced,
                    noise,
                    ks,
                    mode=mode,
                    constants=c,
                    time=time,
                    window=window,
                    check_truncation=False,
                )
                ref = np.max(np.abs(values))
                if ref > 0.0:
                    change = float(np.max(np.abs(values - red_spec.rate))) / ref
                    if change > TRUNCATION_SENSITIVITY:
                        warnings.warn(
                            f"dropping the top level changes the spectrum by "
                            f"{change:.1%}; the level ladder is truncated too low",
                            EdgeLevelWarning,
                            stacklevel=2,
                        )
            except ZeroWidthError:
                pass
    metadata = {
        "mode": mode,
        "columns": "k, dGamma_dk",
        "units": "natural units of the supplied constants (defaults: hbar = c = epsilon0 = 1)",
        "jacobian": (
            "includes (8*pi/3) polarization-sphere sum and k^2 mode density; "
            "single-mode normalization sqrt(hbar/(2 epsilon0 omega (2 pi)^3)) "
            "inside radiation elements"
        ),
        "noise": getattr(noise, "kind", "unknown"),
        "levels": str(spec.size),
        "initial": spec.labels[spec.initial],
    }
    if mode == "naive":
        metadata["time"] = repr(float(time))
        metadata["window"] = repr(float(window))
    return EmissionSpectrum(k=ks, rate=values, mode=mode, metadata=metadata)
