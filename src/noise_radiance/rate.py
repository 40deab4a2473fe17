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
  probability assembled exactly (as arrays over the coupled final and
  intermediate levels, both times at once), and the rate taken as a
  windowed difference quotient [P(t+W) - P(t)] / W.  This keeps the secular
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
    _VERTEX_FLOOR,
    KernelParams,
    _guard_vertex,
    cdiv,
    cmul,
    correlation_double_integrals,
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


def _pathway_numerators(spec: SystemSpec, amplitude: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Coupling products of both orderings, shape (channel, direction, f, n).

    Photon last: R[f,n] N[n,i]; photon first: N[f,n] R[n,i].  R is the
    k-independent structure part times ``amplitude``; the regularized rate
    leaves it at 1 and multiplies the mode amplitude later.
    """
    noise_ops = np.stack(spec.noise_ops)
    rad = amplitude * np.stack(_structure_matrices(spec))
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


def _finite_time_probabilities(
    spec: SystemSpec,
    noise: AnyNoise,
    k: float,
    times,
    c: CouplingConstants,
    zero_widths: bool,
    finals,
) -> np.ndarray:
    """P(f, t) for every t in ``times`` and f in ``finals``, shape (times, finals).

    The coupling-weighted sum of ``kernel_T1..T3`` over (channel, direction,
    n, m), as arrays over the coupled entries only: each kernel is formed
    once per (f, n, m) that a coupled pair needs, each correlation double
    integral the three share once per (f, n, m), and each Laplace moment
    once per distinct vertex and time.  Every kernel has the scalar
    kernel's bits, and each sum over f runs in the scalar order (channel,
    direction, n, m, then T1, T2, T3), so P has the bits of the scalar sum
    whenever the coupling products do.
    """
    times = np.asarray(times, dtype=float)
    finals = np.asarray(finals)
    deltas = delta_matrix(spec, c)
    omega_k = c.light_speed * k
    widths = np.zeros(spec.size) if zero_widths else spec.widths
    # coupling products, (f, channel x direction, n)
    x, y = (
        num[:, :, finals].reshape(-1, finals.size, spec.size).transpose(1, 0, 2)
        for num in _pathway_numerators(spec, mode_amplitude(k, c))
    )
    # T1, T2, T3 pair u_n with v_m: where the scalar loops evaluate each, at
    # (f, channel x direction, n, m)
    u, v = np.array([x, x, y]), np.array([x, y, y])
    uses = (u != 0.0)[..., :, None] & (v != 0.0)[..., None, :]
    fq, eq, nq, mq = np.nonzero(uses.any(axis=0))  # coupled entries, in scalar order
    need = uses.any(axis=2)  # (kernel, f, n, m)
    fp, n, m = np.nonzero(need.any(axis=0))  # entries some kernel needs
    slot = np.zeros(need.shape[1:], dtype=int)
    slot[fp, n, m] = np.arange(fp.size)
    kq = slot[fq, nq, mq]
    uq = uses[:, fq, eq, nq, mq]

    # vertices of KernelParams(delta_fn, delta_ni, delta_fm, delta_mi, ...)
    d_fn, d_fm = deltas[finals[fp], n], deltas[finals[fp], m]
    d_ni, d_mi = deltas[n, spec.initial], deltas[m, spec.initial]
    g_n, g_m = widths[n], widths[m]
    photon = 1j * (d_fn + omega_k) - g_n  # alpha = a_v
    photon_conj = -1j * (d_fm + omega_k) - g_m  # gbar
    late = -1j * (d_mi + omega_k) + g_m  # b_v = d_v
    early = 1j * (d_ni + omega_k) + g_n  # c_v
    guarded = np.array([photon, photon_conj, photon, late, early, late])
    bad = uq[[0, 0, 1, 1, 2, 2]] & (np.hypot(guarded.real, guarded.imag) < _VERTEX_FLOOR)[:, kq]
    if bad.any():
        # the first one the scalar loops would meet
        q, which = np.argwhere(bad.T)[0]
        kernel, side = divmod(int(which), 2)
        _guard_vertex(
            complex(guarded[which, kq[q]]),
            f"T{kernel + 1} {'conjugate ' if side else ''}photon vertex",
        )

    # I(a, b, t) of the three kernels, each where a kernel needs it
    beta = 1j * d_ni + g_n
    delta = -1j * d_mi + g_m
    cn = 1j * d_fn - g_n
    cm = -1j * d_fm - g_m
    wp = 1j * (d_fn + d_ni + omega_k)  # i omega_plus, formed as KernelParams forms it
    u1, u2, u3 = need[:, fp, n, m]
    a = np.array([beta, beta, wp, wp, beta, wp, cn, cn])
    b = np.array([delta, -wp, delta, -wp, cm, cm, -wp, cm])
    s, p = np.nonzero(np.array([u1, u1 | u2, u1, u1 | u2 | u3, u2, u2 | u3, u3, u3]))
    ii = np.zeros((8, times.size, fp.size), dtype=complex)
    ii[s, :, p] = correlation_double_integrals(noise, a[s, p], b[s, p], times).T
    i_bd, i_bw, i_wd, i_ww, i_bc, i_wc, i_cw, i_cc = ii

    t = times[:, None]
    e_photon = np.exp(photon * t)
    e_both, e_conj = np.exp((photon + photon_conj) * t), np.exp(photon_conj * t)
    prod = cmul(np.array([e_both, e_photon, e_conj, e_photon]), np.array([i_bd, i_bw, i_wd, i_bc]))
    kernels = cdiv(
        np.array([
            prod[0] - prod[1] - prod[2] + i_ww,
            prod[1] - prod[3] - i_ww + i_wc,
            i_ww - i_wc - i_cw + i_cc,
        ]),
        cmul(np.array([photon, photon, early]), np.array([photon_conj, late, late]))[:, None],
    )[:, :, kq]
    # weight * Re(u_n conj(v_m) T[n, m]) where the scalar loops add it
    w = cmul(u[:, fq, eq, nq], np.conj(v[:, fq, eq, mq]))
    with np.errstate(invalid="ignore"):  # unused kernels may be inf or nan
        terms = np.where(
            uq[:, None],
            np.array([1.0, 2.0, 1.0])[:, None, None]
            * (w.real[:, None] * kernels.real - w.imag[:, None] * kernels.imag),
            0.0,
        )
    # each f's terms in scalar order behind a leading 0, then a sequential sum
    rank = np.arange(fq.size) - np.searchsorted(fq, fq) + 1
    rows = np.zeros((times.size, finals.size, rank.max(initial=0) + 1, 3))
    rows[:, fq, rank] = terms.transpose(1, 2, 0)
    totals = np.cumsum(rows.reshape(times.size, finals.size, -1), axis=-1)[..., -1]
    return totals * c.gamma / (c.hbar * c.hbar)


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
    undamped kernels regardless of the widths stored on the system.  The
    sum is array code (see ``_finite_time_probabilities``) with the bits
    of the per-pair sum of ``kernel_T1..T3``, which stay the reference.

    Raises
    ------
    InvariantViolationError
        If a kernel that a coupled pair needs has a vanishing vertex.
    """
    c = constants or CouplingConstants()
    return float(_finite_time_probabilities(spec, noise, k, [t], c, zero_widths, [f])[0, 0])


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
    assembled at ``time`` and ``time + window`` for every final level in
    one array pass, and the slope is returned.  Unlike the regularized
    rate this retains the secular weight at the intermediate-level gaps
    and never settles as the window grows.
    """
    c = constants or CouplingConstants()
    if not (time > 0.0) or not (window > 0.0):
        raise InvariantViolationError("naive mode needs a positive time and window")
    probs = _finite_time_probabilities(
        spec, noise, k, [time, time + window], c, True, range(spec.size)
    )
    p_lo = 0.0
    p_hi = 0.0
    for lo, hi in zip(*probs.tolist()):  # summed over f in order, as floats
        p_lo += lo
        p_hi += hi
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
