"""Independent references for the benchmark's output checks.

Nothing here imports noise_radiance.  Each function recomputes a program
output from the model's defining formulas with numpy alone, so a
fault in the package cannot hide inside its own check.  All formulas use
natural units (hbar = c = epsilon0 = 1), which is what every workload runs.

* ``golden_rule_widths`` - radiative widths of a finite system.
* ``regularized_rate`` - the long-time line sum
  (8 pi / 3) k^2 gamma sum_{f, channel, direction} |X - Y|^2 f~(delta_fi + omega_k).
* ``naive_rate`` - the windowed difference quotient of the finite-time
  probability, each probability a double-time Simpson quadrature
  P(t) = gamma sum int int K(s) K*(s') f(s - s') ds ds'.
* ``transform_bound`` - how far a transform built from samples of f on a
  uniform grid may sit from the continuous transform.
* ``pooled_mean`` - one Monte Carlo mean and standard error from many batches.
"""
from __future__ import annotations

import math

import numpy as np

ANGULAR_FACTOR = 8.0 * math.pi / 3.0


def gaussian_corr(tau: float, scale: float):
    """f(s) = scale exp(-s^2 / 2 tau^2) / (tau sqrt(2 pi)), f~(0) = scale."""
    norm = scale / (tau * math.sqrt(2.0 * math.pi))
    return lambda s: norm * np.exp(-np.square(s) / (2.0 * tau * tau))


def gaussian_density(tau: float, scale: float):
    return lambda w: scale * np.exp(-0.5 * np.square(np.asarray(w) * tau))


def exponential_corr(tau: float, scale: float):
    """f(s) = scale exp(-|s| / tau) / (2 tau), f~(0) = scale."""
    return lambda s: scale * np.exp(-np.abs(s) / tau) / (2.0 * tau)


def exponential_density(tau: float, scale: float):
    return lambda w: scale / (1.0 + np.square(np.asarray(w) * tau))


def golden_rule_widths(energies, dipoles, charge: float, mass: float) -> np.ndarray:
    """Gamma_i = beta / m^2 sum_{E_n < E_i} (E_i - E_n) sum_j |p_j[n, i]|^2.

    beta = charge^2 / (6 pi) is the radiation-damping time in natural units.
    """
    e = np.asarray(energies, dtype=float)
    drop = e[:, None] - e[None, :]  # drop[i, n] = E_i - E_n
    strength = sum(np.abs(p) ** 2 for p in dipoles)  # strength[n, i]
    lower = drop > 1e-9 * max(1.0, float(np.max(np.abs(e))))
    beta = charge * charge / (6.0 * math.pi)
    return beta / (mass * mass) * np.sum(np.where(lower, drop * strength.T, 0.0), axis=1)


def _masked_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # an uncoupled level drops out even where its propagator is singular
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape), dtype=complex)
    np.divide(num, den, out=out, where=np.broadcast_to(num != 0.0, out.shape))
    return out


def _mode_amplitude(ks: np.ndarray) -> np.ndarray:
    return np.sqrt(1.0 / (2.0 * ks * (2.0 * math.pi) ** 3))


def regularized_rate(ks, energies, widths, noise_ops, radiation, initial, density,
                     gamma: float = 1.0) -> np.ndarray:
    """Long-time dGamma/dk on a k grid, all lines summed at once.

    ``radiation`` holds the k-independent vertex (-charge / mass) p_j per
    direction; the mode amplitude sqrt(1 / (2 omega (2 pi)^3)) multiplies it.
    """
    ks = np.asarray(ks, dtype=float)
    e = np.asarray(energies, dtype=float)
    width = np.asarray(widths, dtype=float)
    i = initial
    big_n = np.stack(noise_ops)  # (L, n, n)
    big_r = np.stack(radiation)  # (J, n, n)
    w = ks[:, None, None]
    # photon vertex last: sum_n R[f, n] N[n, i] / (i (E_f - E_n + w) - Gamma_n)
    num_x = big_r[None, :, :, :] * big_n[:, None, :, i][:, :, None, :]  # (L, J, f, n)
    den_x = 1j * (e[None, :, None] - e[None, None, :] + w) - width[None, None, :]  # (k, f, n)
    x = np.sum(_masked_ratio(num_x[None], den_x[:, None, None]), axis=-1)  # (k, L, J, f)
    # photon vertex first: sum_n N[f, n] R[n, i] / (i (E_n - E_i + w) + Gamma_n)
    num_y = big_n[:, None, :, :] * big_r[None, :, :, i][:, :, None, :]  # (L, J, f, n)
    den_y = 1j * (e[None, None, :] - e[i] + w) + width[None, None, :]  # (k, 1, n)
    y = np.sum(_masked_ratio(num_y[None], den_y[:, None, None]), axis=-1)
    amp = _mode_amplitude(ks)[:, None, None, None]
    weight = np.abs(amp * (x - y)) ** 2  # (k, L, J, f)
    line = density(e[None, :] - e[i] + ks[:, None])  # (k, f)
    return ANGULAR_FACTOR * ks**2 * gamma * np.einsum("kljf,kf->k", weight, line)


def simpson_weights(n_intervals: int, h: float) -> np.ndarray:
    if n_intervals < 2 or n_intervals % 2:
        raise ValueError("Simpson's rule needs an even number of intervals")
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def vertex_kernels(s: np.ndarray, t: float, k: float, energies, widths, noise_ops,
                   radiation, initial) -> np.ndarray:
    """K(s) for every (final level, channel, direction): A = int_0^t w(s) K(s) ds.

    K sums both orderings of one noise vertex at time s: photon emitted
    later (s < t2 < t) or earlier (0 < t1 < s), each with its intermediate
    level's damping.  Rows that vanish identically are dropped.
    """
    e = np.asarray(energies, dtype=float)
    gam = np.asarray(widths, dtype=float)
    i = initial
    amp = float(_mode_amplitude(np.array([k]))[0])
    rows = []
    for n_op in noise_ops:
        for r_op in radiation:
            r_k = amp * r_op
            for f in range(e.size):
                kern = np.zeros(s.size, dtype=complex)
                for n in range(e.size):
                    x_n = r_k[f, n] * n_op[n, i]
                    y_n = n_op[f, n] * r_k[n, i]
                    line = 1j * (e[f] - e[i] + k) * s
                    if x_n != 0.0:
                        u = 1j * (e[f] - e[n] + k) - gam[n]
                        lead = (1j * (e[n] - e[i]) + gam[n]) * s
                        kern += x_n * (np.exp(lead + u * t) - np.exp(line)) / u
                    if y_n != 0.0:
                        v = 1j * (e[n] - e[i] + k) + gam[n]
                        kern += y_n * (np.exp(line) - np.exp((1j * (e[f] - e[n]) - gam[n]) * s)) / v
                if np.any(kern != 0.0):
                    rows.append(kern)
    return np.array(rows).reshape(len(rows), s.size)


def finite_time_probability(t: float, k: float, energies, widths, noise_ops, radiation,
                            initial, corr, reach: float, step: float = 0.02,
                            gamma: float = 1.0) -> float:
    """gamma sum_{f, channel, direction} int int K(s) K*(s') f(s - s') over [0, t]^2.

    Simpson's rule in both times; f is applied as a band of half-width
    ``reach`` (beyond which it is negligible) by FFT convolution.
    """
    n_int = 2 * int(math.ceil(t / (2.0 * step)))
    h = t / n_int
    s = np.linspace(0.0, t, n_int + 1)
    u = vertex_kernels(s, t, k, energies, widths, noise_ops, radiation, initial)
    u = u * simpson_weights(n_int, h)[None, :]
    half = min(n_int, int(math.ceil(reach / h)))
    band = corr(h * np.arange(-half, half + 1))
    size = 1 << (u.shape[1] + band.size - 2).bit_length()
    full = np.fft.ifft(np.fft.fft(u, size, axis=1) * np.fft.fft(band, size), axis=1)
    smeared = full[:, half : half + u.shape[1]]
    return gamma * float(np.sum(np.conj(u) * smeared).real)


def naive_rate(ks, time: float, window: float, energies, noise_ops, radiation, initial,
               corr, reach: float, step: float = 0.02, gamma: float = 1.0) -> np.ndarray:
    """Zero-width (8 pi / 3) k^2 [P(time + window) - P(time)] / window."""
    zero = np.zeros(len(energies))
    out = []
    for k in np.asarray(ks, dtype=float):
        probs = [
            finite_time_probability(t, k, energies, zero, noise_ops, radiation, initial,
                                    corr, reach, step, gamma)
            for t in (time, time + window)
        ]
        out.append(ANGULAR_FACTOR * k * k * (probs[1] - probs[0]) / window)
    return np.array(out)


def transform_bound(corr, d1, d2, spacing: float, support: float, omega, tail: float) -> np.ndarray:
    """Largest distance of a sampled transform from the continuous one.

    The table holds f on a uniform grid of ``spacing`` over [0, support].
    Both the trapezoid rule on the samples and the exact transform of their
    linear interpolant integrate some piecewise-linear interpolant g_h of f
    or of f cos(omega s), and |g - g_h| <= spacing^2 / 8 |g''| on each
    segment.  Over the even line this gives

        2 (h^2 / 8) int_0^S (|f''| + 2 |omega| |f'| + omega^2 |f|) ds,

    plus the truncated tail ``tail`` = 2 int_S^inf |f| ds.  ``d1``
    and ``d2`` are f' and f'' on s > 0.
    """
    s = np.linspace(0.0, support, 200_001)
    w = simpson_weights(s.size - 1, s[1] - s[0])
    m0 = float(np.dot(w, np.abs(corr(s))))
    m1 = float(np.dot(w, np.abs(d1(s))))
    m2 = float(np.dot(w, np.abs(d2(s))))
    om = np.abs(np.asarray(omega, dtype=float))
    return spacing**2 / 4.0 * (m2 + 2.0 * om * m1 + om * om * m0) + tail


def pooled_mean(means, stderrs):
    """Mean and standard error of equal-sized independent batches."""
    means = np.asarray(means, dtype=float)
    stderrs = np.asarray(stderrs, dtype=float)
    return np.mean(means, axis=0), np.sqrt(np.sum(stderrs**2, axis=0)) / len(means)
