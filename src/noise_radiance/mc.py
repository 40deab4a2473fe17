"""Monte Carlo validation of the finite-time transition probabilities.

The closed-form kernels promise the noise-averaged probability of finding
the system in level f with one photon of wavenumber k at time t.  This
module checks that promise the hard way: draw random noise trajectories
with the requested correlation, take the two time-ordered second-order
amplitudes along each trajectory, and average the squared sum.

Trajectory synthesis is spectral: independent Gaussian weights on a
frequency grid shaped by f~, inverse-FFT'd to a stationary real process
whose autocovariance converges to f (``empirical_autocovariance`` measures
it).  Streams are counter-based, so trajectory r of seed s is the same
numbers no matter the batch size or call pattern.

The amplitudes are integrated on the sample grid (a trapezoid over a
cumulative trapezoid), and that discretized amplitude is linear in the
samples w: A = sum_s w[s] K[s], with a complex kernel K that depends only
on (system, f, k, t, dt).  For the photon-first ordering K is the
trapezoid weights times the deterministic inner integral; for the
photon-last ordering it is the adjoint of the cumulative-trapezoid ->
trapezoid pair, a reverse cumulative sum.  ``amplitude_paths`` applies K
to given trajectories.  ``estimate_Pfi`` never builds them: w is the
inverse real FFT of the Gaussian weights (xi, eta), so K is folded once
through the adjoint of that transform (one zero-padded FFT and inverse
FFT) into two complex vectors, and each trajectory's amplitude is
A = xi . alpha + eta . beta over the same draws ``sample_noise`` uses.
This is the spectral representation method (Shinozuka & Deodatis 1991)
read in reverse.

Assumption to keep in mind: trajectories are *Gaussian* by construction.
Every second-order result in this package only ever uses the two-point
correlation, so Gaussianity is no loss for validation - but the synthesized
ensemble is not a stand-in for arbitrary non-Gaussian noise.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    InadmissibleNoiseError,
    InvariantViolationError,
    TrajectoryTooShortError,
)
from .noise import AnyNoise, correlation_time, spectral_density
from .rate import finite_time_probability
from .system import CouplingConstants, SystemSpec, delta_matrix, radiation_matrix

#: trajectory samples per shortest period / correlation time
OVERSAMPLING = 40.0

#: extra sampled time beyond the requested duration, in correlation times
PADDING_CORR_TIMES = 10.0


@dataclass(frozen=True)
class NoiseRealization:
    """A batch of sampled noise trajectories on a uniform time grid."""

    times: np.ndarray
    values: np.ndarray  # shape (n_traj, n_steps)
    dt: float

    @property
    def n_traj(self) -> int:
        return int(self.values.shape[0])

    @property
    def duration(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class AmplitudeEstimate:
    """Sample mean and standard error of the transition probability.

    ``dt``, ``fft_length`` and ``padding_steps`` describe the synthesis
    grid the trajectories were drawn on.
    """

    mean: float
    stderr: float
    n_samples: int
    dt: float
    fft_length: int
    padding_steps: int


@dataclass(frozen=True)
class _SynthesisGrid:
    """Spectral synthesis grid: M-point FFT, bin amplitudes, stream draws."""

    n_steps: int  # samples covering the requested duration
    padding: int  # samples added past it against periodic wraparound
    m: int
    amp: np.ndarray  # bin scale, shape (m // 2 + 1,)

    @staticmethod
    def drawer(seed: int) -> Callable[[int, np.ndarray], np.ndarray]:
        """``draw(stream, out)`` fills ``out`` with the stream's weights (xi, eta).

        One Philox bit generator serves every stream of the seed: each draw
        resets it to key [seed, 0] and counter [0, 0, 0, stream], the state a
        new ``Philox(key=..., counter=...)`` starts from.
        """
        bitgen = np.random.Philox(key=[seed, 0])
        normal = np.random.Generator(bitgen).standard_normal
        state = bitgen.state

        def draw(stream: int, out: np.ndarray) -> np.ndarray:
            state["state"]["counter"] = np.array([0, 0, 0, stream], dtype=np.uint64)
            bitgen.state = state
            return normal(out=out)

        return draw


def _synthesis_grid(noise: AnyNoise, duration: float, dt: float) -> _SynthesisGrid:
    if duration <= 0.0 or dt <= 0.0:
        raise InvariantViolationError("duration and dt must be positive")
    n_steps = int(math.ceil(duration / dt)) + 1
    if n_steps < 8:
        raise TrajectoryTooShortError(
            f"only {n_steps} samples over the requested duration; lower dt"
        )
    pad = int(math.ceil(PADDING_CORR_TIMES * correlation_time(noise) / dt)) + 1
    m = 1 << (n_steps + pad - 1).bit_length()
    omega = 2.0 * math.pi * np.fft.rfftfreq(m, d=dt)
    density = np.asarray(spectral_density(noise, omega), dtype=float)
    floor = -1e-9 * float(np.max(np.abs(density), initial=1.0))
    if np.any(density < floor):
        raise InadmissibleNoiseError(
            "spectral density is negative on the synthesis grid; "
            "not a valid correlation function"
        )
    amp = np.sqrt(np.clip(density, 0.0, None) * m / dt)
    return _SynthesisGrid(n_steps=n_steps, padding=pad, m=m, amp=amp)


def default_time_step(spec: SystemSpec, noise: AnyNoise, k: float,
                      constants: CouplingConstants | None = None) -> float:
    """Step resolving both the fastest system phase and the noise memory."""
    c = constants or CouplingConstants()
    deltas = delta_matrix(spec, c)
    omega_k = c.light_speed * k
    fastest = float(np.max(np.abs(deltas))) + omega_k
    dt = 2.0 * math.pi / fastest / OVERSAMPLING
    tau = correlation_time(noise)
    if tau > 0.0:
        dt = min(dt, tau / OVERSAMPLING)
    return dt


def sample_noise(
    noise: AnyNoise,
    duration: float,
    dt: float,
    n_traj: int,
    seed: int,
    stream_offset: int = 0,
) -> NoiseRealization:
    """Draw stationary Gaussian trajectories with autocovariance f.

    Spectral synthesis: frequency bin j of an M-point grid gets variance
    M * f~(omega_j) / dt, split between independent real and imaginary
    Gaussian weights; the inverse real FFT is then a real process with
    E[w(t) w(t+s)] -> f(s) as the grid refines.  The grid is padded past
    ``duration`` by several correlation times so periodic wraparound
    cannot reach the window that is returned.

    Trajectory ``stream_offset + r`` always consumes its own counter
    block of the underlying bit generator: results are independent of
    batching.
    """
    grid = _synthesis_grid(noise, duration, dt)
    amp, bins = grid.amp, grid.amp.size
    weights = np.empty(2 * bins)
    values = np.empty((n_traj, grid.n_steps), dtype=float)
    draw = grid.drawer(seed)
    for r in range(n_traj):
        draw(stream_offset + r, weights)
        xi, eta = weights[:bins], weights[bins:]
        coeff = amp * (xi + 1j * eta) / math.sqrt(2.0)
        # zero-frequency and Nyquist bins must be real for a real signal
        coeff[0] = amp[0] * xi[0]
        coeff[-1] = amp[-1] * xi[-1]
        values[r] = np.fft.irfft(coeff, n=grid.m)[: grid.n_steps]
    times = np.arange(grid.n_steps) * dt
    return NoiseRealization(times=times, values=values, dt=dt)


def _cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    # scipy.integrate.cumulative_trapezoid(y, dx=dx, axis=-1, initial=0.0),
    # in the same operation order
    steps = np.cumsum(dx * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    return np.concatenate([np.zeros_like(steps[..., :1]), steps], axis=-1)


def _amplitude_kernels(
    spec: SystemSpec,
    f: int,
    k: float,
    n_steps: int,
    dt: float,
    c: CouplingConstants,
) -> tuple[np.ndarray, np.ndarray]:
    """Kernels (K_last, K_first) with amplitude = w @ K on samples s * dt.

    The amplitudes are trapezoid rules over a cumulative trapezoid of the
    samples w[0..n_steps-1]; both are linear in w, and these are their
    coefficients.
    """
    if len(spec.noise_ops) != 1 or len(spec.dipole_p) != 1:
        raise InvariantViolationError(
            "trajectory amplitudes need exactly one noise channel and one dipole direction"
        )
    times = np.arange(n_steps) * dt
    trap = np.full(n_steps, dt)
    trap[0] = trap[-1] = 0.5 * dt

    deltas = delta_matrix(spec, c)
    omega_k = c.light_speed * k
    r_mat = radiation_matrix(spec, k, 0, c)
    n_mat = spec.noise_ops[0]
    i = spec.initial

    k_last = np.zeros(n_steps, dtype=complex)
    k_first = np.zeros(n_steps, dtype=complex)
    for n in range(spec.size):
        gamma_n = float(spec.widths[n])
        x_n = complex(r_mat[f, n] * n_mat[n, i])
        y_n = complex(n_mat[f, n] * r_mat[n, i])
        if x_n != 0.0:
            # noise kick at the early time, photon at the late time:
            # sum_j trap[j] outer[j] sum_{0<l<=j} (dt/2) (u[l] + u[l-1]),
            # u = w * inner, gives sample s the weight (dt/2)(tail[s] +
            # tail[s+1]) with tail[l] = sum_{j>=l} trap[j] outer[j],
            # tail[0] -> 0 and tail[n_steps] = 0
            outer = trap * np.exp((1j * (deltas[f, n] + omega_k) - gamma_n) * times)
            tail = np.cumsum(outer[::-1])[::-1]
            tail[0] = 0.0
            adjoint = tail + np.append(tail[1:], 0.0)
            inner = np.exp((1j * deltas[n, i] + gamma_n) * times)
            k_last += x_n * (0.5 * dt) * adjoint * inner
        if y_n != 0.0:
            # photon at the early time, noise kick at the late time
            inner = _cumulative_trapezoid(
                np.exp((1j * (deltas[n, i] + omega_k) + gamma_n) * times), dt
            )
            outer = np.exp((1j * deltas[f, n] - gamma_n) * times)
            k_first += y_n * trap * outer * inner
    return k_last, k_first


def _fold_through_synthesis(kernel: np.ndarray, grid: _SynthesisGrid) -> np.ndarray:
    """Real (2, 2 * bins) matrix G with [Re A, Im A] = G @ [xi, eta].

    A = sum_s w[s] kernel[s] for the trajectory ``sample_noise`` makes from
    the weights (xi, eta): the adjoint of its irfft, applied to the kernel.
    """
    bins = grid.amp.size
    padded = np.zeros(grid.m, dtype=complex)
    padded[: kernel.size] = kernel
    minus = np.fft.fft(padded)[:bins]  # sum_s K[s] exp(-2 pi i j s / m)
    plus = grid.m * np.fft.ifft(padded)[:bins]  # sum_s K[s] exp(+2 pi i j s / m)
    # bin j of irfft carries (2/m) Re(coeff_j exp(2 pi i j s / m)), with
    # coeff_j = amp_j (xi_j + i eta_j) / sqrt(2)
    scale = grid.amp * (math.sqrt(2.0) / grid.m)
    alpha = scale * 0.5 * (plus + minus)
    beta = scale * 0.5j * (plus - minus)
    # zero-frequency and Nyquist bins: amp * xi, counted once
    alpha[0] = grid.amp[0] / grid.m * minus[0]
    alpha[-1] = grid.amp[-1] / grid.m * minus[-1]
    beta[0] = beta[-1] = 0.0
    both = np.concatenate([alpha, beta])
    return np.stack([both.real, both.imag])


def amplitude_paths(
    spec: SystemSpec,
    realization: NoiseRealization,
    f: int,
    k: float,
    t: float,
    constants: CouplingConstants | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Second-order amplitudes along each trajectory, both orderings.

    Returns (photon-last, photon-first) complex arrays of shape (n_traj,).
    Only single-channel, single-direction systems are supported here - with
    several independent channels a single scalar trajectory would correlate
    vertices that the theory treats as independent.
    """
    c = constants or CouplingConstants()
    dt = realization.dt
    if t > realization.duration + 1e-9 * dt:
        raise TrajectoryTooShortError(
            f"amplitudes requested at t={t} but trajectories end at {realization.duration}"
        )
    n_steps = min(int(round(t / dt)) + 1, realization.times.size)
    k_last, k_first = _amplitude_kernels(spec, f, k, n_steps, dt, c)
    # real and imaginary parts apart: no complex copy of the trajectories
    kernels = np.stack([k_last.real, k_last.imag, k_first.real, k_first.imag], axis=1)
    parts = realization.values[:, :n_steps] @ kernels
    return parts[:, 0] + 1j * parts[:, 1], parts[:, 2] + 1j * parts[:, 3]


def _trajectory_amplitudes(
    spec: SystemSpec,
    noise: AnyNoise,
    f: int,
    k: float,
    t: float,
    dt: float,
    n_traj: int,
    seed: int,
    c: CouplingConstants,
) -> tuple[np.ndarray, _SynthesisGrid]:
    """a_last + a_first of trajectories 0..n_traj-1, as ``sample_noise``
    (duration t) and ``amplitude_paths`` would give them, plus the grid."""
    grid = _synthesis_grid(noise, t, dt)
    k_last, k_first = _amplitude_kernels(spec, f, k, int(round(t / dt)) + 1, dt, c)
    fold = _fold_through_synthesis(k_last + k_first, grid)
    weights = np.empty(fold.shape[1])
    amplitudes = np.empty(n_traj, dtype=complex)
    draw = grid.drawer(seed)
    for r in range(n_traj):
        # one fixed-shape product per stream: bits independent of batching
        re, im = fold @ draw(r, weights)
        amplitudes[r] = complex(re, im)
    return amplitudes, grid


def predicted_Pfi(
    spec: SystemSpec,
    noise: AnyNoise,
    f: int,
    k: float,
    t: float,
    constants: CouplingConstants | None = None,
) -> float:
    """Closed-form finite-time probability the Monte Carlo is tested against."""
    return finite_time_probability(spec, noise, f, k, t, constants)


def estimate_Pfi(
    spec: SystemSpec,
    noise: AnyNoise,
    f: int,
    k: float,
    t: float,
    n_traj: int,
    seed: int,
    dt: float | None = None,
    batch: int = 100,
    constants: CouplingConstants | None = None,
) -> AmplitudeEstimate:
    """Monte Carlo estimate of the same probability over streams 0..n_traj-1.

    Each trajectory's amplitude is the dot product of its Gaussian weights
    with the amplitude kernel folded through the synthesis transform (see
    the module docstring): the same number, to rounding, as synthesizing
    the trajectory with ``sample_noise`` and integrating it with
    ``amplitude_paths``, with no trajectory stored: memory is a few arrays
    of the FFT length plus one number per trajectory.  ``batch`` is kept
    for existing callers; trajectories are taken one at a time, so it
    changes no result.
    """
    c = constants or CouplingConstants()
    if n_traj < 2:
        raise InvariantViolationError("need at least two trajectories")
    step = dt if dt is not None else default_time_step(spec, noise, k, c)
    amplitudes, grid = _trajectory_amplitudes(spec, noise, f, k, t, step, n_traj, seed, c)
    samples = c.gamma / (c.hbar * c.hbar) * np.abs(amplitudes) ** 2
    mean = float(np.sum(samples) / n_traj)
    var = float(np.sum((samples - mean) ** 2) / (n_traj - 1))
    return AmplitudeEstimate(
        mean=mean,
        stderr=math.sqrt(var / n_traj),
        n_samples=n_traj,
        dt=step,
        fft_length=grid.m,
        padding_steps=grid.padding,
    )


def empirical_autocovariance(
    realization: NoiseRealization, n_lags: int, lag_step: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measured E[w(t) w(t + lag)] with a cross-trajectory standard error.

    Returns (lags, mean, stderr); entry 0 is the variance.  Each trajectory
    contributes one time-averaged covariance per lag, so the scatter across
    trajectories gives an honest error bar.  ``lag_step`` spaces the probed
    lags by that many grid steps, so a fine grid (small discretization bias)
    can still cover several correlation times with few lags.
    """
    if lag_step < 1:
        raise InvariantViolationError("lag_step must be a positive integer")
    w = realization.values
    n_steps = w.shape[1]
    if n_lags * lag_step >= n_steps:
        raise TrajectoryTooShortError("more lags requested than samples available")
    offsets = np.arange(n_lags) * lag_step
    lags = offsets * realization.dt
    per_traj = np.empty((w.shape[0], n_lags))
    for idx, r_idx in enumerate(offsets):
        prod = w[:, : n_steps - r_idx] * w[:, r_idx:]
        per_traj[:, idx] = np.mean(prod, axis=1)
    mean = np.mean(per_traj, axis=0)
    stderr = np.std(per_traj, axis=0, ddof=1) / math.sqrt(w.shape[0])
    return lags, mean, stderr
