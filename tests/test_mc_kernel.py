"""The kernel route of the Monte Carlo amplitudes against the time-domain one.

``estimate_Pfi`` reads each trajectory's amplitude off its Gaussian weights
through the amplitude kernel folded with the synthesis transform.  The
reference here is a test-local copy of the time-domain route: synthesize
the trajectory, then integrate it level by level with a cumulative
trapezoid and a trapezoid.
"""
from __future__ import annotations

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from noise_radiance import mc
from noise_radiance.mc import (
    NoiseRealization,
    amplitude_paths,
    default_time_step,
    estimate_Pfi,
    sample_noise,
)
from noise_radiance.noise import NoiseModel, NoiseSum, correlation_time, spectral_density
from noise_radiance.system import (
    CouplingConstants,
    SystemSpec,
    delta_matrix,
    radiation_matrix,
    two_level_toy,
)


# ---------------------------------------------------------------------------
# time-domain reference route
# ---------------------------------------------------------------------------


def _reference_sample_noise(noise, duration, dt, n_traj, seed):
    n_steps = int(math.ceil(duration / dt)) + 1
    pad = int(math.ceil(mc.PADDING_CORR_TIMES * correlation_time(noise) / dt)) + 1
    m = 1 << (n_steps + pad - 1).bit_length()
    omega = 2.0 * math.pi * np.fft.rfftfreq(m, d=dt)
    density = np.asarray(spectral_density(noise, omega), dtype=float)
    amp = np.sqrt(np.clip(density, 0.0, None) * m / dt)
    values = np.empty((n_traj, n_steps))
    for r in range(n_traj):
        rng = np.random.Generator(np.random.Philox(key=[seed, 0], counter=[0, 0, 0, r]))
        xi = rng.standard_normal(amp.size)
        eta = rng.standard_normal(amp.size)
        coeff = amp * (xi + 1j * eta) / math.sqrt(2.0)
        coeff[0] = amp[0] * xi[0]
        coeff[-1] = amp[-1] * xi[-1]
        values[r] = np.fft.irfft(coeff, n=m)[:n_steps]
    return NoiseRealization(times=np.arange(n_steps) * dt, values=values, dt=dt)


def _reference_amplitude_paths(spec, realization, f, k, t, c):
    n_steps = min(int(round(t / realization.dt)) + 1, realization.times.size)
    times = realization.times[:n_steps]
    w = realization.values[:, :n_steps]
    dt = realization.dt

    def cumtrapz(y):
        return integrate.cumulative_trapezoid(y, dx=dt, axis=-1, initial=0.0)

    deltas = delta_matrix(spec, c)
    omega_k = c.light_speed * k
    r_mat = radiation_matrix(spec, k, 0, c)
    n_mat = spec.noise_ops[0]
    i = spec.initial
    a_last = np.zeros(realization.n_traj, dtype=complex)
    a_first = np.zeros(realization.n_traj, dtype=complex)
    for n in range(spec.size):
        gamma_n = float(spec.widths[n])
        x_n = complex(r_mat[f, n] * n_mat[n, i])
        y_n = complex(n_mat[f, n] * r_mat[n, i])
        if x_n != 0.0:
            inner = cumtrapz(w * np.exp((1j * deltas[n, i] + gamma_n) * times))
            outer = np.trapezoid(
                np.exp((1j * (deltas[f, n] + omega_k) - gamma_n) * times) * inner,
                dx=dt, axis=-1,
            )
            a_last += x_n * outer
        if y_n != 0.0:
            inner = cumtrapz(np.exp((1j * (deltas[n, i] + omega_k) + gamma_n) * times))
            outer = np.trapezoid(
                w * np.exp((1j * deltas[f, n] - gamma_n) * times) * inner,
                dx=dt, axis=-1,
            )
            a_first += y_n * outer
    return a_last, a_first


NOISES = {
    "white": NoiseModel.white(scale=0.5),
    "exponential": NoiseModel.exponential(tau=0.6, scale=0.8),
    "gaussian": NoiseModel.gaussian(tau=0.5),
    "sum": NoiseSum((NoiseModel.white(scale=0.3), NoiseModel.exponential(tau=0.4))),
}


def _three_level() -> SystemSpec:
    # dense couplings: both orderings reach every final level
    return SystemSpec(
        labels=("a", "b", "c"),
        energies=np.array([0.0, 0.7, 1.9]),
        widths=np.array([0.0, 0.07, 0.2]),
        noise_ops=(np.array([[1.0, 0.5, 0.2], [0.5, -0.3, 0.4], [0.2, 0.4, 0.8]]),),
        dipole_p=(1j * np.array([[0.0, 1.0, 0.5], [-1.0, 0.0, 0.7], [-0.5, -0.7, 0.0]]),),
        initial=2,
    )


SYSTEMS = {
    "two-level-zero-widths": two_level_toy(gap=1.8, widths=(0.0, 0.0)),
    "two-level-widths": two_level_toy(gap=1.8, widths=(0.0, 0.12)),
    "three-level": _three_level(),
}

# (t, dt): t/dt an integer, then with a fractional part below and above
# one half (the amplitude grid ends before t, then after it)
TIMES = [(6.0, 0.03), (6.0, 0.037), (6.1, 0.037)]


def _rel_err(new, old):
    return np.abs(new - old) / np.abs(old)


# ---------------------------------------------------------------------------
# per-trajectory samples: kernel route against the time-domain route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("noise_id", sorted(NOISES))
@pytest.mark.parametrize("system_id", sorted(SYSTEMS))
@pytest.mark.parametrize("t, dt", TIMES, ids=["integer", "below-half", "above-half"])
def test_per_trajectory_samples_match_time_domain_route(noise_id, system_id, t, dt):
    noise, spec = NOISES[noise_id], SYSTEMS[system_id]
    c = CouplingConstants()
    real = _reference_sample_noise(noise, t, dt, n_traj=12, seed=31)
    for f in range(spec.size):
        a_last, a_first = _reference_amplitude_paths(spec, real, f, 0.9, t, c)
        old = np.abs(a_last + a_first) ** 2
        new, _ = mc._trajectory_amplitudes(spec, noise, f, 0.9, t, dt, 12, 31, c)
        if np.any(old > 0.0):
            assert np.max(_rel_err(np.abs(new) ** 2, old)) <= 1e-12, f
        else:
            assert np.all(new == 0.0), f  # no pathway ends in f


def test_every_final_level_is_covered():
    # the three-level system has both orderings into all three levels
    spec, c = SYSTEMS["three-level"], CouplingConstants()
    real = _reference_sample_noise(NOISES["white"], 6.0, 0.03, n_traj=2, seed=1)
    for f in range(spec.size):
        a_last, a_first = _reference_amplitude_paths(spec, real, f, 0.9, 6.0, c)
        assert np.all(np.abs(a_last) > 0.0) and np.all(np.abs(a_first) > 0.0)


def test_sample_noise_matches_reference_synthesis_bitwise():
    for noise in NOISES.values():
        new = sample_noise(noise, duration=6.1, dt=0.037, n_traj=3, seed=4)
        old = _reference_sample_noise(noise, 6.1, 0.037, n_traj=3, seed=4)
        assert np.array_equal(new.values, old.values)
        assert np.array_equal(new.times, old.times)


@pytest.mark.parametrize("system_id", sorted(SYSTEMS))
@pytest.mark.parametrize("t", [6.0, 5.99])
def test_amplitude_paths_match_time_domain_loop(system_id, t):
    spec, c = SYSTEMS[system_id], CouplingConstants()
    real = _reference_sample_noise(NOISES["exponential"], 6.0, 0.03, n_traj=7, seed=12)
    for f in range(spec.size):
        new = amplitude_paths(spec, real, f, 0.9, t)
        old = _reference_amplitude_paths(spec, real, f, 0.9, t, c)
        for a_new, a_old in zip(new, old):
            if np.any(a_old != 0.0):
                assert np.max(_rel_err(a_new, a_old)) <= 1e-12
            else:
                assert np.all(a_new == 0.0)


def test_cumulative_trapezoid_equals_scipy_bitwise():
    rng = np.random.default_rng(3)
    y = rng.standard_normal((3, 1001)) + 1j * rng.standard_normal((3, 1001))
    ours = mc._cumulative_trapezoid(y, 0.013)
    theirs = integrate.cumulative_trapezoid(y, dx=0.013, axis=-1, initial=0.0)
    assert np.array_equal(ours, theirs)


# ---------------------------------------------------------------------------
# what an estimate reports, and what it costs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "noise, dt",
    [(NoiseModel.white(scale=0.02), 0.02), (NoiseModel.exponential(scale=0.02, tau=1.0), None)],
    ids=["white", "exponential"],
)
def test_estimate_reports_its_synthesis_grid(noise, dt):
    spec, t = two_level_toy(gap=1.8, widths=(0.0, 0.12)), 40.0
    est = estimate_Pfi(spec, noise, f=0, k=0.8, t=t, n_traj=4, seed=5, dt=dt)
    step = dt if dt is not None else default_time_step(spec, noise, 0.8)
    n_steps = math.ceil(t / step) + 1
    padding = math.ceil(10.0 * correlation_time(noise) / step) + 1
    assert est.dt == step
    assert est.padding_steps == padding
    assert est.fft_length >= n_steps + padding
    assert est.fft_length & (est.fft_length - 1) == 0  # a power of two
    assert est.fft_length < 2 * (n_steps + padding)


def test_estimate_memory_does_not_grow_with_trajectories():
    spec, noise = two_level_toy(gap=1.8, widths=(0.0, 0.12)), NoiseModel.white(scale=0.02)

    def peak(n_traj):
        tracemalloc.start()
        try:
            estimate_Pfi(spec, noise, f=0, k=0.8, t=100.0, n_traj=n_traj, seed=3,
                         dt=0.02, batch=n_traj)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(200), peak(2000)
    assert large < 2.0 * small


def test_package_import_loads_no_scipy():
    code = (
        "import sys\n"
        "import noise_radiance.cli\n"
        "import noise_radiance\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
