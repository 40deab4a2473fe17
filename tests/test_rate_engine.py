"""The array-valued regularized rate against a scalar per-line oracle.

The oracle below is the per-line formula written out term by term: for each
(final level, channel, direction) it sums the two orderings over the
intermediate levels, skipping uncoupled ones, and weights |X - Y|^2 by the
spectral density at that line alone.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import noise_radiance.rate as rate_module
from noise_radiance.errors import ZeroWidthError
from noise_radiance.noise import NoiseModel, NoiseSum, spectral_density
from noise_radiance.rate import (
    check_contributing_widths,
    emission_line_weight,
    emission_rate_at_k,
    spectrum,
)
from noise_radiance.system import (
    CouplingConstants,
    SystemSpec,
    builtin_oscillator_3d,
    delta_matrix,
    near_degenerate_toy,
    radiation_matrix,
    two_level_toy,
)


def _scalar_line_weight(spec, noise, k, f, ell, j, c):
    deltas = delta_matrix(spec, c)
    omega_k = c.light_speed * k
    r_mat = radiation_matrix(spec, k, j, c)
    n_mat = spec.noise_ops[ell]
    i = spec.initial
    x_amp = 0.0 + 0.0j
    y_amp = 0.0 + 0.0j
    for n in range(spec.size):
        num_x = complex(r_mat[f, n] * n_mat[n, i])
        num_y = complex(n_mat[f, n] * r_mat[n, i])
        if num_x != 0.0:
            x_amp += num_x / (1j * (deltas[f, n] + omega_k) - spec.widths[n])
        if num_y != 0.0:
            y_amp += num_y / (1j * (deltas[n, i] + omega_k) + spec.widths[n])
    return abs(x_amp - y_amp) ** 2 * float(spectral_density(noise, deltas[f, i] + omega_k))


def _scalar_rate(spec, noise, k, c):
    total = 0.0
    for f in range(spec.size):
        for ell in range(len(spec.noise_ops)):
            for j in range(len(spec.dipole_p)):
                total += _scalar_line_weight(spec, noise, k, f, ell, j, c)
    return (8.0 * math.pi / 3.0) * k * k * c.gamma / (c.hbar * c.hbar) * total


def _scalar_zero_width_level(spec):
    """First zero-width level that carries a pathway, or None."""
    if spec.radiation_override is not None:
        rad = spec.radiation_override
    else:
        rad = tuple((-spec.charge / spec.mass) * p for p in spec.dipole_p)
    i = spec.initial
    for n in range(spec.size):
        if spec.widths[n] > 0.0:
            continue
        for n_op in spec.noise_ops:
            for r_op in rad:
                for f in range(spec.size):
                    if r_op[f, n] * n_op[n, i] != 0.0 or n_op[f, n] * r_op[n, i] != 0.0:
                        return spec.labels[n]
    return None


def _sparse_herm(rng, n, density):
    upper = np.triu(rng.random((n, n)) < density)
    m = np.where(upper, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0.0)
    m = m + np.triu(m, 1).conj().T
    return m + np.diag(np.diag(m).real - np.diag(m))


def _random_system(rng, override: bool, zero_widths: bool = False) -> SystemSpec:
    n = int(rng.integers(3, 7))
    n_channels = int(rng.integers(1, 4))
    n_directions = int(rng.integers(1, 4))
    widths = rng.uniform(0.05, 0.5, n)
    if zero_widths:
        widths[rng.random(n) < 0.4] = 0.0
    return SystemSpec(
        labels=tuple(f"L{m}" for m in range(n)),
        energies=np.sort(rng.uniform(-2.0, 2.0, n)),
        widths=widths,
        noise_ops=tuple(_sparse_herm(rng, n, 0.6) for _ in range(n_channels)),
        dipole_p=tuple(_sparse_herm(rng, n, 0.6) for _ in range(n_directions)),
        mass=float(rng.uniform(0.5, 2.0)),
        charge=float(rng.uniform(-2.0, 2.0)),
        initial=int(rng.integers(0, n)),
        radiation_override=(
            tuple(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                  for _ in range(n_directions))
            if override else None
        ),
    )


NOISES = [
    NoiseModel.white(scale=1.3),
    NoiseModel.exponential(tau=0.8, scale=0.7),
    NoiseModel.gaussian(tau=0.6),
    NoiseSum((NoiseModel.white(0.2), NoiseModel.exponential(tau=2.0))),
]
NOISE_IDS = ["white", "exponential", "gaussian", "sum"]


@pytest.mark.parametrize("noise", NOISES, ids=NOISE_IDS)
@pytest.mark.parametrize("override", [False, True], ids=["dipole", "override"])
def test_rate_matches_scalar_oracle_on_random_systems(noise, override):
    rng = np.random.default_rng(2718 + override)
    constants = CouplingConstants(gamma=1.7, hbar=0.9, light_speed=1.3)
    for _ in range(6):
        spec = _random_system(rng, override)
        for k in rng.uniform(0.3, 2.5, 3):
            want = _scalar_rate(spec, noise, float(k), constants)
            got = emission_rate_at_k(spec, noise, float(k), constants)
            assert got == pytest.approx(want, rel=1e-13)


def test_line_weights_match_scalar_oracle():
    rng = np.random.default_rng(99)
    noise = NoiseModel.exponential(tau=0.5)
    c = CouplingConstants()
    for _ in range(4):
        spec = _random_system(rng, override=bool(rng.integers(0, 2)))
        k = float(rng.uniform(0.5, 2.0))
        lines = [
            (emission_line_weight(spec, noise, k, f, ell, j, c),
             _scalar_line_weight(spec, noise, k, f, ell, j, c))
            for f in range(spec.size)
            for ell in range(len(spec.noise_ops))
            for j in range(len(spec.dipole_p))
        ]
        scale = max(want for _, want in lines)
        for got, want in lines:
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13 * scale)


@pytest.mark.parametrize("noise", NOISES, ids=NOISE_IDS)
def test_zero_width_spectators_drop_out(noise):
    # levels g and e have zero width; only g' is an intermediate, and the
    # uncoupled propagators through g and e must not poison the sum
    spec = near_degenerate_toy()
    for k in (0.4, 0.998, 1.0, 1.7):
        want = _scalar_rate(spec, noise, k, CouplingConstants())
        got = emission_rate_at_k(spec, noise, k)
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-13)


def test_resonant_uncoupled_zero_width_level_drops_out():
    # k tuned so that the zero-width top level's photon-last propagator
    # i (delta_{f,e} + omega_k) - 0 vanishes for f = g; it carries no coupling
    spec = near_degenerate_toy()
    k = float(spec.energies[2] - spec.energies[0])
    with np.errstate(all="raise"):
        got = emission_rate_at_k(spec, NoiseModel.white(), k)
    assert got == pytest.approx(_scalar_rate(spec, NoiseModel.white(), k, CouplingConstants()),
                                rel=1e-13)


def test_tabulated_noise_matches_scalar_oracle():
    s = np.linspace(0.0, 9.0, 1801)
    table = NoiseModel.tabulated(s, np.exp(-s * s / 2.0) / math.sqrt(2.0 * math.pi), scale=1.4)
    rng = np.random.default_rng(5)
    c = CouplingConstants()
    for _ in range(3):
        spec = _random_system(rng, override=False)
        for k in (0.6, 1.3):
            want = _scalar_rate(spec, table, k, c)
            assert emission_rate_at_k(spec, table, k, c) == pytest.approx(want, rel=1e-13)


def test_27_level_spectrum_matches_scalar_oracle():
    spec = builtin_oscillator_3d(n_max=2).with_widths(np.linspace(0.05, 0.3, 27))
    noise = NoiseModel.exponential(tau=0.9)
    ks = np.array([0.5, 1.2, 2.6])
    got = spectrum(spec, noise, ks, check_truncation=False).rate
    want = np.array([_scalar_rate(spec, noise, k, CouplingConstants()) for k in ks])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_zero_width_error_on_the_same_inputs():
    rng = np.random.default_rng(11)
    raised = 0
    for _ in range(40):
        spec = _random_system(rng, override=bool(rng.integers(0, 2)), zero_widths=True)
        label = _scalar_zero_width_level(spec)
        if label is None:
            check_contributing_widths(spec)
            assert np.isfinite(emission_rate_at_k(spec, NoiseModel.white(), 1.1))
        else:
            raised += 1
            with pytest.raises(ZeroWidthError, match=f"level '{label}' has zero width"):
                check_contributing_widths(spec)
            with pytest.raises(ZeroWidthError, match=f"level '{label}' has zero width"):
                emission_rate_at_k(spec, NoiseModel.white(), 1.1)
    assert 0 < raised < 40
    with pytest.raises(ZeroWidthError, match="level 'lo' has zero width"):
        check_contributing_widths(two_level_toy(widths=(0.0, 0.12)))


def test_spectral_density_evaluated_once_per_k(monkeypatch):
    calls = []

    def counting(model, omega):
        calls.append(np.shape(omega))
        return spectral_density(model, omega)

    monkeypatch.setattr(rate_module, "spectral_density", counting)
    spec = builtin_oscillator_3d(n_max=1).with_widths(np.full(8, 0.1))
    noise = NoiseModel.exponential(tau=1.0)
    emission_rate_at_k(spec, noise, 0.8)
    assert calls == [(spec.size,)]
    calls.clear()
    ks = np.linspace(0.5, 2.0, 7)
    spectrum(spec, noise, ks, check_truncation=False)
    assert calls == [(spec.size,)] * ks.size


def test_width_check_runs_once_per_spectrum(monkeypatch):
    calls = []

    def counting(spec):
        calls.append(spec.size)
        return check_contributing_widths(spec)

    monkeypatch.setattr(rate_module, "check_contributing_widths", counting)
    spec = builtin_oscillator_3d(n_max=1).with_widths(np.full(8, 0.1))
    noise = NoiseModel.exponential(tau=1.0)
    ks = np.linspace(0.5, 2.0, 7)
    spectrum(spec, noise, ks, check_truncation=False)
    assert calls == [spec.size]
    calls.clear()
    spectrum(spec, noise, ks)
    # plus one in the re-run without the top level
    assert calls == [spec.size, spec.size - 1]
    calls.clear()
    emission_rate_at_k(spec, noise, 0.8)
    assert calls == [spec.size]


@pytest.mark.filterwarnings("ignore::noise_radiance.errors.NonGroundInitialWarning")
def test_spectrum_and_direct_call_raise_the_same_zero_width_error():
    spec = two_level_toy(widths=(0.0, 0.12))
    msg = "level 'lo' has zero width but carries a second-order pathway"
    with pytest.raises(ZeroWidthError, match=msg) as direct:
        emission_rate_at_k(spec, NoiseModel.white(), 1.1)
    with pytest.raises(ZeroWidthError, match=msg) as via_spectrum:
        spectrum(spec, NoiseModel.white(), [0.9, 1.1])
    assert str(direct.value) == str(via_spectrum.value)
