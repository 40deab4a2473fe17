"""The array route of the finite-time probability against the per-pair scalar sum.

The reference below is the loop ``finite_time_probability`` ran before it
became array code: ``kernel_T1..T3`` weighted by their coupling products and
summed over (channel, direction, n, m), skipping uncoupled pairs.  The array
route reproduces its arithmetic, so the two agree to the last bit wherever
numpy forms the coupling products as the scalar loop did, and to 1e-13
relative everywhere.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import noise_radiance.noise as noise_module
import noise_radiance.rate as rate_module
from noise_radiance.errors import InvariantViolationError
from noise_radiance.kernels import NEAR_CANCEL_PHASE, KernelParams, kernel_T1, kernel_T2, kernel_T3
from noise_radiance.noise import NoiseModel, NoiseSum, corr_moment
from noise_radiance.rate import (
    ANGULAR_POLARIZATION_FACTOR,
    finite_time_probability,
    naive_rate_at_k,
    spectrum,
)
from noise_radiance.system import (
    CouplingConstants,
    SystemSpec,
    builtin_harmonic_oscillator,
    builtin_oscillator_3d,
    delta_matrix,
    mode_amplitude,
)


def _scalar_probability(spec, noise, f, k, t, c, zero_widths=False):
    if spec.radiation_override is not None:
        r_structure = spec.radiation_override
    else:
        r_structure = tuple((-spec.charge / spec.mass) * p for p in spec.dipole_p)
    deltas = delta_matrix(spec, c)
    omega_k = c.light_speed * k
    widths = np.zeros(spec.size) if zero_widths else spec.widths
    i = spec.initial
    alpha_k = mode_amplitude(k, c)
    total = 0.0 + 0.0j
    for n_mat in spec.noise_ops:
        for r_dir in r_structure:
            r_mat = alpha_k * r_dir
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
    return complex(total).real * c.gamma / (c.hbar * c.hbar)


def _sparse_herm(rng, n, density):
    upper = np.triu(rng.random((n, n)) < density)
    m = np.where(upper, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0.0)
    m = m + np.triu(m, 1).conj().T
    return m + np.diag(np.diag(m).real - np.diag(m))


def _random_system(rng, override: bool, some_zero_widths: bool) -> SystemSpec:
    n = int(rng.integers(3, 6))
    n_channels = int(rng.integers(1, 4))
    n_directions = int(rng.integers(1, 4))
    widths = rng.uniform(0.05, 0.5, n)
    if some_zero_widths:
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


def _tabulated():
    s = np.linspace(0.0, 6.0, 31)
    return NoiseModel.tabulated(s, np.exp(-s * s / 0.98) / 1.75, scale=0.7)


NOISES = {
    "white": NoiseModel.white(scale=1.3),
    "exponential": NoiseModel.exponential(tau=0.8, scale=0.7),
    "gaussian": NoiseModel.gaussian(tau=0.6, scale=1.1),
    "tabulated": _tabulated(),
    "sum": NoiseSum((NoiseModel.white(0.4), NoiseModel.gaussian(1.1, 0.8))),
}


@pytest.fixture
def phases(monkeypatch):
    """|(a + b) t| of every double integral the array route evaluates."""
    seen = []
    batched = rate_module.correlation_double_integrals

    def recording(noise, a, b, times):
        seen.extend(np.abs(np.multiply.outer(np.asarray(times), a + b)).ravel())
        return batched(noise, a, b, times)

    monkeypatch.setattr(rate_module, "correlation_double_integrals", recording)
    return seen


@pytest.mark.parametrize("name", sorted(NOISES))
def test_array_probability_matches_scalar_kernels(name, phases):
    noise = NOISES[name]
    c = CouplingConstants(gamma=0.9)
    rng = np.random.default_rng(sum(map(ord, name)))
    compared = 0
    for override in (False, True):
        for some_zero_widths in (False, True):
            spec = _random_system(rng, override, some_zero_widths)
            k = float(rng.uniform(0.3, 2.5))
            # a short time puts damped diagonal pairs, |2 gamma t| < 0.02, in the series
            for t in (0.03, float(rng.uniform(2.0, 9.0))):
                for f in rng.choice(spec.size, size=2, replace=False).tolist():
                    for zero_widths in (False, True):
                        want = _scalar_probability(spec, noise, f, k, t, c, zero_widths)
                        got = finite_time_probability(spec, noise, f, k, t, c, zero_widths)
                        assert abs(got - want) <= 1e-13 * abs(want)
                        compared += want != 0.0
    assert compared > 10
    phases = np.array(phases)
    assert np.any(phases == 0.0)
    assert np.any((phases > 0.0) & (phases < NEAR_CANCEL_PHASE))
    assert np.any(phases >= NEAR_CANCEL_PHASE)


@pytest.mark.parametrize("name", sorted(NOISES))
def test_naive_rate_matches_scalar_sum_over_final_levels(name):
    noise = NOISES[name]
    c = CouplingConstants()
    rng = np.random.default_rng(7 + sum(map(ord, name)))
    spec = _random_system(rng, override=False, some_zero_widths=False)
    k, time, window = 1.37, 6.0, 2.5
    p_lo = p_hi = 0.0
    for f in range(spec.size):
        p_lo += _scalar_probability(spec, noise, f, k, time, c, zero_widths=True)
        p_hi += _scalar_probability(spec, noise, f, k, time + window, c, zero_widths=True)
    want = ANGULAR_POLARIZATION_FACTOR * k * k * (p_hi - p_lo) / window
    got = naive_rate_at_k(spec, noise, k, time, window, c)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_probabilities_are_bit_identical_where_the_coupling_products_are():
    # with real noise operators every coupling product R[f,n] N[n,i] is one
    # rounding, in numpy's arrays as in the scalar loop, so nothing may move;
    # the 27-level oscillator sums many terms per final level
    c = CouplingConstants(gamma=0.9)
    rng = np.random.default_rng(5)
    cases = [(builtin_oscillator_3d(n_max=2), [0, 4, 9, 13], 1.41, [NOISES["sum"]])]
    for _ in range(3):
        spec = _random_system(rng, override=False, some_zero_widths=True)
        spec = replace(spec, noise_ops=tuple(op.real for op in spec.noise_ops))
        cases.append((spec, range(spec.size), float(rng.uniform(0.3, 2.5)),
                      [NOISES["gaussian"], NOISES["exponential"]]))
    for spec, finals, k, noises in cases:
        for noise in noises:
            for f in finals:
                for t, zero_widths in ((0.03, False), (4.0, False), (50.0, True)):
                    want = _scalar_probability(spec, noise, f, k, t, c, zero_widths)
                    assert finite_time_probability(spec, noise, f, k, t, c, zero_widths) == want


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvariantViolationError as exc:
        return str(exc)


def test_degenerate_vertex_raises_the_same_error():
    # at omega_k = 1 every unit gap of the undamped oscillator closes a vertex
    c = CouplingConstants()
    noise = NOISES["exponential"]
    raised = 0
    for initial in range(4):
        spec = builtin_harmonic_oscillator(n_levels=4, initial=initial)
        for k in (1.0, 2.0, 0.7):
            want = [_outcome(_scalar_probability, spec, noise, f, k, 3.0, c, True)
                    for f in range(spec.size)]
            got = [_outcome(finite_time_probability, spec, noise, f, k, 3.0, c, True)
                   for f in range(spec.size)]
            assert got == want
            errors = [w for w in want if isinstance(w, str)]
            raised += len(errors)
            # the naive rate meets the first final level's error first
            rate = _outcome(naive_rate_at_k, spec, noise, k, 3.0, 1.0, c)
            if errors:
                assert rate == errors[0]
            else:
                assert isinstance(rate, float)
    assert raised > 0


def test_first_degenerate_vertex_names_its_side():
    # f = 0, pair (1, 2): the photon vertex of level 1 is fine, the
    # conjugate one of level 2 closes at omega_k = E_2 - E_0 = 1
    n_op = np.array([[0.0, 0.0, 0.0], [0.0, 0.6, 0.3], [0.0, 0.3, -0.2]])
    p_op = np.array([[0.0, 0.5j, 0.4], [-0.5j, 0.0, 0.0], [0.4, 0.0, 0.0]])
    spec = SystemSpec(labels=("a", "b", "c"), energies=np.array([0.0, 0.5, 1.0]),
                      widths=np.zeros(3), noise_ops=(n_op,), dipole_p=(p_op,), initial=1)
    c = CouplingConstants()
    noise = NOISES["white"]
    want = _outcome(_scalar_probability, spec, noise, 0, 1.0, 3.0, c)
    assert want.startswith("T1 conjugate photon vertex")
    assert _outcome(finite_time_probability, spec, noise, 0, 1.0, 3.0, c) == want
    assert _outcome(naive_rate_at_k, spec, noise, 1.0, 3.0, 1.0, c) == want


def test_gaussian_moments_past_the_cut_share_one_entry():
    noise = NoiseModel.gaussian(tau=0.7, scale=1.3)
    # the bump ends at Re(c) tau^2 + 10 tau = 7.2, well before either time
    c = 0.4 + 2.3j
    noise_module._gaussian_moment.cache_clear()
    for k in range(3):
        assert corr_moment(noise, c, 50.0, k) == corr_moment(noise, c, 70.0, k)
    info = noise_module._gaussian_moment.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def test_gaussian_moment_of_the_conjugate_is_the_conjugate_bit_for_bit():
    noise = NoiseModel.gaussian(tau=0.8, scale=1.7)
    quadrature = noise_module._gaussian_moment.__wrapped__
    rng = np.random.default_rng(11)
    for _ in range(40):
        c = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.05, 6.0))
        t = float(rng.uniform(0.1, 20.0))
        k = int(rng.integers(0, 6))
        noise_module._gaussian_moment.cache_clear()
        folded = corr_moment(noise, c.conjugate(), t, k)
        noise_module._gaussian_moment.cache_clear()
        assert folded == corr_moment(noise, c, t, k).conjugate()
        # one memo entry serves both
        assert corr_moment(noise, c.conjugate(), t, k) == folded
        assert noise_module._gaussian_moment.cache_info().misses == 1
        # and the quadrature at conj(c) itself gives those bits
        assert folded == noise.scale * quadrature(0.8, c.conjugate(), t, k)


def test_cold_naive_spectrum_needs_at_most_54_gaussian_quadratures():
    # the naive half of the 8-level Gaussian ``compare`` configuration; the
    # per-pair scalar kernels ran 216 quadratures here
    spec = builtin_harmonic_oscillator(n_levels=8)
    ks = np.linspace(0.55, 2.85, 4)
    noise_module._gaussian_moment.cache_clear()
    spectrum(spec, NoiseModel.gaussian(0.7, 1.3), ks, mode="naive", time=50.0, window=20.0)
    assert noise_module._gaussian_moment.cache_info().misses <= 54
