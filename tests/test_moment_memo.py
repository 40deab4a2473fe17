"""Each correlation moment is computed once, and reuse changes no bit.

The near-cancellation series of ``correlation_double_integral`` fetches the
moments of order 0..5 at a and -a once each, and the Gaussian moment
quadrature is memoized.  The reference below is the series as it was
written before: 26 scalar ``corr_moment`` calls, interleaved with the sum.
Every comparison here is exact (``==`` / ``np.array_equal``).
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import noise_radiance.noise as noise_module
from noise_radiance.errors import QuadratureNonConvergentError
from noise_radiance.kernels import NEAR_CANCEL_PHASE, correlation_double_integral
from noise_radiance.noise import NoiseModel, NoiseSum, corr_laplace, corr_moment
from noise_radiance.rate import spectrum
from noise_radiance.system import builtin_harmonic_oscillator


def _near_cancel_series_per_term(noise, a, b, t):
    a = complex(a)
    b = complex(b)
    eps = a + b
    total = 0.0 + 0.0j
    lneg = corr_laplace(noise, -a, t)
    for k in range(5):
        near = 0.0 + 0.0j
        for m in range(k + 2):
            near += (
                math.comb(k + 1, m)
                * t ** (k + 1 - m)
                * (-1.0) ** m
                * corr_moment(noise, a, t, m)
            )
        far = t ** (k + 1) * lneg - corr_moment(noise, -a, t, k + 1)
        total += eps**k / math.factorial(k + 1) * (near + far)
    return total


def _tabulated():
    s = np.linspace(0.0, 12.0, 241)
    return NoiseModel.tabulated(s, np.exp(-s / 0.8) / 1.6, scale=0.7)


NOISES = {
    "white": NoiseModel.white(scale=1.3),
    "exponential": NoiseModel.exponential(tau=0.9, scale=0.6),
    "gaussian": NoiseModel.gaussian(tau=0.7, scale=1.7),
    "tabulated": _tabulated(),
    "sum": NoiseSum((NoiseModel.white(0.4), NoiseModel.gaussian(1.1, 0.8), _tabulated())),
}


@pytest.mark.parametrize("name", sorted(NOISES))
def test_near_cancel_series_matches_per_term_calls(name):
    noise = NOISES[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(12):
        t = float(rng.uniform(0.3, 9.0))
        a = complex(rng.uniform(-0.4, 0.4), rng.uniform(-3.0, 3.0))
        # |(a + b) t| strictly inside the series branch
        phase = rng.uniform(0.0, 0.99 * NEAR_CANCEL_PHASE) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        b = -a + complex(phase) / t
        assert abs((a + b) * t) < NEAR_CANCEL_PHASE
        want = _near_cancel_series_per_term(noise, a, b, t)
        assert correlation_double_integral(noise, a, b, t) == want


def _naive(spec, noise, threads):
    return spectrum(
        spec, noise, np.array([0.63, 1.41, 2.2]), mode="naive", time=30.0, window=10.0,
        threads=threads,
    ).rate


def test_naive_spectrum_independent_of_cache_state_and_threads():
    spec = builtin_harmonic_oscillator(n_levels=5)
    noise = NoiseSum((NoiseModel.gaussian(0.7, 1.2), NoiseModel.white(0.3)))
    noise_module._gaussian_moment.cache_clear()
    cold = _naive(spec, noise, 1)
    assert noise_module._gaussian_moment.cache_info().hits > 0
    warm = _naive(spec, noise, 1)
    assert np.array_equal(cold, warm)
    assert np.array_equal(cold, _naive(spec, noise, 2))
    noise_module._gaussian_moment.cache_clear()
    assert np.array_equal(cold, _naive(spec, noise, 2))


def test_over_cap_moment_refused_on_every_call():
    noise = NoiseModel.gaussian(1.0)
    for _ in range(3):
        with pytest.raises(QuadratureNonConvergentError, match="panels"):
            corr_moment(noise, 1e7j, 20.0)


def test_each_distinct_gaussian_moment_computed_once(monkeypatch):
    # the naive half of the 8-level Gaussian ``compare`` configuration
    cached = noise_module._gaussian_moment
    keys = []

    def recording(tau, c, t, k):
        keys.append((tau, c, t, k))
        return cached(tau, c, t, k)

    monkeypatch.setattr(noise_module, "_gaussian_moment", recording)
    cached.cache_clear()
    spec = builtin_harmonic_oscillator(n_levels=8)
    ks = np.linspace(0.55, 2.85, 4)
    spectrum(spec, NoiseModel.gaussian(0.7, 1.3), ks, mode="naive", time=50.0, window=20.0)
    info = cached.cache_info()
    assert info.misses == len(set(keys))
    assert info.hits > 0
    assert info.hits + info.misses == len(keys)
