"""The tabulated transform is the exact transform of the linear interpolant.

A tabulated model *is* the piecewise-linear interpolant of its samples
(``eval_correlation``), so its spectral density is checked against that
function's transform: adaptive cosine quadrature of the interpolant, and a
high-precision mpmath integral segment by segment.  Also here: the decay
check on the table's ends, the memory bound of the blocked evaluation, and
the vectorized node build of ``_tabulated_moment`` against a copy of the
knot-by-knot loop it replaced.
"""
from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from noise_radiance.cli import main
from noise_radiance.errors import QuadratureNonConvergentError
from noise_radiance.noise import (
    TABULATED,
    NoiseModel,
    _GL8_W,
    _GL8_X,
    corr_moment,
    spectral_density,
    validate_admissible,
)
from noise_radiance.oracles import fourier_transform_quadrature

OMEGAS = (0.0, 1e-7, 0.5, 3.7, 20.0, -4.2)


def _segment_reference(s, f, omega, one_sided):
    """int g(s) cos(omega s) ds of the interpolant, per segment at 40 digits."""
    with mpmath.workdps(40):
        w = mpmath.mpf(float(omega))
        total = mpmath.mpf(0)
        for a, b, fa, fb in zip(s[:-1], s[1:], f[:-1], f[1:]):
            a, b, fa, fb = (mpmath.mpf(float(v)) for v in (a, b, fa, fb))
            slope = (fb - fa) / (b - a)
            total += mpmath.quad(lambda x: (fa + slope * (x - a)) * mpmath.cos(w * x), [a, b])
        return float(2 * total if one_sided else total)


def _nonuniform_table(seed=7):
    rng = np.random.default_rng(seed)
    s = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 9.0, 45)), [9.5]])
    return s, np.exp(-0.5 * s * s) * np.cos(1.3 * s)


def test_transform_matches_cosine_quadrature_of_the_interpolant():
    s = np.linspace(0.0, 6.0, 25)
    table = NoiseModel.tabulated(s, np.exp(-s * s / 1.2), scale=1.3)
    # adaptive quadrature across the interpolant's kinks is good to ~1e-9
    for omega in (0.0, 0.7, 2.5, -6.0, 11.0):
        oracle = fourier_transform_quadrature(table, omega)
        assert spectral_density(table, omega) == pytest.approx(oracle, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("omega", OMEGAS)
def test_transform_matches_segment_reference_on_nonuniform_grid(omega):
    s, f = _nonuniform_table()
    table = NoiseModel.tabulated(s, f)
    ref = _segment_reference(s, f, omega, one_sided=True)
    assert spectral_density(table, omega) == pytest.approx(ref, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("start", [0.0, 0.5])
def test_table_ends_enter_the_transform(start):
    # e^{-s} cut just below 1e-6 of its peak: at large omega the cut-off
    # term g(S) sin(omega S) / omega is ~1e-5 of f~; a table starting at
    # s_0 > 0 is zero on [0, s_0), which the s_0 term carries
    s = np.linspace(start, 14.5, 57)
    table = NoiseModel.tabulated(s, np.exp(-s))
    for omega in (0.0, 3.0, -20.0):
        ref = _segment_reference(s, np.exp(-s), omega, one_sided=True)
        assert spectral_density(table, omega) == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_raw_two_sided_table_is_not_doubled_and_checks_both_ends():
    # built with the raw constructor, so no folding onto s >= 0
    s = np.sort(np.concatenate([[-8.0, 0.0, 8.5], np.random.default_rng(3).uniform(-8, 8.5, 40)]))
    f = np.exp(-0.5 * s * s)
    table = NoiseModel(TABULATED, samples=(s, f))
    for omega in (0.0, 0.9, -3.3):
        ref = _segment_reference(s, f, omega, one_sided=False)
        assert spectral_density(table, omega) == pytest.approx(ref, rel=1e-12, abs=1e-15)
    cut = s > -2.0
    with pytest.raises(QuadratureNonConvergentError, match="peak"):
        spectral_density(NoiseModel(TABULATED, samples=(s[cut], f[cut])), 0.5)


def test_zero_frequency_is_the_sample_trapezoid():
    for s, f in (_nonuniform_table(), (0.01 * np.arange(2000), np.exp(-0.01 * np.arange(2000)) / 2)):
        table = NoiseModel.tabulated(s, f)
        got = spectral_density(table, 0.0)
        trap = 2.0 * float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(s)))
        assert abs(got - trap) <= 1e-15 * abs(trap)
        # omega s can underflow here; the omega -> 0 limit is exact to the last bit
        assert spectral_density(table, 1e-200) == spectral_density(table, 5e-324) == got


def test_transform_is_even_in_omega():
    s, f = _nonuniform_table()
    table = NoiseModel.tabulated(s, f)
    omega = np.linspace(0.3, 25.0, 301)
    assert np.array_equal(spectral_density(table, -omega), spectral_density(table, omega))
    for w in OMEGAS:
        assert spectral_density(table, -w) == spectral_density(table, w)


def test_blocks_agree_with_single_frequency_calls():
    s, f = _nonuniform_table()
    table = NoiseModel.tabulated(s, f)
    omega = np.linspace(-15.0, 15.0, 301).reshape(7, 43)
    got = spectral_density(table, omega)
    assert got.shape == omega.shape
    one = np.array([spectral_density(table, float(w)) for w in omega.ravel()]).reshape(omega.shape)
    np.testing.assert_allclose(got, one, rtol=1e-13, atol=1e-16)


def _write_table(tmp_path: Path, s, f) -> str:
    (tmp_path / "t.corr").write_text("".join(f"{float(a)!r} {float(b)!r}\n" for a, b in zip(s, f)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[noise]\nkind = tabulated\nfile = t.corr\n")
    return str(cfg)


def test_fine_exponential_table_is_admissible(tmp_path, capsys):
    s = 0.01 * np.arange(2000)
    assert main(["validate-noise", "--config", _write_table(tmp_path, s, np.exp(-s) / 2.0)]) == 0
    assert "admissible: yes" in capsys.readouterr().out


def test_truncated_table_is_refused(tmp_path, capsys):
    s = np.linspace(0.0, 5.0, 33)
    with pytest.raises(QuadratureNonConvergentError, match="peak"):
        spectral_density(NoiseModel.tabulated(s, np.exp(-s)), 0.5)
    assert main(["validate-noise", "--config", _write_table(tmp_path, s, np.exp(-s))]) == 2
    assert "peak" in capsys.readouterr().err


def test_validate_admissible_memory_is_bounded():
    s = 0.001 * np.arange(20_000)
    table = NoiseModel.tabulated(s, np.exp(-0.5 * s * s))
    tracemalloc.start()
    try:
        report = validate_admissible(table, np.linspace(-20.0, 20.0, 4001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.admissible
    assert peak < 50e6


# ---------------------------------------------------------------------------
# _tabulated_moment: vectorized node build, bit for bit
# ---------------------------------------------------------------------------


def _tabulated_moment_loop(model, c, t, k):
    """``_tabulated_moment`` as written before: nodes built knot by knot."""
    grid, vals = model.samples
    if grid[0] < 0.0:
        keep = grid >= 0.0
        grid, vals = grid[keep], vals[keep]
        if grid.size < 2:
            return 0.0 + 0.0j
    hi = min(t, grid[-1])
    if hi <= grid[0]:
        return 0.0 + 0.0j
    edges = np.unique(np.clip(np.append(grid, hi), grid[0], hi))
    speed = abs(c) + (1.0 if k else 0.0)
    nodes_x, nodes_w = [], []
    for lo_e, hi_e in zip(edges[:-1], edges[1:]):
        width = hi_e - lo_e
        parts = max(1, int(math.ceil(speed * width / 1.5)))
        sub = np.linspace(lo_e, hi_e, parts + 1)
        for a_e, b_e in zip(sub[:-1], sub[1:]):
            half = 0.5 * (b_e - a_e)
            mid = 0.5 * (a_e + b_e)
            nodes_x.append(mid + half * _GL8_X)
            nodes_w.append(half * _GL8_W)
    x = np.concatenate(nodes_x)
    w = np.concatenate(nodes_w)
    fx = np.interp(x, grid, vals)
    return complex(np.sum(w * x**k * np.exp(c * x) * fx))


def test_tabulated_moment_nodes_are_bit_identical():
    s, f = _nonuniform_table()
    raw = np.linspace(-4.0, 4.0, 41)
    models = [
        NoiseModel.tabulated(s, f, scale=0.8),
        NoiseModel.tabulated(np.linspace(0.0, 3.0, 31), np.exp(-np.linspace(0.0, 3.0, 31))),
        NoiseModel.tabulated(np.linspace(0.5, 6.0, 12), np.exp(-np.linspace(0.5, 6.0, 12))),
        NoiseModel(TABULATED, samples=(raw, np.exp(-raw * raw))),
    ]
    rng = np.random.default_rng(11)
    for model in models:
        span = float(model.samples[0][-1])
        for _ in range(40):
            c = complex(rng.uniform(-2.0, 1.0), rng.uniform(-30.0, 30.0))
            t = float(rng.uniform(0.0, 1.3 * span))
            k = int(rng.integers(0, 6))
            want = model.scale * _tabulated_moment_loop(model, c, t, k)
            assert corr_moment(model, c, t, k) == want
    # np.linspace pins its last point to the knot: here 0.36 + 5 * (0.84 / 5) != 1.2
    s = np.array([0.0, 0.36, 1.2, 2.2, 3.2])
    edge = NoiseModel.tabulated(s, np.exp(-s))
    assert 0.36 + 5 * ((1.2 - 0.36) / 5) != 1.2
    assert corr_moment(edge, 8.035714285714286j, 10.0, 0) == _tabulated_moment_loop(
        edge, 8.035714285714286j, 10.0, 0
    )
