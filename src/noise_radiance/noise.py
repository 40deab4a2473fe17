"""Stationary noise correlation models and their spectral densities.

The external noise enters every rate expression through two objects only:
the two-point correlation f(s) of the stationary process and its Fourier
transform

    f~(omega) = int f(s) exp(i omega s) ds.

All built-in shapes are normalized so that f~(0) = 1 before the overall
``scale`` multiplier:

* white:        f(s) = delta(s),                     f~(omega) = 1
* exponential:  f(s) = exp(-|s|/tau) / (2 tau),      f~(omega) = 1/(1 + omega^2 tau^2)
* gaussian:     f(s) = exp(-s^2/(2 tau^2)) / (tau sqrt(2 pi)),
                                                     f~(omega) = exp(-omega^2 tau^2 / 2)
* tabulated:    linear interpolation of user samples; its transform is the
                exact transform of that interpolant, in blocks of frequencies.

White noise is treated symbolically: its correlation has no pointwise value
(``eval_correlation`` raises) and every integral against it collapses
analytically.  A delta sitting at an integration endpoint carries weight 1/2,
the convention that keeps the double-time integrals of the kernel module
exact (see ``corr_moment``).

Models are immutable; all operations are pure functions of (model, args).
The Gaussian correlation moments are memoized (``GAUSSIAN_MOMENT_CACHE_SIZE``
entries, keyed on the unscaled shape, on the range the quadrature actually
covers and on c folded to Im c >= 0) because the kernels ask for the same
few moments many times per spectrum; a cached value is the value the
quadrature returns, so results do not depend on what was computed before.
"""
from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvariantViolationError,
    OutOfSupportWarning,
    ParseError,
    PointwiseUndefinedError,
    QuadratureNonConvergentError,
)

WHITE = "white"
EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"
TABULATED = "tabulated"

_KINDS = (WHITE, EXPONENTIAL, GAUSSIAN, TABULATED)

#: a tabulated correlation must fall to this fraction of its peak by its last lag
TABLE_TAIL_TOL = 1e-6

#: frequencies per block of the tabulated transform (scratch memory ~ block x rows)
TRANSFORM_BLOCK = 64

#: spectral densities above this (scaled) floor are considered non-negative
ADMISSIBILITY_FLOOR = -1e-9

#: most Gauss-Legendre panels a Gaussian correlation moment may use
MAX_GAUSSIAN_PANELS = 400_000

#: distinct (tau, c, t, k) Gaussian moments kept in memory
GAUSSIAN_MOMENT_CACHE_SIZE = 4096


@dataclass(frozen=True)
class NoiseModel:
    """One noise correlation shape plus an overall strength multiplier.

    Build instances through the classmethods; the raw constructor does not
    validate cross-field consistency beyond the basics.
    """

    kind: str
    corr_time: float | None = None
    scale: float = 1.0
    samples: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvariantViolationError(f"unknown noise kind {self.kind!r}")
        if not (self.scale > 0.0) or not math.isfinite(self.scale):
            raise InvariantViolationError("scale must be positive and finite")
        if self.kind in (EXPONENTIAL, GAUSSIAN):
            if self.corr_time is None or not (self.corr_time > 0.0):
                raise InvariantViolationError(
                    f"{self.kind} noise needs a positive correlation time"
                )
        if self.kind == TABULATED:
            if self.samples is None:
                raise InvariantViolationError("tabulated noise needs samples")
            s, f = self.samples
            if s.ndim != 1 or s.shape != f.shape or s.size < 4:
                raise InvariantViolationError(
                    "tabulated samples must be two equal 1-d arrays, >= 4 points"
                )
            if not np.all(np.diff(s) > 0.0):
                raise InvariantViolationError("tabulated grid must be strictly increasing")

    @classmethod
    def white(cls, scale: float = 1.0) -> "NoiseModel":
        return cls(WHITE, scale=scale)

    @classmethod
    def exponential(cls, tau: float, scale: float = 1.0) -> "NoiseModel":
        return cls(EXPONENTIAL, corr_time=tau, scale=scale)

    @classmethod
    def gaussian(cls, tau: float, scale: float = 1.0) -> "NoiseModel":
        return cls(GAUSSIAN, corr_time=tau, scale=scale)

    @classmethod
    def tabulated(cls, s, f, scale: float = 1.0) -> "NoiseModel":
        """Piecewise-linear correlation from samples.

        Two-sided inputs (grid reaching negative lags) are folded onto
        s >= 0: the two branches are averaged where they overlap and the
        model is rejected if they disagree by more than 1e-9 relative,
        since a correlation function must be even.
        """
        s = np.asarray(s, dtype=float).copy()
        f = np.asarray(f, dtype=float).copy()
        if s.size and np.any(np.diff(s) <= 0.0):
            raise InvariantViolationError("tabulated grid must be strictly increasing")
        if s.size and s[0] < 0.0:
            pos = np.unique(np.abs(s))
            left = np.interp(-pos, s, f)
            right = np.interp(pos, s, f)
            both = (-pos >= s[0]) & (pos <= s[-1])
            ref = max(float(np.max(np.abs(f))), 1e-300)
            asym = float(np.max(np.abs(left[both] - right[both]), initial=0.0))
            if asym > 1e-9 * ref:
                raise InvariantViolationError(
                    f"tabulated correlation is not even: branches differ by "
                    f"{asym / ref:.3g} relative (limit 1e-9)"
                )
            fold = np.where(both, 0.5 * (left + right), np.where(pos <= s[-1], right, left))
            s, f = pos, fold
        return cls(TABULATED, samples=(s, f), scale=scale)


@dataclass(frozen=True)
class NoiseSum:
    """Superposition of independent noise components (correlations add)."""

    parts: tuple[NoiseModel, ...]

    def __post_init__(self):
        if len(self.parts) == 0:
            raise InvariantViolationError("empty noise sum")

    @property
    def kind(self) -> str:
        return "sum(" + "+".join(p.kind for p in self.parts) + ")"

    @property
    def scale(self) -> float:
        return sum(p.scale for p in self.parts)


AnyNoise = NoiseModel | NoiseSum


def correlation_time(model: AnyNoise) -> float:
    """Characteristic decay time of f(s); 0.0 for white noise."""
    if isinstance(model, NoiseSum):
        return max(correlation_time(p) for p in model.parts)
    if model.kind == WHITE:
        return 0.0
    if model.kind in (EXPONENTIAL, GAUSSIAN):
        return float(model.corr_time)
    s = model.samples[0]
    return float(max(abs(s[0]), abs(s[-1])))


def correlation_reach(model: AnyNoise) -> float:
    """Support length beyond which f(s) is negligible (exact for tabulated)."""
    if isinstance(model, NoiseSum):
        return max(correlation_reach(p) for p in model.parts)
    if model.kind == WHITE:
        return 0.0
    if model.kind == EXPONENTIAL:
        return 45.0 * model.corr_time
    if model.kind == GAUSSIAN:
        return 10.0 * model.corr_time
    s = model.samples[0]
    return float(max(abs(s[0]), abs(s[-1])))


def eval_correlation(model: AnyNoise, s):
    """Pointwise correlation f(s).

    Parameters
    ----------
    model : NoiseModel or NoiseSum
    s : float or array_like
        Time lag(s).

    Returns
    -------
    float or ndarray

    Raises
    ------
    PointwiseUndefinedError
        For white noise (or any sum containing it): delta(s) has no
        pointwise value.
    """
    if isinstance(model, NoiseSum):
        return sum(eval_correlation(p, s) for p in model.parts)
    if model.kind == WHITE:
        raise PointwiseUndefinedError(
            "white noise correlation is a delta; integrate it, do not evaluate it"
        )
    s = np.asarray(s, dtype=float)
    if model.kind == EXPONENTIAL:
        tau = model.corr_time
        out = model.scale * np.exp(-np.abs(s) / tau) / (2.0 * tau)
    elif model.kind == GAUSSIAN:
        tau = model.corr_time
        out = model.scale * np.exp(-(s * s) / (2.0 * tau * tau)) / (tau * math.sqrt(2.0 * math.pi))
    else:
        out = model.scale * _tabulated_eval(model, s)
    return float(out) if out.ndim == 0 else out


def _tabulated_eval(model: NoiseModel, s: np.ndarray) -> np.ndarray:
    grid, vals = model.samples
    x = np.abs(s) if grid[0] >= 0.0 else s
    inside = (x >= grid[0]) & (x <= grid[-1])
    if not np.all(inside):
        warnings.warn(
            "correlation requested outside the tabulated support; returning 0 there",
            OutOfSupportWarning,
            stacklevel=3,
        )
    out = np.interp(x, grid, vals, left=0.0, right=0.0)
    return np.where(inside, out, 0.0)


def spectral_density(model: AnyNoise, omega):
    """Fourier transform f~(omega) of the correlation.

    Closed forms for the analytic shapes; for a tabulated model, the exact
    transform of the linear interpolant of its samples.

    Raises
    ------
    QuadratureNonConvergentError
        If a tabulated correlation has not decayed to ``TABLE_TAIL_TOL`` of
        its peak by its last lag, so that its cut-off would show in f~.
    """
    if isinstance(model, NoiseSum):
        return sum(spectral_density(p, omega) for p in model.parts)
    omega = np.asarray(omega, dtype=float)
    if model.kind == WHITE:
        out = np.full_like(omega, model.scale, dtype=float)
    elif model.kind == EXPONENTIAL:
        wt = omega * model.corr_time
        out = model.scale / (1.0 + wt * wt)
    elif model.kind == GAUSSIAN:
        wt = omega * model.corr_time
        out = model.scale * np.exp(-0.5 * wt * wt)
    else:
        out = model.scale * _tabulated_transform(model, omega)
    return float(out) if out.ndim == 0 else out


def _tabulated_transform(model: NoiseModel, omega: np.ndarray) -> np.ndarray:
    """Exact int g(s) cos(omega s) ds of the interpolant g (doubled if one-sided).

    Integrating by parts twice leaves the ends and the slope changes at the
    knots, c_j = b_j - b_{j-1}, with b_j the slope on [s_j, s_{j+1}] and 0 outside:

        F = (g(S) sin(w S) - g(s_0) sin(w s_0)) / w + sum_j c_j (s_j^2/2) sinc^2(w s_j/2)

    One sine per (omega, knot), one matrix-vector product per block of
    ``TRANSFORM_BLOCK`` frequencies, no cancellation at small omega.
    """
    s, f = model.samples
    peak, tail = np.max(np.abs(f)), np.max(np.abs(f[[0, -1] if s[0] < 0.0 else [-1]]))
    if tail > TABLE_TAIL_TOL * peak:
        raise QuadratureNonConvergentError(
            f"tabulated correlation ends at {tail / peak:.3g} of its peak "
            f"(limit {TABLE_TAIL_TOL:g}); extend the table until it has decayed"
        )
    kink = np.diff(np.diff(f) / np.diff(s), prepend=0.0, append=0.0)
    inner = s != 0.0  # a knot at s = 0 has no weight: keep its 0/0 out
    half, weight = 0.5 * s[inner], 0.5 * (kink * s * s)[inner]
    w = np.abs(omega).ravel()
    tiny = w * np.max(np.abs(s)) < 1e-100  # sinc is 1 to the last bit here
    out = np.empty_like(w)
    with np.errstate(invalid="ignore"):  # 0/0 on tiny rows, replaced below
        for lo in range(0, w.size, TRANSFORM_BLOCK):
            x = np.multiply.outer(w[lo:lo + TRANSFORM_BLOCK], half)
            sinc = np.sin(x)
            sinc /= x
            sinc *= sinc
            out[lo:lo + TRANSFORM_BLOCK] = sinc @ weight
        out += (f[-1] * np.sin(w * s[-1]) - f[0] * np.sin(w * s[0])) / w
    out[tiny] = weight.sum() + f[-1] * s[-1] - f[0] * s[0]
    return (2.0 * out if s[0] >= 0.0 else out).reshape(omega.shape)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Result of a spectral-density positivity scan."""

    admissible: bool
    min_density: float
    offenders: tuple[tuple[float, float], ...]


def validate_admissible(model: AnyNoise, omega_grid) -> AdmissibilityReport:
    """Scan f~ on a grid and flag negative values.

    A genuine correlation function has a non-negative transform; values
    below ``ADMISSIBILITY_FLOOR * scale`` are reported as offenders.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    dens = np.asarray(spectral_density(model, omega_grid), dtype=float)
    bad = dens < ADMISSIBILITY_FLOOR * model.scale
    offenders = tuple((float(w), float(d)) for w, d in zip(omega_grid[bad], dens[bad]))
    return AdmissibilityReport(
        admissible=not bool(bad.any()),
        min_density=float(dens.min()) if dens.size else 0.0,
        offenders=offenders,
    )


def load_correlation_file(path) -> NoiseModel:
    """Read a tabulated correlation from a two-column text file.

    Format: one ``s f(s)`` pair per line, whitespace separated, ``#`` starts
    a comment, lags strictly increasing.  Grids starting at 0 are treated as
    one-sided halves of an even function.
    """
    ss: list[float] = []
    ff: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(lineno, f"expected two columns, got {len(parts)}")
            try:
                s_val = float(parts[0])
                f_val = float(parts[1])
            except ValueError:
                raise ParseError(lineno, f"could not parse numbers from {line!r}") from None
            if ss and s_val <= ss[-1]:
                raise ParseError(lineno, "lag column must be strictly increasing")
            ss.append(s_val)
            ff.append(f_val)
    if len(ss) < 4:
        raise ParseError(len(ss), "need at least 4 sample points")
    return NoiseModel.tabulated(np.array(ss), np.array(ff))


# ---------------------------------------------------------------------------
# weighted correlation integrals
#
# corr_moment(model, c, t, k) = int_0^t x^k exp(c x) f(x) dx
#
# This is the only primitive the kernel module needs: every double-time
# integral against f reduces to sums of these.  The white-noise branch is
# symbolic; the delta at the lower endpoint x = 0 carries weight 1/2.
# ---------------------------------------------------------------------------


def corr_moment(model: AnyNoise, c: complex, t: float, k: int = 0) -> complex:
    """Integral of x^k exp(c x) f(x) over x in [0, t].

    Gaussian moments come from a memo of the unscaled quadrature (see
    ``_gaussian_moment``); the result is the same whether or not it was
    cached.  The memo is keyed on the range the quadrature covers, t cut
    where the Gaussian bump has died, so all times past the cut share one
    entry; and since f is real, M(conj c) = conj M(c), so a c with
    Im c < 0 is looked up as its conjugate.  Both keep every bit.

    Raises
    ------
    InvariantViolationError
        If ``t`` is negative.
    """
    if t < 0.0:
        raise InvariantViolationError(f"t must be >= 0, got {t!r}")
    if isinstance(model, NoiseSum):
        return sum(corr_moment(p, c, t, k) for p in model.parts)
    if t == 0.0:
        return 0.0 + 0.0j
    if model.kind == WHITE:
        # delta at the endpoint: half weight, and x^k kills it for k >= 1
        return 0.5 * model.scale + 0.0j if k == 0 else 0.0 + 0.0j
    if model.kind == EXPONENTIAL:
        tau = model.corr_time
        alpha = c - 1.0 / tau
        return model.scale / (2.0 * tau) * _poly_exp_integral(alpha, t, k)
    if model.kind == GAUSSIAN:
        # the cut of ``_gaussian_moment``, the same expression and so the same bits
        tau = model.corr_time
        upper = min(float(t), max(0.0, c.real) * tau * tau + 10.0 * tau)
        if c.imag < 0.0:
            return model.scale * _gaussian_moment(tau, c.conjugate(), upper, k).conjugate()
        return model.scale * _gaussian_moment(tau, c, upper, k)
    return model.scale * _tabulated_moment(model, c, t, k)


def corr_laplace(model: AnyNoise, c: complex, t: float) -> complex:
    """Integral of exp(c x) f(x) over [0, t] (k = 0 moment)."""
    return corr_moment(model, c, t, 0)


def _poly_exp_integral(alpha: complex, t: float, k: int) -> complex:
    """int_0^t x^k exp(alpha x) dx, stable for small |alpha| t.

    Below |alpha t| = 0.9 the closed-form recursion loses digits to
    cancellation, so a convergent power series takes over there.
    """
    z = complex(alpha) * t
    if abs(z) < 0.9:
        # sum_m alpha^m t^(k+m+1) / (m! (k+m+1))
        total = 0.0 + 0.0j
        c = t ** (k + 1) + 0.0j
        m = 0
        while True:
            contrib = c / (k + m + 1)
            total += contrib
            if m >= 4 and abs(contrib) <= 1e-17 * abs(total):
                return total
            m += 1
            if m > 80:
                return total
            c *= z / m
    if k == 0:
        return (cmath.exp(z) - 1.0) / alpha
    # reduction: int x^k e^{ax} = (t^k e^{at} - k int x^{k-1} e^{ax}) / a
    lower = _poly_exp_integral(alpha, t, k - 1)
    return (t**k * cmath.exp(z) - k * lower) / alpha


_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_GL12_X, _GL12_W = np.polynomial.legendre.leggauss(12)


@functools.lru_cache(maxsize=GAUSSIAN_MOMENT_CACHE_SIZE)
def _gaussian_moment(tau: float, c: complex, t: float, k: int) -> complex:
    """int_0^t x^k exp(c x) exp(-x^2 / 2 tau^2) / (tau sqrt(2 pi)) dx.

    The integrand is a gaussian bump of width ``tau`` centered at
    ``Re(c) tau^2`` (clipped to x >= 0), so the range is cut where the
    bump has fallen by exp(-50) and composite Gauss-Legendre panels are
    sized to resolve both the oscillation Im(c) and the growth Re(c).
    Twelve-point panels keep the absolute error far below the severe
    cancellation that long oscillatory ranges produce.  Needing more than
    ``MAX_GAUSSIAN_PANELS`` panels raises ``QuadratureNonConvergentError``.

    Memoized: the value is a pure function of its four arguments, and the
    naive spectrum asks for each one many times.  ``corr_moment`` passes
    the cut range as ``t`` (the cut then changes nothing) and c with
    Im c >= 0, so that times past the cut and conjugate arguments share
    entries.  Keys compare by value, so c = 0.0 and c = -0.0 share an
    entry; the quadrature returns the same bits for both (``math.fsum`` of
    signed zeros is +0.0).  A refusal is not cached and is raised again on
    every call.
    """
    if t <= 0.0:
        return 0.0 + 0.0j
    center = max(0.0, c.real) * tau * tau
    upper = min(float(t), center + 10.0 * tau)
    speed = max(abs(c.imag), abs(c.real), 1.0 / tau)
    width = min(tau / 4.0, math.pi / (2.0 * speed))
    n_panels = max(8, int(math.ceil(upper / width)))
    if n_panels > MAX_GAUSSIAN_PANELS:
        raise QuadratureNonConvergentError(
            f"gaussian correlation moment at c = {c!r} needs {n_panels} panels "
            f"(limit {MAX_GAUSSIAN_PANELS})"
        )
    edges = np.linspace(0.0, upper, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    x = (edges[:-1] + half)[:, None] + half * _GL12_X[None, :]
    w = half * _GL12_W[None, :]
    vals = w * x**k * np.exp(c * x - x * x / (2.0 * tau * tau))
    norm = 1.0 / (tau * math.sqrt(2.0 * math.pi))
    # exactly-rounded summation: long oscillatory ranges cancel by many
    # orders of magnitude, which ordinary pairwise summation cannot survive
    return norm * complex(math.fsum(vals.real.ravel().tolist()),
                          math.fsum(vals.imag.ravel().tolist()))


def _tabulated_moment(model: NoiseModel, c: complex, t: float, k: int) -> complex:
    grid, vals = model.samples
    if grid[0] < 0.0:
        keep = grid >= 0.0
        grid, vals = grid[keep], vals[keep]
        if grid.size < 2:
            return 0.0 + 0.0j
    hi = min(t, grid[-1])
    if hi <= grid[0]:
        return 0.0 + 0.0j
    # split each knot interval into np.linspace(lo, hi, parts + 1)'s pieces so the
    # exponential weight is resolved, then Gauss-Legendre per piece
    edges = np.unique(np.clip(np.append(grid, hi), grid[0], hi))
    width = np.diff(edges)
    parts = np.maximum(1, np.ceil((abs(c) + (1.0 if k else 0.0)) * width / 1.5)).astype(int)
    seg = np.repeat(np.arange(width.size), parts)
    i = np.arange(seg.size) - np.repeat(np.cumsum(parts) - parts, parts)
    step, lo_e = (width / parts)[seg], edges[:-1][seg]
    a = i * step + lo_e
    b = np.where(i + 1 == parts[seg], edges[1:][seg], (i + 1) * step + lo_e)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    x = (mid[:, None] + half[:, None] * _GL8_X).ravel()
    w = (half[:, None] * _GL8_W).ravel()
    return complex(np.sum(w * x**k * np.exp(c * x) * np.interp(x, grid, vals)))
