"""Command-line interface.

Subcommands:

* ``spectrum``       - compute one emission spectrum, write CSV (and SVG).
* ``compare``        - regularized and naive spectra side by side.
* ``linewidth``      - radiative widths of a system's levels.
* ``validate-noise`` - admissibility scan of the configured noise model.
* ``oracle``         - quadrature cross-check of the closed-form rates.

Configuration is a sectioned key=value file (see the README for the full
grammar); paths inside it resolve relative to the file itself.  Exit codes:
0 success, 2 for configuration/validation problems (bad files, inadmissible
noise, zero-width pathways), 1 for runtime failures.  No output file is
opened until its content has been computed.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    InadmissibleNoiseError,
    InvariantViolationError,
    NoiseRadianceError,
    ParseError,
    QuadratureNonConvergentError,
    ZeroWidthError,
)
from .kernels import KernelParams, rate_T1_longtime, rate_T2_longtime, rate_T3_longtime
from .linewidth import fill_widths, generic_linewidth
from .noise import AnyNoise, NoiseModel, load_correlation_file, validate_admissible
from .oracles import oracle_dT1_dt, oracle_dT2_dt, oracle_dT3_dt
from .rate import EmissionSpectrum, spectrum
from .system import (
    CouplingConstants,
    SystemSpec,
    builtin_harmonic_oscillator,
    builtin_oscillator_3d,
    load_system,
    near_degenerate_toy,
    two_level_toy,
)

THREADS_ENV = "NOISE_RADIANCE_THREADS"

_VALIDATION_ERRORS = (
    ParseError,
    InvariantViolationError,
    InadmissibleNoiseError,
    QuadratureNonConvergentError,
    ZeroWidthError,
    FileNotFoundError,
    configparser.Error,
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _read_config(path: str) -> tuple[configparser.ConfigParser, Path]:
    cfg_path = Path(path)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(cfg_path, "r", encoding="utf-8") as fh:
        cp.read_file(fh, source=str(cfg_path))
    return cp, cfg_path.parent


def _resolve(base: Path, value: str) -> str:
    p = Path(value)
    return str(p if p.is_absolute() else base / p)


def build_noise(cp: configparser.ConfigParser, base: Path) -> AnyNoise:
    if not cp.has_section("noise"):
        raise InvariantViolationError("config needs a [noise] section")
    kind = cp.get("noise", "kind", fallback=None)
    if kind is None:
        raise InvariantViolationError("[noise] needs kind = white|exponential|gaussian|tabulated")
    scale = cp.getfloat("noise", "scale", fallback=1.0)
    if kind == "white":
        return NoiseModel.white(scale=scale)
    if kind in ("exponential", "gaussian"):
        tau = cp.getfloat("noise", "tau", fallback=None)
        if tau is None:
            raise InvariantViolationError(f"[noise] kind={kind} needs tau = <correlation time>")
        maker = NoiseModel.exponential if kind == "exponential" else NoiseModel.gaussian
        return maker(tau, scale=scale)
    if kind == "tabulated":
        fname = cp.get("noise", "file", fallback=None)
        if fname is None:
            raise InvariantViolationError("[noise] kind=tabulated needs file = <two-column table>")
        model = load_correlation_file(_resolve(base, fname))
        if scale != 1.0:
            model = NoiseModel.tabulated(model.samples[0], model.samples[1], scale=scale)
        return model
    raise InvariantViolationError(f"unknown noise kind {kind!r}")


_BUILTINS = {
    "two_level_toy",
    "near_degenerate_toy",
    "harmonic_oscillator",
    "oscillator_3d",
}


def build_system(cp: configparser.ConfigParser, base: Path) -> SystemSpec:
    if not cp.has_section("system"):
        raise InvariantViolationError("config needs a [system] section")
    fname = cp.get("system", "file", fallback=None)
    builtin = cp.get("system", "builtin", fallback=None)
    if (fname is None) == (builtin is None):
        raise InvariantViolationError("[system] needs exactly one of file= or builtin=")
    if fname is not None:
        spec = load_system(_resolve(base, fname))
    else:
        if builtin not in _BUILTINS:
            raise InvariantViolationError(
                f"unknown builtin {builtin!r}; choices: {sorted(_BUILTINS)}"
            )
        if builtin == "two_level_toy":
            spec = two_level_toy(gap=cp.getfloat("system", "gap", fallback=1.0))
        elif builtin == "near_degenerate_toy":
            spec = near_degenerate_toy(
                splitting=cp.getfloat("system", "splitting", fallback=2e-3)
            )
        elif builtin == "harmonic_oscillator":
            spec = builtin_harmonic_oscillator(
                n_levels=cp.getint("system", "n_levels", fallback=6),
                omega0=cp.getfloat("system", "omega0", fallback=1.0),
                mass=cp.getfloat("system", "mass", fallback=1.0),
                charge=cp.getfloat("system", "charge", fallback=1.0),
                initial=cp.getint("system", "initial", fallback=0),
            )
        else:
            spec = builtin_oscillator_3d(
                n_max=cp.getint("system", "n_max", fallback=2),
                omega0=cp.getfloat("system", "omega0", fallback=1.0),
                mass=cp.getfloat("system", "mass", fallback=1.0),
                charge=cp.getfloat("system", "charge", fallback=1.0),
                initial=cp.getint("system", "initial", fallback=0),
            )
    if cp.has_option("system", "widths"):
        widths = [float(tok) for tok in cp.get("system", "widths").split(",")]
        spec = spec.with_widths(np.array(widths))
    elif cp.getboolean("system", "fill_widths", fallback=False):
        spec = fill_widths(spec)
    return spec


def build_grid(cp: configparser.ConfigParser) -> np.ndarray:
    if not cp.has_section("grid"):
        raise InvariantViolationError("config needs a [grid] section")
    k_min = cp.getfloat("grid", "k_min", fallback=None)
    k_max = cp.getfloat("grid", "k_max", fallback=None)
    points = cp.getint("grid", "points", fallback=None)
    if k_min is None or k_max is None or points is None:
        raise InvariantViolationError("[grid] needs k_min, k_max and points")
    if not (0.0 < k_min <= k_max) or points < 1:
        raise InvariantViolationError("[grid] needs 0 < k_min <= k_max and points >= 1")
    return np.linspace(k_min, k_max, points)


def _resolve_threads(args: argparse.Namespace) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise InvariantViolationError(f"--threads must be at least 1, got {args.threads}")
        return args.threads
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InvariantViolationError(
                f"{THREADS_ENV} must be an integer, got {env!r}"
            ) from None
    return 1


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def _format_value(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path: str, header: dict[str, str], columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    lines = [f"# {key}={value}" for key, value in header.items()]
    lines.append(",".join(names))
    for row in zip(*arrays):
        lines.append(",".join(_format_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_svg(
    path: str,
    xs: np.ndarray,
    series: dict[str, np.ndarray],
    log_y: bool = False,
    x_label: str = "k",
    y_label: str = "dGamma_dk",
) -> None:
    """Self-contained SVG line plot of exactly the tabulated points."""
    width, height, margin = 800.0, 500.0, 70.0
    xs = np.asarray(xs, dtype=float)
    colors = ("#1f6fb2", "#c23f3f", "#3f8f4e", "#8f5fb2")

    all_y = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    if log_y:
        positive = all_y[all_y > 0.0]
        floor = float(positive.min()) / 10.0 if positive.size else 1e-300

        def transform(y):
            return np.log10(np.maximum(y, floor))

        y_all = transform(all_y)
    else:

        def transform(y):
            return np.asarray(y, dtype=float)

        y_all = all_y
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#222222" stroke-width="1"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="#222222" stroke-width="1"/>',
    ]
    for idx, (name, ys) in enumerate(series.items()):
        ty = transform(np.asarray(ys, dtype=float))
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ty))
        color = colors[idx % len(colors)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin - 4:.1f}" y="{margin + 16 + 18 * idx:.1f}" '
            f'text-anchor="end" font-family="monospace" font-size="13" '
            f'fill="{color}">{name}</text>'
        )
    y_lab = f"log10({y_label})" if log_y else y_label
    parts.extend(
        [
            f'<text x="{width / 2:.1f}" y="{height - margin / 4:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="14" fill="#222222">{x_label}</text>',
            f'<text x="{margin / 4:.1f}" y="{height / 2:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="14" fill="#222222" '
            f'transform="rotate(-90 {margin / 4:.1f} {height / 2:.1f})">{y_lab}</text>',
            f'<text x="{margin:.1f}" y="{height - margin + 18:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="12" fill="#222222">{x_lo:.6g}</text>',
            f'<text x="{width - margin:.1f}" y="{height - margin + 18:.1f}" '
            f'text-anchor="middle" font-family="monospace" font-size="12" '
            f'fill="#222222">{x_hi:.6g}</text>',
            f'<text x="{margin - 6:.1f}" y="{height - margin:.1f}" text-anchor="end" '
            f'font-family="monospace" font-size="12" fill="#222222">{y_lo:.6g}</text>',
            f'<text x="{margin - 6:.1f}" y="{margin + 4:.1f}" text-anchor="end" '
            f'font-family="monospace" font-size="12" fill="#222222">{y_hi:.6g}</text>',
            "</svg>",
        ]
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _noise_admissibility_gate(noise: AnyNoise, omega_max: float) -> None:
    grid = np.linspace(-omega_max, omega_max, 2001)
    report = validate_admissible(noise, grid)
    if not report.admissible:
        worst = report.offenders[0]
        raise InadmissibleNoiseError(
            f"noise spectral density is negative (e.g. f~({worst[0]:.6g}) = {worst[1]:.6g}); "
            f"not a valid correlation function"
        )


def _spectra_from_config(cp, base, args, modes: tuple[str, ...]) -> list[EmissionSpectrum]:
    """Build the noise, system, grid and constants once; one spectrum per mode."""
    noise = build_noise(cp, base)
    system = build_system(cp, base)
    ks = build_grid(cp)
    constants = CouplingConstants(gamma=cp.getfloat("constants", "gamma", fallback=1.0))
    omega_max = float(np.max(np.abs(system.energies)) / constants.hbar + ks.max())
    _noise_admissibility_gate(noise, omega_max)
    time = cp.getfloat("rate", "time", fallback=None)
    window = cp.getfloat("rate", "window", fallback=None)
    return [
        spectrum(
            system,
            noise,
            ks,
            mode=mode,
            constants=constants,
            time=time,
            window=window,
            threads=_resolve_threads(args),
        )
        for mode in modes
    ]


def cmd_spectrum(args: argparse.Namespace) -> int:
    cp, base = _read_config(args.config)
    mode = cp.get("rate", "mode", fallback="regularized")
    (result,) = _spectra_from_config(cp, base, args, (mode,))
    csv_path = cp.get("output", "csv", fallback=None)
    if csv_path is None:
        raise InvariantViolationError("[output] needs csv = <path>")
    write_csv(
        _resolve(base, csv_path),
        result.metadata,
        {"k": result.k, "dGamma_dk": result.rate},
    )
    svg_path = cp.get("output", "svg", fallback=None)
    if svg_path is not None:
        write_svg(
            _resolve(base, svg_path),
            result.k,
            {"dGamma_dk": result.rate},
            log_y=cp.getboolean("output", "log_y", fallback=False),
        )
    print(f"wrote {csv_path} ({result.k.size} points, mode={result.mode})")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cp, base = _read_config(args.config)
    reg, nai = _spectra_from_config(cp, base, args, ("regularized", "naive"))
    header = dict(reg.metadata)
    header["mode"] = "compare"
    header["naive_time"] = nai.metadata.get("time", "")
    header["naive_window"] = nai.metadata.get("window", "")
    csv_path = cp.get("output", "csv", fallback=None)
    if csv_path is None:
        raise InvariantViolationError("[output] needs csv = <path>")
    write_csv(
        _resolve(base, csv_path),
        header,
        {"k": reg.k, "regularized": reg.rate, "naive": nai.rate},
    )
    svg_path = cp.get("output", "svg", fallback=None)
    if svg_path is not None:
        write_svg(
            _resolve(base, svg_path),
            reg.k,
            {"regularized": reg.rate, "naive": nai.rate},
            log_y=cp.getboolean("output", "log_y", fallback=False),
        )
    print(f"wrote {csv_path} ({reg.k.size} points, regularized vs naive)")
    return 0


def cmd_linewidth(args: argparse.Namespace) -> int:
    cp, base = _read_config(args.config)
    system = build_system(cp, base)
    constants = CouplingConstants()
    rows = []
    for n in range(system.size):
        rows.append((system.labels[n], float(system.energies[n]), generic_linewidth(system, n, constants)))
    width_col = max(len(r[0]) for r in rows)
    print(f"{'level':<{width_col}}  {'energy':>24}  {'width':>24}")
    for label, energy, gamma in rows:
        print(f"{label:<{width_col}}  {energy:>24.17g}  {gamma:>24.17g}")
    csv_path = cp.get("output", "csv", fallback=None)
    if csv_path is not None:
        write_csv(
            _resolve(base, csv_path),
            {"columns": "index, energy, width", "units": "natural units"},
            {
                "index": np.arange(system.size, dtype=float),
                "energy": np.array([r[1] for r in rows]),
                "width": np.array([r[2] for r in rows]),
            },
        )
    return 0


def cmd_validate_noise(args: argparse.Namespace) -> int:
    cp, base = _read_config(args.config)
    noise = build_noise(cp, base)
    omega_max = cp.getfloat("noise", "omega_max", fallback=20.0)
    grid = np.linspace(-omega_max, omega_max, 4001)
    report = validate_admissible(noise, grid)
    print(f"kind: {noise.kind}")
    print(f"minimum spectral density on [-{omega_max:g}, {omega_max:g}]: {report.min_density:.6g}")
    if report.admissible:
        print("admissible: yes")
        return 0
    print(f"admissible: NO ({len(report.offenders)} grid points negative)")
    for w, d in report.offenders[:5]:
        print(f"  f~({w:.6g}) = {d:.6g}")
    return 2


def cmd_oracle(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    noise = NoiseModel.exponential(0.7) if args.noise == "exponential" else NoiseModel.white()
    worst = 0.0
    failures = 0
    for trial in range(args.draws):
        gam_n, gam_m = rng.uniform(0.05, 0.5, size=2)
        d_fn, d_ni, d_fm = rng.uniform(-5.0, 5.0, size=3)
        d_mi = d_fn + d_ni - d_fm
        params = KernelParams(
            delta_fn=d_fn,
            delta_ni=d_ni,
            delta_fm=d_fm,
            delta_mi=d_mi,
            omega_k=float(rng.uniform(0.5, 4.0)),
            gamma_n=float(gam_n),
            gamma_m=float(gam_m),
        )
        t = 25.0 / min(gam_n, gam_m)
        for name, closed, quad in (
            ("T1", rate_T1_longtime, oracle_dT1_dt),
            ("T2", rate_T2_longtime, oracle_dT2_dt),
            ("T3", rate_T3_longtime, oracle_dT3_dt),
        ):
            expected = closed(params, noise)
            measured = quad(params, noise, t)
            err = abs(measured - expected) / max(abs(expected), 1e-300)
            worst = max(worst, err)
            status = "ok" if err < args.tol else "FAIL"
            if err >= args.tol:
                failures += 1
            print(f"draw {trial} {name}: relative error {err:.3e} [{status}]")
    print(f"worst relative error over {args.draws} draws: {worst:.3e}")
    if failures:
        print(f"{failures} comparisons beyond tolerance {args.tol:g}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noise-radiance",
        description="Photon emission spectra of noise-driven bound systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="sectioned key=value config file")
        p.add_argument("--threads", type=int, default=None,
                       help=f"thread count, validated but without effect: the k "
                            f"grid runs serially (default: ${THREADS_ENV} or 1)")
        p.add_argument("--seed", type=int, default=0, help="seed for stochastic commands")

    p_spec = sub.add_parser("spectrum", help="compute one emission spectrum")
    add_common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_cmp = sub.add_parser("compare", help="regularized and naive spectra side by side")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_lw = sub.add_parser("linewidth", help="radiative widths of the configured system")
    add_common(p_lw)
    p_lw.set_defaults(func=cmd_linewidth)

    p_val = sub.add_parser("validate-noise", help="admissibility scan of the noise model")
    add_common(p_val)
    p_val.set_defaults(func=cmd_validate_noise)

    p_or = sub.add_parser("oracle", help="quadrature cross-check of the closed-form rates")
    p_or.add_argument("--draws", type=int, default=5, help="random parameter draws")
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--tol", type=float, default=1e-4, help="relative tolerance")
    p_or.add_argument("--noise", choices=("white", "exponential"), default="exponential")
    p_or.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoiseRadianceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
