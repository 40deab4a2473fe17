"""Self-test of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

1. Every output check passes on the program's real output and fails on a
   slightly perturbed copy of it.
2. Every workload runs end to end at a tiny size, untraced and traced, and
   traced runs with two different seeds give identical call counts.

Exits 0 when all of it holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import noise_radiance  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except wl.CheckFailed:
        return True
    return False


def tiny(cls, workdir: Path, **sizes):
    for key, value in sizes.items():
        setattr(cls, key, value)
    w = cls(7, workdir)
    w.prepare()
    return w


def perturb_csv(path: Path, column: str, factor: float) -> None:
    """Scale the largest entry of one column."""
    lines = path.read_text().splitlines()
    head = next(n for n, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[head].split(",").index(column)
    rows = [ln.split(",") for ln in lines[head + 1:]]
    top = max(rows, key=lambda cells: abs(float(cells[col])))
    top[col] = repr(float(top[col]) * factor)
    path.write_text("\n".join(lines[:head + 1] + [",".join(r) for r in rows]) + "\n")


def check_spectrum_column(cls, column: str, factor: float, workdir: Path) -> None:
    w = tiny(cls, workdir, k_points=2)
    for index, perturbed in ((0, False), (1, True)):
        (op,) = w.round(index)
        out = op.call()
        if perturbed:
            perturb_csv(workdir / f"op{index}.csv", column, factor)
            expect(rejects(op.check, out), f"{cls.name}: {column} x {factor} is rejected")
        else:
            expect(op.check(out) is True, f"{cls.name}: real output passes")


def check_monte_carlo(workdir: Path) -> None:
    w = tiny(wl.MonteCarloTwoLevel, workdir, n_pfi=20, n_autocov=10)
    (op,) = w.round(0)
    out = op.call()
    expect(op.check(out) is True, "mc-two-level: real output passes")
    figures = w.finish()
    expect(set(figures) == {"z_white", "z_exponential", "z_autocov_max"},
           "mc-two-level: real pooled estimates pass")

    est, pred = out["white"]
    moved = dict(out, white=(est, pred * (1.0 + 1e-12)))
    expect(rejects(op.check, moved), "mc-two-level: a changed prediction is rejected")

    # one operation was checked, so its estimates are the pooled ones
    for label in ("white", "exponential"):
        mean, err = w.estimates[label][0]
        w.estimates[label][0] = (w.predicted[label] + 6.0 * err, err)
        expect(rejects(w.finish), f"mc-two-level: {label} mean 6 sigma off is rejected")
        w.estimates[label][0] = (mean, err)

    lags, mean, err = w.autocov[0]
    bumped = mean.copy()
    bumped[3] = np.exp(-lags[3] / w.autocov_tau) / (2.0 * w.autocov_tau) + 6.0 * err[3]
    w.autocov[0] = (lags, bumped, err)
    expect(rejects(w.finish), "mc-two-level: autocovariance 6 sigma off is rejected")


def check_tabulated(workdir: Path) -> None:
    w = tiny(wl.ValidateTabulated, workdir, rows=1000)
    gauss, expo = w.round(0)
    out = gauss.call()
    expect(gauss.check(out) is True, "validate-tabulated: real Gaussian report passes")
    failed = expo.call()
    expect(expo.check(failed) is False and "grid-halving" in failed.stderr,
           "validate-tabulated: exponential table fails with the grid-halving error")
    changed = wl.CliOutcome(0, out.stdout.replace("kind", "kind "), "")
    expect(rejects(gauss.check, changed), "validate-tabulated: a changed report is rejected")
    refused = wl.CliOutcome(0, out.stdout.replace("admissible: yes", "admissible: NO"), "")
    w.seen.clear()
    expect(rejects(gauss.check, refused), "validate-tabulated: refusing the Gaussian is rejected")

    original = noise_radiance.spectral_density
    for factor in (1.0 + 1e-3, 1.0 - 1e-3):
        noise_radiance.spectral_density = lambda m, om, f=factor: f * original(m, om)
        try:
            expect(rejects(w._check_transform, "gaussian"),
                   f"validate-tabulated: f~ x {factor} is rejected")
        finally:
            noise_radiance.spectral_density = original


def run_tiny(workload: str, trace: int, seed: int = 5) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                         "--trace", str(trace)])
    expect(code == 0, f"{workload} trace={trace}: exit 0")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_runs() -> None:
    sizes = {
        wl.Spectrum3d: {"k_points": 2, "trace_rounds": 1},
        wl.CompareGaussian: {"k_points": 1, "trace_rounds": 1},
        wl.MonteCarloTwoLevel: {"n_pfi": 10, "n_autocov": 5, "trace_rounds": 1},
        wl.ValidateTabulated: {"rows": 1000, "trace_rounds": 1},
    }
    for cls, size in sizes.items():
        for key, value in size.items():
            setattr(cls, key, value)
        plain = run_tiny(cls.name, 0)
        expected_failed = plain["attempted"] // 2 if cls is wl.ValidateTabulated else 0
        expect(plain["correct"] and plain["failed"] == expected_failed
               and set(plain["metrics"]) == {"work_per_s", "op_p50_s", "peak_rss_mb", "setup_s"},
               f"{cls.name}: tiny run correct, {expected_failed} failed, end-to-end metrics")
        traced = [run_tiny(cls.name, 1, seed) for seed in (5, 6)]
        calls = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(".calls")}
                 for t in traced]
        expect(all(t["correct"] for t in traced) and calls[0] == calls[1]
               and any(v > 0 for v in calls[0].values()),
               f"{cls.name}: traced call counts repeat exactly")


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for n, (cls, column, factor) in enumerate((
            (wl.Spectrum3d, "dGamma_dk", 1.0 + 1e-9),
            (wl.CompareGaussian, "regularized", 1.0 + 1e-9),
            (wl.CompareGaussian, "naive", 1.0 + 1e-5),
        )):
            d = Path(tmp) / f"spec{n}"
            d.mkdir()
            check_spectrum_column(cls, column, factor, d)
        for n, fn in enumerate((check_monte_carlo, check_tabulated)):
            d = Path(tmp) / f"other{n}"
            d.mkdir()
            fn(d)
    check_runs()
    print(f"{len(FAILURES)} failures" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
