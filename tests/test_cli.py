"""Tests for the command-line interface: configs, writers, exit codes."""
from __future__ import annotations

import configparser
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

from noise_radiance.cli import THREADS_ENV, build_noise, main, write_csv, write_svg
from noise_radiance.errors import EdgeLevelWarning, InvariantViolationError
from noise_radiance.linewidth import single_quantum_width
from noise_radiance.noise import NoiseModel
from noise_radiance.rate import spectrum
from noise_radiance.system import near_degenerate_toy


def _write_config(tmp_path: Path, text: str, name: str = "run.cfg") -> str:
    path = tmp_path / name
    path.write_text(dedent(text))
    return str(path)


SPECTRUM_CFG = """\
    [noise]
    kind = white

    [system]
    builtin = near_degenerate_toy

    [grid]
    k_min = 0.5
    k_max = 1.5
    points = 6

    [output]
    csv = out.csv
    svg = out.svg
    log_y = true
"""


# ---------------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------------


def test_spectrum_writes_csv_and_svg(tmp_path, capsys):
    cfg = _write_config(tmp_path, SPECTRUM_CFG)
    with pytest.warns(EdgeLevelWarning):
        assert main(["spectrum", "--config", cfg]) == 0
    assert "wrote out.csv (6 points" in capsys.readouterr().out

    lines = (tmp_path / "out.csv").read_text().splitlines()
    headers = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln == "# mode=regularized" for ln in headers)
    assert any(ln.startswith("# jacobian=") for ln in headers)
    col_line = lines[len(headers)]
    assert col_line == "k,dGamma_dk"
    data = lines[len(headers) + 1 :]
    assert len(data) == 6

    # the 17-digit format must round-trip the library values bitwise
    with pytest.warns(EdgeLevelWarning):
        ref = spectrum(near_degenerate_toy(), NoiseModel.white(), np.linspace(0.5, 1.5, 6))
    parsed = np.array([[float(tok) for tok in row.split(",")] for row in data])
    assert np.array_equal(parsed[:, 0], ref.k)
    assert np.array_equal(parsed[:, 1], ref.rate)

    svg = (tmp_path / "out.svg").read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert "<polyline" in svg and svg.rstrip().endswith("</svg>")
    assert "log10(dGamma_dk)" in svg


def test_spectrum_thread_count_is_cosmetic(tmp_path, monkeypatch):
    base = dedent(SPECTRUM_CFG).replace("out.csv", "a.csv").replace("out.svg", "a.svg")
    cfg_a = _write_config(tmp_path, base, "a.cfg")
    cfg_b = _write_config(tmp_path, base.replace("a.csv", "b.csv").replace("a.svg", "b.svg"), "b.cfg")
    cfg_c = _write_config(tmp_path, base.replace("a.csv", "c.csv").replace("a.svg", "c.svg"), "c.cfg")
    with pytest.warns(EdgeLevelWarning):
        assert main(["spectrum", "--config", cfg_a, "--threads", "1"]) == 0
    with pytest.warns(EdgeLevelWarning):
        assert main(["spectrum", "--config", cfg_b, "--threads", "4"]) == 0
    monkeypatch.setenv(THREADS_ENV, "8")
    with pytest.warns(EdgeLevelWarning):
        assert main(["spectrum", "--config", cfg_c]) == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    c = (tmp_path / "c.csv").read_bytes()
    assert a == b == c


def test_bad_thread_env_is_a_config_error(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, SPECTRUM_CFG)
    monkeypatch.setenv(THREADS_ENV, "many")
    assert main(["spectrum", "--config", cfg]) == 2


def test_zero_threads_is_a_config_error(tmp_path, monkeypatch, capsys):
    # must not fall through to the environment variable
    cfg = _write_config(tmp_path, SPECTRUM_CFG)
    monkeypatch.setenv(THREADS_ENV, "2")
    assert main(["spectrum", "--config", cfg, "--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_negative_threads_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, SPECTRUM_CFG)
    assert main(["spectrum", "--config", cfg, "--threads", "-3"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


# ---------------------------------------------------------------------------
# compare command
# ---------------------------------------------------------------------------


def test_compare_writes_both_columns(tmp_path):
    cfg = _write_config(
        tmp_path,
        """\
        [noise]
        kind = white

        [system]
        builtin = near_degenerate_toy

        [grid]
        k_min = 0.6
        k_max = 1.2
        points = 4

        [rate]
        time = 30.0
        window = 10.0

        [output]
        csv = cmp.csv
        """,
    )
    with pytest.warns(EdgeLevelWarning):
        assert main(["compare", "--config", cfg]) == 0
    lines = (tmp_path / "cmp.csv").read_text().splitlines()
    assert "# mode=compare" in lines
    assert any(ln.startswith("# naive_time=") for ln in lines)
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("# "))
    assert lines[header_idx] == "k,regularized,naive"
    assert len(lines) - header_idx - 1 == 4


# ---------------------------------------------------------------------------
# linewidth command
# ---------------------------------------------------------------------------


def test_linewidth_table_and_csv(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        """\
        [system]
        builtin = harmonic_oscillator
        n_levels = 4
        omega0 = 1.3
        mass = 2.1

        [output]
        csv = widths.csv
        """,
    )
    assert main(["linewidth", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "level" in out and "width" in out
    lines = (tmp_path / "widths.csv").read_text().splitlines()
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("# "))
    rows = [ln.split(",") for ln in lines[header_idx + 1 :]]
    lam = single_quantum_width(1.3, 2.1)
    for n, row in enumerate(rows):
        assert float(row[2]) == pytest.approx(n * lam, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# validate-noise command
# ---------------------------------------------------------------------------


def test_validate_noise_accepts_exponential(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        """\
        [noise]
        kind = exponential
        tau = 0.8
        """,
    )
    assert main(["validate-noise", "--config", cfg]) == 0
    assert "admissible: yes" in capsys.readouterr().out


def test_validate_noise_flags_negative_density(tmp_path, capsys):
    s = np.linspace(0.0, 8.0, 321)
    f = (1.0 - 1.5 * s * s) * np.exp(-0.5 * s * s)
    table = "\n".join(f"{float(x)!r} {float(y)!r}" for x, y in zip(s, f))
    (tmp_path / "bad.corr").write_text(table + "\n")
    cfg = _write_config(
        tmp_path,
        """\
        [noise]
        kind = tabulated
        file = bad.corr
        omega_max = 5.0
        """,
    )
    assert main(["validate-noise", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "admissible: NO" in out and "f~(" in out


# ---------------------------------------------------------------------------
# oracle command
# ---------------------------------------------------------------------------


def test_oracle_reports_per_draw_errors(capsys):
    assert main(["oracle", "--draws", "2", "--noise", "white"]) == 0
    out = capsys.readouterr().out
    assert "draw 0 T1: relative error" in out
    assert "draw 1 T3: relative error" in out
    assert "worst relative error" in out
    assert "FAIL" not in out


def test_oracle_exponential_single_draw(capsys):
    assert main(["oracle", "--draws", "1", "--seed", "4"]) == 0
    assert "[ok]" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# configuration errors
# ---------------------------------------------------------------------------


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_noise_section_is_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "[grid]\nk_min = 0.5\nk_max = 1.0\npoints = 2\n")
    assert main(["spectrum", "--config", cfg]) == 2
    assert "[noise]" in capsys.readouterr().err


def test_system_needs_exactly_one_source(tmp_path):
    cfg = _write_config(
        tmp_path,
        """\
        [noise]
        kind = white

        [system]
        builtin = two_level_toy
        file = also.system

        [grid]
        k_min = 0.5
        k_max = 1.0
        points = 2

        [output]
        csv = x.csv
        """,
    )
    assert main(["spectrum", "--config", cfg]) == 2


def test_bad_grid_is_exit_2(tmp_path):
    cfg = _write_config(
        tmp_path,
        """\
        [noise]
        kind = white

        [system]
        builtin = near_degenerate_toy

        [grid]
        k_min = -0.5
        k_max = 1.0
        points = 2

        [output]
        csv = x.csv
        """,
    )
    assert main(["spectrum", "--config", cfg]) == 2


def test_zero_width_pathway_is_exit_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        """\
        [noise]
        kind = white

        [system]
        builtin = near_degenerate_toy
        widths = 0.0, 0.0, 0.0

        [grid]
        k_min = 0.5
        k_max = 1.0
        points = 2

        [output]
        csv = x.csv
        """,
    )
    assert main(["spectrum", "--config", cfg]) == 2
    assert "pathway" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config building blocks
# ---------------------------------------------------------------------------


def _parser_from(text: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(dedent(text))
    return cp


def test_build_noise_guards():
    with pytest.raises(InvariantViolationError, match="kind"):
        build_noise(_parser_from("[noise]\nscale = 1.0\n"), Path("."))
    with pytest.raises(InvariantViolationError, match="tau"):
        build_noise(_parser_from("[noise]\nkind = gaussian\n"), Path("."))
    with pytest.raises(InvariantViolationError, match="unknown"):
        build_noise(_parser_from("[noise]\nkind = pink\n"), Path("."))


def test_build_noise_tabulated_applies_scale(tmp_path):
    s = np.linspace(0.0, 6.0, 101)
    f = np.exp(-0.5 * s * s)
    (tmp_path / "t.corr").write_text(
        "\n".join(f"{float(x)!r} {float(y)!r}" for x, y in zip(s, f))
    )
    cp = _parser_from("[noise]\nkind = tabulated\nfile = t.corr\nscale = 2.0\n")
    noise = build_noise(cp, tmp_path)
    assert noise.scale == 2.0


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def test_write_csv_layout(tmp_path):
    path = tmp_path / "w.csv"
    write_csv(str(path), {"a": "1", "b": "two words"},
              {"x": np.array([1.0, 2.0]), "y": np.array([0.5, 0.25])})
    lines = path.read_text().splitlines()
    assert lines[0] == "# a=1"
    assert lines[1] == "# b=two words"
    assert lines[2] == "x,y"
    assert lines[3] == "1,0.5"


def test_write_svg_handles_flat_series(tmp_path):
    path = tmp_path / "w.svg"
    write_svg(str(path), np.array([1.0, 2.0]), {"flat": np.array([3.0, 3.0])})
    text = path.read_text()
    assert text.startswith('<?xml') and "</svg>" in text
