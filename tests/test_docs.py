"""The examples printed in the README run as written."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


# the quick start's two-level toy starts in its upper level, which warns by design
@pytest.mark.filterwarnings("ignore::noise_radiance.errors.NonGroundInitialWarning")
def test_readme_python_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "natural units" in capsys.readouterr().out
