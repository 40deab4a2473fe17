"""Repository-level pytest setup.

``pyproject.toml`` puts ``src`` on the import path of the pytest process
only; tests that run the CLI as ``python -m noise_radiance.cli`` start a
child interpreter, which reads ``PYTHONPATH`` instead.  Prepending ``src``
there lets a plain ``python -m pytest`` from the repository root run them
without an installed package.
"""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
_PATH = os.environ.get("PYTHONPATH", "")
if _SRC not in _PATH.split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, _PATH) if p)
