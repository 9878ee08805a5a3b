"""Make the package importable from a plain checkout: ``src`` goes on
``sys.path`` for the test process and in front of ``PYTHONPATH`` for the
interpreters the tests start (``python -m needle_iso``, the demos)."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
