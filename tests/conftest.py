"""Make the package in this checkout importable by the tests' subprocesses.

``pythonpath`` in pyproject.toml covers the test process itself; the tests
that start ``python -m gkverify.cli`` or ``python -c "import gkverify"``
need it in the environment as well.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)
