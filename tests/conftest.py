"""Let the CLI and demo subprocesses import ``dynpers`` from this checkout.

``pythonpath = ["src"]`` in ``pyproject.toml`` covers the test process itself;
child processes only see ``PYTHONPATH``.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
