"""Let the CLI and demo subprocesses import ``dynpers`` from this checkout, and
run Hypothesis without per-example deadlines.

``pythonpath = ["src"]`` in ``pyproject.toml`` covers the test process itself;
child processes only see ``PYTHONPATH``.  Example run times vary with the
host's load, so a deadline would flake rather than find slow code.
"""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("dynpers", deadline=None)
settings.load_profile("dynpers")

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
