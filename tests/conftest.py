"""Test subprocesses import dibmap from this checkout's src/, as the tests do.

pyproject.toml puts src/ on pytest's own sys.path; the CLI and criterion
subprocesses inherit PYTHONPATH instead, so it gets the same entry.
"""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
