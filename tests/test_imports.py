"""Every package under ``src/repro`` imports on its own.

Each is imported as a process's *first* import of ``repro``: an import
cycle that only resolves when entered from one side passes any suite
whose earlier imports happen to enter it there (``repro.raft`` did,
through ``repro.distributed.master``), and fails a user's script.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
PACKAGES = sorted(
    ".".join(("repro", *init.parent.relative_to(ROOT).parts))
    for init in ROOT.rglob("__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_is_importable_first(package):
    done = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        env={**os.environ, "PYTHONPATH": str(ROOT.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
