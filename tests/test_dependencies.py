"""The library runs on the standard library alone (no runtime deps)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_repro_does_not_load_numpy():
    # A fresh interpreter: this one may have numpy loaded by test tools.
    result = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    assert result.stdout.strip() == "False"
