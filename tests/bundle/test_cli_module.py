"""``python -m repro.bundle.cli`` runs the CLI, like ``python -m repro.bundle``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


@pytest.mark.parametrize("module", ["repro.bundle.cli", "repro.bundle"])
def test_verify_missing_bundle_exits_2(tmp_path, module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", module, "verify", str(tmp_path / "missing")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
