"""The demo scripts run end to end and print their closing verdict."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# each demo's last line, or the part of it that holds the verdict
CLOSING = {"compile_and_verify.py": "-> OK",
           "pair_spectrum.py": "bond for truncation error 1e-06:",
           "structure_search.py": "recovered tree matches hidden tree: True"}


@pytest.mark.parametrize("script", sorted(CLOSING))
def test_demo_runs(script):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.rstrip().splitlines()[-1]
    assert CLOSING[script] in last, proc.stdout
