"""Every demo script runs to completion from this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    r = subprocess.run([sys.executable, str(demo)], capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": path},
                       timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()
    assert "Traceback" not in r.stderr
