"""The package imports only the cheap part of scipy.

``scipy.stats`` alone roughly doubled the start-up of every ``gfomlab``
process; ``scipy.optimize`` comes in with it.  A fresh interpreter shows
what ``import gfomlab`` really loads, whatever the test process holds.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.stats", "scipy.optimize")


def test_import_gfomlab_loads_no_heavy_scipy_subpackage():
    code = ("import sys, gfomlab, gfomlab.cli\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []
