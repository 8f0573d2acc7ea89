import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_compare_integrate_runs_on_this_tree():
    # the equivalence check between two source trees must keep running as
    # the engine's signatures change; a tree against itself is identical
    proc = subprocess.run(
        [sys.executable, "tools/compare_integrate.py", "src", "src", "--n", "10"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "10 identical" in proc.stdout
