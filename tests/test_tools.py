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


def test_compare_integrate_flags_untyped_errors(tmp_path):
    # a tree whose integrate() dies with a program error is reported, input
    # by input, as untyped outcomes and fails the check
    pkg = tmp_path / "sqspec"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "_integrators.py").write_text("def _slaved_stage(*args):\n    return (0.0,)\n")
    (pkg / "squeeze_dynamics.py").write_text(
        "class StepBudgetError(RuntimeError):\n    pass\n\n\n"
        "class StepSizeUnderflowError(RuntimeError):\n    pass\n\n\n"
        "def integrate(**kwargs):\n    return 1.0 / 0.0\n"
    )
    proc = subprocess.run(
        [sys.executable, "tools/compare_integrate.py", "src", str(tmp_path), "--n", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "ok -> untyped ZeroDivisionError" in proc.stdout
    assert "NEW_SRC has 5 untyped outcomes" in proc.stdout
