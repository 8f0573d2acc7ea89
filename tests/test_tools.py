import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _compare_integrate():
    spec = importlib.util.spec_from_file_location(
        "compare_integrate", ROOT / "tools" / "compare_integrate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_integrate_runs_on_this_tree():
    # the equivalence check between two source trees must keep running as
    # the engine's signatures change; a tree against itself is identical
    proc = subprocess.run(
        [sys.executable, "tools/compare_integrate.py", "src", "src", "--n", "10"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "10 identical" in proc.stdout


def test_compare_integrate_compares_shared_stats_fields(tmp_path):
    # a tree whose IntegratorStats carries one more field is compared on the
    # fields both report, and the extra field is named
    pkg = tmp_path / "sqspec"
    shutil.copytree(ROOT / "src" / "sqspec", pkg, ignore=shutil.ignore_patterns("__pycache__"))
    source = (pkg / "_integrators.py").read_text()
    assert source.count('    status: str = "ok"\n') == 1
    (pkg / "_integrators.py").write_text(
        source.replace('    status: str = "ok"\n', '    status: str = "ok"\n    extra: int = 7\n')
    )
    proc = subprocess.run(
        [sys.executable, "tools/compare_integrate.py", "src", str(tmp_path), "--n", "10"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "stats fields only NEW_SRC reports, not compared: extra" in proc.stdout
    assert "10 identical" in proc.stdout


def _broken_tree(tmp_path):
    """A tree whose integrate() dies with a program error on every input."""
    pkg = tmp_path / "sqspec"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "_integrators.py").write_text("def _slaved_stage(*args):\n    return (0.0,)\n")
    (pkg / "squeeze_dynamics.py").write_text(
        "class StepBudgetError(RuntimeError):\n    pass\n\n\n"
        "class StepSizeUnderflowError(RuntimeError):\n    pass\n\n\n"
        "def integrate(**kwargs):\n    return 1.0 / 0.0\n"
    )
    return str(tmp_path)


def test_compare_integrate_flags_untyped_errors(tmp_path):
    # a tree whose integrate() dies with a program error is reported, input
    # by input, as untyped outcomes and fails the check
    proc = subprocess.run(
        [sys.executable, "tools/compare_integrate.py", "src", _broken_tree(tmp_path), "--n", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "ok -> untyped ZeroDivisionError" in proc.stdout
    assert "NEW_SRC has 5 untyped outcomes" in proc.stdout


def test_compare_integrate_inputs_are_stable():
    # a seed keeps naming the same inputs as the forms change: input 134 of
    # seed 0 is the extreme default-tolerance case named in the project notes
    draw_inputs = _compare_integrate().draw_inputs
    inputs = draw_inputs(1200, 0)
    assert inputs[134] == dict(
        k=979.3430448816476,
        x_start=200.02988792696829,
        x_end=0.036108851838392866,
        init=[5.348341218439067e-09, -7.4347669653188575],
        form="conformal",
        coupling_power="literal",
        rtol=6.005737779317275e-10,
        atol=2.8994479124843314e-08,
        max_steps=20_000,
    )
    for seed in (0, 1):
        forms = {kwargs["form"] for kwargs in draw_inputs(1200, seed)}
        assert forms == {"conformal", "closed-reference"}


def test_survey_runs_on_this_tree():
    # one tree: the accuracy survey in tolerance units
    proc = subprocess.run(
        [sys.executable, "tools/compare_integrate.py", "src", "--n", "12"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "adaptive inputs that end ok, scored against a tight run" in proc.stdout
    assert "beyond 100x, full system" in proc.stdout


def test_survey_flags_untyped_errors(tmp_path):
    proc = subprocess.run(
        [sys.executable, "tools/compare_integrate.py", _broken_tree(tmp_path), "--n", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "SRC has 5 untyped outcomes" in proc.stdout


def test_survey_scores_in_tolerance_units():
    # seed-0 inputs 0-15 (one fixed-step draw and six failed runs among
    # them, which are not scored) and four far ones: 134 takes the fast path
    # at k = 979 and hands back to the full system just before x_end; 316,
    # 403 and 516 (k = 799) run on the full system only
    tool = _compare_integrate()
    drawn = tool.draw_inputs(1200, 0)
    inputs = {i: drawn[i] for i in [*range(16), 134, 316, 403, 516]}
    rows, untyped = tool.survey(str(ROOT / "src"), inputs)
    assert untyped == 0
    by_index = {row["index"]: row for row in rows}
    assert {i for i, row in by_index.items() if row["fast"]} == {0, 3, 4, 6, 8, 12, 13, 14, 134}
    assert {i for i, row in by_index.items() if not row["fast"]} == {1, 316, 403, 516}
    # the full-system tail at large k: 516 is 2.0e5 rtol off in r
    assert by_index[516]["r"] > 1e5
    # the hand-back is a landing point: 134 is not left 86 rtol off in r and
    # 602 units in phi by a slaved step that crosses it
    assert by_index[134]["r"] < 10 and by_index[134]["phi"] < 10
    # the units: the r error of 134 is its relative error over rtol
    kwargs = inputs[134]
    run, ref = tool.run_tree(str(ROOT / "src"), [kwargs, dict(kwargs, **tool.TIGHT)])
    err_r, err_phi = tool.error_against(run["samples"], ref["samples"])
    assert by_index[134]["r"] == err_r / kwargs["rtol"]
    phi_max = max(abs(phi) for _, _, phi in ref["samples"])
    assert by_index[134]["phi"] == err_phi / (kwargs["atol"] + kwargs["rtol"] * phi_max)


def test_sweep_scores_the_benchmark_workloads():
    # --sweep REF_SRC SRC: each workload's default sweep against the
    # reference's tight one, mode by mode, in tolerance units; a tree against
    # itself on a 5-mode grid is within tolerance
    tool = _compare_integrate()
    errors = tool.sweep_errors(str(ROOT / "src"), str(ROOT / "src"), 5)
    assert list(errors) == ["crossing", "superhorizon", "consistent"]
    for err_r, err_phi, failed in errors.values():
        assert failed == 0 and len(err_r) == len(err_phi) == 5
        assert max(err_r) < 1.0 and max(err_phi) < 1.0
    proc = subprocess.run(
        [sys.executable, "tools/compare_integrate.py", "--sweep", "src", "src", "--k-points", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "r err / rtol" in proc.stdout
    assert [line.split()[0] for line in proc.stdout.splitlines()[3:]] == list(errors)
