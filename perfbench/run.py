"""Sweep benchmark for sqspec: the default 200-mode sweep, timed and checked.

    python3 perfbench/run.py --workload crossing --seed 0 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json

`--seed 0` sweeps the default 200-mode grid; any other seed shifts the k
window by a random factor within +-1/2 log-grid spacing.

Each run is a closed loop: one process and one thread run one sweep
(`run_sweep` + `write_outputs`) at a time, repeating until the next sweep
would end past `--seconds`, with at least two sweeps per run.  The sweep
uses sqspec from `src/` of the checkout this file sits in.  Before each
sweep, two fresh interpreters import sqspec and resolve the workload config
to give the set-up time.  Times are medians over the run.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced sweeps with sweeps traced through `tracing.installed` and reports
the per-layer metrics.  Every run checks the outputs (finite records, the
Bogoliubov/spectrum identities, byte-identical records.csv across sweeps,
and on `crossing` the fitted tilt, max |gamma - 1| and r against the closed
form in `oracle.py`) and exits 1 without a result if a check fails.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  The same result with
the environment (backend, versions, CPU, commit) is written to
.perfbench_out/, together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import oracle, tracing  # noqa: E402

RUN_SECONDS = 42
SETUP_PER_SWEEP = 2

# name -> (SweepConfig overrides, why)
WORKLOADS = {
    "crossing": (
        {},
        "default sweep at x = 1 (the paper's figure run); 56% of the integration "
        "lies past the evaluation point, and r has a closed form to check against",
    ),
    "superhorizon": (
        {"eval_point": "super-horizon"},
        "same integration as crossing but every step is needed; r grows to ~43 "
        "and 14 modes pass r_cap",
    ),
    "consistent": (
        {"coupling_power": "hamiltonian-consistent"},
        "hamiltonian-consistent coupling: 2.1x the step attempts, 96% before "
        "crossing, narrower per-mode step spread (max/mean 1.27 vs 2.01)",
    ),
}

# (name, unit, better, bound).  On a shared 2-core machine the median sweep
# time of 42 s runs of identical work drifts by up to ~20% between runs a few
# minutes apart (co-tenant load; CPU time drifts with it), hence 0.25.
END_TO_END = (
    ("sweep_s", "s", "lower", 0.25),
    ("modes_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better)
PER_LAYER = (
    ("squeeze_dynamics.evolve_s", "s", "lower"),
    ("squeeze_dynamics.mode_ms_p50", "ms", "lower"),
    ("squeeze_dynamics.mode_ms_p95", "ms", "lower"),
    ("squeeze_dynamics.steps", "count", "lower"),
    ("squeeze_dynamics.rejected", "count", "lower"),
    ("squeeze_dynamics.slaved_steps", "count", "lower"),
    ("squeeze_dynamics.accept_ratio", "ratio", "higher"),
    ("squeeze_dynamics.us_per_attempt", "us", "lower"),
    ("squeeze_dynamics.attempts_max_over_mean", "ratio", "lower"),
    ("squeeze_dynamics.capped_modes", "count", "lower"),
    ("pipeline.post_s", "s", "lower"),
    ("pipeline.write_s", "s", "lower"),
    ("pipeline.write_bytes", "bytes", "lower"),
    ("setup.import_s", "s", "lower"),
    ("config.resolve_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Output gates on crossing.  r against the closed form measured 1.5e-4 to
# 2.1e-4 (max over modes) on seeds 0-10: atol = 1e-10 against r(1) ~ 2.7e-6
# sets that scale, so 5e-4 leaves room for reordered arithmetic, not for a
# looser integrator.
TILT_TARGET = 0.9649
TILT_TOL = 1e-3
GAMMA_TOL = 1e-9
R_RELERR_LIMIT = 5e-4

# Fresh-interpreter set-up: import sqspec from src/, then resolve the config
# text into a SweepConfig and its k grid.  Prints the two phase times.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sqspec
t1 = time.perf_counter()
sqspec.make_k_grid(sqspec.parse_config(sys.argv[2]))
print(t1 - t0, time.perf_counter() - t1)
"""


class CheckFailed(Exception):
    """An output check failed; the run reports no numbers."""


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, (_, why) in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def workload_config(name: str, seed: int):
    """The workload's SweepConfig.  Seed 0 is the default grid; any other seed
    shifts the k window by a factor within +-1/2 log-grid spacing (the pivot
    node is still snapped by make_k_grid)."""
    from sqspec import SweepConfig

    config = SweepConfig(**WORKLOADS[name][0])
    if seed == 0:
        return config
    spacing = math.log(config.k_max / config.k_min) / (config.k_points - 1)
    factor = math.exp(random.Random(seed).uniform(-0.5, 0.5) * spacing)
    return dataclasses.replace(config, k_min=config.k_min * factor, k_max=config.k_max * factor)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    try:
        from sqspec._integrators import HAVE_NUMBA
    except ImportError:
        HAVE_NUMBA = "numba" in sys.modules
    digest = hashlib.sha256()
    for path in sorted((SRC / "sqspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "backend": "numba" if HAVE_NUMBA else "python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(config_text: str, repeats: int) -> list[tuple[float, float, float]]:
    """(wall, import, resolve) seconds of `repeats` fresh interpreters."""
    argv = [sys.executable, "-c", _SETUP_CODE, str(SRC), config_text]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise CheckFailed(f"set-up interpreter failed:\n{proc.stderr}")
        import_s, resolve_s = map(float, proc.stdout.split())
        samples.append((wall, import_s, resolve_s))
    return samples


def timed_sweep(config, out_dir: Path):
    """One sweep as a user runs it: run_sweep + write_outputs, wall seconds.

    Calls go through the module attributes so that tracing wrappers, when
    installed, see them."""
    from sqspec import pipeline

    t0 = time.perf_counter()
    report = pipeline.run_sweep(config)
    pipeline.write_outputs(report, out_dir)
    return time.perf_counter() - t0, report


def check_report(report, config, workload: str) -> dict:
    """Correctness checks on one sweep; raises CheckFailed.  Returns the
    accuracy figures measured along the way."""
    from sqspec.pipeline import CSV_COLUMNS

    n_modes = len(report.records) + len(report.failures)
    if n_modes != config.k_points:
        raise CheckFailed(f"{n_modes} modes reported, {config.k_points} in the grid")
    for rec in report.records:
        values = [float(getattr(rec, col)) for col in CSV_COLUMNS]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"non-finite record at k={rec.k:.17g}: {values}")
        # post-processing identities, each to 1e-12 of its natural scale
        scale = math.cosh(2.0 * rec.r)
        gamma = scale + math.sinh(2.0 * rec.r) * math.cos(rec.phi)
        bd = config.a_s * (rec.k / config.k_pivot) ** (config.n_s - 1.0)
        if (
            abs(rec.gamma - gamma) > 1e-12 * scale
            or abs(rec.occupation - math.sinh(rec.r) ** 2) > 1e-12 * scale
            or abs(rec.power_bd - bd) > 1e-12 * bd
            or abs(rec.power_otmss - rec.power_bd * rec.gamma) > 1e-12 * rec.power_otmss
        ):
            raise CheckFailed(f"record at k={rec.k:.17g} breaks a spectrum identity: {values}")

    figures: dict = {}
    if workload != "crossing":
        return figures
    s = report.summary
    if not abs(s.tilt_fit - TILT_TARGET) <= TILT_TOL:
        raise CheckFailed(f"fitted tilt {s.tilt_fit!r} is not within {TILT_TOL} of {TILT_TARGET}")
    if not s.max_abs_gamma_minus_one <= GAMMA_TOL:
        raise CheckFailed(f"max |gamma - 1| = {s.max_abs_gamma_minus_one!r} > {GAMMA_TOL}")
    relerr = []
    for rec in report.records:
        closed = oracle.r_closed(rec.k * config.unit_scale, 1.0, config.init_r, config.x_start)
        relerr.append(abs(rec.r - closed) / closed)
    figures["r_relerr_max"] = float(max(relerr))
    figures["r_relerr_median"] = float(statistics.median(relerr))
    if not figures["r_relerr_max"] <= R_RELERR_LIMIT:
        raise CheckFailed(
            f"max |r - r_closed| / r_closed = {figures['r_relerr_max']!r} > {R_RELERR_LIMIT}"
        )
    return figures


@dataclasses.dataclass
class Samples:
    """What one run measured."""

    plain: list = dataclasses.field(default_factory=list)  # untraced sweep seconds
    traced: list = dataclasses.field(default_factory=list)  # traced sweep seconds
    failed: list = dataclasses.field(default_factory=list)  # failed modes per sweep
    setup: list = dataclasses.field(default_factory=list)  # (wall, import, resolve) seconds
    figures: dict = dataclasses.field(default_factory=dict)  # accuracy from check_report


def run_sweeps(config, workload: str, seconds: float, out_dir: Path, tracer=None,
               setup_text: str | None = None) -> Samples:
    """Sweep until the next round would end past `seconds` (at least two rounds).

    A round is SETUP_PER_SWEEP set-up samples (when `setup_text` is given),
    so that they spread over the run like the sweeps, and one sweep.  With a
    tracer, every second sweep runs traced."""
    got = Samples()
    rounds: list[float] = []
    reference_csv = None
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        index = len(rounds)
        if setup_text is not None:
            got.setup.extend(measure_setup(setup_text, SETUP_PER_SWEEP))
        if tracer is not None and index % 2 == 1:
            tracer.run_id = f"sweep{index}"
            with tracing.installed(tracer):
                elapsed, report = timed_sweep(config, out_dir)
            got.traced.append(elapsed)
        else:
            elapsed, report = timed_sweep(config, out_dir)
            got.plain.append(elapsed)
        got.failed.append(len(report.failures))
        csv = (out_dir / "records.csv").read_bytes()
        if reference_csv is None:
            got.figures = check_report(report, config, workload)
            reference_csv = csv
        elif csv != reference_csv:
            raise CheckFailed(f"records.csv of sweep {index} differs from sweep 0")
        del report  # one report alive at a time, so peak memory is one sweep's
        rounds.append(time.perf_counter() - start)
        if index >= 1 and time.perf_counter() + statistics.median(rounds) > deadline:
            return got


def layer_metrics(tracer, got: Samples) -> dict:
    """Per-layer figures from the spans of the traced sweeps."""
    evolve_s, post_s, write_s, mode_ms = [], [], [], []
    counts = writes = None
    for run_id in sorted({s["run_id"] for s in tracer.spans}):
        (sweep,) = tracer.select("pipeline.run_sweep", run_id)
        (evolve,) = tracer.select("squeeze_dynamics.evolve_grid", run_id)
        (write,) = tracer.select("pipeline.write_outputs", run_id)
        modes = tracer.select("squeeze_dynamics.integrate", run_id)
        if not modes or any(m["parent"] != evolve["id"] for m in modes):
            raise CheckFailed("per-mode integrate spans are missing or not under evolve_grid")
        evolve_s.append(evolve["end"] - evolve["start"])
        post_s.append((sweep["end"] - sweep["start"]) - evolve_s[-1])
        write_s.append(write["end"] - write["start"])
        mode_ms.extend(1e3 * (m["end"] - m["start"]) for m in modes)
        counts, writes = evolve, write
    attempts = counts["attempts_per_mode"]
    total = sum(attempts)
    evolve_med = statistics.median(evolve_s)
    return {
        "squeeze_dynamics.evolve_s": evolve_med,
        "squeeze_dynamics.mode_ms_p50": statistics.median(mode_ms),
        "squeeze_dynamics.mode_ms_p95": statistics.quantiles(mode_ms, n=20)[18],
        "squeeze_dynamics.steps": counts["steps"],
        "squeeze_dynamics.rejected": counts["rejected"],
        "squeeze_dynamics.slaved_steps": counts["slaved_steps"],
        "squeeze_dynamics.accept_ratio": counts["steps"] / total,
        "squeeze_dynamics.us_per_attempt": 1e6 * evolve_med / total,
        "squeeze_dynamics.attempts_max_over_mean": max(attempts) / (total / len(attempts)),
        "squeeze_dynamics.capped_modes": counts["capped_modes"],
        "pipeline.post_s": statistics.median(post_s),
        "pipeline.write_s": statistics.median(write_s),
        "pipeline.write_bytes": writes["bytes"],
        "setup.import_s": statistics.median(s[1] for s in got.setup),
        "config.resolve_s": statistics.median(s[2] for s in got.setup),
        "trace.overhead_s": statistics.median(got.traced) - statistics.median(got.plain),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import sqspec
    from sqspec import serialize

    if Path(sqspec.__file__).resolve().parent != (SRC / "sqspec").resolve():
        raise CheckFailed(f"sqspec imported from {sqspec.__file__}, not from {SRC}")
    config = workload_config(workload, seed)
    env = environment()
    OUT.mkdir(exist_ok=True)
    setup_text = serialize(config)
    measure_setup(setup_text, 1)  # untimed: warms the bytecode and file caches
    tracer = tracing.Tracer() if trace else None
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        got = run_sweeps(config, workload, seconds, out_dir, tracer, setup_text)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = config.k_points * len(got.failed)
    n_failed = sum(got.failed)
    if trace:
        values = layer_metrics(tracer, got)
        units = {n: u for n, u, _ in PER_LAYER}
        tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
    else:
        sweep_s = statistics.median(got.plain)
        values = {
            "sweep_s": sweep_s,
            "modes_per_s": (config.k_points - got.failed[0]) / sweep_s,
            "setup_s": statistics.median(s[0] for s in got.setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {n: u for n, u, _, _ in END_TO_END}
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    result = {"correct": True, "attempted": attempted, "failed": n_failed, "metrics": metrics}
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "k_window": [config.k_min, config.k_max], "environment": env,
        "sweep_s_untraced": got.plain, "sweep_s_traced": got.traced,
        "setup_s_samples": [s[0] for s in got.setup],
        "failed_mode_share": n_failed / attempted, **got.figures, "result": result,
    }
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload {workload}  seed {seed}  k window [{config.k_min:.6g}, {config.k_max:.6g}]"
          f"  sweeps {len(got.plain)} untraced + {len(got.traced)} traced"
          f"  set-up samples {len(got.setup)}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_mode_share':<42} {n_failed / attempted:>14.6g} ratio"
          f"  ({n_failed} of {attempted} modes)")
    for name, value in got.figures.items():
        print(f"  {name:<42} {value:>14.6g} ratio")
    return result


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(lines[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the definitions in this file")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_spec(), indent=2) + "\n", encoding="utf-8"
        )
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "sqspec" / "__init__.py").is_file():
        print(f"perfbench: no sqspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
