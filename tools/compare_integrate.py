"""Compare squeeze_dynamics.integrate() between two source trees, or survey
the accuracy of one.

Usage:
    python tools/compare_integrate.py OLD_SRC NEW_SRC [--n 1200] [--seed 0]
    python tools/compare_integrate.py SRC [--n 1200] [--seed 0]
    python tools/compare_integrate.py --sweep REF_SRC SRC [--k-points 200]

OLD_SRC, NEW_SRC and SRC are directories that hold an importable ``sqspec``
package (for a second checkout, its ``src`` directory).  Each tree runs the
same seeded random valid inputs in its own interpreter:

    k 1e-6 to 1e3, x_start 1.3 to 1000, x_end 1e-5 to 0.99 of x_start (all
    log-uniform); init r = 0 (10%) or log-uniform in [1e-9, 5], init phi
    uniform in [-10, 10]; form conformal (2 in 3) or closed-reference;
    either coupling power; rtol and atol log-uniform in [1e-12, 1e-4];
    max_steps 20,000; 10% with a fixed step h_fixed = span/16 to span/256,
    which runs the RK4 reference; 40% with 1 to 4 explicit sample points.

A result is the outcome (status, or the exception type and message; any
exception other than a typed integrator failure, ValueError or OverflowError
is an "untyped" outcome), the samples (x, r, phi) of the trajectory (the
partial one for a typed integrator failure) and the integrator stats, on the
fields that both trees report; the script names any field that only one
tree reports.  It prints how many results are identical and how
many differ, a table of outcome pairs, and the cause of each difference: a
fixed-step input, an input where either tree evaluated a slaved stage off
the angle's branch (one whose first derivative is NaN), or other.  The spy
sits on the adaptive driver's slaved stage, _slaved_stage.
For each differing input that has samples on both sides it prints the error
of both sides against a tight run (rtol 1e-13, atol 1e-16, max_steps
2,000,000) of each tree: the largest relative error of r and absolute error
of phi over the checkpoints both reached.  An input counts as better or
worse only when both references agree on it, and as unsettled otherwise.
The exit status is 1 when NEW_SRC has an untyped outcome.

With one tree the script surveys it in tolerance units: every adaptive input
that ends ok is scored against the tight run of the same tree, the r error
in units of rtol and the phi error in units of atol + rtol max|phi_ref| (a
tight run that stops short is compared on the checkpoints it reached).  It
prints the median, p90, p99 (nearest rank) and max of both, the inputs
beyond 10x and 100x, split by fast path (a run with slaved steps) and full
system, and the worst inputs of each split.  The exit status is 1 when either
run has an untyped outcome.

With --sweep the script scores SRC's default sweep on each of the three
benchmark workloads (crossing, superhorizon, consistent; the settings of
perfbench/run.py) against REF_SRC's tight sweep (rtol 1e-13, atol 1e-16),
mode by mode at the evaluation point: it prints the median and max over
modes of the r error in units of rtol and of the phi error in units of
atol + rtol |phi_ref|, for SRC's default rtol and atol.  --k-points shrinks the grids.  The exit status is 1
when a mode fails in either sweep.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import random
import statistics
import subprocess
import sys

# drawn from the historical three forms, so that a seed keeps naming the same
# inputs; "transformed", the conformal form's printed twin, runs as "conformal"
FORMS = ("conformal", "transformed", "closed-reference")
POWERS = ("literal", "hamiltonian-consistent")
# the reference run: tight tolerances and integrate()'s default step budget
TIGHT = dict(rtol=1e-13, atol=1e-16, h_fixed=None, max_steps=2_000_000)
# the benchmark workloads as SweepConfig overrides (perfbench/run.py)
WORKLOADS = {
    "crossing": {},
    "superhorizon": {"eval_point": "super-horizon"},
    "consistent": {"coupling_power": "hamiltonian-consistent"},
}


def draw_inputs(n, seed):
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))

    inputs = []
    for _ in range(n):
        x_start = log_uniform(1.3, 1000.0)
        x_end = log_uniform(1e-5 * x_start, 0.99 * x_start)
        r0 = 0.0 if rng.random() < 0.1 else log_uniform(1e-9, 5.0)
        kwargs = dict(
            k=log_uniform(1e-6, 1e3),
            x_start=x_start,
            x_end=x_end,
            init=[r0, rng.uniform(-10.0, 10.0)],
            form=rng.choice(FORMS).replace("transformed", "conformal"),
            coupling_power=rng.choice(POWERS),
            rtol=log_uniform(1e-12, 1e-4),
            atol=log_uniform(1e-12, 1e-4),
            max_steps=20_000,
        )
        if rng.random() < 0.1:
            kwargs["h_fixed"] = (x_start - x_end) / log_uniform(16.0, 256.0)
        if rng.random() < 0.4:
            kwargs["samples"] = [
                rng.uniform(x_end, x_start) for _ in range(rng.randint(1, 4))
            ]
        inputs.append(kwargs)
    return inputs


def run_worker():
    """Read inputs as JSON from stdin, write one result per input to stdout."""
    from sqspec import _integrators as eng
    from sqspec.squeeze_dynamics import StepBudgetError, StepSizeUnderflowError, integrate

    stage = eng._slaved_stage
    off_branch = [0]
    probe = [False]  # the first slaved stage of a run only tests the seed

    def spy(*args):
        # a slaved stage off the branch returns a NaN first derivative
        derivs = stage(*args)
        if probe[0]:
            probe[0] = False
        elif math.isnan(derivs[0]):
            off_branch[0] += 1
        return derivs

    eng._slaved_stage = spy
    results = []
    for kwargs in json.load(sys.stdin):
        off_branch[0] = 0
        probe[0] = True
        traj = None
        try:
            traj = integrate(**kwargs)
            outcome = "ok"
        except (StepSizeUnderflowError, StepBudgetError) as exc:
            traj = exc.trajectory
            outcome = f"{type(exc).__name__}: {exc}"
        except (ValueError, OverflowError) as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # a program error: recorded, not fatal
            outcome = f"untyped {type(exc).__name__}: {exc}"
        results.append(
            dict(
                outcome=outcome,
                samples=[list(map(float, s)) for s in zip(traj.x, traj.r, traj.phi)] if traj else [],
                stats=vars(traj.integrator_stats) if traj else {},
                off_branch=off_branch[0],
            )
        )
    json.dump(results, sys.stdout)


def run_sweep_worker():
    """Read SweepConfig overrides as JSON from stdin, write the sweep's rtol,
    atol and [k, r, phi] of each mode (null for a failed mode) to stdout."""
    from sqspec.config import SweepConfig, make_k_grid
    from sqspec.squeeze_dynamics import evolve_grid

    config = SweepConfig(**json.load(sys.stdin))
    modes = evolve_grid(make_k_grid(config), config)
    json.dump(
        dict(
            rtol=config.rtol, atol=config.atol,
            modes=[[m.k, m.state.r, m.state.phi] if m.state else None for m in modes],
        ),
        sys.stdout,
    )


def run_tree(src, inputs, worker="--worker"):
    proc = subprocess.run(
        [sys.executable, __file__, worker],
        input=json.dumps(inputs),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    return json.loads(proc.stdout)


def error_against(samples, ref):
    """(max relative r error, max absolute phi error) over shared checkpoints."""
    ref_at = {x: (r, phi) for x, r, phi in ref}
    err_r = err_phi = 0.0
    for x, r, phi in samples:
        if x in ref_at:
            r_ref, phi_ref = ref_at[x]
            err_r = max(err_r, abs(r - r_ref) / r_ref if r_ref > 0 else abs(r))
            err_phi = max(err_phi, abs(phi - phi_ref))
    return err_r, err_phi


def kind(result):
    return result["outcome"].split(":")[0]


def nearest_rank(values, p):
    """The p-quantile of values by the nearest-rank rule (p = 1: the max)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def survey(src, inputs):
    """Score the adaptive inputs of {index: kwargs} that end ok against the
    tight run of the same tree.  Returns (rows, untyped): one dict per scored
    input (index, k, fast, r, phi; r and phi in tolerance units) and the
    number of untyped outcomes of both runs."""
    runs = run_tree(src, list(inputs.values()))
    scored = [
        (i, kwargs, res) for (i, kwargs), res in zip(inputs.items(), runs)
        if kwargs.get("h_fixed") is None and res["outcome"] == "ok"
    ]
    refs = run_tree(src, [dict(kwargs, **TIGHT) for _, kwargs, _ in scored])
    untyped = sum(kind(res).startswith("untyped") for res in runs + refs)
    rows = []
    for (i, kwargs, res), ref in zip(scored, refs):
        err_r, err_phi = error_against(res["samples"], ref["samples"])
        phi_scale = kwargs["atol"] + kwargs["rtol"] * max(abs(phi) for _, _, phi in ref["samples"])
        rows.append(dict(
            index=i, k=kwargs["k"], fast=res["stats"]["n_slaved_steps"] > 0,
            r=err_r / kwargs["rtol"], phi=err_phi / phi_scale,
        ))
    return rows, untyped


def report_survey(rows):
    print(f"{len(rows)} adaptive inputs that end ok, scored against a tight run of the same tree")
    if not rows:
        return
    print(f"  {'error in tolerance units':38s}   median      p90      p99      max")
    for key, name in (("r", "r rel err / rtol"), ("phi", "phi abs err / (atol + rtol max|phi|)")):
        values = [row[key] for row in rows]
        print(f"  {name:38s}" + "".join(f" {nearest_rank(values, p):8.3g}" for p in (0.5, 0.9, 0.99, 1.0)))
    splits = [
        ("fast path", [row for row in rows if row["fast"]]),
        ("full system", [row for row in rows if not row["fast"]]),
    ]
    for factor in (10, 100):
        for name, part in splits:
            beyond = [(row["r"] > factor, row["phi"] > factor) for row in part]
            print(
                f"beyond {factor}x, {name} ({len(part)} inputs): "
                f"r {sum(r for r, _ in beyond)}, phi {sum(p for _, p in beyond)}, "
                f"r or phi {sum(r or p for r, p in beyond)}"
            )
    for name, part in splits:
        print(f"worst on the {name}:")
        for row in sorted(part, key=lambda row: -max(row["r"], row["phi"]))[:5]:
            print(f"  input {row['index']} (k = {row['k']:.4g}): r {row['r']:.3g}, phi {row['phi']:.3g}")


def sweep_errors(ref_src, src, k_points):
    """{workload: (r errors / rtol, phi errors / (atol + rtol |phi_ref|), failed
    modes)} of src's default sweep against ref_src's tight sweep."""
    errors = {}
    for name, overrides in WORKLOADS.items():
        config = dict(overrides, k_points=k_points)
        got = run_tree(src, config, "--sweep-worker")
        ref = run_tree(ref_src, dict(config, rtol=TIGHT["rtol"], atol=TIGHT["atol"]), "--sweep-worker")
        rtol, atol = got["rtol"], got["atol"]
        pairs = [(a, b) for a, b in zip(got["modes"], ref["modes"]) if a and b]
        errors[name] = (
            [abs(r - r_ref) / r_ref / rtol for (_, r, _), (_, r_ref, _) in pairs],
            [abs(phi - p_ref) / (atol + rtol * abs(p_ref)) for (_, _, phi), (_, _, p_ref) in pairs],
            len(got["modes"]) - len(pairs),
        )
    return errors


def report_sweep(errors):
    print("default sweeps against the reference's tight sweep, over modes at the evaluation point")
    print(f"  {'workload':12s}  {'r err / rtol':>19s}  {'phi err / (atol + rtol |phi|)':>30s}")
    print(f"  {'':12s}  {'median':>9s} {'max':>9s}  {'median':>19s} {'max':>10s}")
    for name, (err_r, err_phi, failed) in errors.items():
        line = f"  {name:12s}"
        if err_r:
            line += f"  {statistics.median(err_r):9.3g} {max(err_r):9.3g}  "
            line += f"{statistics.median(err_phi):19.3g} {max(err_phi):10.3g}"
        print(line + (f"  ({failed} failed modes)" if failed else ""))


def main():
    if sys.argv[1:] == ["--worker"]:
        run_worker()
        return
    if sys.argv[1:] == ["--sweep-worker"]:
        run_sweep_worker()
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", metavar="OLD_SRC")
    parser.add_argument(
        "new_src", metavar="NEW_SRC", nargs="?", help="without it, survey OLD_SRC alone"
    )
    parser.add_argument("--n", type=int, default=1200, help="number of inputs")
    parser.add_argument("--seed", type=int, default=0, help="seed of the input draw")
    parser.add_argument(
        "--sweep", action="store_true",
        help="score NEW_SRC's default sweeps against OLD_SRC's tight ones (REF_SRC SRC)",
    )
    parser.add_argument("--k-points", type=int, default=200, help="modes per sweep, with --sweep")
    args = parser.parse_args()

    if args.sweep:
        if args.new_src is None:
            parser.error("--sweep takes REF_SRC and SRC")
        errors = sweep_errors(args.old_src, args.new_src, args.k_points)
        report_sweep(errors)
        if any(failed for _, _, failed in errors.values()):
            sys.exit(1)
        return
    inputs = draw_inputs(args.n, args.seed)
    if args.new_src is None:
        rows, untyped = survey(args.old_src, dict(enumerate(inputs)))
        report_survey(rows)
        if untyped:
            print(f"SRC has {untyped} untyped outcomes")
            sys.exit(1)
        return
    old = run_tree(args.old_src, inputs)
    new = run_tree(args.new_src, inputs)
    # the stats are compared on the fields both trees report
    fields = [set().union(*(res["stats"] for res in runs)) for runs in (old, new)]
    for name, only in (("OLD_SRC", fields[0] - fields[1]), ("NEW_SRC", fields[1] - fields[0])):
        if only:
            print(f"stats fields only {name} reports, not compared: {', '.join(sorted(only))}")
    shared = fields[0] & fields[1]
    for res in old + new:
        res["stats"] = {f: v for f, v in res["stats"].items() if f in shared}
    differ = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    print(f"{len(inputs)} inputs: {len(inputs) - len(differ)} identical, {len(differ)} differ")
    off = sum(1 for a in old if a["off_branch"]), sum(1 for b in new if b["off_branch"])
    print(f"inputs with a slaved stage off the branch: old {off[0]}, new {off[1]}")

    pairs = collections.Counter((kind(a), kind(b)) for a, b in zip(old, new))
    print("outcome pairs (old -> new):")
    for (a, b), count in sorted(pairs.items()):
        print(f"  {count:6d}  {a} -> {b}")

    def cause(i):
        if inputs[i].get("h_fixed") is not None:
            return "fixed-step"
        if old[i]["off_branch"] or new[i]["off_branch"]:
            return "off-branch"
        return "other"

    causes = collections.Counter(cause(i) for i in differ)
    print("differing inputs by cause:", dict(sorted(causes.items())))

    compared = [i for i in differ if old[i]["samples"] and new[i]["samples"]]
    tight_inputs = [dict(inputs[i], **TIGHT) for i in compared]
    refs = run_tree(args.old_src, tight_inputs), run_tree(args.new_src, tight_inputs)
    verdicts = []
    for n, i in enumerate(compared):
        a, b = old[i], new[i]
        # (old error, new error) of r and of phi against each tree's tight run
        errs = [
            list(zip(error_against(a["samples"], ref[n]["samples"]),
                     error_against(b["samples"], ref[n]["samples"])))
            for ref in refs
        ]
        verdicts.append([
            "better" if all(e[j][1] < e[j][0] for e in errs)
            else "worse" if all(e[j][1] > e[j][0] for e in errs)
            else "equal" if all(e[j][1] == e[j][0] for e in errs)
            else "unsettled"
            for j in range(2)
        ])
        print(
            f"input {i} ({cause(i)}, off-branch stages {a['off_branch']} -> {b['off_branch']}): "
            f"{kind(a)} -> {kind(b)}; against old/new tight runs: r rel err "
            f"{errs[0][0][0]:.3e} -> {errs[0][0][1]:.3e} / {errs[1][0][0]:.3e} -> {errs[1][0][1]:.3e}, "
            f"phi abs err {errs[0][1][0]:.3e} -> {errs[0][1][1]:.3e} / "
            f"{errs[1][1][0]:.3e} -> {errs[1][1][1]:.3e}"
        )
    for j, name in enumerate(("r rel err", "phi abs err")):
        got = collections.Counter(v[j] for v in verdicts)
        print(
            f"{name} on {len(verdicts)} differing inputs with samples: "
            + ", ".join(f"{got[v]} {v}" for v in ("better", "equal", "worse", "unsettled"))
        )
    untyped = sum(kind(b).startswith("untyped") for b in new)
    if untyped:
        print(f"NEW_SRC has {untyped} untyped outcomes")
        sys.exit(1)


if __name__ == "__main__":
    main()
