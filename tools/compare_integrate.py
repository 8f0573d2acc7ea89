"""Compare squeeze_dynamics.integrate() between two source trees.

Usage:
    python tools/compare_integrate.py OLD_SRC NEW_SRC [--n 1200] [--seed 0]

OLD_SRC and NEW_SRC are directories that hold an importable ``sqspec``
package (for a second checkout, its ``src`` directory).  Both trees run the
same seeded random valid inputs, each in its own interpreter:

    k 1e-6 to 1e3, x_start 1.3 to 1000, x_end 1e-5 to 0.99 of x_start (all
    log-uniform); init r = 0 (10%) or log-uniform in [1e-9, 5], init phi
    uniform in [-10, 10]; form conformal (2 in 3) or closed-reference;
    either coupling power; rtol and atol log-uniform in [1e-12, 1e-4];
    max_steps 20,000; 10% method="fixed" with h_fixed = span/16 to span/256;
    40% with 1 to 4 explicit sample points.

A result is the outcome (status, or the exception type and message; any
exception other than a typed integrator failure, ValueError or OverflowError
is an "untyped" outcome), the samples (x, r, phi) of the trajectory (the
partial one for a typed integrator failure), the integrator stats and the
warning types.  The script prints how many results are identical and how
many differ, a table of outcome pairs, and the cause of each difference: a
fixed-step input, an input where either tree evaluated a slaved stage off
the angle's branch (one whose first derivative is NaN), or other.  The spy
sits on the adaptive driver's slaved stage, _slaved_stage.
For each differing input that has samples on both sides it prints the error
of both sides against a tight run (rtol 1e-13, atol 1e-16) of each tree: the
largest relative error of r and absolute error of phi over the checkpoints
both reached.  An input counts as better or worse only when both references
agree on it, and as unsettled otherwise.  The exit status is 1 when NEW_SRC
has an untyped outcome.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import random
import subprocess
import sys
import warnings

# drawn from the historical three forms, so that a seed keeps naming the same
# inputs; "transformed", the conformal form's printed twin, runs as "conformal"
FORMS = ("conformal", "transformed", "closed-reference")
POWERS = ("literal", "hamiltonian-consistent")


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
            kwargs["method"] = "fixed"
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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
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
                stats=list(vars(traj.integrator_stats).values()) if traj else [],
                warnings=[w.category.__name__ for w in caught],
                off_branch=off_branch[0],
            )
        )
    json.dump(results, sys.stdout)


def run_tree(src, inputs):
    proc = subprocess.run(
        [sys.executable, __file__, "--worker"],
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


def main():
    if sys.argv[1:] == ["--worker"]:
        run_worker()
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--n", type=int, default=1200, help="number of inputs")
    parser.add_argument("--seed", type=int, default=0, help="seed of the input draw")
    args = parser.parse_args()

    inputs = draw_inputs(args.n, args.seed)
    old = run_tree(args.old_src, inputs)
    new = run_tree(args.new_src, inputs)
    differ = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    print(f"{len(inputs)} inputs: {len(inputs) - len(differ)} identical, {len(differ)} differ")
    off = sum(1 for a in old if a["off_branch"]), sum(1 for b in new if b["off_branch"])
    print(f"inputs with a slaved stage off the branch: old {off[0]}, new {off[1]}")

    def kind(result):
        return result["outcome"].split(":")[0]

    pairs = collections.Counter((kind(a), kind(b)) for a, b in zip(old, new))
    print("outcome pairs (old -> new):")
    for (a, b), count in sorted(pairs.items()):
        print(f"  {count:6d}  {a} -> {b}")

    def cause(i):
        if inputs[i].get("method") == "fixed":
            return "fixed-step"
        if old[i]["off_branch"] or new[i]["off_branch"]:
            return "off-branch"
        return "other"

    causes = collections.Counter(cause(i) for i in differ)
    print("differing inputs by cause:", dict(sorted(causes.items())))

    compared = [i for i in differ if old[i]["samples"] and new[i]["samples"]]
    tight_inputs = [dict(inputs[i], rtol=1e-13, atol=1e-16, method="adaptive") for i in compared]
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
