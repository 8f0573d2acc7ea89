"""End-to-end sweep: k grid -> squeeze evolution -> Bogoliubov coefficients
-> spectrum records -> CSV / summary / plot-script artifacts.

The sweep is deterministic for a fixed configuration: the per-mode work is
pure, modes are processed in grid order, and records.csv is written with
fixed formatting, so identical configs produce byte-identical CSV files.

verify() runs the built-in oracle suite (polynomial-determinant equivalence,
dual-integrator agreement, Wronskian and spectrum-ratio identity scan,
weak-dissipation limit convergence) and reports one pass/fail line each.

A RunReport carries the resolved SweepConfig it ran; write_outputs echoes it
into summary.txt with its sha256 hash and the time of writing.

krylov and random are imported inside verify's checks, their only users, so
a sweep never loads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__
from .background import CouplingCoefficients, LanczosChain, lanczos_chain
from .bogoliubov import bd_mode, coefficients, mode_function, occupation
from .config import SweepConfig, bd_reference_power, make_k_grid, serialize
from .spectrum import _FIT_MIN_RECORDS, SpectrumRecord, fit_tilt, gamma_ratio
from .squeeze_dynamics import SqueezeState, evolve_grid, integrate

__all__ = ["SummaryStats", "RunReport", "run_sweep", "write_outputs", "verify"]

CSV_COLUMNS = tuple(f.name for f in fields(SpectrumRecord))


@dataclass(frozen=True)
class SummaryStats:
    max_abs_gamma_minus_one: float
    # | |v_z/v_BD|^2 / gamma - 1 | at the evaluation point: gamma is the
    # super-horizon limit (v_BD*/v_BD -> -1) of that mode-function ratio
    max_abs_mode_ratio_over_gamma_minus_one: float
    max_wronskian_residual: float
    max_occupation: float
    amplitude_fit: float
    tilt_fit: float
    n_records: int
    n_failures: int
    n_capped: int
    # integrator totals over the evaluated modes: accepted steps (slaved
    # ones included), rejected attempts, accepted steps on the fast path
    n_steps: int
    n_rejected: int
    n_slaved_steps: int


@dataclass(frozen=True)
class RunReport:
    config: SweepConfig
    records: tuple[SpectrumRecord, ...]
    failures: tuple[tuple[float, str], ...]
    summary: SummaryStats


def run_sweep(config: SweepConfig) -> RunReport:
    """Evolve every mode of the grid and assemble the spectrum table."""
    grid = make_k_grid(config)
    mode_results = evolve_grid(grid, config)

    records: list[SpectrumRecord] = []
    failures: list[tuple[float, str]] = []
    mode_ratio_gaps: list[float] = []
    stats = [res.stats for res in mode_results if res.stats is not None]
    for res in mode_results:
        if res.state is None:
            failures.append((res.k, res.error or "unknown failure"))
            continue
        state = res.state
        pair = coefficients(state)
        gamma = gamma_ratio(state)
        k_int = res.k * config.unit_scale
        eta = -state.x / k_int
        # the ratio before the square: |v_z|^2 alone overflows at large r
        mode_ratio = abs(mode_function(state, eta, k_int) / bd_mode(eta, k_int)) ** 2
        mode_ratio_gaps.append(abs(mode_ratio / gamma - 1.0))
        power_bd = bd_reference_power(res.k, config.a_s, config.n_s, config.k_pivot)
        records.append(
            SpectrumRecord(
                k=res.k,
                r=state.r,
                phi=state.phi_wrapped,
                occupation=occupation(state),
                gamma=gamma,
                power_bd=power_bd,
                power_otmss=power_bd * gamma,
                wronskian_residual=pair.wronskian_residual,
            )
        )

    if len(records) >= _FIT_MIN_RECORDS:
        amplitude_fit, tilt_fit = fit_tilt(records, pivot=config.k_pivot)
    else:
        amplitude_fit, tilt_fit = float("nan"), float("nan")

    summary = SummaryStats(
        max_abs_gamma_minus_one=max((abs(r.gamma - 1.0) for r in records), default=float("nan")),
        max_abs_mode_ratio_over_gamma_minus_one=max(mode_ratio_gaps, default=float("nan")),
        max_wronskian_residual=max((r.wronskian_residual for r in records), default=float("nan")),
        max_occupation=max((r.occupation for r in records), default=float("nan")),
        amplitude_fit=amplitude_fit,
        tilt_fit=tilt_fit,
        n_records=len(records),
        n_failures=len(failures),
        n_capped=sum(1 for st in stats if st.capped),
        n_steps=sum(st.n_steps for st in stats),
        n_rejected=sum(st.n_rejected for st in stats),
        n_slaved_steps=sum(st.n_slaved_steps for st in stats),
    )
    return RunReport(
        config=config, records=tuple(records), failures=tuple(failures), summary=summary
    )


def fit_skipped(summary: SummaryStats) -> str | None:
    """Why the tilt fit was not run (its values are then NaN), or None."""
    if summary.n_records >= _FIT_MIN_RECORDS:
        return None
    return f"not fitted (needs {_FIT_MIN_RECORDS} records, got {summary.n_records})"


def no_records(summary: SummaryStats) -> str | None:
    """'no records' when no mode was evaluated (the maxima are then NaN), or None."""
    return None if summary.n_records else "no records"


def _fmt(value: float) -> str:
    # scientific notation, 17 significant digits (exact double round trip)
    return f"{value:.16e}"


_FIGURES = (
    ("fig_rk", "r", "squeeze amplitude r_k", "linear"),
    ("fig_phik", "phi", "rotation angle phi_k [rad]", "linear"),
    ("fig_betak", "occupation", "occupation |beta_k|^2", "linear"),
    ("fig_gammak", "gamma", "spectrum ratio gamma_z", "linear"),
    ("fig_deltak", "power_otmss", "curvature power", "log"),
)


def _plot_script(stem: str, column: str, ylabel: str, yscale: str, pivot: float) -> str:
    lines = [
        f"# {stem}: {ylabel} against k, from records.csv",
        "# run with:  gnuplot -p " + stem + ".plot",
        "set datafile separator comma",
        "set key autotitle columnhead",
        "set logscale x 10",
        'set xlabel "k  [Mpc^{-1}]"',
        f'set ylabel "{ylabel}"',
        "set grid",
        f"# pivot reference k_* = {pivot:g}",
        f"set arrow from {pivot:g}, graph 0 to {pivot:g}, graph 1 nohead dashtype 2",
    ]
    if yscale == "log":
        lines.append("set logscale y 10")
        lines.append(
            f'plot "records.csv" using "k":"{column}" with lines lw 2, '
            '"records.csv" using "k":"power_bd" with lines dashtype 3'
        )
    else:
        lines.append(f'plot "records.csv" using "k":"{column}" with lines lw 2')
    return "\n".join(lines) + "\n"


def write_outputs(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Write records.csv, summary.txt and one plot script per figure.

    Returns the list of files written.  records.csv depends only on the
    configuration (no timestamps), so repeated runs are byte-identical.
    summary.txt is stamped with the time it is written.
    """
    # imported here, the one place that needs them, to keep them off start-up
    import hashlib
    from datetime import datetime, timezone

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    csv_path = out / "records.csv"
    rows = [",".join(CSV_COLUMNS)]
    for rec in report.records:
        rows.append(",".join(_fmt(getattr(rec, col)) for col in CSV_COLUMNS))
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    written.append(csv_path)

    s = report.summary
    echo = serialize(report.config)
    summary_lines = [
        f"sqspec sweep summary (version {__version__})",
        f"timestamp: {datetime.now(timezone.utc).isoformat(timespec='seconds')}",
        f"config hash: {hashlib.sha256(echo.encode('utf-8')).hexdigest()}",
        "",
        f"records: {s.n_records}",
        f"failures: {s.n_failures}",
        f"capped modes: {s.n_capped}",
        f"integrator steps: {s.n_steps} accepted ({s.n_slaved_steps} slaved), "
        f"{s.n_rejected} rejected",
        f"max |gamma - 1|: {no_records(s) or format(s.max_abs_gamma_minus_one, '.6e')}",
        "max | |v_z/v_BD|^2 / gamma - 1 |: "
        f"{no_records(s) or format(s.max_abs_mode_ratio_over_gamma_minus_one, '.6e')}",
        f"max wronskian residual: {no_records(s) or format(s.max_wronskian_residual, '.6e')}",
        f"max occupation |beta|^2: {no_records(s) or format(s.max_occupation, '.6e')}",
        f"fitted amplitude at pivot: {fit_skipped(s) or format(s.amplitude_fit, '.6e')}",
        f"fitted tilt: {fit_skipped(s) or format(s.tilt_fit, '.10f')}",
    ]
    if report.failures:
        summary_lines.append("failed k values:")
        summary_lines.extend(f"  k={k:.6e}: {msg}" for k, msg in report.failures)
    summary_lines.extend(["", "resolved configuration:", echo])
    (out / "summary.txt").write_text("\n".join(summary_lines), encoding="utf-8")
    written.append(out / "summary.txt")

    pivot = report.config.k_pivot
    for stem, column, ylabel, yscale in _FIGURES:
        path = out / f"{stem}.plot"
        path.write_text(_plot_script(stem, column, ylabel, yscale, pivot), encoding="utf-8")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# built-in oracle suite
# ---------------------------------------------------------------------------


def _check_meixner_determinant(rng: random.Random) -> tuple[bool, str]:
    from .krylov import characteristic_poly_residual, meixner_poly

    chains = {
        "de-sitter": lanczos_chain(10, eta=-1.0, k=1.0),
        "random-positive": LanczosChain(
            b=(0.0, *(rng.uniform(0.2, 3.0) for _ in range(10))),
            c_mag=tuple(rng.uniform(0.1, 5.0) for _ in range(11)),
        ),
    }
    worst = 0.0
    for chain in chains.values():
        for _ in range(100):
            x = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            for n in range(1, 11):
                p = meixner_poly(n, x, chain)
                rel = characteristic_poly_residual(n, x, chain) / max(1.0, abs(p))
                worst = max(worst, rel)
    return worst < 1e-9, f"max relative residual {worst:.3e} (bound 1e-9)"


def _check_dual_integrator(rtol: float, atol: float) -> tuple[bool, str]:
    # well-conditioned window: moderate seed amplitude keeps the angle
    # relaxation rate explicit-friendly at every k checked here
    bound = max(1e-6, 10.0 * rtol)
    worst = 0.0
    for k in (0.2, 1.0, 2.0):
        kwargs = dict(
            init=(0.05, math.pi / 4), samples=[5.0, 1.0, 0.5],
            rtol=min(rtol, 1e-10), atol=min(atol, 1e-10),
        )
        ref = integrate(k, 5.0, 0.5, **kwargs)
        fix = integrate(k, 5.0, 0.5, h_fixed=2e-3,
                        init=(0.05, math.pi / 4), samples=[5.0, 1.0, 0.5])
        worst = max(worst, abs(ref.r[-1] - fix.r[-1]), abs(ref.phi[-1] - fix.phi[-1]))
    return worst < bound, f"max endpoint difference {worst:.3e} (bound {bound:.1e})"


def _check_wronskian_gamma(rng: random.Random) -> tuple[bool, str]:
    worst_w = 0.0
    worst_g = 0.0
    for _ in range(2000):
        r = rng.uniform(0.0, 5.0)
        phi = rng.uniform(-math.pi, math.pi)
        state = SqueezeState(r=r, phi=phi, x=1.0)
        pair = coefficients(state)
        worst_w = max(worst_w, pair.wronskian_residual)
        closed = math.cosh(2 * r) + math.sinh(2 * r) * math.cos(phi)
        direct = abs(pair.alpha - pair.beta) ** 2
        worst_g = max(worst_g, abs(direct - closed) / math.cosh(2 * r))
    ok = worst_w < 1e-12 and worst_g < 1e-12
    return ok, f"max wronskian residual {worst_w:.3e}, max gamma mismatch {worst_g:.3e} (bounds 1e-12)"


def _check_tmss_limit() -> tuple[bool, str]:
    from .krylov import otmss_amplitudes, tmss_amplitudes

    r, phi = 1.0, 0.3
    ref = tmss_amplitudes(r, phi, n_max=60).coefficients
    devs = []
    for mu2 in (1e-3, 5e-4, 2.5e-4):
        cc = CouplingCoefficients(mu2=mu2, coupling=1.0)
        open_amp = otmss_amplitudes(r, phi, cc, n_max=60).coefficients
        devs.append(max(abs(a - b) for a, b in zip(open_amp, ref)))
    ratios = [devs[1] / devs[0], devs[2] / devs[1]]
    ok = all(0.45 <= q <= 0.55 for q in ratios)
    return ok, f"halving ratios {ratios[0]:.4f}, {ratios[1]:.4f} (expected ~0.5)"


def verify(config: SweepConfig) -> tuple[int, list[str]]:
    """Run the oracle suite; returns (exit_code, report_lines).

    exit code 0 when every check passes, 3 otherwise.
    """
    import random

    rng = random.Random(20240817)
    checks = [
        ("meixner-determinant", _check_meixner_determinant(rng)),
        ("dual-integrator", _check_dual_integrator(config.rtol, config.atol)),
        ("wronskian-gamma", _check_wronskian_gamma(rng)),
        ("tmss-limit", _check_tmss_limit()),
    ]
    lines = []
    all_ok = True
    for name, (ok, detail) in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok &= ok
    return (0 if all_ok else 3), lines
