"""Command-line front end.

Loads a scenario file, dispatches one of the analysis or simulation
commands, writes one plot-ready CSV file named <scenario-digest>-<kind>.csv
into the output directory, prints ``wrote <path>`` last, and appends a
provenance line to run.log there: scenario digest, seed, wall time since
start-up and the status, with the error message when the command failed.

Only the fringe-scan, histogram and validate commands import numpy and
the engine, inside their handlers. qpm-solve, budget, repeater-rates and
efficiency-curve, whose binomial sweep draws from a standard-library
stream, run on the standard library alone.

Exit codes: 0 success, 2 configuration problem (bad file, key, or
invariant, or an output or run.log that cannot be written; the message
names it), 3 numeric or solver failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__, conversion, qpm, repeater
from .errors import ConfigError, DomainError, QifsimError
from .scenario import Scenario, load_reference_scenario, load_scenario, scenario_digest
from .scenario import _parse_grid as scenario_grid

__all__ = ["main"]

OUT_DIR_ENV = "QIFSIM_OUT"


def _grid(start: float, stop: float, n: int) -> list[float]:
    """``n`` evenly spaced values from ``start`` to ``stop``, both included.

    ``start + i * step`` with the last value set to ``stop``: the same
    arithmetic as ``np.linspace``, so the values equal it bit for bit
    unless the step underflows to zero.
    """
    if n == 1:
        return [start + 0.0]  # as in np.linspace, -0.0 becomes 0.0
    step = (stop - start) / (n - 1)
    values = [start + i * step for i in range(n)]
    values[-1] = stop
    return values


def _parse_grid(raw: str, flag: str) -> list[float]:
    try:
        start, stop, n = scenario_grid(raw)
    except ValueError as exc:
        raise ConfigError(
            f"{flag} must be start:stop:n with finite ends, got {raw!r}"
        ) from exc
    if n < 1:
        raise ConfigError(f"{flag} needs n >= 1, got {n}")
    return _grid(start, stop, n)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qifsim",
        description=(
            "Scenario-driven simulator for a frequency-converting quantum "
            "interface: phase matching, conversion budgets, time-bin fringe "
            "scans, detector statistics, and repeater link rates."
        ),
    )
    parser.add_argument(
        "command",
        choices=COMMANDS,
        help="analysis or simulation to run",
    )
    parser.add_argument(
        "--scenario",
        help="scenario file (default: the bundled reference scenario)",
    )
    parser.add_argument(
        "--out",
        help=f"output directory (default: ${OUT_DIR_ENV} or the working directory)",
    )
    parser.add_argument("--seed", type=int, help="override the scenario master seed")
    parser.add_argument(
        "--phases",
        help="analysis phase grid start:stop:n in rad (default 0:2pi:12)",
    )
    parser.add_argument(
        "--powers",
        help="pump power grid start:stop:n in W (default 0:scenario power:14)",
    )
    parser.add_argument("--pulses", type=int, help="override pulses per phase point")
    return parser


def _load(scenario_path: str | None, seed: int | None) -> Scenario:
    if scenario_path is None:
        s = load_reference_scenario()
    else:
        s = load_scenario(scenario_path)
    if seed is not None:
        if not 0 <= seed < 2**64:
            raise ConfigError(f"--seed must be a u64, got {seed}")
        s = replace(s, master_seed=seed)
    return s


def _write_output(s: Scenario, out: Path, kind: str, columns: list[str], rows, **meta) -> Path:
    """Write ``<digest>-<kind>.csv`` into ``out`` and return its path.

    ``# key = value`` header lines come first: version, scenario digest,
    master seed and kind, then ``meta`` in the order given.
    """
    digest = scenario_digest(s)
    path = out / f"{digest}-{kind}.csv"
    header = {
        "version": __version__,
        "scenario_digest": digest,
        "master_seed": s.master_seed,
        "kind": kind,
        **meta,
    }
    try:
        with open(path, "w", newline="") as handle:
            for key, value in header.items():
                handle.write(f"# {key} = {value}\n")
            writer = csv.writer(handle)
            writer.writerow(columns)
            writer.writerows(rows)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc
    return path


def _cmd_qpm_solve(s: Scenario, out: Path, args) -> Path:
    t = s.qpm.temperature_k
    signal = s.signal_wavelength_um
    pump = s.pump.wavelength_um
    output = s.output_wavelength_um()
    delta_k = qpm.phase_mismatch(signal, pump, output, s.qpm)
    bulk_period = qpm.solve_poling_period(signal, pump, t, order=s.qpm.order)
    matched_pump = qpm.solve_pump_wavelength(bulk_period, signal, t, order=s.qpm.order)
    rows = [
        ("signal_wavelength", repr(signal), "um"),
        ("pump_wavelength", repr(pump), "um"),
        ("output_wavelength", repr(output), "um"),
        ("n_signal", repr(qpm.refractive_index(signal, t)), ""),
        ("n_pump", repr(qpm.refractive_index(pump, t)), ""),
        ("n_output", repr(qpm.refractive_index(output, t)), ""),
        ("poling_period_configured", repr(s.qpm.poling_period_um), "um"),
        ("poling_period_bulk_matched", repr(bulk_period), "um"),
        ("delta_k_at_configured_period", repr(delta_k), "rad/um"),
        ("acceptance_at_configured_period", repr(qpm.qpm_acceptance(delta_k, s.qpm.crystal_length_cm)), ""),
        ("pump_wavelength_matched_at_bulk_period", repr(matched_pump), "um"),
    ]
    path = _write_output(s, out, "qpm", ["quantity", "value", "unit"], rows)
    print(f"bulk quasi-phase-matched period at {t} K: {bulk_period:.4f} um")
    print(
        f"configured period {s.qpm.poling_period_um} um leaves a mismatch of "
        f"{delta_k:.5f} rad/um (waveguide dispersion absorbs the difference "
        f"in the physical device)"
    )
    return path


def _cmd_efficiency(s: Scenario, out: Path, args) -> Path:
    if args.powers:
        powers = _parse_grid(args.powers, "--powers")
        if any(p < 0 for p in powers):
            raise ConfigError("--powers must be >= 0")
    else:
        powers = _grid(0.0, s.pump.power_w, 14)
    table = conversion.run_efficiency_sweep(s, powers)
    rows = [
        (repr(p.power_w), repr(p.eta_analytic), repr(p.eta_mc), repr(p.stat_error))
        for p in table
    ]
    columns = ["power_w", "eta_qi_analytic", "eta_qi_mc", "stat_error"]
    path = _write_output(
        s, out, "efficiency", columns, rows, mc_photons_per_point=s.mc_photons_per_point
    )
    last = table[-1]
    print(
        f"eta_QI at {last.power_w:.3f} W: analytic {last.eta_analytic * 100:.4f} %, "
        f"Monte Carlo {last.eta_mc * 100:.4f} % +- {last.stat_error * 100:.4f} %"
    )
    return path


def _scan_args(args) -> tuple[list[float], int | None]:
    """The --phases grid (default 0:2pi:12) and the --pulses override."""
    if args.phases:
        phases = _parse_grid(args.phases, "--phases")
        if len(phases) < 2:
            raise ConfigError(f"--phases needs at least 2 points, got {len(phases)}")
    else:
        phases = _grid(0.0, 2.0 * math.pi, 12)
    if args.pulses is not None and args.pulses < 0:
        raise ConfigError(f"--pulses must be >= 0, got {args.pulses}")
    return phases, args.pulses


def _cmd_fringe_scan(s: Scenario, out: Path, args) -> Path:
    from . import detection, montecarlo

    phases, pulses = _scan_args(args)
    # Both grid rules before any draw; a repeat is named as such, not as
    # too few distinct phases.
    conversion._reject_repeats(phases, "phase")
    try:
        detection.check_fit_phases(phases)
    except DomainError as exc:
        raise ConfigError(f"--phases: {exc}") from exc
    result = montecarlo.run_fringe_scan(s, phases, pulses)
    rows = [(repr(p.phase_rad), p.counts, repr(p.stat_error)) for p in result.fringe]
    columns = ["phase_rad", "counts", "stat_error"]
    n_pulses = result.metadata["pulses_per_point"]
    path = _write_output(
        s, out, "fringe", columns, rows, pulses_per_point=n_pulses, phase_points=len(rows)
    )
    background = result.mean_background()
    fit = detection.extract_visibility(result.fringe_points(), background=background)
    print(
        f"V_raw = {fit.v_raw:.4f}, V_net = {fit.v_net:.4f} "
        f"(estimated background {background:.1f} counts/point)"
    )
    return path


def _cmd_histogram(s: Scenario, out: Path, args) -> Path:
    from . import montecarlo

    result = montecarlo.run_fringe_scan(s, *_scan_args(args))
    hist = result.histogram
    edges = hist.bin_edges_ns()
    rows = [
        (repr(float(edges[i])), repr(float(edges[i + 1])), int(c))
        for i, c in enumerate(hist.counts)
    ]
    columns = ["bin_start_ns", "bin_end_ns", "counts"]
    total = hist.total_counts()
    path = _write_output(
        s, out, "histogram", columns, rows, sync_pulses=hist.sync_pulses, total_counts=total
    )
    print(f"{total} detections over {hist.sync_pulses} sync pulses")
    return path


def _cmd_repeater(s: Scenario, out: Path, args) -> Path:
    rows = []
    for length in _grid(*s.repeater.length_grid_km):
        cfg = s.repeater_link(length)
        p_with = repeater.link_success_probability(cfg, with_interface=True)
        p_without = repeater.link_success_probability(cfg, with_interface=False)
        rate_with = repeater.link_rate_hz(cfg, with_interface=True)
        rate_without = repeater.link_rate_hz(cfg, with_interface=False)
        ratio = p_with / p_without if p_without > 0 else math.inf
        values = (length, p_with, p_without, rate_with, rate_without, ratio)
        rows.append([repr(v) for v in values])
    columns = ["length_km", "p_with", "p_without", "rate_with_hz", "rate_without_hz", "ratio"]
    path = _write_output(
        s, out, "repeater", columns, rows, protocol=s.repeater.protocol, model="illustrative"
    )
    # Only the length varies along the grid, and nothing printed here reads it.
    print(
        f"illustrative {cfg.protocol} link model, interface efficiency "
        f"{cfg.interface_efficiency:.3e}"
    )
    try:
        breakeven = repeater.break_even_distance(
            cfg.interface_efficiency,
            cfg.attenuation_native_db_per_km,
            cfg.attenuation_telecom_db_per_km,
        )
        print(f"per-photon break-even length: {breakeven:.2f} km")
    except DomainError as exc:
        print(f"no break-even length: {exc}")
    return path


def _cmd_budget(s: Scenario, out: Path, args) -> Path:
    stages = [(f"pre/{st.name}", st.transmission()) for st in s.chain_pre.stages]
    stages.append(("internal_conversion", s.internal_efficiency()))
    stages += [(f"post/{st.name}", st.transmission()) for st in s.chain_post.stages]
    rows: list[tuple[str, float, float]] = []
    running = 1.0
    for name, trans in stages:
        running *= trans
        rows.append((name, trans, running))
    eta_qi = s.eta_qi()

    width = max(len(r[0]) for r in rows) + 2
    print(f"{'stage':<{width}}{'transmission':>14}{'cumulative':>14}")
    for name, trans, cum in rows:
        print(f"{name:<{width}}{trans:>14.6f}{cum:>14.6f}")
    print(f"{'eta_QI':<{width}}{'':>14}{eta_qi:>14.6f}  = {eta_qi * 100:.3f} %")

    csv_rows = [(name, repr(trans), repr(cum)) for name, trans, cum in rows]
    csv_rows.append(("eta_QI", repr(eta_qi), repr(eta_qi)))
    columns = ["stage", "transmission", "cumulative"]
    return _write_output(s, out, "budget", columns, csv_rows, pump_power_w=s.pump.power_w)


def _cmd_validate(s: Scenario, out: Path, args) -> Path:
    from . import montecarlo

    report = montecarlo.validate_against_oracle(s, *_scan_args(args))
    rows = [
        (repr(phase), repr(obs), repr(exp), repr(z))
        for phase, obs, exp, z in report.rows
    ]
    columns = ["phase_rad", "observed", "expected", "z_score"]
    path = _write_output(s, out, "validate", columns, rows, phase_points=report.n_points)
    if report.chi2_per_dof is None:
        print(f"comparison empty: {report.note}")
    else:
        print(
            f"chi2/dof = {report.chi2_per_dof:.3f} over {report.n_points} points, "
            f"{len(report.flagged_phases)} point(s) beyond 4 sigma"
        )
        for phase in report.flagged_phases:
            print(f"  flagged: beta = {phase:.6g} rad")
    return path


# Each command and its handler, in the order the help lists them. A handler
# writes one CSV and returns its path; main prints it and logs the run.
COMMANDS = {
    "qpm-solve": _cmd_qpm_solve,
    "efficiency-curve": _cmd_efficiency,
    "fringe-scan": _cmd_fringe_scan,
    "histogram": _cmd_histogram,
    "repeater-rates": _cmd_repeater,
    "budget": _cmd_budget,
    "validate": _cmd_validate,
}


# Escapes that keep an error message inside one tab-separated run.log field.
_LOG_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def _append_run_log(
    out: Path,
    s: Scenario | None,
    command: str,
    started: float,
    error: QifsimError | None = None,
) -> None:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    digest = scenario_digest(s) if s is not None else "-"
    seed = s.master_seed if s is not None else "-"
    status = "ok"
    if error is not None:
        message = str(error).translate(_LOG_ESCAPES)
        status = f"error:{type(error).__name__}\terror={message}"
    line = (
        f"{stamp}\tversion={__version__}\tcommand={command}\t"
        f"digest={digest}\tseed={seed}\t"
        f"wall_s={time.perf_counter() - started:.3f}\tstatus={status}\n"
    )
    try:
        with open(out / "run.log", "a") as handle:
            handle.write(line)
    except OSError as exc:
        raise ConfigError(f"cannot append to run log in {out}: {exc}") from exc


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _build_parser().parse_args(argv)
    out = Path(args.out or os.environ.get(OUT_DIR_ENV) or ".")

    scenario: Scenario | None = None
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        scenario = _load(args.scenario, args.seed)
        scenario.warn_if_unresolved()
        path = COMMANDS[args.command](scenario, out, args)
        print(f"wrote {path}")
        _append_run_log(out, scenario, args.command, started)
    except QifsimError as exc:
        config = isinstance(exc, ConfigError)
        print(f"{'config error' if config else 'error'}: {exc}", file=sys.stderr)
        try:
            _append_run_log(out, scenario, args.command, started, exc)
        except ConfigError:
            pass  # the run already failed; its message is on stderr
        return 2 if config else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
