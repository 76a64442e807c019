"""Workloads of the qifsim benchmark: scenarios, commands, API passes and output checks.

Each workload puts a different layer at the centre:

- ``reference-fringe``: the bundled reference scenario (12 phases x 1e6
  pulses). Dense per-photon sampling in ``montecarlo`` dominates; only about
  12 % of the sampled photons become detections.
- ``detector-saturated``: the reference scenario with QE 0.9, a 20 ns dead
  time and 5 % afterpulsing at 3e5 pulses per point. The per-event dead-time
  gate and afterpulse heap in ``detection`` dominate. ``validate`` is left
  out because the analytic oracle ignores dead time.
- ``analytic-cli``: ``budget``, ``qpm-solve``, ``repeater-rates`` and
  ``efficiency-curve``. No per-pulse Monte Carlo: interpreter start-up,
  imports, the scenario parse, the QPM root solves, the binomial efficiency
  sweep and the repeater grid do the work.

Every check that compares a random quantity with its expectation allows 6
standard deviations, so a correct program fails one by chance with
probability below 2e-9 per compared value.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from qifsim import detection, montecarlo, qpm, repeater, scenario

SIGMAS = 6.0
# Half a unit in the fourth decimal: the CLI prints visibilities, and the
# expected output wavelength is quoted, to four decimals.
PRINT_ROUNDING = 5e-5
# 1 / (1/0.710 - 1/1.552) um, the reference scenario's DFG output.
OUTPUT_WAVELENGTH_UM = 1.3087
SMOKE_PULSES = 20_000


class CheckFailed(Exception):
    """An output of qifsim is wrong."""


@dataclass(frozen=True)
class Workload:
    """A workload's commands and scenario overrides; BENCHMARK.json says why it exists."""

    name: str
    commands: tuple[str, ...]
    monte_carlo: bool
    detector: dict | None = None
    pulses_per_point: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reference-fringe",
            ("fringe-scan", "histogram", "validate"),
            monte_carlo=True,
        ),
        Workload(
            "detector-saturated",
            ("fringe-scan", "histogram"),
            monte_carlo=True,
            detector={
                "quantum_efficiency": 0.9,
                "dead_time_us": 0.02,
                "afterpulse_probability": 0.05,
            },
            pulses_per_point=300_000,
        ),
        Workload(
            "analytic-cli",
            ("budget", "qpm-solve", "repeater-rates", "efficiency-curve"),
            monte_carlo=False,
        ),
    )
}

# The CSV kind each command writes, <digest>-<kind>.csv.
CSV_KIND = {
    "fringe-scan": "fringe",
    "histogram": "histogram",
    "validate": "validate",
    "budget": "budget",
    "qpm-solve": "qpm",
    "repeater-rates": "repeater",
    "efficiency-curve": "efficiency",
}


def build_scenario(w: Workload, seed: int, smoke: bool = False) -> scenario.Scenario:
    """The workload's scenario: the bundled reference with the seed and overrides applied."""
    s = replace(scenario.load_reference_scenario(), master_seed=seed)
    if w.detector is not None:
        s = replace(s, detector=replace(s.detector, **w.detector))
    if w.pulses_per_point is not None:
        s = replace(s, pulses_per_point=w.pulses_per_point)
    if smoke:
        s = replace(s, pulses_per_point=SMOKE_PULSES)
    return s


def write_scenario(s: scenario.Scenario, path: Path) -> None:
    text = scenario.serialize_scenario(s)
    if scenario.parse_scenario(text) != s:
        raise CheckFailed("scenario does not survive serialize/parse")
    path.write_text(text)


def read_csv(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(meta, header, rows) of a qifsim CSV; meta comes from its '# key = value' lines."""
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    meta: dict[str, str] = {}
    lines = path.read_text().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(body))
    if not rows:
        raise CheckFailed(f"{path.name} has no header")
    return meta, rows[0], rows[1:]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _printed_visibility(stdout: str) -> tuple[float, float]:
    for line in stdout.splitlines():
        if line.startswith("V_raw = "):
            raw, net = line.split(",")[:2]
            return float(raw.split("=")[1]), float(net.split("=")[1].split()[0])
    raise CheckFailed("no visibility line in fringe-scan output")


def visibility_band(s: scenario.Scenario, phases: np.ndarray) -> tuple[float, float, float, float]:
    """(V_raw, sigma V_raw, V_net, sigma V_net) that the fit should give.

    Expected counts come from the analytic oracle. The fit's least-squares
    coefficients are linear in the Poisson counts, so their covariance is
    exact; the background is the mean of one Poisson window per phase. The
    visibilities' spread follows to first order.
    """
    exp = montecarlo.expected_fringe(s, phases)
    basis = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    pinv = np.linalg.pinv(basis)
    offset, p, q = pinv @ exp.counts
    cov = np.zeros((4, 4))
    cov[:3, :3] = pinv @ np.diag(exp.counts) @ pinv.T
    cov[3, 3] = exp.background / phases.size
    amp = math.hypot(p, q)
    net = offset - exp.background
    grad_raw = np.array([-amp / offset**2, p / (amp * offset), q / (amp * offset), 0.0])
    grad_net = np.array([-amp / net**2, p / (amp * net), q / (amp * net), amp / net**2])
    return (
        amp / offset,
        math.sqrt(grad_raw @ cov @ grad_raw),
        amp / net,
        math.sqrt(grad_net @ cov @ grad_net),
    )


def analytic_pass(s: scenario.Scenario):
    """The library calls behind budget, qpm-solve, repeater-rates and efficiency-curve."""
    t = s.qpm.temperature_k
    signal = s.signal_wavelength_um
    period = qpm.solve_poling_period(signal, s.pump.wavelength_um, t, order=s.qpm.order)
    matched_pump = qpm.solve_pump_wavelength(period, signal, t, order=s.qpm.order)
    start, stop, n = s.repeater.length_grid_km
    rates = tuple(
        repeater.link_rate_hz(s.repeater_link(float(length)), with_interface=flag)
        for length in np.linspace(start, stop, n)
        for flag in (True, False)
    )
    sweep = montecarlo.run_efficiency_sweep(s, np.linspace(0.0, s.pump.power_w, 14))
    return s.eta_qi(), s.output_wavelength_um(), period, matched_pump, rates, sweep


def _check_sweep(rows, n: int) -> None:
    for power, analytic, mc in rows:
        sigma = math.sqrt(analytic * (1.0 - analytic) / n)
        _require(
            abs(mc - analytic) <= SIGMAS * sigma + 1e-12,
            f"efficiency at {power} W: Monte Carlo {mc} vs analytic {analytic}",
        )


class WorkloadRun:
    """One workload on one seed: its scenario, reference results and checks."""

    def __init__(self, w: Workload, s: scenario.Scenario, scenario_path: Path, out_dir: Path):
        self.workload = w
        self.s = s
        self.scenario_path = scenario_path
        self.out_dir = out_dir
        self.digest = scenario.scenario_digest(s)
        self.phases = np.linspace(0.0, 2.0 * math.pi, 12)  # the CLI default grid
        self.reference = None

    # In-process API pass.

    @property
    def pulses(self) -> int:
        """Pulses one API pass simulates (0 for the analytic workload)."""
        if not self.workload.monte_carlo:
            return 0
        return self.s.pulses_per_point * self.phases.size

    def api_call(self):
        if self.workload.monte_carlo:
            return montecarlo.run_fringe_scan(self.s, self.phases)
        return analytic_pass(self.s)

    def check_api(self, result) -> None:
        """The first result is checked against physics; later ones must repeat it."""
        if self.reference is None:
            if self.workload.monte_carlo:
                self._check_scan(result)
            else:
                self._check_analytic(result)
            self.reference = result
        elif self.workload.monte_carlo:
            _require(
                result.content_digest() == self.reference.content_digest(),
                "fringe scan is not reproducible",
            )
        else:
            _require(result == self.reference, "analytic pass is not reproducible")

    def _check_scan(self, result) -> None:
        # extract_visibility raises when the fringe is not a sinusoid.
        fit = detection.extract_visibility(
            result.fringe_points(), background=result.mean_background()
        )
        if self.workload.detector is None:
            self._check_visibility(fit.v_raw, fit.v_net, 0.0)

    def _check_visibility(self, v_raw: float, v_net: float, slack: float) -> None:
        exp_raw, sd_raw, exp_net, sd_net = visibility_band(self.s, self.phases)
        _require(
            abs(v_raw - exp_raw) <= SIGMAS * sd_raw + slack,
            f"V_raw {v_raw:.4f} outside {exp_raw:.4f} +- {SIGMAS * sd_raw:.4f}",
        )
        _require(
            abs(v_net - exp_net) <= SIGMAS * sd_net + slack,
            f"V_net {v_net:.4f} outside {exp_net:.4f} +- {SIGMAS * sd_net:.4f}",
        )

    def _check_analytic(self, result) -> None:
        eta_qi, output_um, period, matched_pump, _, sweep = result
        _require(
            abs(output_um - OUTPUT_WAVELENGTH_UM) < PRINT_ROUNDING,
            f"output wavelength {output_um} um",
        )
        _require(eta_qi == self.s.eta_qi(), "eta_QI differs between calls")
        _require(period > 0, f"poling period {period} um")
        _require(
            abs(matched_pump - self.s.pump.wavelength_um) < 1e-6,
            f"pump re-solved at the bulk period is {matched_pump} um",
        )
        _check_sweep(
            [(p.power_w, p.eta_analytic, p.eta_mc) for p in sweep],
            self.s.mc_photons_per_point,
        )

    # CLI outputs.

    def csv_path(self, command: str) -> Path:
        return self.out_dir / f"{self.digest}-{CSV_KIND[command]}.csv"

    def cli_args(self, command: str) -> list[str]:
        return [
            command,
            "--scenario",
            str(self.scenario_path),
            "--seed",
            str(self.s.master_seed),
            "--out",
            str(self.out_dir),
        ]

    def check_command(self, command: str, stdout: str) -> Path:
        """Check one command's CSV and printed summary; returns the CSV path."""
        path = self.csv_path(command)
        meta, header, rows = read_csv(path)
        getattr(self, "_check_" + command.replace("-", "_"))(stdout, meta, header, rows)
        return path

    def _reference_counts(self) -> list[int]:
        return [p.counts for p in self.reference.fringe]

    def _check_fringe_scan(self, stdout, meta, header, rows) -> None:
        _require(header == ["phase_rad", "counts", "stat_error"], f"fringe header {header}")
        counts = [int(r[1]) for r in rows]
        _require(counts == self._reference_counts(), "CLI fringe differs from the API scan")
        v_raw, v_net = _printed_visibility(stdout)
        if self.workload.detector is None:
            self._check_visibility(v_raw, v_net, PRINT_ROUNDING)
        else:
            _require(0.0 < v_raw <= 1.0 and v_raw <= v_net, f"fit gave V_raw {v_raw}, V_net {v_net}")

    def _check_histogram(self, stdout, meta, header, rows) -> None:
        hist = self.reference.histogram
        total = sum(int(r[2]) for r in rows)
        _require(total == int(meta["total_counts"]), "histogram rows do not sum to its total")
        _require(total == hist.total_counts(), "CLI histogram differs from the API scan")
        _require(int(meta["sync_pulses"]) == self.pulses, "histogram sync pulses")

    def _check_validate(self, stdout, meta, header, rows) -> None:
        observed = [float(r[1]) for r in rows]
        _require(observed == [float(c) for c in self._reference_counts()], "validate counts")
        worst = max(abs(float(r[3])) for r in rows)
        _require(worst < SIGMAS, f"validate has a point at {worst:.2f} sigma")

    def _check_budget(self, stdout, meta, header, rows) -> None:
        last = rows[-1]
        _require(last[0] == "eta_QI", "budget ends without eta_QI")
        _require(float(last[1]) == self.s.eta_qi(), f"budget eta_QI {last[1]}")

    def _check_qpm_solve(self, stdout, meta, header, rows) -> None:
        values = {r[0]: float(r[1]) for r in rows}
        out = values["output_wavelength"]
        _require(abs(out - OUTPUT_WAVELENGTH_UM) < PRINT_ROUNDING, f"output wavelength {out} um")

    def _check_repeater_rates(self, stdout, meta, header, rows) -> None:
        _require(len(rows) == self.s.repeater.length_grid_km[2], "repeater grid length")
        for row in rows:
            values = [float(v) for v in row[1:5]]
            _require(all(math.isfinite(v) and v >= 0 for v in values), f"repeater row {row}")

    def _check_efficiency_curve(self, stdout, meta, header, rows) -> None:
        _require(len(rows) == 14, "efficiency grid length")
        _check_sweep(
            [(float(r[0]), float(r[1]), float(r[2])) for r in rows],
            int(meta["mc_photons_per_point"]),
        )
