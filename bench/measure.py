"""Measure qifsim end to end and in process, and write ``BENCH_<label>.json``.

    python3 bench/measure.py [--label L] [--rounds R] [--pulses N] [--against DIR] [--out DIR]

One round measures a source tree, this checkout's ``src``, three ways:

- each CLI command on the bundled reference scenario, and ``fringe-scan``
  and ``histogram`` on ``detector-saturated`` (QE 0.9, 20 ns dead time,
  5 % afterpulsing): wall time and peak RSS. A command is started by a
  small launcher process, ``python -S``, that spawns it and reads its
  ``wait4``. A child's ``ru_maxrss`` starts from its parent's all-time
  peak RSS, not from its RSS at the spawn, so a command started by a
  process that once held large arrays reads that process's peak. The
  launcher's own peak, which this script's small one sets, is recorded
  beside each command as the floor below which a reading means nothing;
- the cumulative ``-X importtime`` of ``qifsim.cli`` and of
  ``qifsim.montecarlo``;
- five in-process runs each of the reference scan (12 phases x
  10^6 pulses), the ``detector-saturated`` scan (12 x 3x10^5) and the
  analytic pass behind ``budget``, ``qpm-solve``, ``repeater-rates`` and
  ``efficiency-curve``, every sample kept.

``--pulses`` sets the pulses per point of both Monte Carlo workloads: the
in-process scans run on the scenario with its ``pulses_per_point``
replaced, and the commands take ``--pulses``. Both forms run on any tree
whose scenario has that field, so ``--against`` may name an older one.
With ``--against DIR`` each round measures both trees, in alternating
order, and the file adds each metric's paired differences, this tree
minus the other, with their median, quartiles and the pairs each side
won (lower wins). The file goes to ``--out``, by default the checkout's
root. Linux only: ``ru_maxrss`` is read in KiB. Exits 1 when a command
fails, after writing the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_COMMANDS = (
    "budget", "qpm-solve", "repeater-rates", "efficiency-curve", "fringe-scan", "histogram", "validate",
)
SATURATED_COMMANDS = ("fringe-scan", "histogram")
MONTE_CARLO = {"fringe-scan", "histogram", "validate"}
DEFAULT_PULSES = {"reference-fringe": 1_000_000, "detector-saturated": 300_000}
REPEATS = 5

# Spawns the command with stdout to /dev/null and prints its wall time,
# its ru_maxrss, its exit code and the launcher's own ru_maxrss.
LAUNCHER = """
import os, resource, sys, time
started = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - started, usage.ru_maxrss, os.waitstatus_to_exitcode(status),
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# Writes the saturated scenario, then times the in-process passes.
WORKER = """
import dataclasses, json, math, sys, time
import numpy as np
from qifsim import conversion, montecarlo, qpm, repeater, scenario
out, reference_pulses, saturated_pulses, repeats = sys.argv[1], *map(int, sys.argv[2:])
ref = scenario.load_reference_scenario()
saturated = dataclasses.replace(ref, detector=dataclasses.replace(
    ref.detector, quantum_efficiency=0.9, dead_time_us=0.02, afterpulse_probability=0.05))
with open(out, "w") as f:
    f.write(scenario.serialize_scenario(saturated))
phases = np.linspace(0.0, 2.0 * math.pi, 12)
reference_scan = dataclasses.replace(ref, pulses_per_point=reference_pulses)
saturated_scan = dataclasses.replace(saturated, pulses_per_point=saturated_pulses)

def analytic_pass(s):
    t, signal = s.qpm.temperature_k, s.signal_wavelength_um
    period = qpm.solve_poling_period(signal, s.pump.wavelength_um, t, order=s.qpm.order)
    qpm.solve_pump_wavelength(period, signal, t, order=s.qpm.order)
    start, stop, n = s.repeater.length_grid_km
    for length in np.linspace(start, stop, n):
        for flag in (True, False):
            repeater.link_rate_hz(s.repeater_link(float(length)), with_interface=flag)
    conversion.run_efficiency_sweep(s, np.linspace(0.0, s.pump.power_w, 14))
    return s.eta_qi(), s.output_wavelength_um()

passes = {
    "reference-fringe": lambda: montecarlo.run_fringe_scan(reference_scan, phases),
    "detector-saturated": lambda: montecarlo.run_fringe_scan(saturated_scan, phases),
    "analytic-pass": lambda: analytic_pass(ref),
}
samples = {}
for name, run in passes.items():
    samples[name] = []
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        samples[name].append(time.perf_counter() - started)
print(json.dumps(samples))
"""


def tree_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def git(src: Path, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def launch(argv: list[str], env: dict, cwd: Path) -> dict:
    """Wall time, peak RSS and exit code of one command, from the launcher's ``wait4``."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, *argv], env=env, cwd=cwd, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"launcher failed: {done.stderr}")
    wall, rss, code, launcher = done.stdout.split()
    result = {"wall_s": float(wall), "peak_rss_mb": int(rss) / 1024, "exit_code": int(code)}
    result["launcher_rss_mb"] = int(launcher) / 1024
    if int(code) != 0:
        result["stderr"] = done.stderr[-2000:]
    return result


def import_ms(module: str, env: dict) -> float:
    """Cumulative ``-X importtime`` of ``module`` in a fresh interpreter, ms."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        env=env, capture_output=True, text=True, check=True,
    )
    for line in done.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            return int(fields[1]) / 1e3
    raise RuntimeError(f"no importtime line for {module}")


def measure(src: Path, pulses: dict) -> dict:
    """One round on one tree."""
    env = tree_env(src)
    with tempfile.TemporaryDirectory(prefix="qifsim-bench-") as tmp:
        work = Path(tmp)
        saturated = work / "saturated.scenario"
        done = subprocess.run(
            [sys.executable, "-c", WORKER, str(saturated), str(pulses["reference-fringe"]),
             str(pulses["detector-saturated"]), str(REPEATS)],
            env=env, capture_output=True, text=True, check=True,
        )
        commands = {}
        runs = [("reference", cmd, []) for cmd in REFERENCE_COMMANDS]
        runs += [("detector-saturated", cmd, ["--scenario", str(saturated)]) for cmd in SATURATED_COMMANDS]
        for workload, cmd, extra in runs:
            if cmd in MONTE_CARLO:
                key = "detector-saturated" if workload == "detector-saturated" else "reference-fringe"
                extra = [*extra, "--pulses", str(pulses[key])]
            argv = [sys.executable, "-m", "qifsim.cli", cmd, "--out", str(work / "out"), *extra]
            commands[f"{workload} {cmd}"] = launch(argv, env, work)
    return {
        "commands": commands,
        "import_ms": {m: import_ms(m, env) for m in ("qifsim.cli", "qifsim.montecarlo")},
        "in_process_s": json.loads(done.stdout),
    }


def scalars(round_: dict) -> dict:
    """Each round's metrics as scalars: in-process passes by their median."""
    out = {}
    for name, command in round_["commands"].items():
        out[f"{name} wall_s"] = command["wall_s"]
        out[f"{name} peak_rss_mb"] = command["peak_rss_mb"]
    for module, ms in round_["import_ms"].items():
        out[f"import {module} ms"] = ms
    for name, samples in round_["in_process_s"].items():
        out[f"in-process {name} s"] = statistics.median(samples)
    return out


def paired(change: list[dict], against: list[dict]) -> dict:
    """Per metric: the differences change - against, their median and quartiles, and pairs won."""
    summary = {}
    for metric in scalars(change[0]):
        d = [scalars(c)[metric] - scalars(a)[metric] for c, a in zip(change, against)]
        q1, _, q3 = statistics.quantiles(d, n=4, method="inclusive") if len(d) > 1 else (d[0],) * 3
        summary[metric] = {
            "differences": d,
            "median": statistics.median(d),
            "quartiles": [q1, q3],
            "change_won": sum(x < 0 for x in d),
            "against_won": sum(x > 0 for x in d),
        }
    return summary


def environment() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.stdout.strip() or None,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "load_average": list(os.getloadavg()),
        "bytecode_written": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def tree(src: Path) -> dict:
    status = git(src, "status", "--porcelain", "--", ".")
    return {"commit": git(src, "rev-parse", "HEAD"), "clean": None if status is None else status == ""}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="file label (default: the tree's short commit)")
    parser.add_argument("--rounds", type=int, default=5, help="rounds, or pairs with --against")
    parser.add_argument("--pulses", type=int, help="pulses per point of both Monte Carlo workloads")
    parser.add_argument("--against", type=Path, help="a second source tree, alternated with this checkout's src")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory for BENCH_<label>.json")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    pulses = {k: args.pulses or v for k, v in DEFAULT_PULSES.items()}
    trees = {"change": src} if args.against is None else {"change": src, "against": args.against.resolve()}
    rounds = {name: [] for name in trees}
    for i in range(args.rounds):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for name in order:
            rounds[name].append(measure(trees[name], pulses))
    report = {
        "environment": environment(),
        "settings": {"rounds": args.rounds, "repeats": REPEATS, "pulses_per_point": pulses},
        "trees": {name: {**tree(path), "rounds": rounds[name]} for name, path in trees.items()},
    }
    if args.against is not None:
        report["paired"] = paired(rounds["change"], rounds["against"])
    label = args.label or (report["trees"]["change"]["commit"] or "local")[:7]
    path = args.out / f"BENCH_{label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    failed = [
        f"{name}: {cmd}" for name in rounds for r in rounds[name]
        for cmd, result in r["commands"].items() if result["exit_code"] != 0
    ]
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
