"""qifsim benchmark: CLI latency, in-process throughput and traced per-module timings.

Usage, from the root of a source checkout:

    python3 qifbench/run.py --workload reference-fringe --seed 1 --seconds 35 --trace 0
    python3 qifbench/run.py --smoke

The load is a closed loop with one client: one CLI process or one
in-process call at a time, each waited for. The workload seed reaches
qifsim only as ``--seed`` and as the ``master_seed`` of a generated
scenario file. CLI commands run as fresh ``python -m qifsim.cli``
processes with the checkout's ``src`` on ``PYTHONPATH``; in-process calls
import the same ``src``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
wraps the public functions of every qifsim module and reports the
per-layer metrics instead. Outputs are checked in both modes. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Scratch files and traces go
to ``.qifbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".qifbench"
CHILD_TIMEOUT_S = 120.0
IMPORTTIME_SAMPLES = 3
# Length of one API step on the analytic workload, whose passes take about a millisecond.
API_SLICE_S = 1.0

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_trace  # noqa: E402
from bench_stats import median, trimmed_mean, valid_name  # noqa: E402


@dataclass
class ChildResult:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], cwd: Path, env: dict) -> ChildResult:
    """Run one child process to completion; wall time and peak RSS come from wait4."""
    with open(cwd / "child.out", "w+") as out, open(cwd / "child.err", "w+") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read(), err.read()
        )


@dataclass
class Tally:
    """Operations attempted and failed; an operation is one child, call or check."""

    attempted: int = 0
    failed: int = 0

    @contextlib.contextmanager
    def operation(self, label: str):
        self.attempted += 1
        try:
            yield
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            print(f"FAILED {label}: {traceback.format_exc(limit=3)}", file=sys.stderr)


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def environment() -> dict:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        elif not ref.startswith("ref: "):
            commit = ref
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def steps(cycle: list, seconds: float, rounds: int | None):
    """Yield the steps of ``cycle`` over and over for about ``seconds``.

    Every step runs at least once. After that the loop ends as soon as the
    next step, taking as long as it did last time, would carry the run past
    ``seconds``. With ``rounds`` the cycle runs exactly that many times.
    """
    last: dict = {}
    started = time.perf_counter()
    for i in itertools.count():
        step = cycle[i % len(cycle)]
        if rounds is not None:
            if i >= rounds * len(cycle):
                return
        elif i >= len(cycle) and time.perf_counter() - started + last[step] > seconds:
            return
        began = time.perf_counter()
        yield step
        last[step] = time.perf_counter() - began


class Bench:
    """One run of one workload on one seed."""

    def __init__(self, workload, seed: int, work_dir: Path, smoke: bool):
        import bench_workloads as bw  # imports qifsim, so only once src is on sys.path

        self.bw = bw
        self.w = bw.WORKLOADS[workload]
        self.work_dir = work_dir
        self.env = child_env()
        self.tally = Tally()
        scenario_path = work_dir / f"{workload}.scenario"
        s = bw.build_scenario(self.w, seed, smoke=smoke)
        bw.write_scenario(s, scenario_path)
        self.run = bw.WorkloadRun(self.w, s, scenario_path, work_dir / "out")

    def child(self, label: str, argv: list[str], check=None) -> ChildResult:
        result = run_child([sys.executable, *argv], self.work_dir, self.env)
        with self.tally.operation(label):
            if result.code != 0:
                raise self.bw.CheckFailed(f"exit {result.code}: {result.stderr[-2000:]}")
            if check is not None:
                check(result)
        return result

    def setup_probe(self) -> float:
        code = "import sys, qifsim; qifsim.scenario.load_scenario(sys.argv[1])"
        return self.child("setup", ["-c", code, str(self.run.scenario_path)]).wall_s

    def cli(self, command: str) -> ChildResult:
        self.run.csv_path(command).unlink(missing_ok=True)
        return self.child(
            command,
            ["-m", "qifsim.cli", *self.run.cli_args(command)],
            lambda r: self.run.check_command(command, r.stdout),
        )

    def api_once(self) -> float:
        """Wall time of one warm API pass; its result is checked after the clock stops."""
        started = time.perf_counter()
        result = self.run.api_call()
        elapsed = time.perf_counter() - started
        with self.tally.operation("api"):
            self.run.check_api(result)
        return elapsed

    def api_step(self) -> list[float]:
        """The wall times of the passes in one API step.

        A step is one scan on the Monte Carlo workloads. An analytic pass
        takes about a millisecond, so there a step makes passes back to back
        for ``API_SLICE_S`` and times each one.
        """
        started = time.perf_counter()
        times = [self.api_once()]
        while not self.w.monte_carlo and time.perf_counter() - started < API_SLICE_S:
            times.append(self.api_once())
        return times

    def first_api(self) -> None:
        """Warm-up call; its result is the reference the later outputs are checked against."""
        with self.tally.operation("api"):
            self.run.check_api(self.run.api_call())

    def import_times_ms(self) -> tuple[float, float]:
        """Cumulative ``-X importtime`` of ``qifsim`` and ``qifsim.qpm``, median of a few."""
        samples = {"qifsim": [], "qifsim.qpm": []}
        for _ in range(IMPORTTIME_SAMPLES):
            result = self.child("importtime", ["-X", "importtime", "-c", "import qifsim"])
            for line in result.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() in samples:
                    samples[parts[2].strip()].append(int(parts[1]) / 1e3)
        return median(samples["qifsim"]), median(samples["qifsim.qpm"])

    def measure(self, seconds: float, rounds: int | None) -> dict[str, float]:
        """End-to-end metrics, tracing off."""
        self.setup_probe()  # compiles bytecode; not a sample
        self.first_api()
        setup: list[float] = []
        walls: dict[str, list[float]] = {command: [] for command in self.w.commands}
        rss: dict[str, list[float]] = {command: [] for command in self.w.commands}
        api: list[float] = []
        # Set-up probes, commands and API steps take turns, so all three spread
        # over the whole run and see the same mix of host speeds.
        cycle = ["setup"] + [step for command in self.w.commands for step in (command, "api")]
        for step in steps(cycle, seconds, rounds):
            if step == "setup":
                setup.append(self.setup_probe())
            elif step == "api":
                api.extend(self.api_step())
            else:
                result = self.cli(step)
                walls[step].append(result.wall_s)
                rss[step].append(result.maxrss_mb)
        # Every command weighs the same, wherever in the cycle the run stopped.
        cmd_s = statistics.fmean(trimmed_mean(w) for w in walls.values())
        api_s = trimmed_mean(api)
        for command, w in walls.items():
            print(f"  {command}: " + " ".join(f"{x:.4f} s" for x in w)
                  + ", peak RSS " + " ".join(f"{x:.1f}" for x in rss[command]) + " MB")
        print(f"  cli: {cmd_s:.4f} s, the mean over commands of each one's trimmed mean")
        print(f"  api: trimmed mean {api_s:.6g} s, median {median(api):.6g} s over {len(api)} passes"
              + ("" if len(api) > 20 else ": " + " ".join(f"{x:.6g}" for x in api)))
        print(f"  setup: median {median(setup):.4f} s of " + " ".join(f"{x:.4f}" for x in setup))
        if self.w.monte_carlo:
            print(f"  pulses_per_s = {self.run.pulses / api_s:.6g} 1/s")
        return {
            "setup_s": median(setup),
            "cmd_wall_s": cmd_s,
            # The heaviest command's typical peak: one child's stray high
            # reading does not set it.
            "peak_rss_mb": max(median(v) for v in rss.values()),
            "api_wall_s": api_s,
        }

    def measure_traced(self, seconds: float, rounds: int | None) -> dict[str, float]:
        """Per-layer metrics from spans around every public qifsim function."""
        import qifsim

        import_ms, qpm_import_ms = self.import_times_ms()
        self.first_api()
        untraced_s = trimmed_mean(self.api_step())
        tracemalloc.start()
        self.run.api_call()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracer = bench_trace.Tracer()
        dead_ns = self.run.s.detector.dead_time_us * 1e3

        def on_detection(args, detections):
            tracer.counters["detection.arrivals"] += len(args[0])
            tracer.counters["detection.detections"] += detections.size
            gaps = detections[1:] - detections[:-1]
            if dead_ns > 0 and gaps.size and gaps.min() < dead_ns - 1e-6:
                raise self.bw.CheckFailed(
                    f"two detections {gaps.min():.6g} ns apart, dead time {dead_ns} ns"
                )

        def on_photons(args, photons):
            tracer.counters["montecarlo.photons"] += int(photons.sum())

        restore = bench_trace.install(
            tracer,
            qifsim,
            hooks={
                "detection.simulate_detection": on_detection,
                "montecarlo.sample_photon_numbers": on_photons,
            },
        )
        passes: list[dict[str, float]] = []
        traced_api: list[float] = []
        try:
            for _ in steps(["pass"], seconds, rounds):
                tracer.reset()
                for command in self.w.commands:
                    self.traced_cli(command, qifsim.cli.main, tracer)
                traced_api.append(self.api_once())
                passes.append(bench_trace.layer_metrics(tracer))
        finally:
            restore()
        tracer.write(self.work_dir.parent / f"spans-{self.w.name}-{self.run.s.master_seed}.jsonl")

        metrics = {name: median(p[name] for p in passes) for name in passes[0]}
        metrics["cli.import_ms"] = import_ms
        metrics["qpm.import_ms"] = qpm_import_ms
        metrics["montecarlo.peak_alloc_mb"] = peak / 2**20
        metrics["trace.overhead_ratio"] = median(traced_api) / untraced_s
        if self.w.monte_carlo:
            last = passes[-1]
            print(
                f"  last pass: montecarlo.run_ms {last['montecarlo.run_ms']:.3f}"
                f" = self {last['montecarlo.self_ms']:.3f}"
                f" + traced children {bench_trace.run_children_ms(tracer):.3f}"
            )
            print(
                f"  pulses_per_s traced {self.run.pulses / median(traced_api):.6g}"
                f" vs untraced {self.run.pulses / untraced_s:.6g} 1/s"
            )
        print(f"  {len(passes)} traced passes")
        return metrics

    def traced_cli(self, command: str, main, tracer) -> None:
        self.run.csv_path(command).unlink(missing_ok=True)
        stdout = io.StringIO()
        with self.tally.operation(command):
            with contextlib.redirect_stdout(stdout):
                code = main(self.run.cli_args(command))
            if code != 0:
                raise self.bw.CheckFailed(f"{command} exited {code}")
            path = self.run.check_command(command, stdout.getvalue())
            tracer.counters["cli.csv_bytes"] += path.stat().st_size


def result_line(spec_metrics: list[dict], values: dict[str, float], tally: Tally) -> dict:
    units = {m["name"]: m["unit"] for m in spec_metrics}
    if set(units) != set(values):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}"
        )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT))
    try:
        bench = Bench(workload, seed, work_dir, smoke)
        rounds = 1 if smoke else None
        print(f"{workload} seed {seed} trace {int(trace)}: {json.dumps(environment())}")
        if trace:
            values = bench.measure_traced(seconds, rounds)
            line = result_line(spec["per_layer"], values, bench.tally)
        else:
            values = bench.measure(seconds, rounds)
            line = result_line(spec["end_to_end"], values, bench.tally)
        for name, metric in line["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        share = bench.tally.failed / bench.tally.attempted
        print(f"  failed_share = {share:.6g} ratio ({bench.tally.attempted} operations)")
        return line
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run every workload once, untraced and traced, at reduced pulses",
    )
    args = parser.parse_args(argv)

    if not (SRC / "qifsim" / "__init__.py").is_file():
        print(f"qifsim sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if not all(valid_name(n) for n in names):
        print("BENCHMARK.json has an invalid metric name", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a u64")
    sys.path.insert(0, str(SRC))
    # Terminate like an exception, so children are killed and scratch files removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.smoke:
        ok = True
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (False, True):
                line = run_workload(spec, workload, args.seed, 0.0, trace, smoke=True)
                ok = ok and line["correct"]
                print(json.dumps(line))
        return 0 if ok else 1

    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
    line = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
