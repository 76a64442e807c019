"""End-to-end command-line checks via subprocess."""

import calendar
import csv
import dataclasses
import errno
import hashlib
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from qifsim import cli, conversion, montecarlo
from qifsim.scenario import (
    load_reference_scenario,
    load_scenario,
    scenario_digest,
    serialize_scenario,
)

DIGEST = "3210a7572db2"


def digest_at(pulses):
    """The digest of the reference scenario that ``--pulses`` sets to ``pulses`` per point."""
    return scenario_digest(dataclasses.replace(load_reference_scenario(), pulses_per_point=pulses))


def scenario_file(path, **values):
    """Write the reference scenario to ``path`` with each ``key = value`` line given set, text as is."""
    lines = serialize_scenario(load_reference_scenario()).splitlines(keepends=True)
    for key, value in values.items():
        index = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
        lines[index] = f"{key} = {value}\n"
    path.write_text("".join(lines))
    return path


@pytest.fixture
def run_cli(cli_env):
    def run(*args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "qifsim.cli", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=cli_env,
        )

    return run


def data_rows(path):
    lines = [
        line
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_budget_prints_table_and_logs(tmp_path, run_cli):
    proc = run_cli("budget", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "eta_QI" in proc.stdout
    assert "0.133 %" in proc.stdout
    csv_path = tmp_path / f"{DIGEST}-budget.csv"
    assert csv_path.exists()
    header, rows = data_rows(csv_path)
    assert header == ["stage", "transmission", "cumulative"]
    assert rows[0][0] == "pre/in_coupling"
    assert rows[-1][0] == "eta_QI"
    assert float(rows[-1][2]) == pytest.approx(0.0013291635371188786, rel=1e-12)
    log = (tmp_path / "run.log").read_text().splitlines()
    assert len(log) == 1
    assert "command=budget" in log[0]
    assert f"digest={DIGEST}" in log[0]
    assert "seed=20260816" in log[0]
    assert log[0].endswith("status=ok")


def test_qpm_solve_reports_bulk_period(tmp_path, run_cli):
    proc = run_cli("qpm-solve", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "15.3237 um" in proc.stdout
    header, rows = data_rows(tmp_path / f"{DIGEST}-qpm.csv")
    assert header == ["quantity", "value", "unit"]
    table = {name: value for name, value, _ in rows}
    assert float(table["output_wavelength"]) == pytest.approx(1.308693586698337)
    assert float(table["poling_period_bulk_matched"]) == pytest.approx(
        15.323661866883143
    )


def test_fringe_scan_reruns_are_byte_identical(tmp_path, run_cli):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        proc = run_cli("fringe-scan", "--pulses", "20000", "--out", str(out), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "V_raw = " in proc.stdout
    name = f"{digest_at(20_000)}-fringe.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_changes_output_name(tmp_path, run_cli):
    proc = run_cli("fringe-scan", "--pulses", "20000", "--seed", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    produced = list(tmp_path.glob("*-fringe.csv"))
    assert len(produced) == 1
    assert produced[0].name != f"{digest_at(20_000)}-fringe.csv"
    assert "seed=1" in (tmp_path / "run.log").read_text()


def test_pulses_override_changes_output_name(tmp_path, run_cli):
    # Both runs once wrote 521b5b16a1f4-fringe.csv, the second over the first.
    for pulses in ("20000", "40000"):
        proc = run_cli("fringe-scan", "--pulses", pulses, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    names = {path.name for path in tmp_path.glob("*-fringe.csv")}
    assert names == {f"{digest_at(20_000)}-fringe.csv", f"{digest_at(40_000)}-fringe.csv"}
    logged = re.findall(r"\tdigest=(\w+)\t", (tmp_path / "run.log").read_text())
    assert logged == [digest_at(20_000), digest_at(40_000)]


@pytest.mark.parametrize(
    "command, kind, key, grids",
    [
        ("fringe-scan", "fringe", "phase_grid_rad", ["0.0:6.283185307179586:12", "0.0:6.3:7"]),
        ("efficiency-curve", "efficiency", "power_grid_w", ["0.0:0.65:14", "0.0:2.0:5"]),
    ],
)
def test_grid_key_changes_output_name(tmp_path, command, kind, key, grids):
    # With the grid a flag beside the scenario, both runs once wrote one CSV
    # name and logged one digest, the second run's CSV over the first's.
    digests = []
    for index, grid in enumerate(grids):
        path = scenario_file(tmp_path / f"{index}.scenario", pulses_per_point=20_000, **{key: grid})
        assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 0
        digests.append(scenario_digest(load_scenario(path)))
    assert len(set(digests)) == 2
    for digest, grid in zip(digests, grids):
        _, rows = data_rows(tmp_path / f"{digest}-{kind}.csv")
        assert len(rows) == int(grid.rsplit(":", 1)[1])
    assert len(list(tmp_path.glob("*.csv"))) == 2
    assert re.findall(r"\tdigest=(\w+)\t", (tmp_path / "run.log").read_text()) == digests


@pytest.mark.parametrize(
    "command, kind, line",
    [
        ("fringe-scan", "fringe", "# phase_points = 7\n"),
        ("histogram", "histogram", "# sync_pulses = 140000\n"),
        ("validate", "validate", "# phase_points = 7\n"),
    ],
)
def test_scan_commands_sweep_the_phase_grid_key(tmp_path, command, kind, line):
    path = scenario_file(
        tmp_path / "seven.scenario", pulses_per_point=20_000, phase_grid_rad="0.0:6.3:7"
    )
    assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 0
    (written,) = tmp_path.glob(f"*-{kind}.csv")
    assert line in written.read_text()


def test_scan_metadata_names_the_scenario_it_ran(tmp_path, monkeypatch):
    # The scan once ran the file's scenario with a pulse count beside it,
    # so its metadata and the CSV named the 10^6-pulse scenario.
    runs = []
    scan = montecarlo.run_fringe_scan

    def recorded(*args, **kwargs):
        runs.append(scan(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(montecarlo, "run_fringe_scan", recorded)
    assert cli.main(["fringe-scan", "--pulses", "20000", "--out", str(tmp_path)]) == 0
    (run,) = runs
    assert run.metadata["scenario_digest"] == digest_at(20_000)
    (path,) = tmp_path.glob("*-fringe.csv")
    assert f"# scenario_digest = {digest_at(20_000)}\n" in path.read_text()


def test_seed_and_pulses_name_one_scenario(tmp_path):
    # Both flags land in the scenario, so an analytic command's CSV is named
    # for the scenario with both set, not for the file's.
    assert cli.main(["budget", "--seed", "1", "--pulses", "5000", "--out", str(tmp_path)]) == 0
    both = dataclasses.replace(load_reference_scenario(), master_seed=1, pulses_per_point=5_000)
    assert [path.name for path in tmp_path.glob("*.csv")] == [f"{scenario_digest(both)}-budget.csv"]
    assert run_log_fields(tmp_path / "run.log")["digest"] == scenario_digest(both)


@pytest.mark.parametrize("command", ["fringe-scan", "histogram"])
def test_endless_afterpulse_cascade_exits_2_without_outputs(tmp_path, capsys, monkeypatch, command):
    def no_draws(*args):
        raise AssertionError("drew for an afterpulse probability of 1")

    monkeypatch.setattr(montecarlo, "substream", no_draws)
    s = load_reference_scenario()
    detector = dataclasses.replace(s.detector, dead_time_us=0.02, afterpulse_probability=1.0)
    path = tmp_path / "endless.scenario"
    path.write_text(serialize_scenario(dataclasses.replace(s, detector=detector)))
    argv = [command, "--scenario", str(path), "--pulses", "2000", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    message = "afterpulse_probability = 1 spawns afterpulses without end"
    assert f"error: {message}" in capsys.readouterr().err
    fields = run_log_fields(tmp_path / "run.log")
    assert (fields["status"], fields["error"]) == ("error:ConfigError", message)
    assert list(tmp_path.glob("*.csv")) == []


def test_histogram_covers_full_sync_period(tmp_path, run_cli):
    proc = run_cli("histogram", "--pulses", "5000", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "sync pulses" in proc.stdout
    header, rows = data_rows(tmp_path / f"{digest_at(5_000)}-histogram.csv")
    assert header == ["bin_start_ns", "bin_end_ns", "counts"]
    assert len(rows) == 334  # 16.667 ns sync period over 50 ps bins
    assert float(rows[0][0]) == 0.0


def test_efficiency_curve_sweeps_the_power_grid_key(tmp_path, run_cli):
    path = scenario_file(tmp_path / "five.scenario", power_grid_w="0:0.65:5")
    proc = run_cli("efficiency-curve", "--scenario", str(path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "eta_QI at 0.650 W" in proc.stdout
    assert "0.1329 %" in proc.stdout
    digest = scenario_digest(load_scenario(path))
    header, rows = data_rows(tmp_path / f"{digest}-efficiency.csv")
    assert header == ["power_w", "eta_qi_analytic", "eta_qi_mc", "stat_error"]
    assert len(rows) == 5
    assert float(rows[0][1]) == 0.0
    assert float(rows[-1][1]) == pytest.approx(0.0013291635371188786, rel=1e-12)


def test_repeater_rates_sweep(tmp_path, run_cli):
    proc = run_cli("repeater-rates", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "illustrative" in proc.stdout
    assert "break-even length: 15.14 km" in proc.stdout
    header, rows = data_rows(tmp_path / f"{DIGEST}-repeater.csv")
    assert len(rows) == 50
    assert float(rows[0][0]) == 2.0
    assert float(rows[-1][0]) == 100.0
    ratios = [float(r[5]) for r in rows]
    assert ratios[0] < 1.0 < ratios[-1]  # break-even sits inside the grid
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_validate_command(tmp_path, run_cli):
    proc = run_cli("validate", "--pulses", "20000", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "chi2/dof = " in proc.stdout
    header, rows = data_rows(tmp_path / f"{digest_at(20_000)}-validate.csv")
    assert header == ["phase_rad", "observed", "expected", "z_score"]
    assert len(rows) == 12


def test_missing_scenario_exits_2_without_outputs(tmp_path, run_cli):
    proc = run_cli("budget", "--scenario", "nope.scenario", cwd=tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "not found" in proc.stderr
    assert list(tmp_path.glob("*.csv")) == []
    log = (tmp_path / "run.log").read_text()
    assert "status=error:ConfigError" in log
    assert "digest=-" in log


def refuse_read(self, *args, **kwargs):
    raise PermissionError(errno.EACCES, "Permission denied", str(self))


@pytest.mark.parametrize("unreadable", ["not-utf8", "permission"])
def test_unreadable_scenario_exits_2_with_one_log_line(tmp_path, capsys, monkeypatch, unreadable):
    # A file that is not UTF-8 once ended in a UnicodeDecodeError traceback,
    # exit 1 and no run.log line. Mode bits do not bind root, so the
    # permission case patches the read.
    scenario = tmp_path / "bad.scenario"
    scenario.write_bytes(b"\xff\xfe[source]\n")
    if unreadable == "permission":
        monkeypatch.setattr(pathlib.Path, "read_text", refuse_read)
    assert cli.main(["budget", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read scenario file {scenario}: ")
    assert run_log_fields(tmp_path / "run.log")["status"] == "error:ConfigError"
    assert list(tmp_path.glob("*.csv")) == []


def run_log_fields(path):
    """The tab-separated fields of the single line in ``path``, by name."""
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    stamp, *fields = lines[0].split("\t")
    return dict(field.split("=", 1) for field in fields)


def test_run_log_records_wall_time(tmp_path):
    assert cli.main(["budget", "--out", str(tmp_path)]) == 0
    fields = run_log_fields(tmp_path / "run.log")
    assert list(fields)[-2:] == ["wall_s", "status"]
    assert 0.0 <= float(fields["wall_s"]) < 60.0
    assert fields["status"] == "ok"


def test_run_log_stamp_is_utc_to_the_second(tmp_path):
    before = math.floor(time.time())
    assert cli.main(["budget", "--out", str(tmp_path)]) == 0
    after = math.ceil(time.time())
    stamp = (tmp_path / "run.log").read_text().split("\t", 1)[0]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    assert before <= calendar.timegm(time.strptime(stamp, "%Y-%m-%dT%H:%M:%S+00:00")) <= after


def test_run_log_records_escaped_error_message(tmp_path):
    missing = tmp_path / "tab\there\nand\\there.scenario"
    assert cli.main(["budget", "--scenario", str(missing), "--out", str(tmp_path)]) == 2
    fields = run_log_fields(tmp_path / "run.log")
    assert list(fields)[-3:] == ["wall_s", "status", "error"]
    assert fields["status"] == "error:ConfigError"
    assert fields["error"] == (
        f"scenario file not found: {tmp_path}/tab\\there\\nand\\\\there.scenario"
    )


# SHA-256 of each analytic CSV on the bundled reference. The solvers and the
# budget may get faster, but these bytes must not move; a change that moves
# them on purpose says so and updates the pin.
PINNED_ANALYTIC_CSVS = {
    "qpm-solve": ("qpm", "cd24be1d6a7561692770df67a3027b0370ce8491c368b546aa9654beb5fa7b8d"),
    "budget": ("budget", "54aba1d1eea1d2130e3d2502a8736112617a74b1611cf4c371178fa2b2be20e3"),
    "repeater-rates": (
        "repeater", "79af724937ff874cc6d7612d88e9d6d3293558a356b7e721fb81366601659125"
    ),
    "efficiency-curve": (
        "efficiency", "27d45a3b482546646632205e90a5f088059d06d646d155c7b2e5c2992c3c4a78"
    ),
}


# SHA-256 of the Monte Carlo CSVs on the bundled reference at --pulses 20000.
# validate's observed column holds the same fringe counts, so it needs no pin.
PINNED_MC_CSVS = {
    "fringe-scan": ("fringe", "572e491c23867a388d2268c3e5ccb9f10ac66ccc5283fa246b7fb5da7f22c04a"),
    "histogram": ("histogram", "6243694a3223f2b13ffe48fa7b1f645db6e794704234ec56d7d1793bdf76344e"),
}


@pytest.mark.parametrize("command", PINNED_ANALYTIC_CSVS)
def test_analytic_csv_bytes_are_pinned(tmp_path, command):
    kind, digest = PINNED_ANALYTIC_CSVS[command]
    assert cli.main([command, "--out", str(tmp_path)]) == 0
    data = (tmp_path / f"{DIGEST}-{kind}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("command", PINNED_MC_CSVS)
def test_monte_carlo_csv_bytes_are_pinned(tmp_path, command):
    kind, digest = PINNED_MC_CSVS[command]
    assert cli.main([command, "--pulses", "20000", "--out", str(tmp_path)]) == 0
    data = (tmp_path / f"{digest_at(20_000)}-{kind}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_command_prints_the_one_csv_it_wrote_last(tmp_path, capsys, command):
    assert cli.main([command, "--pulses", "20000", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    written = list(tmp_path.glob("*.csv"))
    assert len(written) == 1
    assert lines[-1] == f"wrote {written[0]}"
    assert [line for line in lines if line.startswith("wrote ")] == lines[-1:]


def test_run_log_that_cannot_be_appended_exits_2(tmp_path, capsys):
    # The command succeeds and writes its CSV; the log line cannot follow.
    (tmp_path / "run.log").mkdir()
    assert cli.main(["budget", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot append to run log in {tmp_path}")
    assert captured.out.splitlines()[-1] == f"wrote {tmp_path / f'{DIGEST}-budget.csv'}"
    assert (tmp_path / f"{DIGEST}-budget.csv").exists()


# --- exit paths: stdout, the output directory and the CSV write ---

# Enough pulses for every command to succeed on the reference, the fit included.
PULSES = ["--pulses", "20000"]


@pytest.fixture(scope="module")
def clean_csvs(tmp_path_factory):
    """Each command's CSV bytes from a run that nothing disturbs."""
    csvs = {}
    for command in cli.COMMANDS:
        out = tmp_path_factory.mktemp(command)
        assert cli.main([command, "--out", str(out), *PULSES]) == 0
        (path,) = out.glob("*.csv")
        csvs[command] = path.read_bytes()
    return csvs


def assert_failed_whole(out, clean_csv, err, message):
    """Exit 2's aftermath: ``message`` on stderr and in one run.log line, no
    traceback, no part file, and the command's CSV either absent or complete."""
    assert message in err
    assert "Traceback" not in err
    fields = run_log_fields(out / "run.log")
    assert fields["status"] == "error:ConfigError"
    assert message in fields["error"]
    assert list(out.glob("*.part")) == []
    assert [path.read_bytes() for path in out.glob("*.csv")] in ([], [clean_csv])


class FailingStdout(io.TextIOBase):
    """A stdout without a file descriptor whose every write raises ``error``."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize(
    "error",
    [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "No space left on device")],
    ids=["broken-pipe", "disk-full"],
)
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_stdout_that_cannot_be_written_exits_2(
    tmp_path, capsys, monkeypatch, clean_csvs, command, error
):
    monkeypatch.setattr(sys, "stdout", FailingStdout(error))
    assert cli.main([command, "--out", str(tmp_path), *PULSES]) == 2
    err = capsys.readouterr().err
    assert_failed_whole(
        tmp_path, clean_csvs[command], err, f"cannot write to standard output: {error}"
    )


# (command, stdout, unbuffered): every command under a buffered stdout,
# whose first failing write is the flush after "wrote", and the two
# commands once seen to fail at their first print, as they were run.
CHILD_CASES = [
    *(
        (command, sink, False)
        for command in cli.COMMANDS
        for sink in ("closed-pipe", "full-device")
    ),
    ("budget", "full-device", True),
    ("repeater-rates", "closed-pipe", True),
]


def closed_pipe():
    """The write end of a pipe without a reader: `qifsim ... | head -c 1` once head has exited."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def run_child(args, stdout, cwd, env, unbuffered=False):
    """``python -m qifsim.cli args`` writing to the descriptor ``stdout``, which is then closed."""
    env = {key: value for key, value in env.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        return subprocess.run(
            [sys.executable, "-m", "qifsim.cli", *args],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            cwd=cwd,
            env=env,
        )
    finally:
        os.close(stdout)


@pytest.mark.parametrize("command, sink, unbuffered", CHILD_CASES)
def test_stdout_failure_exits_2_from_a_child_process(
    tmp_path, cli_env, clean_csvs, command, sink, unbuffered
):
    if sink == "closed-pipe":
        stdout = closed_pipe()
    elif os.path.exists("/dev/full"):
        stdout = os.open("/dev/full", os.O_WRONLY)
    else:
        pytest.skip("this platform has no /dev/full")
    args = [command, "--out", str(tmp_path), *PULSES]
    proc = run_child(args, stdout, tmp_path, cli_env, unbuffered)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: cannot write to standard output: [Errno")
    assert_failed_whole(
        tmp_path, clean_csvs[command], proc.stderr, "cannot write to standard output"
    )


def test_failed_command_keeps_its_exit_code_when_stdout_is_gone(tmp_path, cli_env):
    # budget prints its table, then cannot write its CSV; the table is
    # still buffered for a pipe whose reader is gone.
    (tmp_path / f"{DIGEST}-budget.csv.part").mkdir()
    proc = run_child(["budget", "--out", str(tmp_path)], closed_pipe(), tmp_path, cli_env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: cannot write output file")
    assert "Exception ignored" not in proc.stderr
    assert run_log_fields(tmp_path / "run.log")["status"] == "error:ConfigError"
    assert list(tmp_path.glob("*.csv")) == []


def test_help_into_a_closed_pipe_exits_2(tmp_path, cli_env):
    # With stdout buffered, the help once stayed in the buffer until the
    # interpreter's own flush at exit, which printed "Exception ignored"
    # and exited 120. No command ran, so nothing is logged.
    proc = run_child(["--help"], closed_pipe(), tmp_path, cli_env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: cannot write to standard output: [Errno")
    assert proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_read_only_out_dir_exits_2_without_a_csv(
    tmp_path, capsys, monkeypatch, clean_csvs, command
):
    # A read-only directory refuses a new file, and appends to the log
    # already in it. Its mode bits do not bind root, so the CLI's own open
    # refuses here, as the directory would.
    (tmp_path / "run.log").touch()

    def read_only(file, mode="r", *args, **kwargs):
        if "w" in mode:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", read_only, raising=False)
    assert cli.main([command, "--out", str(tmp_path), *PULSES]) == 2
    err = capsys.readouterr().err
    assert_failed_whole(tmp_path, clean_csvs[command], err, "cannot write output file")
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_csv_write_that_fails_partway_leaves_no_csv(
    tmp_path, capsys, monkeypatch, clean_csvs, command
):
    real_writer = csv.writer

    def full_after_one_row(handle, *args, **kwargs):
        inner = real_writer(handle, *args, **kwargs)

        def writerows(rows):
            inner.writerow(next(iter(rows)))
            handle.flush()  # the part file now holds a truncated table
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        return SimpleNamespace(writerow=inner.writerow, writerows=writerows)

    monkeypatch.setattr(csv, "writer", full_after_one_row)
    assert cli.main([command, "--out", str(tmp_path), *PULSES]) == 2
    err = capsys.readouterr().err
    assert_failed_whole(tmp_path, clean_csvs[command], err, "cannot write output file")
    assert list(tmp_path.glob("*.csv")) == []


def test_out_dir_under_a_regular_file_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert cli.main(["budget", "--out", str(out)]) == 2
    assert f"config error: cannot create output directory {out}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("budget", "--seed", "-1", "--seed: master_seed must be an integer in [0, 2**64), got -1"),
        (
            "budget",
            "--seed",
            str(2**64),
            f"--seed: master_seed must be an integer in [0, 2**64), got {2**64}",
        ),
        ("fringe-scan", "--pulses", "-1", "--pulses: pulses_per_point must be an integer >= 0, got -1"),
    ],
)
def test_flag_outside_its_domain_exits_2_without_outputs(
    tmp_path, capsys, command, flag, value, message
):
    assert cli.main([command, "--out", str(tmp_path), f"{flag}={value}"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert run_log_fields(tmp_path / "run.log")["status"] == "error:ConfigError"
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize(
    "command, code, message",
    [
        ("fringe-scan", 3, "error: fitted offset is not positive"),
        ("histogram", 0, "0 detections over 0 sync pulses"),
        ("validate", 0, "comparison empty: zero pulses per point"),
    ],
)
def test_zero_pulses_per_point(tmp_path, capsys, command, code, message):
    # Each command writes its CSV; the fringe fit then has no signal.
    assert cli.main([command, "--pulses", "0", "--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert len(list(tmp_path.glob("*.csv"))) == 1


def test_validate_prints_each_flagged_phase(tmp_path, capsys, monkeypatch):
    honest = montecarlo.expected_fringe

    def doubled(s, phases):
        exp = honest(s, phases)
        return dataclasses.replace(exp, counts=2.0 * exp.counts)

    monkeypatch.setattr(montecarlo, "expected_fringe", doubled)
    assert cli.main(["validate", "--pulses", "200000", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "12 point(s) beyond 4 sigma" in out
    assert "\n  flagged: beta = 0 rad\n" in out


def test_repeater_rates_without_a_break_even_length(tmp_path, capsys):
    text = serialize_scenario(load_reference_scenario())
    path = tmp_path / "lossy-telecom.scenario"
    # Telecom fibre as lossy as the native band's: conversion never pays.
    path.write_text(
        text.replace(
            "attenuation_telecom_db_per_km = 0.2\n", "attenuation_telecom_db_per_km = 4.0\n"
        )
    )
    assert cli.main(["repeater-rates", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    assert "\nno break-even length: " in capsys.readouterr().out


@pytest.mark.parametrize(
    "statement, csv_kind",
    [
        ("assert qifsim.cli.main(['budget', '--out', out]) == 0", "budget"),
        ("assert qifsim.cli.main(['qpm-solve', '--out', out]) == 0", "qpm"),
        ("assert qifsim.cli.main(['repeater-rates', '--out', out]) == 0", "repeater"),
        ("assert qifsim.cli.main(['efficiency-curve', '--out', out]) == 0", "efficiency"),
        ("qifsim.scenario.load_reference_scenario()", None),
    ],
    ids=["budget", "qpm-solve", "repeater-rates", "efficiency-curve", "load-scenario"],
)
def test_analytic_paths_import_no_numpy_or_scipy(tmp_path, cli_env, statement, csv_kind):
    script = (
        "import sys, qifsim\n"
        "out = sys.argv[1]\n"
        f"{statement}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    if csv_kind is not None:
        assert (tmp_path / f"{DIGEST}-{csv_kind}.csv").exists()


def test_cli_import_pulls_in_no_module_for_a_single_call(tmp_path, cli_env):
    # -S leaves site-packages off the path, so importing numpy would fail the run too.
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", "import qifsim.cli"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "qifsim.cli" in imported
    for banned in ("importlib.resources", "tempfile", "datetime", "cmath", "numpy"):
        assert not {m for m in imported if m == banned or m.startswith(banned + ".")}, banned


def test_module_run_warns_nothing(tmp_path, cli_env):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qifsim.cli", "budget"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_bad_phase_grid_exits_2(tmp_path, run_cli):
    path = scenario_file(tmp_path / "bad.scenario", phase_grid_rad="0:6.28")
    proc = run_cli("fringe-scan", "--scenario", str(path), cwd=tmp_path)
    assert proc.returncode == 2
    assert "[acquisition] phase_grid_rad = '0:6.28'; expected start:stop:n" in proc.stderr


# Each grid key and the commands that sweep it.
GRID_COMMANDS = [
    ("repeater-rates", "repeater", "length_grid_km"),
    ("efficiency-curve", "pump", "power_grid_w"),
    ("fringe-scan", "acquisition", "phase_grid_rad"),
    ("histogram", "acquisition", "phase_grid_rad"),
    ("validate", "acquisition", "phase_grid_rad"),
]


def no_draws(*args):
    raise AssertionError("drew for a grid the scenario refuses")


def run_refused_grid(tmp_path, capsys, monkeypatch, command, key, grid):
    """Run ``command`` on the reference with ``key = grid``, drawing nothing; its stderr."""
    monkeypatch.setattr(montecarlo, "substream", no_draws)
    monkeypatch.setattr(conversion, "_stream", no_draws)
    path = scenario_file(tmp_path / "bad.scenario", **{key: grid})
    assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert run_log_fields(tmp_path / "run.log")["status"] == "error:ConfigError"
    assert list(tmp_path.glob("*.csv")) == []
    return capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("template", ["{}:1:3", "0:{}:3"])
@pytest.mark.parametrize("command, section, key", GRID_COMMANDS)
def test_non_finite_grid_end_exits_2(
    tmp_path, capsys, monkeypatch, command, section, key, template, bad
):
    err = run_refused_grid(tmp_path, capsys, monkeypatch, command, key, template.format(bad))
    assert f"[{section}] {key} must be start:stop:n with each end " in err
    assert "finite" in err


# The grids the rule refuses beyond a non-finite end: a span that
# overflows, descending ends, a negative power or length, and too few points.
RULE_REFUSALS = [
    *(
        (command, "acquisition", "phase_grid_rad", grid)
        for command in ("fringe-scan", "histogram", "validate")
        for grid in ("-1e308:1e308:3", "6.3:0.0:12", "0:1:1", "0:1:0")
    ),
    ("efficiency-curve", "pump", "power_grid_w", "-1:0:3"),
    ("efficiency-curve", "pump", "power_grid_w", "0.65:0:14"),
    ("efficiency-curve", "pump", "power_grid_w", "0:1:0"),
    ("repeater-rates", "repeater", "length_grid_km", "-1:100:3"),
    ("repeater-rates", "repeater", "length_grid_km", "100:2:50"),
    ("repeater-rates", "repeater", "length_grid_km", "2:5:0"),
]


@pytest.mark.parametrize("command, section, key, grid", RULE_REFUSALS)
def test_grid_the_rule_refuses_exits_2_before_any_draw(
    tmp_path, capsys, monkeypatch, command, section, key, grid
):
    err = run_refused_grid(tmp_path, capsys, monkeypatch, command, key, grid)
    ends, fewest = ("finite", 2) if key == "phase_grid_rad" else (">= 0 and finite", 1)
    start, stop, n = grid.split(":")
    assert (
        f"[{section}] {key} must be start:stop:n with each end {ends}, start <= stop, "
        f"a finite span and n an integer >= {fewest}, got {float(start)}:{float(stop)}:{n}"
    ) in err


# Each grid whose values key the points' streams, a grid of it that repeats
# a value, and a command that sweeps it.
REPEATED_GRIDS = [
    *(
        ("acquisition", "phase_grid_rad", "1:1:4", command)
        for command in ("fringe-scan", "histogram", "validate")
    ),
    ("pump", "power_grid_w", "0.5:0.5:3", "efficiency-curve"),
]


@pytest.mark.parametrize("section, key, grid, command", REPEATED_GRIDS)
def test_repeated_grid_exits_2_naming_its_key(
    tmp_path, capsys, monkeypatch, section, key, grid, command
):
    # Two points of one value would draw from one stream; every command
    # that sweeps the grid refuses it, before any draw, by its key.
    err = run_refused_grid(tmp_path, capsys, monkeypatch, command, key, grid)
    assert f"[{section}] {key}: " in err
    assert "grid repeats the value" in err


@pytest.mark.parametrize(
    "command, flag", [("fringe-scan", "--phases"), ("efficiency-curve", "--powers")]
)
def test_grid_flags_are_unrecognised(tmp_path, capsys, command, flag):
    # Each grid is a scenario key; a flag beside the scenario once set it.
    with pytest.raises(SystemExit) as exited:
        cli.main([command, flag, "0:1:3", "--out", str(tmp_path)])
    assert exited.value.code == 2
    assert f"unrecognized arguments: {flag} 0:1:3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_repeated_phases_exit_2_without_outputs(tmp_path, run_cli):
    path = scenario_file(tmp_path / "repeats.scenario", phase_grid_rad="1:1:4")
    proc = run_cli("fringe-scan", "--scenario", str(path), cwd=tmp_path)
    assert proc.returncode == 2
    assert "[acquisition] phase_grid_rad: phase grid repeats the value 1.0" in proc.stderr
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize(
    "grid, reason",
    [
        ("-1:7:2", "need at least 3 distinct phases"),
        ("0:3:5", "covers less than one fringe period"),
    ],
)
def test_unfittable_phase_grid_exits_2_before_scanning(
    tmp_path, capsys, monkeypatch, grid, reason
):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned a grid the fit cannot use")

    monkeypatch.setattr(montecarlo, "run_fringe_scan", no_scan)
    path = scenario_file(tmp_path / "unfittable.scenario", phase_grid_rad=grid)
    assert cli.main(["fringe-scan", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "[acquisition] phase_grid_rad: " in err and reason in err
    assert list(tmp_path.glob("*.csv")) == []
    log = (tmp_path / "run.log").read_text()
    assert "status=error:ConfigError" in log and reason in log


@pytest.mark.parametrize("command", ["fringe-scan", "histogram", "validate"])
def test_one_point_phase_grid_exits_2_before_scanning(tmp_path, capsys, monkeypatch, command):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned a one-point grid")

    monkeypatch.setattr(montecarlo, "run_fringe_scan", no_scan)
    monkeypatch.setattr(montecarlo, "validate_against_oracle", no_scan)
    path = scenario_file(tmp_path / "one-point.scenario", phase_grid_rad="0:1:1")
    assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "n an integer >= 2, got 0.0:1.0:1" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_validate_refuses_a_dead_time_with_exit_3_before_scanning(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned a scenario the oracle does not cover")

    monkeypatch.setattr(montecarlo, "run_fringe_scan", no_scan)
    s = load_reference_scenario()
    path = tmp_path / "dead-time.scenario"
    dead_time = dataclasses.replace(s, detector=dataclasses.replace(s.detector, dead_time_us=0.02))
    path.write_text(serialize_scenario(dead_time))
    assert cli.main(["validate", "--scenario", str(path), "--out", str(tmp_path)]) == 3
    message = "expected_fringe only covers a detector without dead time, got 0.02 us"
    assert f"error: {message}" in capsys.readouterr().err
    fields = run_log_fields(tmp_path / "run.log")
    assert (fields["status"], fields["error"]) == ("error:DomainError", message)
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize(
    "key, bad",
    [("attenuation_native_db_per_km", "-1.0"), ("system_efficiency", "1.5")],
)
def test_bad_repeater_setting_exits_2_from_every_command(tmp_path, capsys, key, bad):
    path = scenario_file(tmp_path / "bad.scenario", **{key: bad})
    for command in cli.COMMANDS:
        assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2, command
        assert f"[repeater] {key} must be" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("command", ["fringe-scan", "histogram", "validate"])
def test_zero_repetition_rate_exits_2_at_parse(tmp_path, capsys, command):
    text = serialize_scenario(load_reference_scenario())
    path = tmp_path / "zero-rate.scenario"
    path.write_text(text.replace("repetition_rate_mhz = 60.0\n", "repetition_rate_mhz = 0.0\n"))
    assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "[source] repetition_rate_mhz must be > 0 and finite, got 0.0" in capsys.readouterr().err
    fields = run_log_fields(tmp_path / "run.log")
    assert fields["status"] == "error:ConfigError"
    assert fields["error"].endswith("[source] repetition_rate_mhz must be > 0 and finite, got 0.0")
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize(
    "line, bad, named",
    [
        ("mean_photon_number = 1.0", "mean_photon_number = nan", "[source] mean_photon_number"),
        ("mean_photon_number = 1.0", "mean_photon_number = inf", "[source] mean_photon_number"),
        ("repetition_rate_mhz = 60.0", "repetition_rate_mhz = inf", "[source] repetition_rate_mhz"),
        ("sca_width_ns = 0.5", "sca_width_ns = nan", "[acquisition] sca_width_ns"),
        ("propagation = -0.3 dB", "propagation = nan dB", "[chain_post] propagation"),
        ("power_w = 0.65", "power_w = nan", "[pump] power_w"),
    ],
)
def test_non_finite_value_exits_2_at_parse(tmp_path, capsys, line, bad, named):
    # Each of these once crashed, failed late, or ran and wrote a CSV.
    text = serialize_scenario(load_reference_scenario())
    path = tmp_path / "bad.scenario"
    path.write_text(text.replace(f"{line}\n", f"{bad}\n"))
    assert cli.main(["fringe-scan", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert f"{named} must be" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_unknown_command_rejected(tmp_path, run_cli):
    proc = run_cli("melt-crystal", cwd=tmp_path)
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_explicit_scenario_path(tmp_path, run_cli):
    copy = tmp_path / "local.scenario"
    copy.write_text(serialize_scenario(load_reference_scenario()))
    proc = run_cli("budget", "--scenario", str(copy), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / f"{DIGEST}-budget.csv").exists()


def test_unknown_protocol_exits_2_without_outputs(tmp_path, run_cli):
    text = serialize_scenario(load_reference_scenario())
    bad = tmp_path / "bad.scenario"
    bad.write_text(text.replace("protocol = single-photon", "protocol = three-photon"))
    proc = run_cli("budget", "--scenario", str(bad), cwd=tmp_path)
    assert proc.returncode == 2
    assert "[repeater] protocol must be" in proc.stderr
    assert list(tmp_path.glob("*.csv")) == []


def test_negative_pulses_exit_2_without_outputs(tmp_path, run_cli):
    proc = run_cli("validate", "--pulses", "-1", cwd=tmp_path)
    assert proc.returncode == 2
    assert "--pulses: pulses_per_point must be an integer >= 0, got -1" in proc.stderr
    assert list(tmp_path.glob("*.csv")) == []
