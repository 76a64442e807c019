"""End-to-end command-line checks via subprocess."""

import hashlib
import subprocess
import sys

import pytest

from qifsim import cli, montecarlo
from qifsim.scenario import load_reference_scenario, serialize_scenario

DIGEST = "521b5b16a1f4"


@pytest.fixture
def run_cli(cli_env):
    def run(*args, cwd, env_extra=None):
        return subprocess.run(
            [sys.executable, "-m", "qifsim.cli", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={**cli_env, **(env_extra or {})},
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
    name = f"{DIGEST}-fringe.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_changes_output_name(tmp_path, run_cli):
    proc = run_cli("fringe-scan", "--pulses", "20000", "--seed", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    produced = list(tmp_path.glob("*-fringe.csv"))
    assert len(produced) == 1
    assert produced[0].name != f"{DIGEST}-fringe.csv"
    assert "seed=1" in (tmp_path / "run.log").read_text()


def test_histogram_covers_full_sync_period(tmp_path, run_cli):
    proc = run_cli("histogram", "--pulses", "5000", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "sync pulses" in proc.stdout
    header, rows = data_rows(tmp_path / f"{DIGEST}-histogram.csv")
    assert header == ["bin_start_ns", "bin_end_ns", "counts"]
    assert len(rows) == 334  # 16.667 ns sync period over 50 ps bins
    assert float(rows[0][0]) == 0.0


def test_efficiency_curve_grid_flag(tmp_path, run_cli):
    proc = run_cli("efficiency-curve", "--powers", "0:0.65:5", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "eta_QI at 0.650 W" in proc.stdout
    assert "0.1329 %" in proc.stdout
    header, rows = data_rows(tmp_path / f"{DIGEST}-efficiency.csv")
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
    header, rows = data_rows(tmp_path / f"{DIGEST}-validate.csv")
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
    "qpm-solve": ("qpm", "2f4b88086dad6af34f312a2275d7e1952b5775183c2a201164ca1f95fa29c7bd"),
    "budget": ("budget", "0fa282351fade895d6011f1af831ef9863e1442a4408147e6028751c900bd381"),
    "repeater-rates": (
        "repeater", "63eaaa9766db163429afb9c365cb2d4c90e736cf3c858796366ff2dddf773a11"
    ),
    "efficiency-curve": (
        "efficiency", "f8954f51f5fd7957dfbb65c29fd813aef8c91378407b691368fb8000656660de"
    ),
}


# SHA-256 of the Monte Carlo CSVs on the bundled reference at --pulses 20000.
# validate's observed column holds the same fringe counts, so it needs no pin.
PINNED_MC_CSVS = {
    "fringe-scan": ("fringe", "39c344964e99febdc23f23fd9bfcc80a5f7ebd3f4edac6314b407acfd6e6d2f4"),
    "histogram": ("histogram", "47ace083867a650f852f0e064676bf2f169e678346464ad39142731bada56519"),
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
    data = (tmp_path / f"{DIGEST}-{kind}.csv").read_bytes()
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
    proc = run_cli("fringe-scan", "--phases", "0:6.28", cwd=tmp_path)
    assert proc.returncode == 2
    assert "start:stop:n" in proc.stderr


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("template", ["{}:1:3", "0:{}:3"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("repeater-rates", None),
        ("efficiency-curve", "--powers"),
        ("fringe-scan", "--phases"),
        ("histogram", "--phases"),
        ("validate", "--phases"),
    ],
)
def test_non_finite_grid_end_exits_2(tmp_path, capsys, command, flag, template, bad):
    grid = template.format(bad)
    if flag is None:
        text = serialize_scenario(load_reference_scenario())
        path = tmp_path / "bad.scenario"
        path.write_text(text.replace("length_grid_km = 2.0:100.0:50", f"length_grid_km = {grid}"))
        args, named = ["--scenario", str(path)], "[repeater] length_grid_km"
    else:
        args, named = [f"{flag}={grid}"], flag
    assert cli.main([command, "--out", str(tmp_path), *args]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "finite" in err
    assert list(tmp_path.glob("*.csv")) == []


def test_repeated_phases_exit_2_without_outputs(tmp_path, run_cli):
    proc = run_cli("fringe-scan", "--phases", "1:1:4", cwd=tmp_path)
    assert proc.returncode == 2
    assert "repeats the value 1.0" in proc.stderr
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
    assert cli.main(["fringe-scan", "--out", str(tmp_path), f"--phases={grid}"]) == 2
    err = capsys.readouterr().err
    assert "--phases" in err and reason in err
    assert list(tmp_path.glob("*.csv")) == []
    log = (tmp_path / "run.log").read_text()
    assert "status=error:ConfigError" in log and reason in log


@pytest.mark.parametrize("command", ["fringe-scan", "histogram", "validate"])
def test_one_point_phase_grid_exits_2_before_scanning(tmp_path, capsys, monkeypatch, command):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned a one-point grid")

    monkeypatch.setattr(montecarlo, "run_fringe_scan", no_scan)
    monkeypatch.setattr(montecarlo, "validate_against_oracle", no_scan)
    assert cli.main([command, "--out", str(tmp_path), "--phases=0:1:1"]) == 2
    assert "--phases needs at least 2 points, got 1" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize(
    "key, bad",
    [("attenuation_native_db_per_km", "-1.0"), ("system_efficiency", "1.5")],
)
def test_bad_repeater_setting_exits_2_from_every_command(tmp_path, capsys, key, bad):
    lines = serialize_scenario(load_reference_scenario()).splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
    lines[index] = f"{key} = {bad}\n"
    path = tmp_path / "bad.scenario"
    path.write_text("".join(lines))
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


def test_out_dir_env_variable(tmp_path, run_cli):
    target = tmp_path / "results"
    proc = run_cli("budget", cwd=tmp_path, env_extra={"QIFSIM_OUT": str(target)})
    assert proc.returncode == 0, proc.stderr
    assert (target / f"{DIGEST}-budget.csv").exists()
    assert not (tmp_path / f"{DIGEST}-budget.csv").exists()


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
    assert "--pulses must be >= 0" in proc.stderr
    assert list(tmp_path.glob("*.csv")) == []
