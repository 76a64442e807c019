"""``bench/measure.py``: a complete BENCH file from a tiny run, and paired differences."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "measure.py"
COMMANDS = {
    *(f"reference {cmd}" for cmd in (
        "budget", "qpm-solve", "repeater-rates", "efficiency-curve", "fringe-scan", "histogram", "validate",
    )),
    "detector-saturated fringe-scan",
    "detector-saturated histogram",
}


@pytest.fixture(scope="module")
def measure():
    spec = importlib.util.spec_from_file_location("measure", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measure_writes_every_metric_and_every_command_exits_0(tmp_path):
    argv = ["--pulses", "20000", "--rounds", "1", "--out", str(tmp_path), "--label", "tiny"]
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "BENCH_tiny.json").read_text())
    assert set(report) == {"environment", "settings", "trees"}
    assert set(report["environment"]) == {
        "python", "numpy", "platform", "cpus", "usable_cpus", "load_average", "bytecode_written",
    }
    assert report["settings"]["pulses_per_point"] == {"reference-fringe": 20000, "detector-saturated": 20000}
    assert set(report["trees"]) == {"change"}
    (round_,) = report["trees"]["change"]["rounds"]
    assert set(round_["commands"]) == COMMANDS
    for name, result in round_["commands"].items():
        assert result["exit_code"] == 0, name
        assert result["wall_s"] > 0 and result["peak_rss_mb"] >= result["launcher_rss_mb"] > 0, name
    assert set(round_["import_ms"]) == {"qifsim.cli", "qifsim.montecarlo"}
    assert {name: len(s) for name, s in round_["in_process_s"].items()} == {
        "reference-fringe": 5, "detector-saturated": 5, "analytic-pass": 5,
    }


def test_paired_differences_are_change_minus_against_with_pairs_won(measure):
    def round_(wall_s, scan_s):
        return {
            "commands": {"reference budget": {"wall_s": wall_s, "peak_rss_mb": 20.0}},
            "import_ms": {"qifsim.cli": 60.0},
            "in_process_s": {"reference-fringe": [scan_s, 1.0, 0.0]},
        }

    change = [round_(1.0, 0.1), round_(2.0, 0.2), round_(3.0, 0.3), round_(1.0, 0.4)]
    against = [round_(2.0, 0.2), round_(2.5, 0.2), round_(2.0, 0.5), round_(2.0, 0.1)]
    summary = measure.paired(change, against)
    wall = summary["reference budget wall_s"]
    assert wall["differences"] == [-1.0, -0.5, 1.0, -1.0]
    assert wall["median"] == -0.75
    assert (wall["change_won"], wall["against_won"]) == (3, 1)
    assert summary["reference budget peak_rss_mb"]["change_won"] == 0
    # An in-process pass enters a pair by the median of its samples.
    assert summary["in-process reference-fringe s"]["differences"] == pytest.approx([-0.1, 0.0, -0.2, 0.3])
