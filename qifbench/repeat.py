"""Repeat the benchmark over several seeds and summarise each metric.

Usage, from the root of a source checkout:

    python3 qifbench/repeat.py --workloads reference-fringe analytic-cli --runs 10

Runs ``run.py`` once per seed and workload, one after another, and prints
for every metric the median, the quartiles and the interquartile distance
as a share of the median, next to the metric's bound in BENCHMARK.json.
``--json PATH`` also writes every run's result line, the summary and the
environment to PATH.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from bench_stats import quartiles  # noqa: E402
from run import environment  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Repeat the benchmark over seeds.")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results = {}
    summaries = {}
    ok = True
    for workload in args.workloads:
        lines = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=300,
            )
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            lines.append(json.loads(last))
            ok = ok and lines[-1]["correct"]
        results[workload] = lines
        summaries[workload] = summary = {}
        print(f"{workload}: {len(lines)} runs, failed operations "
              f"{sum(r['failed'] for r in lines)} of {sum(r['attempted'] for r in lines)}")
        for name in lines[0]["metrics"] if lines else ():
            values = [r["metrics"][name]["value"] for r in lines]
            if len(values) < 2:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else None
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            print(f"  {name:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  + (f"spread {spread:7.4f}" if spread is not None else "spread    n/a")
                  + (f"  bound {bound}" if bound is not None else ""))
    if args.json:
        report = {
            "environment": environment(),
            "seconds": args.seconds,
            "trace": args.trace,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "summary": summaries,
            "runs": results,
        }
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
