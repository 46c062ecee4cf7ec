"""Run every workload untraced and traced, and print each metric with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the repository root; it takes about 6 x run_seconds. The raw
certificate and failure counts (tol_shortfalls, ops_failed_frac) are shown
for the untraced runs too, read from the record line run.py prints.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    status = 0
    print(f"{'workload':<18} {'trace':<5} {'metric':<28} {'value':>14}  unit")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(trace)], capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or len(lines) < 2:
                print(f"{workload:<18} {trace:<5} run failed: {out.stderr.strip()[-300:]}")
                status = 1
                continue
            record, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])
            metrics = dict(result["metrics"])
            if not trace:
                metrics["tol_shortfalls"] = {"value": record["values"]["tol_shortfalls"], "unit": "count"}
                metrics["ops_failed_frac"] = {"value": record["values"]["ops_failed_frac"], "unit": "ratio"}
            for name, m in metrics.items():
                print(f"{workload:<18} {trace:<5} {name:<28} {m['value']:>14.6g}  {m['unit']}")
            print(f"{workload:<18} {trace:<5} {'correct / attempted / failed':<28} "
                  f"{result['correct']!s:>14}  {result['attempted']} / {result['failed']}")
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
