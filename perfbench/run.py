"""Benchmark of nichewave: whole workload runs, untraced or traced per layer.

    python3 perfbench/run.py --workload evolve-2d --seed 1 --seconds 30 --trace 0

Run from the repository root. Each call of the workload runs in a fresh
worker process (perfbench/worker.py), started only after the previous one
has ended, so one process carries the load at a time, with OpenBLAS held
to nproc threads. Calls repeat until the next one would end after
--seconds; every timing reported is the median over the calls.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates traced and untraced calls and prints the per-layer metrics.
The line before the last holds the whole record (environment, every call,
every check); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import ARTIFACTS, WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # the whole run, warm-up included, ends within this
COUNT_SUFFIXES = ("calls", "iterations", "steps")


def _git_sha(root: Path) -> str | None:
    # the ceiling keeps git from reporting a repository that encloses root
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _worker_env(root: Path, nproc: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), NICHEWAVE_WORKERS="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def _run_worker(argv: list[str], root: Path, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    try:
        out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                             timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"problems": [f"worker exceeded {timeout:.0f} s"], "timed_out": True}
    if out.returncode != 0:
        tail = out.stderr.strip().splitlines()[-3:]
        return {"problems": [f"worker exit code {out.returncode}: {' | '.join(tail)}"]}
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {"problems": ["worker printed nothing"]}


def _artifacts(workdir: Path) -> dict[str, Path]:
    # wall-time stats files, if the program writes any, differ on every call
    art = workdir / ARTIFACTS
    return {p.name: p for p in sorted(art.iterdir())
            if p.is_file() and not p.name.endswith("-stats.json")} if art.is_dir() else {}


def _same_artifacts(a: Path, b: Path) -> bool:
    fa, fb = _artifacts(a), _artifacts(b)
    return fa.keys() == fb.keys() and all(
        filecmp.cmp(fa[k], fb[k], shallow=False) for k in fa)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "nichewave" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"{root} lacks src/nichewave or BENCHMARK.json; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    env = _worker_env(root, nproc)
    base = root / ".perfbench_out" / args.workload / f"trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    modes = ("untraced", "traced") if args.trace else ("untraced",)
    min_calls = 4 if args.trace else 3
    calls: list[dict] = []
    start = perf_counter()
    while True:
        mode = modes[len(calls) % len(modes)]
        workdir = base / f"call-{len(calls)}"
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--workdir", str(workdir), "--trace", "1" if mode == "traced" else "0"]
        call = _run_worker(argv, root, env, DEADLINE_S - (perf_counter() - T_START))
        call.update(mode=mode, workdir=workdir)
        calls.append(call)
        elapsed = perf_counter() - start
        per_call = elapsed / len(calls)
        if call.get("timed_out") or perf_counter() - T_START + per_call > DEADLINE_S:
            break
        if len(calls) >= min_calls and elapsed + per_call > args.seconds:
            break

    done = [c for c in calls if "wall_s" in c]
    untraced = [c for c in done if c["mode"] == "untraced"]
    traced = [c for c in done if c["mode"] == "traced"]
    if not untraced or (args.trace and not traced):
        print(f"too few calls completed: {[c['problems'] for c in calls]}", file=sys.stderr)
        return 1

    checks: list[str] = []
    first = done[0]["workdir"]
    for c in done[1:]:
        if not _same_artifacts(first, c["workdir"]):
            checks.append(f"{c['workdir'].name} ({c['mode']}) artifacts differ from {first.name}")
    failed = sum(1 for c in calls if c["problems"])
    for c in done:
        c["shortfalls"] = sum(1 for _, achieved, requested in c["certs"] if not achieved <= requested)
    # a call that failed before certifying anything met none
    met = [(len(c["certs"]) - c["shortfalls"]) / max(len(c["certs"]), 1) for c in done]

    values = {
        "wall_s": statistics.median([c["wall_s"] for c in untraced]),
        "setup_s": statistics.median([c["setup_s"] for c in untraced]),
        "peak_rss_mb": statistics.median([c["peak_rss_mb"] for c in untraced]),
        "tol_met_frac": statistics.median(met),
        "ops_ok_frac": 1.0 - failed / len(calls),
        "ops_failed_frac": failed / len(calls),
        "tol_shortfalls": statistics.median_low([c["shortfalls"] for c in done]),
    }
    if args.trace:
        if len(traced) < 2:
            checks.append(f"{len(traced)} traced call completed; the count check needs 2")
        counts = {c["workdir"].name: {k: v for k, v in c["layers"].items()
                                      if k.endswith(COUNT_SUFFIXES)} | {"tol_shortfalls": c["shortfalls"]}
                  for c in traced}
        if len({json.dumps(v, sort_keys=True) for v in counts.values()}) > 1:
            checks.append(f"count metrics differ between traced calls: {counts}")
        for name in traced[0]["layers"]:
            pick = statistics.median_low if name.endswith(COUNT_SUFFIXES) else statistics.median
            values[name] = pick([c["layers"][name] for c in traced])
        values["trace.overhead_s"] = (statistics.median([c["wall_s"] for c in traced])
                                      - statistics.median([c["wall_s"] for c in untraced]))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and not checks
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "measured_s": perf_counter() - start,
        "env": {"git_sha": _git_sha(root), "nproc": nproc, "python": platform.python_version(),
                **done[0]["env"]},
        "values": values, "checks": checks,
        "calls": [{k: (str(v) if isinstance(v, Path) else v) for k, v in c.items()
                   if k not in ("env", "layers")} for c in calls],
    }
    (base / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"perfbench": record}))
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
