"""One workload call in a fresh process; prints one JSON line. Started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --trace 0|1

setup_s runs from the first line of this file to the loaded inputs: the
import of nichewave and its CLI plus the config load. wall_s is the one
workload call. peak_rss_mb is this process's peak resident memory.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded."""
    import numpy as np

    info = {}
    try:
        info["version"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                break
    return info


def environment() -> dict:
    import numpy as np
    import scipy

    return {"numpy": np.__version__, "scipy": scipy.__version__, "openblas": _openblas(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    import nichewave
    import nichewave.cli  # noqa: F401

    if not Path(nichewave.__file__).resolve().is_relative_to(SRC):
        print(f"nichewave imported from {nichewave.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import ARTIFACTS, WORKLOADS

    artifacts = args.workdir / ARTIFACTS
    artifacts.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workload)
    inputs = workload.prepare(args.seed, args.workdir)
    setup_s = perf_counter() - T0

    tracer = Tracer() if args.trace else None
    t = perf_counter()
    if tracer is None:
        result = workload.run(inputs)
    else:
        with tracer:
            result = workload.run(inputs)
    wall_s = perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, certs = workload.check(result, artifacts)
    record = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "problems": problems, "certs": [list(c) for c in certs],
              "env": environment()}
    if tracer is not None:
        leftovers = tracer.leftovers()
        if leftovers:
            problems.append(f"wrappers left after the traced call: {leftovers}")
        record["layers"] = tracer.layer_metrics(wall_s)
        (args.workdir / "trace.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
