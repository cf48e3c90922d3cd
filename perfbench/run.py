"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train|greedy|beam --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics untraced (--trace 0), the per-layer metrics traced (--trace 1). The
lines above it give every metric with its unit and sample count, the output
checks, and the environment.
"""

import os

# BLAS is pinned to one thread before numpy is first imported: the benchmark
# runs as one process on a small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def blas_threads(np) -> int | str:
    """Thread count the bundled OpenBLAS reports, else the pinned variable."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return "OPENBLAS_NUM_THREADS=" + os.environ["OPENBLAS_NUM_THREADS"]


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None, size=None) -> int:
    """`size` overrides the workloads' full input sizes (tests use a tiny one)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "greedy", "beam"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shallowmt").is_dir():
        print(f"perfbench: no shallowmt package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    res = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                 size or workloads.FULL)
    run = res.run
    for note in run.notes:
        print(note)
    print(f"{'metric':<28}{'value':>14}  {'unit':<6}{'n':>7}")
    for name, (value, unit, n) in res.e2e.items():
        print(f"{name:<28}{_fmt(value):>14}  {unit:<6}{n:>7}")
    t50, s50 = res.e2e["teacher_ms_p50"][0], res.e2e["student_ms_p50"][0]
    print(f"derived teacher/student speed-up (p50): {t50 / s50:.4f}x "
          f"(base: teacher_ms_p50 {t50:.4f} ms, student_ms_p50 {s50:.4f} ms)")
    if res.layers:
        for name, (value, unit) in res.layers.items():
            print(f"{name:<28}{_fmt(value):>14}  {unit}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    chosen = res.layers if res.layers else {k: (v, u) for k, (v, u, _) in res.e2e.items()}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
