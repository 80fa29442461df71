"""Run one workload of the zsih benchmark.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the machine and environment.
The full result, and with ``--trace 1`` the spans, go to
``perfbench/results/``.
"""

import os
import sys

# one client on one thread: BLAS must be pinned before numpy is imported
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"


def blas_threads(np):
    """Threads OpenBLAS reports it will use, read back from the library."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(np, args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pin": BLAS_PIN,
        "blas_threads": blas_threads(np),
        "git_commit": git_commit(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def result_line(tally, metrics):
    """The last line of standard output."""
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zsih" / "__init__.py").is_file():
        print(f"no zsih sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(bench.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = environment(np, args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        tally, metrics, details = bench.run(
            bench.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), bench.Files.under(workdir),
            spans_path=RESULTS / f"{tag}.spans.tsv.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = result_line(tally, metrics)
    (RESULTS / f"{tag}.json").write_text(json.dumps(
        {"environment": env, "details": details, "failures": tally.reasons,
         **json.loads(result)}, indent=1) + "\n")
    print(json.dumps({"environment": env, "details": details,
                      "failures": tally.reasons}))
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
