"""Self-test of the benchmark: every workload at a tiny size, untraced and
traced, in a few seconds.

    python3 perfbench/selftest.py

Checks that each run's result line has the four keys and every metric
named in BENCHMARK.json with its unit, that values are finite numbers, and
that no operation fails.
Exits 0 when all checks hold.
"""

import json
import math
import shutil
import sys

import run  # pins BLAS before numpy is imported

sys.path.insert(0, str(run.ROOT / "src"))

import bench  # noqa: E402


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = sorted(w["name"] for w in spec["workloads"])
    problems = []
    if names != sorted(bench.WORKLOADS):
        problems.append(f"workloads {names} != {sorted(bench.WORKLOADS)}")
    run.RESULTS.mkdir(exist_ok=True)
    workdir = run.RESULTS / "selftest"
    workdir.mkdir(exist_ok=True)
    try:
        for name, workload in sorted(bench.WORKLOADS.items()):
            for trace in (False, True):
                tally, metrics, _ = bench.run(bench.tiny(workload), 7, 0.5, trace,
                                              bench.Files.under(workdir))
                where = f"{name} trace={int(trace)}"
                printed = json.loads(run.result_line(tally, metrics))
                if sorted(printed) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"{where}: result keys {sorted(printed)}")
                got = {m: v["unit"] for m, v in printed["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"{where}: metrics/units {got} != {expected[trace]}")
                bad = [m for m, v in printed["metrics"].items()
                       if not math.isfinite(v["value"])]
                if bad:
                    problems.append(f"{where}: non-finite values {bad}")
                if printed["attempted"] < 1 or printed["failed"] or not printed["correct"]:
                    problems.append(f"{where}: {tally.failed} of {tally.attempted} "
                                    f"operations failed: {tally.reasons}")
                print(f"{where}: {tally.attempted} operations, "
                      f"{len(metrics)} metrics", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
