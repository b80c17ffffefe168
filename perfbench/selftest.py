"""Self-test of the benchmark at tiny sizes (about 30 seconds).

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload with ``--size tiny`` in both trace modes and asserts
that the last line is the result object, that it names every metric
BENCHMARK.json declares with the declared unit, and that every search passed.
It then corrupts one search result, and makes one search raise, inside a
workload's own unit loop and asserts that each is counted as failed.  It is
not collected by pytest; run it after changing the benchmark.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_tiny(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_printed_metrics(declared):
    for workload in (entry["name"] for entry in declared["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            expected = {entry["name"]: entry["unit"] for entry in declared[kind]}
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert printed == expected, (workload, kind, set(printed) ^ set(expected))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
            print(f"ok  {workload} --trace {trace}: {len(printed)} metrics with units, "
                  f"{result['attempted']} searches passed")


def check_failures_are_counted():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import TINY_WORKLOADS, Tally

    run = TINY_WORKLOADS["paper-cell"].build(scratch=None)  # a cell workload writes no files
    search = run.explorer.search

    def corrupted_search(*args, **kwargs):
        result = search(*args, **kwargs)
        result.best_fitness = math.nextafter(result.best_fitness, -math.inf)
        return result

    def raising_search(*args, **kwargs):
        raise RuntimeError("injected")

    tally = Tally()
    assert run.unit(3, 0, tally) is not None and (tally.attempted, tally.failed) == (1, 0)
    run.explorer.search = corrupted_search
    run.unit(3, 1, tally)
    assert (tally.attempted, tally.failed) == (2, 1), "a corrupted result was not counted as failed"
    run.explorer.search = raising_search
    assert run.unit(3, 2, tally) is None
    assert (tally.attempted, tally.failed) == (3, 2), "a raising search was not counted as failed"
    print("ok  a corrupted result and a raising search are each counted as failed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    check_printed_metrics(declared)
    check_failures_are_counted()
    print("perfbench self-test passed")


if __name__ == "__main__":
    main()
