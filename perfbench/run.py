"""Whole-search benchmark: fixed-budget MAGMA searches and a ten-method campaign.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-s6 --seed 1 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (BENCHMARK.json names both lists).  The last line
of standard output is one JSON object; the lines before it are the report
(host, workload sizes, seeds, sample counts).  NOTES.md explains the
workloads and metrics; ``python3 perfbench/selftest.py`` checks the
benchmark itself at tiny sizes.
"""

import os

#: Pinned before NumPy loads; workers and set-up probes inherit the setting.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import time  # noqa: E402

#: Workload start: set-up time counts from here, before NumPy or repro load.
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Run outputs (span files, scratch campaign stores); ignored by git.
OUT = os.path.join(ROOT, ".perfbench")
#: Set-ups in fresh processes per run, besides this process's own; setup_s
#: is the median of all of them.
SETUP_PROBES = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's reduced problem sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_program():
    """Import repro from this checkout's src/, and nothing else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program source at {os.path.join(SRC, 'repro')}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def host_record(workload, seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {name: os.environ[name] for name in BLAS_THREADS},
        "seed": seed,
        "workload": workload.describe(),
    }


def setup_probe(args, tally):
    """Set-up seconds of one fresh process, or None if it failed."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--size", args.size]
    done = subprocess.run(command, capture_output=True, text=True, timeout=150, cwd=ROOT)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tally.error("set-up probe", 1, RuntimeError(f"exit code {done.returncode}"))
        return None
    report = json.loads(lines[-1])
    tally.attempted += report["attempted"]
    tally.failed += report["failed"]
    return report["setup_s"]


def timed_pass(run, seconds, unit):
    """``unit(index)`` for whole rounds of units: at least ``min_units``, then
    another round only while it is predicted to end within *seconds*.

    The prediction is the median unit time so far, so a run ends close to
    *seconds* instead of overrunning by up to a whole round.
    """
    units, walls = [], []
    start = time.perf_counter()
    while True:
        if len(units) >= run.workload.min_units and len(units) % run.round_size == 0:
            predicted = run.round_size * statistics.median(walls)
            if time.perf_counter() - start + predicted > seconds:
                return units
        began = time.perf_counter()
        units.append(unit(len(units)))
        walls.append(time.perf_counter() - began)


def evals_per_s(units):
    done = [unit for unit in units if unit is not None]
    wall = sum(unit.wall_s for unit in done)
    return sum(unit.samples for unit in done) / wall if wall else 0.0


def end_to_end(args, workload, run, tally, setup_s):
    """The timed pass; returns the end-to-end metrics as name -> (value, unit).

    The set-up probes run one at a time at even steps through the pass, so
    that one slow stretch of the host cannot set them all.
    """
    from workloads import derive_seed

    setup_times = [setup_s]
    probes_run = 0
    start = time.perf_counter()

    def unit(index):
        nonlocal probes_run
        if probes_run < SETUP_PROBES and time.perf_counter() - start >= probes_run * args.seconds / SETUP_PROBES:
            probes_run += 1
            setup_times.append(setup_probe(args, tally))
        return run.unit(args.seed, index, tally)

    units = timed_pass(run, args.seconds, unit)
    setup_times.extend(setup_probe(args, tally) for _ in range(SETUP_PROBES - probes_run))
    setup_times = [t for t in setup_times if t is not None]
    walls = [unit.wall_s for unit in units if unit is not None]
    # The first min_units units are fixed by the seed, so their mean GFLOP/s
    # repeats exactly for a given seed.
    prefix = [g for unit in units[:run.workload.min_units] if unit is not None for g in unit.gflops]
    print(f"setup_s: median of {len(setup_times)} fresh-process set-ups (import, build, "
          f"warm-up search at 1/10 budget): {[round(t, 4) for t in setup_times]}")
    print(f"search_s_p50: median over {len(walls)} {run.unit_name} ({len(units) // run.round_size} rounds "
          f"of {run.round_size}), in run order: {[round(wall, 3) for wall in walls]}")
    print(f"best_gflops: mean over the first {run.workload.min_units} units' {len(prefix)} searches")
    print(f"unit seeds: {[derive_seed(args.seed, 1, index) for index in range(len(units))]}")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "search_s_p50": (statistics.median(walls) if walls else 0.0, "s"),
        "evals_per_s": (evals_per_s(units), "1/s"),
        "best_gflops": (statistics.fmean(prefix) if prefix else 0.0, "GFLOP/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(args, workload, run, tally, scratch):
    """Each unit twice, untraced and traced, in alternating order; returns name -> (value, unit).

    The pairs share a seed, so tracing is inert only if each pair's GFLOP/s
    are bit-identical, and drift of host speed between the two halves of a
    pair is small next to drift across a whole run.
    """
    from layertrace import LAYER_METRICS, LayerTrace, layer_metrics

    trace = LayerTrace()
    with trace:
        traced_run = workload.build(scratch)

    def traced_unit(index):
        with trace:
            return traced_run.unit(args.seed, index, tally)

    def pair(index):
        if index % 2:
            probed = traced_unit(index)
            return run.unit(args.seed, index, tally), probed
        return run.unit(args.seed, index, tally), traced_unit(index)

    pairs = timed_pass(run, args.seconds, pair)
    overheads, differing = [], []
    for index, (plain, probed) in enumerate(pairs):
        if plain is None or probed is None:
            continue
        if plain.gflops != probed.gflops:
            differing.append(index)
            tally.fail(f"{workload.name} traced unit {index}", ["traced-gflops-bit-identical"],
                       len(probed.gflops))
        overheads.append(1.0 - evals_per_s([probed]) / evals_per_s([plain]))
    overhead = statistics.median(overheads) if overheads else 0.0
    spans_path = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.jsonl")
    trace.recorder.write(spans_path)
    print(f"tracing overhead: median {overhead:+.2%} of untraced evals_per_s over {len(overheads)} "
          f"pairs, per pair: {[round(share, 4) for share in overheads]}; traced GFLOP/s "
          f"bit-identical per search: {not differing}")
    print(f"spans: {len(trace.recorder.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    values = layer_metrics(trace.recorder, overhead)
    print("per-layer metrics:")
    for name, unit in LAYER_METRICS:
        print(f"  {name:30s} {values[name]:16.6f} {unit}")
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from workloads import TINY_WORKLOADS, WORKLOADS, Tally

    catalogue = TINY_WORKLOADS if args.size == "tiny" else WORKLOADS
    if args.workload not in catalogue:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(catalogue)}")
    workload = catalogue[args.workload]
    tally = Tally()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {entry["name"]: entry["unit"]
                    for entry in json.load(handle)["per_layer" if args.trace else "end_to_end"]}
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        run = workload.build(scratch)
        run.warm_up(args.seed, tally)
        setup_s = time.perf_counter() - START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "attempted": tally.attempted, "failed": tally.failed}))
            return 0
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} size={args.size}")
        print("host:", json.dumps(host_record(workload, args.seed), sort_keys=True))
        if args.trace:
            measured = per_layer(args, workload, run, tally, scratch)
        else:
            measured = end_to_end(args, workload, run, tally, setup_s)
    metrics = {}
    for name, unit in declared.items():
        value, measured_unit = measured[name]
        if measured_unit != unit:
            raise RuntimeError(f"{name} is measured in {measured_unit}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"searches attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def stop_resource_tracker():
    """Stop the shared-memory resource tracker the parallel backend starts, and wait for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
