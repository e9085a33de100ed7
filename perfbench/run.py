"""Run-level benchmark of the ShiftEx reproduction.

    python3 perfbench/run.py --workload masked_async --seed 0 --trace 0

``--trace 0`` repeats a few set-ups of the workload and then its whole
run, with tracing off, and prints the end-to-end metrics.  ``--trace 1``
repeats untraced/traced pairs of the run, writes the first traced run's
spans to ``.perfbench/spans/`` and prints the per-layer metrics.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).  Lines before
it give every metric with its sample count and the machine facts the
result depends on.  Times are scaled to a reference host speed, measured
by a probe loop between rounds (``measure.host_probe``); the unscaled wall
clock times are printed beside them.

``--seconds`` is the measurement window: after the first repetition
(``MIN_REPS`` untraced ones), another starts only while one more of the
last one's length still fits in it.  Every repetition of a seed must
reproduce the first one's digest.  Metric units come from
``BENCHMARK.json``.  The program is imported from ``src/`` next to this
directory; run from a tree without it, the benchmark exits with code 2.
``--record FILE`` appends the result, tagged with workload, seed, sample
counts and machine facts, as one JSON line (the input of ``compare.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # one BLAS thread: steadiest timings, and <= nproc anywhere

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in BENCH["end_to_end"] + BENCH["per_layer"]}

# Untraced repetitions per run, whatever --seconds says: run_s is the
# fastest of them, and round_ms_p90 needs ten rounds beyond it.
MIN_REPS = 3

# Set-up samples taken before each untraced repetition (the first ones also
# warm caches).  The host's speed drifts over seconds, so samples spread
# over the whole window give a steadier median than a burst at its start.
SETUP_SAMPLES_PER_REP = 5


def machine_facts() -> dict:
    import platform

    import numpy as np

    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": np.__version__, "blas": "unknown",
             "blas_threads": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: keep "unknown"
        pass
    try:  # the live thread count, from the OpenBLAS numpy loaded
        import ctypes
        import glob

        libs = Path(np.__file__).parent.parent / "numpy.libs"
        for path in glob.glob(str(libs / "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    facts["blas_threads"] = int(getattr(lib, symbol)())
                    break
    except OSError:
        pass
    return facts


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy loads: BLAS reads its thread count once, at load time.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} "
              "is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        return measure_workload(args, WORKLOADS[args.workload])
    except Exception:
        # An exception is a failed operation: report it, never a metric.
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1


def measure_workload(args: argparse.Namespace, make_inputs) -> int:
    import measure
    from workloads import DEFAULT_SEED

    inputs = make_inputs(args.seed)
    facts = machine_facts()

    setup_samples: list[tuple[float, float]] = []
    reps, traced = [], []
    tracer = None
    began = time.perf_counter()
    while True:
        rep_began = time.perf_counter()
        if not args.trace:
            setup_samples += [measure.measure_setup(inputs)
                              for _ in range(SETUP_SAMPLES_PER_REP)]
        reps.append(measure.run_workload(inputs))
        if len(reps) == 1:
            peak_mb = measure.peak_rss_mb()
        if args.trace:
            cells, rep_tracer = measure.run_traced(inputs)
            traced.append(cells)
            tracer = tracer or rep_tracer  # the first traced run's spans
        now = time.perf_counter()
        if (len(reps) >= (1 if args.trace else MIN_REPS)
                and now - began + (now - rep_began) > args.seconds):
            break

    attempted = failed = 0
    errors: list[str] = []
    for cells in reps + traced:
        counts = measure.check_invariants(cells)
        attempted += counts[0]
        failed += counts[1]
        errors += counts[2]
    run_digest = measure.digest(reps[0])
    checks = [("repeated digest", measure.digest(cells) == run_digest)
              for cells in reps[1:] + traced]
    if args.seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "digests.json").read_text())
        checks.append(("pinned digest",
                       pinned.get(args.workload) == run_digest))

    if args.trace:
        spans = ROOT / ".perfbench" / "spans" / (
            f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans)
        def scaled_run_s(runs):
            return statistics.median(
                sum(c.run_s for c in cells) * measure.speed(cells)
                for cells in runs)

        overhead_s = scaled_run_s(traced) - scaled_run_s(reps)
        values = measure.per_layer(traced[0], tracer, overhead_s)
        samples = {"trace.overhead_s": len(traced)}
        print(f"spans: {len(tracer.spans)} written to {spans}")
    else:
        values, samples, wall = measure.end_to_end(reps, setup_samples,
                                                   peak_mb)
        for name, value in wall.items():
            print(f"{name:40s} {value:14.4f} {UNITS[name]}  (wall clock)")
        for name, value in measure.reported(reps).items():
            print(f"{name:40s} {value:14.4f} {UNITS[name]}  (reported)")
        probes = [p for cells in reps for c in cells for p in c.probes_s]
        print(f"host probe: median {statistics.median(probes) * 1e3:.3f} ms "
              f"over {len(probes)} (times scaled to "
              f"{measure.REFERENCE_PROBE_S * 1e3:g} ms)")

    for name, ok in checks:
        attempted += 1
        if not ok:
            failed += 1
            errors.append(f"{name} mismatch (run digest {run_digest})")
    for message in errors:
        print(f"FAILED: {message}", file=sys.stderr)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "digest": run_digest, **facts}))
    for name, value in values.items():
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"{name:40s} {value:14.4f} {UNITS[name]}{count}")
    print(f"failed/attempted = {failed}/{attempted}")
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }
    if args.record is not None:
        with args.record.open("a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "facts": facts,
                                 "samples": samples, "result": result})
                     + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
