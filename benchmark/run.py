"""simfd benchmark: runs one workload and prints its metrics as JSON.

    python3 benchmark/run.py --workload train-reference --seed 1 --seconds 25 --trace 0

Workloads: train-reference, eval-reference, mc-mini (see README.md). With
--trace 0 the run reports the end-to-end metrics ops_per_s, setup_s and
peak_rss_mb. With --trace 1 it traces one more set-up and every second
round with simfd's layers wrapped by the tracer, and reports per-layer
metrics instead, plus the tracing overhead against the untraced rounds
next to them. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The program is imported
from the checkout's own `src/`; without it the run fails before measuring.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_round(workload, index):
    start = time.perf_counter()
    attempted, failed = workload.run_round(index)
    return {"index": index, "seconds": time.perf_counter() - start,
            "attempted": attempted, "failed": failed}


def measure(workload, seconds, config_path, tracer=None):
    """Whole rounds until `seconds` have passed: (rounds, set-up times).

    A timed set-up follows every round, so set-up time is sampled over the
    same stretch of time as the rounds. With a tracer, every second round
    runs traced inside a "bench.round" span, next to an untraced one.
    """
    rounds, setups = [], []
    least = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    while len(rounds) < least or time.perf_counter() < deadline:
        if tracer is not None and len(rounds) % 2:
            with tracer.installed("bench.round"):
                rounds.append(dict(timed_round(workload, len(rounds)), traced=True))
        else:
            rounds.append(timed_round(workload, len(rounds)))
        setups.append(workload.timed_setup(config_path))
    return rounds, setups


def ops_rate(rounds):
    """Median over rounds of completed operations per second."""
    return statistics.median((r["attempted"] - r["failed"]) / r["seconds"]
                             for r in rounds)


def peak_rss_mib():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "simfd" / "__init__.py").is_file():
        print(f"benchmark: no simfd sources under {src}", file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread; must be set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    config_path = OUT_DIR / f"{stem}.config.json"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workload.config_doc(), fh, indent=2, sort_keys=True)

    first_setup = workload.timed_setup(config_path)
    record = {"workload": args.workload, "seed": args.seed, "op": workload.op,
              "prepared": workload.prepare()}

    if args.trace:
        tracer = Tracer()
        workloads.reset_caches()
        with tracer.installed("bench.setup"):
            workload.setup(config_path)
        rounds, setups = measure(workload, args.seconds, config_path, tracer)
        traced = [r for r in rounds if r.get("traced")]
        metrics = tracer.layer_metrics("bench.setup", "bench.round", len(traced))
        # each traced round against the untraced round just before it
        ratios = [rounds[i]["seconds"] / rounds[i - 1]["seconds"]
                  for i in range(1, len(rounds), 2)]
        metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
        record["trace"] = tracer.to_dict()
    else:
        rounds, setups = measure(workload, args.seconds, config_path)
        metrics = {
            "ops_per_s": (ops_rate(rounds), "1/s"),
            "setup_s": (statistics.median([first_setup] + setups), "s"),
            "peak_rss_mb": (peak_rss_mib(), "MiB"),
        }
    record.update(rounds=rounds, setups_s=[first_setup] + setups)

    failures = workload.check()
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(result, failures=failures)
    with open(OUT_DIR / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
