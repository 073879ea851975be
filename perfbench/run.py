#!/usr/bin/env python3
"""Pipeline benchmark of geotrack: one workload, one seed, one run.

    python3 perfbench/run.py --workload track-long --seed 1 --seconds 20 --trace 0

Sets the workload up three times (``setup_s`` is the median), then repeats
passes over its inputs (train, track, evaluate) for ``--seconds``, at least
two. Every time is scaled to a nominal machine speed (see speed.py). Prints
the environment, output digests, the speed probe's readings and every metric
with its unit; the last line of standard output is the result as one JSON
object. With ``--trace 1`` every second pass and the second set-up run
traced, and the result holds the per-layer metrics and the tracing overhead
instead. Names and units of the metrics come from BENCHMARK.json at the
checkout root.
"""

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
WORKLOADS = ("track-long", "track-dense", "train", "evaluate")
SETUP_REPEATS = 3
MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure(args, pipeline, tracer, workdir, probe):
    """Set up and run the passes; returns (tally, setup times, pass indices).
    Every time is scaled to the nominal speed of ``probe`` (see speed.py)."""
    tally = pipeline.Tally()
    clock = pipeline.FrameClock(tally, probe)
    probe.start()
    try:
        setup_s = {"plain": [], "traced": []}
        for rep in range(SETUP_REPEATS):
            traced = tracer is not None and rep == 1
            if traced:
                tracer.start()
            started = probe.clock()
            inputs = pipeline.setup(args.workload, args.seed, args.size, workdir)
            probe.add(setup_s["traced" if traced else "plain"], started)
            if traced:
                tracer.stop()

        count = tracer.count if tracer is not None else (lambda key, amount=1: None)
        passes = {"plain": [], "traced": []}
        durations = []
        began = time.perf_counter()
        while len(durations) < MIN_PASSES or (
                time.perf_counter() - began + statistics.mean(durations) <= args.seconds):
            traced = tracer is not None and len(durations) % 2 == 1
            passes["traced" if traced else "plain"].append(len(durations))
            if traced:
                tracer.start()
            started = time.perf_counter()
            pipeline.run_pass(inputs, tally, clock, count)
            durations.append(time.perf_counter() - started)
            if traced:
                tracer.stop()
    finally:
        probe.stop()
        clock.uninstall()
    probe.scale()
    return tally, setup_s, passes


def end_to_end(pipeline, tally, setup_s, passes):
    quality = {k: tally.quality.get(k, float("nan")) for k in
               ("mota", "geo_recall", "geo_precision", "obs_accuracy", "pose_accuracy")}
    return {
        "setup_s": statistics.median(setup_s["plain"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **pipeline.timings(tally, passes["plain"]),
        **quality,
    }


def per_layer(pipeline, tracing, tracer, tally, setup_s, passes):
    plain = pipeline.timings(tally, passes["plain"])
    traced = pipeline.timings(tally, passes["traced"])
    overhead = {f"overhead.{k}": traced[k] / plain[k] - 1.0 for k in plain}
    overhead["overhead.setup_s"] = (setup_s["traced"][0] / statistics.median(setup_s["plain"])
                                    - 1.0)
    return {**tracing.layer_metrics(tracer.phases[:1], tracer.phases[1:]), **overhead}


def main(argv=None):
    args = parse_args(argv)
    try:
        env = bootstrap.prepare()
    except bootstrap.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    import pipeline
    import speed
    import tracing

    records = HERE / "_work" / "records"
    records.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    tracer = None
    probe = speed.SpeedProbe()
    try:
        if args.trace:
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
        try:
            tally, setup_s, passes = measure(args, pipeline, tracer, workdir, probe)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = per_layer(pipeline, tracing, tracer, tally, setup_s, passes)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(pipeline, tally, setup_s, passes)
        wanted = spec["end_to_end"]
    chosen = [(m["name"], m["unit"], values.get(m["name"], math.nan)) for m in wanted]
    metrics = {name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
               for name, unit, value in chosen}
    failed = sum(tally.failed.values())
    measured = all(math.isfinite(value) for _, _, value in chosen)
    result = {"correct": failed == 0 and measured,
              "attempted": sum(tally.attempted.values()), "failed": failed, "metrics": metrics}

    suffix = "-tiny" if args.size == "tiny" else ""
    stem = records / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "environment": env, "digests": pipeline.digest_summary(tally),
        "passes": len(tally.frame_s), "setup_runs": setup_s, "speed_probe": probe.summary(),
        "samples": {"frames": sum(map(len, tally.frame_s)),
                    "scenes": sum(map(len, tally.scene_s))},
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
        "result": result,
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(f"{stem}.spans.json")

    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"digests {json.dumps(record['digests'], sort_keys=True)}")
    print(f"speed probe {json.dumps(record['speed_probe'])}")
    print(f"passes {record['passes']}, samples {json.dumps(record['samples'])}, "
          f"attempted {json.dumps(tally.attempted)}, failed {json.dumps(tally.failed)}")
    for problem in tally.problems:
        print(f"problem {problem}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
