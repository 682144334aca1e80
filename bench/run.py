"""Benchmark entry point.

Usage::

    python3 bench/run.py --workload discover-read --seed 1 --seconds 30 --trace 0

Generates the inputs for ``--seed`` under ``.bench_out/``, runs whole rounds
or episodes of the workload until ``--seconds`` have passed, checks every
output, and prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, times scaled to the reference speed
(``speed.py``); with ``--trace 1`` the layer wrappers are installed, the
metrics are the per-layer ones, and the spans are written to
``.bench_out/trace-<workload>-<seed>.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# The highest nearest-rank percentile that leaves at least ten samples above
# it at today's sample counts (README.md lists the counts).
TAIL_PERCENTILE = {"discover-read": 90, "lifecycle-write": 95, "mapek-scenario": 99}


def percentile(samples, p: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(run, workload: str, scaled: bool = True) -> dict:
    setup = run.scaled_setup_s() if scaled else [s for _, s in run.setup_s]
    lat = run.scaled_latencies() if scaled else run.latencies
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(lat) * 1000, "unit": "ms"},
        "op_tail_ms": {"value": percentile(lat, TAIL_PERCENTILE[workload]) * 1000, "unit": "ms"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def _summary(metrics: dict) -> str:
    return ", ".join(f"{name}={m['value']:.4g}" for name, m in metrics.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "soa_hitlcps" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import layer_trace
    import workload_gen
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    inputs = OUT / f"inputs-{args.seed}"
    workload_gen.write_inputs(args.seed, inputs)

    tracer = layer_trace.Tracer() if args.trace else None
    run = workloads.Run(tracer)
    if tracer is not None:
        tracer.install()
    try:
        workloads.WORKLOADS[args.workload](run, args.seed, inputs, args.seconds)
        correct = True
    except workloads.CheckFailed as err:
        print(f"check failed: {err}", file=sys.stderr)
        correct = False
    finally:
        if tracer is not None:
            tracer.uninstall()

    if not run.latencies:
        print("error: no operation ran", file=sys.stderr)
        return 1
    metrics = end_to_end(run, args.workload)
    measured = end_to_end(run, args.workload, scaled=False)
    print(f"{args.workload} seed={args.seed}: {len(run.latencies)} operations, "
          f"{len(run.setup_s)} set-ups, {len(run.probe.times)} speed probes, "
          f"tail p{TAIL_PERCENTILE[args.workload]}\n  at reference speed: {_summary(metrics)}"
          f"\n  as measured:        {_summary(measured)}", file=sys.stderr)
    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "end_to_end": metrics, "end_to_end_as_measured": measured})
        metrics = tracer.metrics()
    print(json.dumps({"correct": correct, "attempted": len(run.latencies),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
