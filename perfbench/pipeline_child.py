"""One fresh process of a pipeline workload (started by ``pipeline.py``).

Prints ``READY`` once ``repro`` and the pipeline modules are imported (the
parent times process start to that line as set-up), then produces every
app's ``RunStats`` with ``collect_run_stats`` at the paper's 1% profiling
point and half-core capacity, and prints one JSON line with per-app
latencies, counters and errors; with ``--trace 1`` also the span totals.

Usage: python3 perfbench/pipeline_child.py --apps A,B --scale 16
       --input-len 8192 [--trace 0|1] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import Tracer, span_cost_s  # noqa: E402

#: RunStats fields recorded as the pipeline's expected output.  All come
#: from reports and events, so no engine or caching change may move them.
COUNTER_FIELDS = (
    "baseline_cycles",
    "base_cycles",
    "spap_cycles",
    "spap_consumed_cycles",
    "spap_stall_cycles",
    "n_intermediate_reports",
    "queue_refills",
    "hot_fraction",
    "prediction_accuracy",
    "spap_speedup",
    "ap_cpu_speedup",
    "reduce_states_after",
)


def install_tracing(tracer: Tracer) -> None:
    """Wrap every layer's public entry points at the names callers import."""
    import repro.ap.queue
    import repro.core.partition
    import repro.core.profiling
    import repro.core.scenarios
    import repro.cost.advisory
    import repro.cost.app
    import repro.cost.explore
    import repro.experiments.pipeline as pipeline
    import repro.reduce.transform
    import repro.semant.absint
    import repro.semant.predict
    import repro.verify.app
    import repro.workloads.registry as registry

    counts = tracer.counts

    def count_bytes(args, kwargs, result) -> None:
        counts["sim.run.bytes"] += len(args[1])

    def count_subsets(args, kwargs, result) -> None:
        counts["cost.explore.subsets"] += result.n_subset_states
        counts["cost.explore.bursts"] += 0 if result.dfa_safe else 1

    scenarios = repro.core.scenarios
    for owner in (pipeline, scenarios, repro.core.profiling):
        tracer.wrap(owner, "run", "sim.run", count_bytes)
    tracer.wrap(scenarios, "run_events", "sim.run_events")
    for owner in (pipeline, scenarios):
        tracer.wrap(owner, "compile_network", "sim.compile")
    tracer.wrap(pipeline, "run_baseline_ap", "core.baseline")
    tracer.wrap(pipeline, "run_base_spap", "core.base_spap")
    tracer.wrap(pipeline, "run_ap_cpu", "core.ap_cpu")
    for attr in ("choose_partition_layers", "plan_hot_batches",
                 "partition_network", "layer_closure_mask"):
        tracer.wrap(pipeline, attr, "core.partition")
    for attr in ("batch_network", "pack_batches", "slice_network"):
        tracer.wrap(scenarios, attr, "ap.batching")
    tracer.wrap(repro.ap.queue, "queue_usage", "ap.queue")
    tracer.wrap(repro.verify.app, "verify_partition_with_plan", "verify.check")
    tracer.wrap(repro.cost.app, "analyze_run_cost", "cost.analyze")
    for owner in (repro.cost.advisory, repro.cost.explore):
        tracer.wrap(owner, "explore_subset_construction", "cost.explore",
                    count_subsets)
    tracer.wrap(pipeline, "analyze_network_semantics", "semant.analyze")
    tracer.wrap(pipeline, "predict_hot_cold", "semant.analyze")
    tracer.wrap(repro.reduce.transform, "reduce_network", "reduce.reduce")
    for owner in (pipeline, repro.semant.absint, repro.semant.predict,
                  repro.core.partition, repro.core.profiling, scenarios):
        tracer.wrap(owner, "analyze_network", "nfa.topology")
    tracer.wrap(registry.AppSpec, "build", "workloads.build")
    tracer.wrap(registry.AppSpec, "make_input", "workloads.input")
    for attr in ("baseline", "base_spap", "ap_cpu", "partition", "profile",
                 "predicted_hot_mask", "static_prediction", "cost_outcome",
                 "reduction"):
        tracer.wrap(pipeline.AppRun, attr, "experiments.apprun")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--apps", required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--input-len", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import repro  # noqa: F401
    from repro.experiments.config import ExperimentConfig
    from repro.stats.collect import DEFAULT_STATS_FRACTION, collect_run_stats

    print("READY", flush=True)
    if args.setup_only:
        return 0

    config = ExperimentConfig(scale=args.scale, input_len=args.input_len)
    tracer = Tracer()
    if args.trace:
        install_tracing(tracer)

    apps = {}
    began = time.perf_counter()
    for abbr in args.apps.split(","):
        start = time.perf_counter()
        row = {"error": None, "counters": None}
        try:
            with (tracer.span("stats.collect") if args.trace
                  else contextlib.nullcontext()):
                stats = collect_run_stats(abbr, config,
                                          fraction=DEFAULT_STATS_FRACTION)
            row["counters"] = {name: getattr(stats, name)
                               for name in COUNTER_FIELDS}
        except Exception as exc:  # one failed app is one failed operation
            row["error"] = repr(exc)
        row["seconds"] = time.perf_counter() - start
        apps[abbr] = row
    wall = time.perf_counter() - began

    out = {"wall_s": wall, "apps": apps}
    if args.trace:
        tracer.unwrap_all()
        out["self_s"] = tracer.self_times()
        out["counts"] = dict(tracer.counts)
        out["n_spans"] = len(tracer.spans)
        out["span_cost_s"] = span_cost_s()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
