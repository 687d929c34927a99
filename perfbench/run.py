"""The repository benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``pipeline_long`` / ``pipeline_wide`` -- the ``repro stats`` pipeline
  (``pipeline.py``); one operation is one app's RunStats, and an untraced
  run makes three cold passes and sums each app's median seconds.
* ``grid_fresh`` -- open-loop traffic through ``repro grid``
  (``serving.py``); one operation is one request.

With ``--trace 0`` the last stdout line carries every end-to-end metric;
with ``--trace 1`` it carries every per-layer metric, including the tracing
overhead.  A per-layer metric that a workload never reaches reads 0.  On
the pipeline workloads goodput is correct apps' RunStats per second.
``--seed`` makes the serving traffic; the pipeline inputs come from the
registry's fixed seeds.  ``--seconds`` is accepted for the runner's interface; each
workload's length is fixed in its module so every run measures the same
work.  The line before the result stamps the host (cpus, python, numpy).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    SRC,
    Metrics,
    emit_result,
    host_stamp,
    log,
    require_source,
)
from serving import APPS, LADDER  # noqa: E402

PIPELINE_WORKLOADS = ("pipeline_long", "pipeline_wide")
SERVING_WORKLOADS = ("grid_fresh",)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_rps", "1/s"),
)

PER_LAYER = (
    ("sim.run_s", "s"),
    ("sim.run_calls", "count"),
    ("sim.mb_s", "MB/s"),
    ("sim.passes_per_app", "count"),
    ("sim.run_events_s", "s"),
    ("sim.compile_s", "s"),
    ("sim.compile_calls", "count"),
    ("sim.compile_dfa_s", "s"),
    ("sim.compile_lazydfa_s", "s"),
    ("core.baseline_s", "s"),
    ("core.base_spap_s", "s"),
    ("core.ap_cpu_s", "s"),
    ("core.partition_s", "s"),
    ("ap.batching_s", "s"),
    ("ap.queue_s", "s"),
    ("verify.check_s", "s"),
    ("cost.analyze_s", "s"),
    ("cost.explore_s", "s"),
    ("cost.explore_calls", "count"),
    ("cost.subsets", "count"),
    ("cost.burst_frac", "ratio"),
    ("semant.analyze_s", "s"),
    ("reduce.reduce_s", "s"),
    ("nfa.topology_s", "s"),
    ("workloads.build_s", "s"),
    ("workloads.input_s", "s"),
    ("experiments.apprun_s", "s"),
    ("stats.collect_self_s", "s"),
    *((f"serve.{name}.r{rate}", unit) for rate, _seconds in LADDER for name, unit in (
        ("queue_ms_p50", "ms"), ("queue_ms_p90", "ms"), ("batch_mean", "count"),
        ("rejected", "count"), ("expired", "count"), ("late_ok", "count"))),
    ("serve.p50_ms", "ms"),
    ("serve.p90_ms", "ms"),
    ("serve.max_rate_rps", "1/s"),
    ("serve.goodput_rps.r64", "1/s"),
    ("serve.goodput_rps.r256", "1/s"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_p90", "ms"),
    *((f"serve.exec_ms_p90.{app}", "ms") for app in APPS),
    ("serve.transit_ms_p50", "ms"),
    ("grid.spills", "count"),
    ("grid.failovers", "count"),
    ("grid.store_build_s", "s"),
    ("sim.lazydfa_hit_rate", "ratio"),
    ("sim.lazydfa_evictions", "count"),
    ("sim.fallback_steps", "count"),
    *((f"sim.us_per_byte.{app}", "us") for app in APPS),
    ("loadgen.lag_p90_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=PIPELINE_WORKLOADS + SERVING_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    require_source()
    sys.path.insert(0, SRC)
    host = host_stamp()
    metrics = Metrics()
    trace = bool(args.trace)
    if args.workload in PIPELINE_WORKLOADS:
        from pipeline import run_pipeline

        correct, attempted, failed = run_pipeline(args.workload, trace, metrics)
    else:
        from serving import run_serving

        correct, attempted, failed = run_serving(args.seed, trace, metrics)

    wanted = PER_LAYER if trace else END_TO_END
    names = {name for name, _unit in wanted}
    extra = set(metrics.values) - names
    if extra:
        raise RuntimeError(f"undeclared metrics: {sorted(extra)}")
    result = Metrics()
    for name, unit in wanted:
        value, got_unit = metrics.values.get(name, (0.0, unit))
        if got_unit != unit:
            raise RuntimeError(f"metric {name} measured in {got_unit}, declared {unit}")
        result.put(name, value, unit)
    if not correct:
        log(f"{args.workload}: output check failed")
    emit_result(correct, attempted, failed, result, host)
    return 0


if __name__ == "__main__":
    sys.exit(main())
