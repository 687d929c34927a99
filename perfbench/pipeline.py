"""Pipeline workloads: the ``repro stats`` pipeline in fresh processes.

Each pass starts ``pipeline_child.py`` so the ``AppRun`` cache starts cold,
times process start until ``repro`` is imported (set-up, several times),
and compares every app's counters with the ones recorded in
``expected/pipeline_counters.json``.  An untraced run makes ``PASSES`` cold
passes and reports each app's median seconds, summed, so a slow stretch of a
shared host that covers one pass does not move the result.  The inputs come
from the registry's fixed per-app seeds: the benchmark's ``--seed`` drives
serving traffic only.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import ROOT, Metrics, child_env, log, median

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "pipeline_child.py")
EXPECTED_PATH = os.path.join(HERE, "expected", "pipeline_counters.json")
#: Cold pipeline passes per untraced run (the traced run makes one).
PASSES = 3
#: Import-only launches per run; with the measured passes' own, the median of
#: these makes ``setup_s``.
SETUP_LAUNCHES = 4
#: Span self times must add up to the wall time within this share.
COVERAGE_TOLERANCE = 0.01
CHILD_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class PipelineWorkload:
    name: str
    apps: Tuple[str, ...]
    scale: int
    input_len: int

    def config(self) -> Dict[str, int]:
        return {"scale": self.scale, "input_len": self.input_len}


WORKLOADS = {
    # A long input for the network size: streaming simulation (sim.run)
    # takes about 70% of a pass.
    "pipeline_long": PipelineWorkload("pipeline_long", ("HM500", "LV", "Brill"),
                                      scale=32, input_len=32768),
    # The default 8 KB input: the cost subset explorer takes about 70% of a
    # pass, simulation about 12%.
    "pipeline_wide": PipelineWorkload("pipeline_wide", ("Snort_L", "ER", "Fermi"),
                                      scale=48, input_len=8192),
}


# -- expected counters ------------------------------------------------------------


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, dict]:
    with open(path) as handle:
        return json.load(handle)


def save_expected(document: Dict[str, dict], path: str = EXPECTED_PATH) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def counter_mismatches(expected: Dict[str, object],
                       actual: Dict[str, object]) -> List[str]:
    """Names of counters that differ (exact comparison, floats included)."""
    names = sorted(set(expected) | set(actual))
    return [name for name in names if expected.get(name) != actual.get(name)]


# -- child processes -----------------------------------------------------------------


def _launch(workload: PipelineWorkload, trace: bool,
            setup_only: bool) -> Tuple[float, subprocess.Popen]:
    argv = [sys.executable, CHILD, "--apps", ",".join(workload.apps),
            "--scale", str(workload.scale), "--input-len", str(workload.input_len),
            "--trace", "1" if trace else "0"]
    if setup_only:
        argv.append("--setup-only")
    began = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - began
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"pipeline child did not start: {line!r}")
    return setup, proc


def run_child(workload: PipelineWorkload, trace: bool) -> Tuple[float, dict]:
    """One measured pipeline process: (setup seconds, its result document)."""
    setup, proc = _launch(workload, trace, setup_only=False)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline child exited with {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


def setup_times(workload: PipelineWorkload) -> List[float]:
    times = []
    for _ in range(SETUP_LAUNCHES):
        setup, proc = _launch(workload, trace=False, setup_only=True)
        proc.communicate(timeout=60)
        times.append(setup)
    return times


def check_counters(workload: PipelineWorkload, result: dict,
                   expected: Optional[dict]) -> List[str]:
    """Failed apps: raised, or counters differ from the recorded ones."""
    recorded = (expected or {}).get(workload.name, {})
    if recorded.get("config") != workload.config():
        log(f"{workload.name}: no expected counters for {workload.config()}")
        return list(workload.apps)
    failed = []
    for abbr, row in result["apps"].items():
        if row["error"] is not None:
            log(f"{abbr} raised {row['error']}")
            failed.append(abbr)
            continue
        diff = counter_mismatches(recorded["apps"].get(abbr, {}), row["counters"])
        if diff:
            log(f"{abbr}: counters differ from the recorded ones: {diff}")
            failed.append(abbr)
    return failed


# -- metrics --------------------------------------------------------------------------


def end_to_end(workload: PipelineWorkload, results: List[dict], bad_apps: set,
               setups: List[float], metrics: Metrics) -> None:
    # Each app's median over the passes, summed: one app's RunStats after another.
    wall = sum(median([result["apps"][abbr]["seconds"] for result in results])
               for abbr in workload.apps)
    good = len(workload.apps) - len(bad_apps)
    metrics.put("wall_s", wall, "s")
    metrics.put("setup_s", median(setups), "s")
    metrics.put("peak_rss_mb",
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB")
    # One operation is one app's RunStats; goodput is correct apps per second.
    metrics.put("goodput_rps", good / wall, "1/s")


def layer_metrics(self_s: Dict[str, float], counts: Dict[str, float],
                  n_apps: int, metrics: Metrics) -> None:
    """Per-layer self times and counts from the benchmark's own spans."""
    def put_s(metric: str, span: str) -> None:
        metrics.put(metric, self_s.get(span, 0.0), "s")

    run_s = self_s.get("sim.run", 0.0)
    put_s("sim.run_s", "sim.run")
    metrics.put("sim.run_calls", counts.get("sim.run.calls", 0), "count")
    metrics.put("sim.mb_s", counts.get("sim.run.bytes", 0) / 1e6 / run_s
                if run_s else 0.0, "MB/s")
    if n_apps:
        passes = counts.get("sim.run.calls", 0) + counts.get("sim.run_events.calls", 0)
        metrics.put("sim.passes_per_app", passes / n_apps, "count")
    put_s("sim.run_events_s", "sim.run_events")
    put_s("sim.compile_s", "sim.compile")
    metrics.put("sim.compile_calls", counts.get("sim.compile.calls", 0), "count")
    put_s("sim.compile_dfa_s", "sim.compile_dfa")
    put_s("sim.compile_lazydfa_s", "sim.compile_lazydfa")
    put_s("core.baseline_s", "core.baseline")
    put_s("core.base_spap_s", "core.base_spap")
    put_s("core.ap_cpu_s", "core.ap_cpu")
    put_s("core.partition_s", "core.partition")
    put_s("ap.batching_s", "ap.batching")
    put_s("ap.queue_s", "ap.queue")
    put_s("verify.check_s", "verify.check")
    put_s("cost.analyze_s", "cost.analyze")
    put_s("cost.explore_s", "cost.explore")
    explores = counts.get("cost.explore.calls", 0)
    metrics.put("cost.explore_calls", explores, "count")
    metrics.put("cost.subsets", counts.get("cost.explore.subsets", 0), "count")
    metrics.put("cost.burst_frac", counts.get("cost.explore.bursts", 0) / explores
                if explores else 0.0, "ratio")
    put_s("semant.analyze_s", "semant.analyze")
    put_s("reduce.reduce_s", "reduce.reduce")
    put_s("nfa.topology_s", "nfa.topology")
    put_s("workloads.build_s", "workloads.build")
    put_s("workloads.input_s", "workloads.input")
    put_s("experiments.apprun_s", "experiments.apprun")
    put_s("stats.collect_self_s", "stats.collect")


# -- one run --------------------------------------------------------------------------


def run_pipeline(name: str, trace: bool, metrics: Metrics) -> Tuple[bool, int, int]:
    """Run one pipeline workload; returns (correct, attempted, failed).

    The traced run's overhead is the spans it recorded times the measured
    cost of one wrapped call, as a share of its wall time.  An untraced run
    beside it cannot resolve that share: on one 2-vCPU host the wall time
    of a run moves by about a tenth from run to run.
    """
    workload = WORKLOADS[name]
    try:
        expected = load_expected()
    except FileNotFoundError:
        expected = None
    if not trace:
        setups = setup_times(workload)
        results = []
        failed = []
        for _ in range(PASSES):
            setup, result = run_child(workload, trace=False)
            setups.append(setup)
            results.append(result)
            failed += check_counters(workload, result, expected)
        end_to_end(workload, results, set(failed), setups, metrics)
        return not failed, PASSES * len(workload.apps), len(failed)

    _setup, result = run_child(workload, trace=True)
    failed = check_counters(workload, result, expected)
    correct = not failed
    layer_metrics(result["self_s"], result["counts"], len(workload.apps), metrics)
    coverage = sum(result["self_s"].values()) / result["wall_s"]
    metrics.put("trace.coverage", coverage, "ratio")
    metrics.put("trace.overhead_frac",
                result["n_spans"] * result["span_cost_s"] / result["wall_s"], "ratio")
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        log(f"{name}: span self times cover {coverage:.4f} of wall_s "
            f"(tolerance {COVERAGE_TOLERANCE})")
        correct = False
    return correct, len(workload.apps), len(failed)
