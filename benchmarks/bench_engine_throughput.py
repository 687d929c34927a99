"""Microbenchmarks of the simulation substrate itself.

Not a paper figure: these keep the fast engine honest (the experiment
sweep's cost is dominated by it) and demonstrate pytest-benchmark's
steady-state measurement on hot loops.

Run directly, this module is the benchmark-trajectory harness::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py          # write BENCH_engine.json
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --check  # CI smoke assertion

The harness measures MB/s for the engines (reference, bit-packed,
table-driven DFA, and the bounded-subset lazy-DFA hybrid) and for the
multi-stream lock-step batch kernel serving uses on the standard workload — Snort at scale 64 is DFA-safe, so the same
workload carries the ``dfa`` measurement — plus a ``lazydfa_unsafe``
section timing the hybrid against bitpacked on the DFA-*unsafe* registry
apps (where no eager table exists), and records the *speedup ratios*
against a live re-run of the seed hot loop (``_seed_run`` below, a
verbatim copy of the pre-optimization engine).  Ratios of two measurements taken on the same
machine moments apart are machine-independent, so ``--check`` can compare
today's ratio against the committed one without caring how fast the CI
runner is.  See DESIGN.md §"Benchmark trajectory".

Every run rewrites the *entire* document — including the full ``workload``
block — from live measurement; nothing is merged into a previously
committed file, so no field can go stale when a new engine column is
added.  :func:`validate_engine_bench` pins the full document shape and is
applied both before writing and to the committed document in ``--check``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import bitops
from repro.sim import (
    compile_dfa,
    compile_lazydfa,
    compile_network,
    dfa_run,
    lazydfa_run,
    reference_run,
    reports_equal,
    run,
)
from repro.sim.multistream import run_multi
from repro.sim.result import reports_to_array
from repro.stats import SCHEMA_VERSION, StageTimer, validate_spans
from repro.workloads.registry import get_app

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
#: Stage-timing stats (repro.stats spans) written next to BENCH_engine.json.
STATS_PATH = BENCH_PATH.with_name("BENCH_engine_stats.json")
APP, SCALE, INPUT_LEN, K_STREAMS = "Snort", 64, 2048, 8
#: ``--check`` passes while live ratios stay above this fraction of the
#: committed ones (CI runners are noisy; ratios still drift a little).
TOLERANCE = 0.5
#: Hard floors from the acceptance criteria, enforced regardless of drift.
MIN_BITPACKED_VS_SEED = 1.5
MIN_MULTISTREAM_VS_K_SCALAR = 1.0
MIN_DFA_VS_BITPACKED = 10.0
#: The lazy hybrid must beat bitpacked by this factor on at least one
#: previously DFA-unsafe application (and the committed document must
#: record it on at least two) — the DESIGN.md §14 acceptance bar.
MIN_LAZYDFA_VS_BITPACKED = 2.0

#: DFA-unsafe registry applications (at the standard bench scale) where
#: only the hybrid can deliver table-speed execution; the ``lazydfa_unsafe``
#: section measures each against bitpacked.
UNSAFE_APPS = ("LV", "ER", "SPM", "Fermi", "Brill")

#: Full document shape: every key the harness writes, pinned so a partial
#: merge (stale workload metadata, missing engine column) cannot validate.
_WORKLOAD_KEYS = ("app", "scale", "input_len", "n_states", "k_streams",
                  "dfa_states", "dfa_classes", "dfa_table_bytes")
_THROUGHPUT_KEYS = ("seed_scalar", "reference", "bitpacked",
                    "k_scalar_aggregate", "multistream_aggregate", "dfa",
                    "lazydfa")
_SPEEDUP_KEYS = ("bitpacked_vs_seed", "multistream_vs_k_scalar",
                 "dfa_vs_bitpacked", "lazydfa_vs_bitpacked")
_UNSAFE_APP_KEYS = ("app", "bitpacked_mb_s", "lazydfa_mb_s", "speedup")


def validate_engine_bench(document):
    """Assert a BENCH_engine.json document is complete and self-consistent.

    Used on the live document before every write *and* on the committed
    document in ``--check`` — the same validator in both places, so CI
    fails loudly on a stale or hand-mangled file rather than silently
    comparing against garbage.  Returns the document for chaining.
    """
    for section, keys in [("workload", _WORKLOAD_KEYS),
                          ("throughput_mb_s", _THROUGHPUT_KEYS),
                          ("speedup", _SPEEDUP_KEYS)]:
        block = document.get(section)
        if not isinstance(block, dict):
            raise ValueError(f"engine bench document missing {section!r}")
        missing = [key for key in keys if key not in block]
        extra = [key for key in block if key not in keys]
        if missing or extra:
            raise ValueError(
                f"{section} keys drifted: missing {missing}, unexpected {extra}"
            )
    if not isinstance(document.get("reports_identical_across_engines"), bool):
        raise ValueError("missing reports_identical_across_engines flag")
    unsafe = document.get("lazydfa_unsafe")
    if not isinstance(unsafe, dict) or not isinstance(unsafe.get("apps"), list):
        raise ValueError("engine bench document missing lazydfa_unsafe.apps")
    for entry in unsafe["apps"]:
        missing = [key for key in _UNSAFE_APP_KEYS if key not in entry]
        extra = [key for key in entry if key not in _UNSAFE_APP_KEYS]
        if missing or extra:
            raise ValueError(
                f"lazydfa_unsafe entry keys drifted: missing {missing}, "
                f"unexpected {extra}"
            )
        for key in ("bitpacked_mb_s", "lazydfa_mb_s", "speedup"):
            if not float(entry[key]) > 0:
                raise ValueError(
                    f"non-positive {key} for unsafe app {entry.get('app')!r}"
                )
    if sum(1 for entry in unsafe["apps"]
           if float(entry["speedup"]) >= MIN_LAZYDFA_VS_BITPACKED) < 2:
        raise ValueError(
            f"lazydfa_unsafe must record >= {MIN_LAZYDFA_VS_BITPACKED}x over "
            f"bitpacked on at least two DFA-unsafe apps"
        )
    workload = document["workload"]
    if workload["app"] != APP or workload["scale"] != SCALE:
        raise ValueError(
            f"workload block is stale: {workload['app']}@{workload['scale']} "
            f"recorded, harness runs {APP}@{SCALE}"
        )
    for key in _THROUGHPUT_KEYS:
        if not float(document["throughput_mb_s"][key]) > 0:
            raise ValueError(f"non-positive throughput for {key}")
    return document


@pytest.fixture(scope="module")
def snort_compiled():
    spec = get_app(APP)
    network = spec.build(SCALE)
    return compile_network(network), spec.make_input(network, INPUT_LEN)


def test_engine_throughput_snort(benchmark, snort_compiled):
    compiled, data = snort_compiled
    result = benchmark(lambda: run(compiled, data, track_enabled=False))
    assert result.cycles == len(data)


def test_engine_throughput_with_tracking(benchmark, snort_compiled):
    compiled, data = snort_compiled
    result = benchmark(lambda: run(compiled, data, track_enabled=True))
    assert result.hot_count() > 0


def test_multistream_throughput(benchmark, snort_compiled):
    compiled, data = snort_compiled
    streams = [data] * K_STREAMS
    results = benchmark(lambda: run_multi(compiled, streams, track_enabled=False))
    assert len(results) == K_STREAMS


def test_compile_network_cost(benchmark):
    spec = get_app("Brill")
    network = spec.build(64)
    compiled = benchmark(lambda: compile_network(network))
    assert compiled.n_states == network.n_states


# --------------------------------------------------------------------------
# Benchmark-trajectory harness (python benchmarks/bench_engine_throughput.py)
# --------------------------------------------------------------------------


def _seed_run(compiled, input_data):
    """The seed repo's scalar hot loop, kept verbatim as the live baseline.

    Re-measuring it alongside the current engine turns absolute MB/s (which
    depends on the machine) into a speedup ratio (which does not).
    """
    symbols = np.frombuffer(bytes(input_data), dtype=np.uint8)
    enabled = compiled.initial_enabled().copy()
    reports = []
    accept = compiled.accept
    start_all = compiled.start_all
    report_mask = compiled.report_mask
    mid_report_mask = report_mask & ~compiled.eod_mask
    last = int(symbols.size) - 1

    for position in range(symbols.size):
        active = enabled & accept[symbols[position]]
        hits = active & (report_mask if position == last else mid_report_mask)
        if hits.any():
            for gid in bitops.to_indices(hits):
                reports.append((position, int(gid)))
        enabled = start_all.copy()
        if active.any():
            succ = compiled.successors_of(bitops.to_indices(active))
            bitops.set_indices(enabled, succ)
    return reports_to_array(reports)


def _mb_per_s(fn, n_bytes, repeats=3):
    """Best-of-``repeats`` throughput of ``fn`` over ``n_bytes`` of input."""
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - began)
    return n_bytes / best / 1e6


def collect_metrics(repeats=3, timer=None):
    """Measure every engine on the standard workload; returns the JSON dict.

    ``timer`` (a :class:`repro.stats.StageTimer`) records where the harness's
    own wall time goes — build/compile, the equivalence pass, and each
    engine's measurement loop — for the stats document written next to
    ``BENCH_engine.json``.
    """
    timer = timer or StageTimer(enabled=False)
    spec = get_app(APP)
    with timer.stage("build_compile"):
        network = spec.build(SCALE)
        compiled = compile_network(network)
        data = spec.make_input(network, INPUT_LEN)
    n = len(data)
    streams = [data] * K_STREAMS
    with timer.stage("compile_dfa"):
        # Snort at scale 64 is DFA-safe within the default budgets, so the
        # standard workload carries the dfa measurement directly.
        dfa = compile_dfa(network)
    with timer.stage("compile_lazydfa"):
        lazy = compile_lazydfa(network)

    with timer.stage("equivalence"):
        seed_result = _seed_run(compiled, data)
        fast_result = run(compiled, data, track_enabled=False)
        reference_result = reference_run(network, data)
        multi_results = run_multi(compiled, streams, track_enabled=False)
        dfa_result = dfa_run(dfa, data)
        lazy_result = lazydfa_run(lazy, data)
        identical = all(
            reports_equal(fast_result.reports, other)
            for other in [seed_result, reference_result.reports,
                          dfa_result.reports, lazy_result.reports]
            + [r.reports for r in multi_results]
        )

    with timer.stage("measure_seed"):
        seed = _mb_per_s(lambda: _seed_run(compiled, data), n, repeats)
    with timer.stage("measure_bitpacked"):
        bitpacked = _mb_per_s(
            lambda: run(compiled, data, track_enabled=False), n, repeats
        )
    with timer.stage("measure_reference"):
        reference = _mb_per_s(lambda: reference_run(network, data), n, repeats=1)
    with timer.stage("measure_k_scalar"):
        k_scalar = _mb_per_s(
            lambda: [run(compiled, s, track_enabled=False) for s in streams],
            n * K_STREAMS, repeats,
        )
    with timer.stage("measure_multistream"):
        multistream = _mb_per_s(
            lambda: run_multi(compiled, streams, track_enabled=False),
            n * K_STREAMS, repeats,
        )
    with timer.stage("measure_dfa"):
        dfa_run(dfa, data)  # warm the lazy flat-table build out of the timing
        dfa_mb_s = _mb_per_s(lambda: dfa_run(dfa, data), n, repeats)
    with timer.stage("measure_lazydfa"):
        # The equivalence pass above already converged the subset cache,
        # so this measures the steady-state hit path (the quantity the
        # cost model's lz_base coefficient is calibrated from).
        lazydfa_mb_s = _mb_per_s(lambda: lazydfa_run(lazy, data), n, repeats)

    with timer.stage("measure_lazydfa_unsafe"):
        unsafe_rows, unsafe_identical = _measure_unsafe_apps(repeats)
        identical = identical and unsafe_identical

    # The workload block is rebuilt wholesale from this run's live objects
    # (never merged with a committed document), so adding an engine can't
    # leave stale metadata behind.
    return {
        "workload": {
            "app": APP,
            "scale": SCALE,
            "input_len": n,
            "n_states": compiled.n_states,
            "k_streams": K_STREAMS,
            "dfa_states": dfa.n_states,
            "dfa_classes": dfa.n_classes,
            "dfa_table_bytes": dfa.table_bytes,
        },
        "throughput_mb_s": {
            "seed_scalar": round(seed, 3),
            "reference": round(reference, 3),
            "bitpacked": round(bitpacked, 3),
            "k_scalar_aggregate": round(k_scalar, 3),
            "multistream_aggregate": round(multistream, 3),
            "dfa": round(dfa_mb_s, 3),
            "lazydfa": round(lazydfa_mb_s, 3),
        },
        "speedup": {
            "bitpacked_vs_seed": round(bitpacked / seed, 3),
            "multistream_vs_k_scalar": round(multistream / k_scalar, 3),
            "dfa_vs_bitpacked": round(dfa_mb_s / bitpacked, 3),
            "lazydfa_vs_bitpacked": round(lazydfa_mb_s / bitpacked, 3),
        },
        "lazydfa_unsafe": {"apps": unsafe_rows},
        "reports_identical_across_engines": identical,
    }


def _measure_unsafe_apps(repeats=3):
    """Bitpacked-vs-hybrid throughput on the DFA-unsafe registry apps.

    These are exactly the applications the eager table backend must reject
    (their reachable subset space bursts the budget), so the hybrid is the
    only table-speed engine available — the section the cost model's
    ``lz_unsafe_factor`` is calibrated from.  Each app's hybrid reports are
    checked bit-identical against the bitpacked engine's before timing.
    """
    from repro.sim import dfa_feasible

    rows = []
    identical = True
    for abbr in UNSAFE_APPS:
        spec = get_app(abbr)
        network = spec.build(SCALE)
        assert not dfa_feasible(network), (
            f"{abbr} became DFA-safe at scale {SCALE}; "
            f"drop it from UNSAFE_APPS"
        )
        compiled = compile_network(network)
        data = spec.make_input(network, INPUT_LEN)
        n = len(data)
        lazy = compile_lazydfa(network)
        bp_result = run(compiled, data, track_enabled=False)
        lazy_result = lazydfa_run(lazy, data)  # also converges the cache
        identical = identical and reports_equal(
            bp_result.reports, lazy_result.reports
        )
        bp = _mb_per_s(lambda: run(compiled, data, track_enabled=False),
                       n, repeats)
        lz = _mb_per_s(lambda: lazydfa_run(lazy, data), n, repeats)
        rows.append({
            "app": abbr,
            "bitpacked_mb_s": round(bp, 3),
            "lazydfa_mb_s": round(lz, 3),
            "speedup": round(lz / bp, 3),
        })
    return rows, identical


def _check(recorded, live):
    """CI smoke assertions: correctness exactly, performance within drift."""
    failures = []
    if not live["reports_identical_across_engines"]:
        failures.append("engines no longer produce identical reports")
    for key, floor in [
        ("bitpacked_vs_seed", MIN_BITPACKED_VS_SEED),
        ("multistream_vs_k_scalar", MIN_MULTISTREAM_VS_K_SCALAR),
        ("dfa_vs_bitpacked", MIN_DFA_VS_BITPACKED),
    ]:
        old = recorded["speedup"][key]
        new = live["speedup"][key]
        need = max(floor, old * TOLERANCE)
        if new < need:
            failures.append(
                f"{key} regressed: {new:.2f}x live vs {old:.2f}x recorded "
                f"(needs >= {need:.2f}x)"
            )
    # The hybrid's reason to exist: table speed where no table is allowed.
    # At least one previously DFA-unsafe app must clear the hard floor live
    # (the committed document already pins >= 2 apps via the validator).
    live_unsafe = live["lazydfa_unsafe"]["apps"]
    best = max((entry["speedup"] for entry in live_unsafe), default=0.0)
    if best < MIN_LAZYDFA_VS_BITPACKED:
        failures.append(
            f"lazydfa_vs_bitpacked on DFA-unsafe apps regressed: best live "
            f"speedup {best:.2f}x (needs >= {MIN_LAZYDFA_VS_BITPACKED:.2f}x "
            f"on at least one app)"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description="engine benchmark trajectory")
    parser.add_argument("--check", action="store_true",
                        help="re-measure and assert no regression vs "
                             f"{BENCH_PATH.name} (exit 1 on failure)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per engine (best-of)")
    args = parser.parse_args(argv)

    timer = StageTimer()
    live = collect_metrics(repeats=args.repeats, timer=timer)
    # The document must round-trip through the same validator CI applies
    # to the committed file — catching shape drift at write time.
    validate_engine_bench(json.loads(json.dumps(live)))
    print(json.dumps(live, indent=2))
    if not args.check:
        BENCH_PATH.write_text(json.dumps(live, indent=2) + "\n")
        print(f"wrote {BENCH_PATH}", file=sys.stderr)
        # Stage timings of this harness run, schema-checked before writing.
        # Absolute wall times are machine-dependent (like the MB/s above),
        # so they ride alongside BENCH_engine.json rather than inside the
        # ratio-checked document.
        spans = timer.to_json()
        validate_spans(spans)
        STATS_PATH.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "kind": "engine_bench_stages",
            "workload": live["workload"],
            "stages": spans,
        }, indent=2) + "\n")
        print(f"wrote {STATS_PATH}", file=sys.stderr)
        return 0

    recorded = json.loads(BENCH_PATH.read_text())
    try:
        validate_engine_bench(recorded)
    except ValueError as err:
        print(f"FAIL: committed {BENCH_PATH.name} invalid: {err}",
              file=sys.stderr)
        return 1
    failures = _check(recorded, live)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("benchmark smoke check passed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
