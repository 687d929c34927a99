"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402
from common import METRIC_NAME, METRIC_UNIT, Metrics, percentile  # noqa: E402
from pipeline import (  # noqa: E402
    EXPECTED_PATH,
    WORKLOADS as PIPELINES,
    counter_mismatches,
    load_expected,
    save_expected,
)
from run import END_TO_END, PER_LAYER  # noqa: E402
from serving import APPS, LADDER, build_networks, make_requests  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_and_units_are_well_formed_and_unique():
    names = [name for name, _unit in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in END_TO_END + PER_LAYER:
        assert METRIC_NAME.match(name), name
        assert METRIC_UNIT.match(unit), unit


def test_declared_metrics_match_the_harness():
    declared = _declared()
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in declared["workloads"]} == set(PIPELINES) | {"grid_fresh"}
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_metrics_reject_bad_names_and_non_finite_values():
    metrics = Metrics()
    with pytest.raises(ValueError):
        metrics.put("bad name", 1.0, "s")
    with pytest.raises(ValueError):
        metrics.put("latency", float("nan"), "ms")


def test_payloads_are_identical_for_a_seed_and_never_repeat():
    networks = build_networks()
    first = make_requests(7, networks)
    again = make_requests(7, networks)
    other = make_requests(8, networks)
    assert [(r.rate, r.app, r.payload) for r in first] == \
        [(r.rate, r.app, r.payload) for r in again]
    assert [r.payload for r in first] != [r.payload for r in other]
    assert len(first) == sum(int(rate * seconds) for rate, seconds in LADDER)
    assert all(len(r.payload) == 1024 for r in first)
    assert len({r.payload for r in first}) == len(first)
    assert {r.app for r in first} == set(APPS)


def test_expected_counter_file_round_trips(tmp_path):
    document = load_expected()
    assert set(document) == set(PIPELINES)
    for name, workload in PIPELINES.items():
        assert document[name]["config"] == workload.config()
        assert set(document[name]["apps"]) == set(workload.apps)
    copy = tmp_path / "counters.json"
    save_expected(document, str(copy))
    assert load_expected(str(copy)) == document
    with open(EXPECTED_PATH) as handle:
        assert copy.read_text() == handle.read()


def test_counter_mismatch_is_exact():
    recorded = load_expected()["pipeline_wide"]["apps"]["ER"]
    assert counter_mismatches(recorded, dict(recorded)) == []
    moved = dict(recorded, spap_speedup=recorded["spap_speedup"] * (1 + 1e-15))
    assert counter_mismatches(recorded, moved) == ["spap_speedup"]
    assert counter_mismatches(recorded, {}) == sorted(recorded)


def test_percentile_counts_misses_last():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([1.0, float("inf")], 0) == 1.0
    assert percentile([1.0, float("inf")], 90) == float("inf")
