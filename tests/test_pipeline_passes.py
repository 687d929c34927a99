"""The experiment pipeline streams each network over the test input once.

:class:`~repro.experiments.pipeline.AppRun` hands the baseline the
ground-truth reports and shares one hot-partition pass between the
BaseAP/SpAP and AP-CPU scenarios, both passes on a lazy DFA.  These tests
pin that the outcomes are exactly those of the standalone scenario
functions, each making its own bit-packed pass, and that one
``collect_run_stats`` call makes exactly one full-network pass and one
hot-partition pass.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

import repro.core.scenarios as scenarios
import repro.experiments.pipeline as pipeline
from repro.core.scenarios import run_ap_cpu, run_base_spap, run_baseline_ap
from repro.experiments.config import default_config
from repro.experiments.pipeline import AppRun
from repro.sim.compiled import compile_network
from repro.sim.subset import construct, subset_tables
from repro.stats.collect import DEFAULT_STATS_FRACTION, collect_run_stats
from repro.workloads.registry import get_app

FRACTION = DEFAULT_STATS_FRACTION


class _PassLog:
    """Counts the pipeline's streaming passes by engine and network size."""

    def __init__(self, monkeypatch):
        self.lazy = []  # (n_states, cache_stats) per lazy-DFA pass
        self.bitpacked = []  # n_states per bit-packed `run` pass
        lazydfa_run = pipeline.lazydfa_run

        def logged_lazydfa_run(compiled, data, **kwargs):
            result = lazydfa_run(compiled, data, **kwargs)
            self.lazy.append((compiled.tables.n_states, compiled.cache_stats()))
            return result

        monkeypatch.setattr(pipeline, "lazydfa_run", logged_lazydfa_run)
        for owner in (pipeline, scenarios):
            monkeypatch.setattr(owner, "run", self._logged_run(owner.run))

    def _logged_run(self, run):
        def logged(compiled, data, **kwargs):
            self.bitpacked.append(compiled.n_states)
            return run(compiled, data, **kwargs)

        return logged


def _assert_outcomes_equal(got, want):
    assert type(got) is type(want)
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


# (app, scale, input_len, what the app covers)
CASES = [
    # Test input long enough that both lazy passes evict rows.
    ("HM500", 64, 12288, "churn"),
    ("Snort_L", 48, 4096, "dfa_safe_hot"),
    ("LV", 48, 4096, "no_cold"),
    ("Fermi", 48, 4096, "start_of_data"),
]


@pytest.mark.parametrize("abbr,scale,input_len,covers", CASES,
                         ids=[case[0] for case in CASES])
def test_pipeline_matches_standalone_scenarios(monkeypatch, abbr, scale,
                                               input_len, covers):
    config = replace(default_config(), scale=scale, input_len=input_len)
    ap = config.half_core
    passes = _PassLog(monkeypatch)
    run = AppRun(get_app(abbr), config)
    baseline = run.baseline(ap)
    spap = run.base_spap(FRACTION, ap)
    ap_cpu = run.ap_cpu(FRACTION, ap)
    partitioned, bins = run.partition(FRACTION, ap)

    if covers == "churn":
        assert all(stats["evictions"] > 0 for _n, stats in passes.lazy)
    elif covers == "dfa_safe_hot":
        assert construct(subset_tables(compile_network(partitioned.hot))).complete
    elif covers == "no_cold":
        assert partitioned.cold.n_states == 0
    else:
        assert run.spec.start_of_data
    monkeypatch.undo()

    data = run.test_input
    _assert_outcomes_equal(baseline, run_baseline_ap(run.network, data, ap))
    _assert_outcomes_equal(spap, run_base_spap(partitioned, data, ap, bins))
    _assert_outcomes_equal(
        ap_cpu, run_ap_cpu(partitioned, data, ap, bins, config.cpu_model)
    )


def test_collect_makes_one_full_and_one_hot_pass(monkeypatch):
    config = replace(default_config(), scale=48, input_len=4096)
    passes = _PassLog(monkeypatch)
    run = AppRun(get_app("Snort_L"), config)
    collect_run_stats("Snort_L", config, app_run=run)
    partitioned, _bins = run.partition(FRACTION, config.half_core)
    assert partitioned.hot.n_states != run.network.n_states
    assert [n for n, _stats in passes.lazy] == [
        run.network.n_states, partitioned.hot.n_states,
    ]
    # The only bit-packed pass is the profile prefix.
    assert passes.bitpacked == [run.network.n_states]

