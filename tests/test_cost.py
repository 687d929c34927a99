"""Tests for repro.cost: DFA-safety proofs, class compression, cost model.

The explorer's ``dfa_safe`` verdict is a *proof* about subset construction
(DESIGN.md §12): every safe verdict must be reproducible by the independent
frozenset oracle (``determinize_oracle.py``) at the same budget with exactly
the proven state count, and the built DFA must replay bit-identical reports
against the reference simulator.  The full-registry gate at the bottom
replays that claim across the 26-app corpus — zero false proofs is an
acceptance criterion, not a statistic.
"""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.__main__ import main as cli_main
from repro.cost import (
    BACKENDS,
    DEFAULT_COST_MODEL,
    DFA_TABLE_BUDGET,
    CostFeatures,
    CostModel,
    advise_network,
    analyze_symbol_classes,
    check_advisory_soundness,
    analyze_run_cost,
    cost_app,
    emit_advisory_diagnostics,
    explore_subset_construction,
    rank_backends,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import AppRun
from repro.nfa.automaton import Network
from repro.nfa.build import literal_chain
from repro.sim.dfa import DfaInfeasibleError, compile_dfa
from repro.sim.reference import reference_run
from repro.sim.result import reports_equal
from repro.verify.diagnostics import VerificationReport
from repro.workloads.registry import app_names, get_app

from determinize_oracle import DeterminizeError, determinize
from helpers import random_automaton, random_input, seeds

_CONFIG = ExperimentConfig(scale=64, input_len=512)

#: The committed calibration document the default coefficients were solved
#: from (resolved relative to the repo, not the pytest invocation cwd).
_BENCH_ENGINE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _patterns_net(*patterns):
    network = Network("n")
    for index, pattern in enumerate(patterns):
        network.add(literal_chain(pattern, name=f"p{index}", report_code=f"r{index}"))
    return network


def _random_net(rng):
    network = Network("rand")
    for index in range(rng.randint(1, 3)):
        network.add(random_automaton(rng, n_states=rng.randint(1, 5), name=f"a{index}"))
    return network


class TestExplorer:
    def test_safe_verdict_matches_determinize_exactly(self):
        network = _patterns_net(b"abc", b"abd", b"xy")
        outcome = explore_subset_construction(network, budget=4096)
        assert outcome.dfa_safe
        dfa = determinize(network, max_states=4096)
        assert outcome.n_subset_states == dfa.n_states

    def test_burst_budget_reports_frontier(self):
        network = _patterns_net(b"abc", b"abd", b"xy")
        exhaustive = explore_subset_construction(network, budget=4096)
        tight = exhaustive.n_subset_states - 1
        outcome = explore_subset_construction(network, budget=tight)
        assert not outcome.dfa_safe
        assert outcome.n_subset_states == tight + 1
        assert outcome.frontier_depth is not None and outcome.frontier_depth >= 1
        assert 1 <= outcome.max_subset_size <= network.n_states
        assert "exceeded" in outcome.describe()
        # And determinize bursts the same budget the same way.
        with pytest.raises(DeterminizeError):
            determinize(network, max_states=tight)

    def test_budget_of_one_bursts_on_any_growing_network(self):
        outcome = explore_subset_construction(_patterns_net(b"ab"), budget=1)
        assert not outcome.dfa_safe

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            explore_subset_construction(_patterns_net(b"a"), budget=0)

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_verdict_agrees_with_determinize(self, seed):
        """Safe => determinize succeeds with the proven count; unsafe =>
        determinize bursts the identical budget.  Worklist order differs
        between the two (BFS vs FIFO-of-discovery), so agreement here is
        exactly the order-independence the proof leans on."""
        rng = random.Random(seed)
        network = _random_net(rng)
        budget = rng.randint(1, 64)
        outcome = explore_subset_construction(network, budget=budget)
        if outcome.dfa_safe:
            dfa = determinize(network, max_states=budget)
            assert dfa.n_states == outcome.n_subset_states
        else:
            with pytest.raises(DeterminizeError):
                determinize(network, max_states=budget)

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_safe_proof_replays_reports(self, seed):
        rng = random.Random(seed)
        network = _random_net(rng)
        outcome = explore_subset_construction(network, budget=512)
        if not outcome.dfa_safe:
            return
        dfa = determinize(network, max_states=512)
        data = random_input(rng, rng.randint(0, 30))
        assert reports_equal(dfa.run(data), reference_run(network, data).reports)


class TestClassAnalysis:
    def test_literal_alphabet_collapses(self):
        analysis = analyze_symbol_classes(_patterns_net(b"ab"))
        # 'a', 'b', and the 254 indistinguishable other bytes.
        assert analysis.n_classes == 3
        assert analysis.n_distinct_symbol_sets == 2
        assert analysis.n_states == 2

    def test_table_byte_accounting(self):
        analysis = analyze_symbol_classes(_patterns_net(b"ab", b"cd"))
        assert analysis.table_bytes_dense == 256 * analysis.n_words * 8
        assert (
            analysis.table_bytes_classed
            == analysis.n_classes * analysis.n_words * 8 + 256
        )
        assert analysis.compression_ratio > 1.0
        payload = analysis.to_json()
        assert payload["n_classes"] == analysis.n_classes

    def test_empty_network_is_one_class(self):
        analysis = analyze_symbol_classes(Network("empty"))
        assert analysis.n_classes == 1
        assert analysis.n_states == 0


class TestCostModel:
    def test_calibration_reproduces_default_coefficients(self):
        with open(_BENCH_ENGINE) as handle:
            document = json.load(handle)
        solved = CostModel.from_engine_bench(document)
        assert solved.ref_base == pytest.approx(DEFAULT_COST_MODEL.ref_base, rel=1e-2)
        assert solved.ref_per_active == pytest.approx(
            DEFAULT_COST_MODEL.ref_per_active, rel=1e-2
        )
        assert solved.bp_base == pytest.approx(DEFAULT_COST_MODEL.bp_base, rel=1e-2)
        assert solved.bp_per_word == pytest.approx(
            DEFAULT_COST_MODEL.bp_per_word, rel=1e-2
        )
        assert solved.dfa_base == pytest.approx(DEFAULT_COST_MODEL.dfa_base, rel=1e-2)
        assert solved.lz_base == pytest.approx(DEFAULT_COST_MODEL.lz_base, rel=1e-2)
        assert solved.lz_unsafe_factor == pytest.approx(
            DEFAULT_COST_MODEL.lz_unsafe_factor, rel=1e-2
        )

    def test_calibration_point_is_recovered(self):
        """At the calibration features the model must reproduce the measured
        throughputs it was solved from (the defining property of a fit)."""
        with open(_BENCH_ENGINE) as handle:
            document = json.load(handle)
        n_states = document["workload"]["n_states"]
        features = CostFeatures(
            n_states=n_states,
            n_words=(n_states + 63) // 64,
            n_classes=256,
            mean_fanout=1.0,
            hot_fraction=0.10,
            event_driven=False,
            dfa_safe=False,
            dfa_states=None,
        )
        costs = DEFAULT_COST_MODEL.predict(features)
        throughput = document["throughput_mb_s"]
        assert costs["reference"] == pytest.approx(1 / throughput["reference"], rel=0.02)
        assert costs["bitpacked"] == pytest.approx(1 / throughput["bitpacked"], rel=0.02)

    def _features(self, **overrides):
        base = dict(
            n_states=64, n_words=1, n_classes=8, mean_fanout=1.5,
            hot_fraction=0.2, event_driven=False, dfa_safe=True, dfa_states=100,
        )
        base.update(overrides)
        return CostFeatures(**base)

    def test_event_driven_disables_streaming_backends(self):
        costs = DEFAULT_COST_MODEL.predict(self._features(event_driven=True))
        assert costs["dfa"] is None and costs["lazydfa"] is None
        assert costs["reference"] is not None and costs["bitpacked"] is not None

    def test_dfa_requires_proof_and_table_fit(self):
        assert DEFAULT_COST_MODEL.predict(
            self._features(dfa_safe=False, dfa_states=None)
        )["dfa"] is None
        huge = DFA_TABLE_BUDGET  # states * classes * 8 > budget
        assert DEFAULT_COST_MODEL.predict(self._features(dfa_states=huge))["dfa"] is None
        assert DEFAULT_COST_MODEL.predict(self._features())["dfa"] == pytest.approx(
            DEFAULT_COST_MODEL.dfa_base
        )

    def test_sparse_activity_favors_reference(self):
        sparse = DEFAULT_COST_MODEL.predict(
            self._features(hot_fraction=0.0, n_states=1024, n_words=16,
                           event_driven=True)
        )
        assert sparse["reference"] < sparse["bitpacked"]

    def test_rank_backends_orders_and_breaks_ties_canonically(self):
        ranked = rank_backends(
            {"reference": 2.0, "bitpacked": 1.0, "dfa": 1.0, "lazydfa": None}
        )
        assert [name for name, _cost in ranked] == ["bitpacked", "dfa", "reference"]


class TestAdvisory:
    def test_fused_advisory_shape(self):
        advisory = advise_network(_patterns_net(b"abc", b"abd"))
        assert advisory.dfa_safe and advisory.dfa_states is not None
        assert advisory.recommended in BACKENDS
        assert advisory.margin >= 1.0
        assert set(advisory.costs) == set(BACKENDS)
        payload = advisory.to_json()
        assert payload["recommended"] == advisory.recommended
        assert advisory.recommended in advisory.render()

    def test_burst_budget_emits_c002_as_info(self):
        advisory = advise_network(_patterns_net(b"abc", b"abd"), budget=2)
        report = VerificationReport(subject="t")
        emit_advisory_diagnostics(advisory, report)
        assert "SPAP-C002" in report.codes()
        assert report.ok  # blowup is a finding, not an error

    def test_sound_proof_is_silent(self):
        network = _patterns_net(b"abc", b"abd")
        advisory = advise_network(network)
        report = VerificationReport(subject="t")
        check_advisory_soundness(network, advisory, report, replay_input=b"abcabdxx")
        assert "SPAP-C001" not in report.codes()
        assert report.ok

    def test_lying_proof_trips_c001(self):
        network = _patterns_net(b"abc", b"abd")
        advisory = advise_network(network)
        lying = replace(
            advisory,
            exploration=replace(
                advisory.exploration,
                n_subset_states=advisory.exploration.n_subset_states + 1,
            ),
        )
        report = VerificationReport(subject="t")
        check_advisory_soundness(network, lying, report)
        assert "SPAP-C001" in report.codes()
        assert not report.ok

    def test_table_over_byte_budget_does_not_trip_c001(self):
        # A proven-safe partition whose table exceeds the byte budget is
        # SPAP-C004's finding; the soundness replay applies no byte gate.
        network = _patterns_net(b"abc", b"abd")
        with pytest.raises(DfaInfeasibleError):
            compile_dfa(network, table_budget=1)
        advisory = advise_network(network)
        report = VerificationReport(subject="t")
        check_advisory_soundness(network, advisory, report, replay_input=b"abcabd")
        assert "SPAP-C001" not in report.codes()

    def test_unsafe_advisory_skips_the_differential(self):
        advisory = advise_network(_patterns_net(b"abc", b"abd"), budget=2)
        report = VerificationReport(subject="t")
        check_advisory_soundness(_patterns_net(b"abc", b"abd"), advisory, report)
        assert report.codes() == []


class TestCostApp:
    def test_outcome_shape(self):
        outcome = cost_app("Bro217", _CONFIG)
        assert outcome.cost.app == "Bro217"
        names = [advisory.partition for advisory in outcome.cost.advisories]
        assert "network" in names and "hot" in names
        assert outcome.cost.network.partition == "network"
        assert 0.0 <= outcome.cost.dfa_safe_fraction <= 1.0
        payload = outcome.to_json()
        assert set(payload) == {"cost", "report"}
        assert "budget" in outcome.render()

    def test_cold_partition_is_event_driven(self):
        outcome = cost_app("HM", _CONFIG)
        cold = outcome.cost.advisory("cold")
        if cold is not None:  # empty cold partitions are skipped
            assert cold.costs["dfa"] is None
            assert cold.costs["lazydfa"] is None

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            cost_app("NotAnApp", _CONFIG)

    @pytest.mark.parametrize("abbr", app_names())
    def test_soundness_gate(self, abbr):
        """The CI gate: zero false DFA-safe proofs across the corpus.

        Every partition proven safe at the default budget is rebuilt with
        rows and replayed bit-identically against the reference simulator
        (SPAP-C001 differential), and its proven subset count must equal the
        independent oracle's state count."""
        run = AppRun(get_app(abbr), replace(_CONFIG, verify=False))
        fraction = run.config.profile_fractions[-1]
        outcome = analyze_run_cost(run, fraction=fraction, check=True)
        assert outcome.ok, outcome.report.render_text(verbose=True)
        assert "SPAP-C001" not in outcome.report.codes()
        partitioned, _bins = run.partition(fraction, run.config.half_core)
        networks = {
            "network": run.network,
            "hot": partitioned.hot,
            "cold": partitioned.cold,
        }
        for advisory in outcome.cost.advisories:
            if advisory.dfa_safe:
                oracle = determinize(
                    networks[advisory.partition],
                    max_states=advisory.exploration.budget,
                )
                assert oracle.n_states == advisory.dfa_states, advisory.partition


class TestCostCli:
    def _env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "64")
        monkeypatch.setenv("REPRO_INPUT", "512")

    def test_json_payload(self, capsys, monkeypatch):
        self._env(monkeypatch)
        assert cli_main(["cost", "Bro217", "--json", "--check"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["cost"]["app"] == "Bro217"
        assert payload[0]["cost"]["advisories"]

    def test_text_mode_mentions_backends(self, capsys, monkeypatch):
        self._env(monkeypatch)
        assert cli_main(["cost", "Bro217"]) == 0
        out = capsys.readouterr().out
        assert "advise" in out and "budget" in out

    def test_tiny_budget_still_exits_zero(self, capsys, monkeypatch):
        self._env(monkeypatch)
        assert cli_main(["cost", "Bro217", "--budget", "2"]) == 0
        assert "exceeded" in capsys.readouterr().out

    def test_no_apps_is_usage_error(self, capsys):
        assert cli_main(["cost"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_unknown_app(self, capsys):
        assert cli_main(["cost", "nope"]) == 2
        assert "unknown application" in capsys.readouterr().err
