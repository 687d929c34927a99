"""Cached per-application experiment pipeline.

Every paper figure/table needs some subset of: the built network, its
topology, the split input, ground-truth hot states on the test input,
profiling runs at several fractions, partitions, and the three execution
scenarios.  :class:`AppRun` computes each once and caches it, so a full
multi-figure sweep touches each expensive stage exactly once per app.

Each cache-miss computation runs under the run's :class:`StageTimer`
(``repro.stats``), so any consumer can ask where the wall time of a
pipeline went; cache hits are never re-timed.  ``REPRO_NO_STATS=1``
disables recording entirely.

The module cache and the lazy construction stages (build, topology,
compile) are thread-safe: the match server (``repro.serve``) shares one
pipeline across its executor workers, so :func:`get_run` guards the cache
dict with a lock and :class:`AppRun` double-checks its construction
stages under a per-run lock — concurrent first access computes each stage
exactly once.  The simulation stages themselves remain single-threaded
per run (the server serializes them per application).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..ap.config import APConfig
from ..core.partition import PartitionedNetwork, partition_network, plan_hot_batches
from ..core.profiling import choose_partition_layers, layer_closure_mask
from ..core.scenarios import (
    BaselineOutcome,
    PartitionedOutcome,
    run_ap_cpu,
    run_base_spap,
    run_baseline_ap,
)
from ..nfa.analysis import NetworkTopology, analyze_network
from ..nfa.automaton import Network
from ..semant.absint import SemanticFacts, analyze_network_semantics
from ..semant.predict import StaticPrediction, predict_hot_cold
from ..sim import Engine, FALLBACK_BACKEND, resolve_backend
from ..sim.compiled import CompiledNetwork, compile_network
from ..sim.dfa import CompiledDFA, compile_dfa
from ..sim.lazydfa import CompiledLazyDfa, compile_lazydfa, lazydfa_run
from ..sim.engine import run
from ..sim.result import SimResult
from ..sim.subset import subset_tables
from ..stats.recorder import StageTimer
from ..workloads.registry import AppSpec, get_app
from .config import ExperimentConfig, default_config

__all__ = ["AppRun", "get_run", "clear_cache"]


class AppRun:
    """Lazily-computed, cached experiment state for one application."""

    def __init__(self, spec: AppSpec, config: ExperimentConfig):
        self.spec = spec
        self.config = config
        #: Wall-time spans of every cache-miss stage (repro.stats).
        self.stats = StageTimer()
        # Serializes the lazy construction stages when multiple threads
        # share this run (re-entrant: `compiled` needs `network`).
        self._lock = threading.RLock()
        self._network: Optional[Network] = None
        self._topology: Optional[NetworkTopology] = None
        self._semantics: Optional[SemanticFacts] = None
        self._static_predictions: Dict[int, StaticPrediction] = {}
        self._compiled: Optional[CompiledNetwork] = None
        self._dfa: Optional[CompiledDFA] = None
        self._lazydfa: Optional[CompiledLazyDfa] = None
        self._entire_input: Optional[bytes] = None
        self._truth: Optional[SimResult] = None
        self._profiles: Dict[float, SimResult] = {}
        self._partitions: Dict[Tuple[float, int], Tuple[PartitionedNetwork, list]] = {}
        self._baselines: Dict[int, BaselineOutcome] = {}
        # Hot-partition reports on the test input, keyed (fraction,
        # capacity): one pass shared by the BaseAP/SpAP and AP-CPU scenarios.
        self._hot_reports: Dict[Tuple[float, int], np.ndarray] = {}
        self._spap: Dict[Tuple[float, int], PartitionedOutcome] = {}
        self._ap_cpu: Dict[Tuple[float, int], PartitionedOutcome] = {}
        # repro.cost outcomes, keyed (fraction, budget); typed loosely to
        # keep this module import-cycle-free (repro.cost times itself
        # through repro.stats).
        self._cost: Dict[Tuple[float, int], object] = {}
        # repro.reduce results keyed by mode, and per-(mode, backend)
        # compiled artifacts of the reduced network; loosely typed for the
        # same import-cycle reason.
        self._reductions: Dict[str, object] = {}
        self._reduced_prepared: Dict[Tuple[str, str], object] = {}

    # -- construction stages ------------------------------------------------------

    @property
    def network(self) -> Network:
        if self._network is None:
            with self._lock:
                if self._network is None:
                    with self.stats.stage("build"):
                        self._network = self.spec.build(self.config.scale)
        return self._network

    @property
    def topology(self) -> NetworkTopology:
        if self._topology is None:
            with self._lock:
                if self._topology is None:
                    network = self.network
                    with self.stats.stage("topology"):
                        self._topology = analyze_network(network)
        return self._topology

    @property
    def semantics(self) -> SemanticFacts:
        """Abstract-interpretation facts over the parent network (repro.semant)."""
        if self._semantics is None:
            topology = self.topology  # timed under its own stage
            with self.stats.stage("semant"):
                self._semantics = analyze_network_semantics(self.network, topology)
        return self._semantics

    def static_prediction(self, horizon: Optional[int] = None) -> StaticPrediction:
        """Profile-free hot/cold prediction (default horizon: the input length)."""
        h = self.config.input_len if horizon is None else horizon
        if h not in self._static_predictions:
            facts = self.semantics  # timed under the same `semant` stage
            with self.stats.stage("semant"):
                self._static_predictions[h] = predict_hot_cold(
                    self.network, facts, self.topology, horizon=h
                )
        return self._static_predictions[h]

    @property
    def compiled(self) -> CompiledNetwork:
        if self._compiled is None:
            with self._lock:
                if self._compiled is None:
                    network = self.network
                    with self.stats.stage("compile"):
                        self._compiled = compile_network(network)
        return self._compiled

    @property
    def compiled_dfa(self) -> CompiledDFA:
        """The materialized table-driven DFA (DESIGN.md §13).

        Raises :class:`~repro.sim.dfa.DfaInfeasibleError` when the network
        is not DFA-safe — callers should route selection through
        :meth:`select_backend`, which checks feasibility first and falls
        back to the lazy hybrid instead of raising.
        """
        if self._dfa is None:
            with self._lock:
                if self._dfa is None:
                    network = self.network
                    with self.stats.stage("compile_dfa"):
                        self._dfa = compile_dfa(network)
        return self._dfa

    @property
    def compiled_lazydfa(self) -> CompiledLazyDfa:
        """The lazy-DFA hybrid artifact (DESIGN.md §14).

        Always feasible (no subset-construction proof required); its
        subset cache fills during execution and persists on this run, so
        repeated inputs execute mostly at table speed.
        """
        if self._lazydfa is None:
            with self._lock:
                if self._lazydfa is None:
                    compiled = self.compiled
                    with self.stats.stage("compile_lazydfa"):
                        self._lazydfa = CompiledLazyDfa(subset_tables(compiled))
        return self._lazydfa

    @property
    def entire_input(self) -> bytes:
        if self._entire_input is None:
            with self._lock:
                if self._entire_input is None:
                    network = self.network
                    with self.stats.stage("input"):
                        self._entire_input = self.spec.make_input(
                            network, self.config.input_len
                        )
        return self._entire_input

    @property
    def test_input(self) -> bytes:
        """Second half of the input — except for start-of-data applications,
        which consume the entire input (paper footnote 2)."""
        if self.spec.start_of_data:
            return self.entire_input
        return self.entire_input[len(self.entire_input) // 2 :]

    def profile_input(self, fraction: float) -> bytes:
        """A prefix of the first half, ``fraction`` of the *entire* input."""
        take = max(1, int(round(len(self.entire_input) * fraction)))
        take = min(take, len(self.entire_input) // 2)
        return self.entire_input[:take]

    # -- simulation stages ---------------------------------------------------------
    #
    # Each stage resolves the stages it depends on before opening its own
    # timer, so no span encloses another and the spans sum to at most the
    # wall time.  Every network streams the test input once per operating
    # point, on a throwaway lazy DFA (`_stream_once`): the full network in
    # `truth` (whose reports the baseline reuses) and the hot partition in
    # `hot_reports` (shared by both partitioned scenarios).  The 1% profile
    # prefix and the event-driven cold phase stay on the bit-packed engine.

    @property
    def truth(self) -> SimResult:
        """Ground truth on the test input (hot set, reports)."""
        if self._truth is None:
            compiled = self.compiled
            test_input = self.test_input
            with self.stats.stage("truth"):
                self._truth = _stream_once(compiled, test_input, track_enabled=True)
        return self._truth

    def hot_fraction(self) -> float:
        return self.truth.hot_fraction()

    def profile(self, fraction: float) -> SimResult:
        if fraction not in self._profiles:
            compiled = self.compiled
            profile_input = self.profile_input(fraction)
            with self.stats.stage("profile"):
                self._profiles[fraction] = run(
                    compiled, profile_input, track_enabled=True
                )
        return self._profiles[fraction]

    def predicted_hot_mask(self, fraction: float) -> np.ndarray:
        """The layer-closed profiled prediction (what the partitioner uses)."""
        hot = self.profile(fraction).hot_mask()
        layers = choose_partition_layers(self.network, self.topology, hot)
        return layer_closure_mask(self.network, self.topology, layers)

    def partition(self, fraction: float, config: APConfig,
                  *, fill: bool = True) -> Tuple[PartitionedNetwork, list]:
        key = (fraction, config.capacity, fill)
        if key not in self._partitions:
            hot_mask = self.profile(fraction).hot_mask()
            network, topology = self.network, self.topology
            with self.stats.stage("partition"):
                layers = choose_partition_layers(network, topology, hot_mask)
                layers, bins = plan_hot_batches(
                    network, topology, layers, config.capacity, fill=fill
                )
                partitioned = partition_network(network, layers, topology=topology)
            if self.config.verify:
                # Fail fast: refuse to simulate a partition or batch plan that
                # violates a §IV-C/§III-C invariant (escape hatch: --no-verify
                # on the CLI, REPRO_NO_VERIFY=1, or ExperimentConfig(verify=False)).
                from ..verify.app import verify_partition_with_plan

                with self.stats.stage("verify"):
                    verify_partition_with_plan(
                        partitioned, bins, config.capacity
                    ).raise_for_errors()
            self._partitions[key] = (partitioned, bins)
        return self._partitions[key]

    def baseline(self, config: APConfig) -> BaselineOutcome:
        """The baseline AP: batch accounting over truth's reports, no pass."""
        if config.capacity not in self._baselines:
            reports = self.truth.reports
            with self.stats.stage("baseline"):
                self._baselines[config.capacity] = run_baseline_ap(
                    self.network, self.test_input, config, reports=reports
                )
        return self._baselines[config.capacity]

    def hot_reports(self, fraction: float, config: APConfig) -> np.ndarray:
        """The hot partition's reports on the test input (BaseAP mode)."""
        key = (fraction, config.capacity)
        if key not in self._hot_reports:
            partitioned, _bins = self.partition(fraction, config)
            test_input = self.test_input
            with self.stats.stage("hot_phase"):
                self._hot_reports[key] = _stream_once(
                    compile_network(partitioned.hot), test_input
                ).reports
        return self._hot_reports[key]

    def base_spap(self, fraction: float, config: APConfig) -> PartitionedOutcome:
        key = (fraction, config.capacity)
        if key not in self._spap:
            partitioned, bins = self.partition(fraction, config)
            hot_reports = self.hot_reports(fraction, config)
            with self.stats.stage("base_spap"):
                self._spap[key] = run_base_spap(
                    partitioned, self.test_input, config, bins,
                    hot_reports=hot_reports,
                )
        return self._spap[key]

    def ap_cpu(self, fraction: float, config: APConfig) -> PartitionedOutcome:
        key = (fraction, config.capacity)
        if key not in self._ap_cpu:
            partitioned, bins = self.partition(fraction, config)
            hot_reports = self.hot_reports(fraction, config)
            with self.stats.stage("ap_cpu"):
                self._ap_cpu[key] = run_ap_cpu(
                    partitioned, self.test_input, config, bins,
                    self.config.cpu_model, hot_reports=hot_reports,
                )
        return self._ap_cpu[key]

    def cost_outcome(self, fraction: float, budget: Optional[int] = None):
        """Cached compilability/cost advisories (``repro.cost``).

        The fast static half only (no determinization differential); the
        work itself is timed under the ``cost`` stage inside
        :func:`~repro.cost.app.analyze_run_cost`.
        """
        # Deferred: repro.cost imports this module for the AppRun type.
        from ..cost.app import analyze_run_cost
        from ..cost.explore import DEFAULT_DFA_BUDGET

        use_budget = DEFAULT_DFA_BUDGET if budget is None else budget
        key = (fraction, use_budget)
        if key not in self._cost:
            self._cost[key] = analyze_run_cost(
                self, fraction=fraction, budget=use_budget
            )
        return self._cost[key]

    def reduction(self, mode: str = "exact"):
        """The cached :class:`~repro.reduce.transform.ReductionResult`.

        ``exact`` (the ``--reduce`` default) preserves reports and witness
        masks bit for bit; ``aggressive`` preserves the report stream only.
        Reuses the cached semant facts and is timed under the ``reduce``
        stage.
        """
        # Deferred: repro.reduce.app imports this module for the AppRun type.
        from ..reduce.transform import reduce_network

        if mode not in self._reductions:
            with self._lock:
                if mode not in self._reductions:
                    facts = self.semantics  # timed under its own stage
                    with self.stats.stage("reduce"):
                        self._reductions[mode] = reduce_network(
                            self.network, facts, mode=mode
                        )
        return self._reductions[mode]

    @property
    def reduced(self):
        """The exact-mode reduction (see :meth:`reduction`)."""
        return self.reduction("exact")

    def reduced_prepared_for(self, backend: str, mode: str = "exact") -> object:
        """The cached executable artifact of the *reduced* network."""
        key = (mode, backend)
        if key not in self._reduced_prepared:
            with self._lock:
                if key not in self._reduced_prepared:
                    network = self.reduction(mode).network
                    with self.stats.stage("compile_reduced"):
                        if backend == "reference":
                            prepared: object = network
                        elif backend == "dfa":
                            prepared = compile_dfa(network)
                        elif backend == "lazydfa":
                            prepared = compile_lazydfa(network)
                        else:
                            prepared = compile_network(network)
                    self._reduced_prepared[key] = prepared
        return self._reduced_prepared[key]

    # -- backend selection (DESIGN.md §13) -----------------------------------------

    def backend_advisory(self, fraction: float, budget: Optional[int] = None):
        """The whole-network :class:`BackendAdvisory` at this operating point."""
        return self.cost_outcome(fraction, budget).cost.network

    def select_backend(
        self,
        requested: Optional[str],
        fraction: float,
        budget: Optional[int] = None,
        *,
        allow_fallback: Optional[bool] = None,
        reduce: bool = False,
    ) -> Tuple[str, Engine]:
        """Resolve a backend request for this run's network.

        ``None``/``"auto"`` consults the cost advisory
        (:meth:`backend_advisory`); an explicit name skips the advisory
        entirely.  Either way the choice is feasibility-checked against
        the concrete network: ``auto`` requests fall back to ``lazydfa``
        silently, explicit ones raise
        :class:`~repro.sim.BackendInfeasibleError` unless
        ``allow_fallback=True`` opts into substitution, so the returned
        name is the engine that will actually execute.

        With ``reduce=True`` feasibility is checked against the *reduced*
        network (the one that will execute) — a reduction can make a
        DFA-unsafe network safe, so the reduced check is both necessary
        and an opportunity.
        """
        advised = FALLBACK_BACKEND
        if requested in (None, "auto"):
            advised = self.backend_advisory(fraction, budget).recommended
        subject = self.reduction().network if reduce else self.network
        return resolve_backend(
            requested, subject, advised=advised,
            allow_fallback=allow_fallback,
        )

    def prepared_for(self, backend: str) -> object:
        """The cached executable artifact for a resolved backend name."""
        if backend == "reference":
            return self.network
        if backend == "dfa":
            return self.compiled_dfa
        if backend == "lazydfa":
            return self.compiled_lazydfa
        return self.compiled

    def run_backend(
        self,
        requested: Optional[str],
        input_data: Optional[bytes] = None,
        *,
        fraction: float,
        budget: Optional[int] = None,
        track_enabled: bool = False,
        allow_fallback: Optional[bool] = None,
        reduce: bool = False,
    ) -> Tuple[str, SimResult]:
        """Execute the test input (or ``input_data``) on a selected backend.

        Returns ``(backend_actually_used, result)``; results are
        bit-identical across backends by the cross-engine property gate.
        With ``reduce=True`` the engine executes the exact-mode reduced
        network and the result is lifted back to parent global state ids,
        so reports and witness masks stay bit-identical to an unreduced
        run (the SPAP-R001 guarantee).
        """
        name, engine = self.select_backend(
            requested, fraction, budget, allow_fallback=allow_fallback,
            reduce=reduce,
        )
        prepared = (
            self.reduced_prepared_for(name) if reduce else self.prepared_for(name)
        )
        data = self.test_input if input_data is None else input_data
        with self.stats.stage(f"run_{name}"):
            result = engine.run(prepared, data, track_enabled=track_enabled)
        if reduce:
            result = self.reduction().lift_result(result)
        return name, result

    def stored_app(self, backend: str = "auto", *,
                   fraction: Optional[float] = None) -> "object":
        """This run's serving artifacts as a picklable grid store entry.

        The explicit, serializable face of the pipeline cache
        (``repro.grid.store``): backend selection runs here — advisory
        consulted for ``auto``, feasibility-checked either way, with
        serving's availability-over-strictness fallback — and exactly the
        artifacts the selected engine needs are materialized, so a grid
        worker loads the entry instead of re-running the pipeline.
        """
        # Deferred: repro.grid.store imports this module for build_store.
        from ..grid.store import StoredApp
        from .sweep import DEFAULT_PROFILE_FRACTION

        frac = DEFAULT_PROFILE_FRACTION if fraction is None else fraction
        advised = FALLBACK_BACKEND
        if backend in (None, "auto"):
            advised = self.backend_advisory(frac).recommended
        name, _engine = self.select_backend(backend, frac, allow_fallback=True)
        entry = StoredApp(
            name=self.spec.abbr,
            backend=name,
            network=self.network,
            compiled=self.compiled,
            advised=advised if backend in (None, "auto") else name,
        )
        if name == "dfa":
            entry.dfa = self.compiled_dfa
        elif name == "lazydfa":
            entry.lazydfa = self.compiled_lazydfa
        return entry

    # -- derived metrics -----------------------------------------------------------

    def spap_speedup(self, fraction: float, config: APConfig) -> float:
        baseline = self.baseline(config)
        outcome = self.base_spap(fraction, config)
        return baseline.cycles / outcome.cycles

    def ap_cpu_speedup(self, fraction: float, config: APConfig) -> float:
        baseline = self.baseline(config)
        outcome = self.ap_cpu(fraction, config)
        return baseline.seconds(config) / outcome.seconds(config)

    def resource_saving(self, fraction: float, config: APConfig) -> float:
        partitioned, _bins = self.partition(fraction, config)
        return partitioned.resource_saving()


def _stream_once(compiled: CompiledNetwork, data: bytes, *,
                 track_enabled: bool = False) -> SimResult:
    """One pass over ``data`` on a lazy DFA that is dropped afterwards.

    It builds only the subsets the pass visits and needs no DFA-safety
    proof, so a single pass pays for no construction it does not use.
    """
    lazy = CompiledLazyDfa(subset_tables(compiled))
    try:
        return lazydfa_run(lazy, data, track_enabled=track_enabled)
    finally:
        # Cached rows link to each other, so only the cyclic collector
        # would free them; clearing breaks the links and frees them now,
        # before the next pass allocates its own.
        lazy.clear_cache()


_CACHE: Dict[Tuple[str, int, int], AppRun] = {}
_CACHE_LOCK = threading.Lock()


def get_run(abbr: str, config: Optional[ExperimentConfig] = None) -> AppRun:
    """The cached :class:`AppRun` for an application under a configuration.

    Safe to call from multiple threads: concurrent first lookups of the
    same key return the *same* run object (construction is cheap — every
    expensive stage is lazy and guarded inside :class:`AppRun` itself).
    """
    cfg = config or default_config()
    key = (abbr, cfg.scale, cfg.input_len)
    run = _CACHE.get(key)
    if run is None:
        with _CACHE_LOCK:
            run = _CACHE.get(key)
            if run is None:
                run = AppRun(get_app(abbr), cfg)
                _CACHE[key] = run
    return run


def clear_cache() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()
