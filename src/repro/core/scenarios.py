"""End-to-end execution scenarios: baseline AP, AP–CPU, and BaseAP/SpAP.

These functions tie together batching, simulation, partitioning, and the
SpAP event loop, with cycle accounting that matches the paper's timing
methodology (§VI):

* **Baseline AP** — the whole application packed into NFA-granularity
  batches; every batch re-streams the entire input, so
  ``cycles = n_batches * len(input)``.
* **BaseAP/SpAP** — the predicted hot set (plus intermediate reporting
  states) runs in BaseAP mode (``n_hot_batches * len(input)`` cycles); the
  predicted cold set then runs in SpAP mode driven by the intermediate
  reports, costing only the cycles actually consumed plus enable stalls.
* **AP–CPU** — same BaseAP phase, but mispredictions are handled by a CPU
  simulation of the cold set, timed by a :class:`CPUCostModel`.

Because batches are disjoint sets of NFAs that never interact, simulating
the union network once produces exactly the union of per-batch report
streams; we exploit that for the baseline and BaseAP phases (the *cycle*
accounting still charges one full input pass per batch).  SpAP batches are
simulated individually since jump/stall behaviour is batch-local.

Where the reports come from: standalone, :func:`run_baseline_ap` streams
the whole network and the two partitioned scenarios each stream the hot
set, all on the bit-packed engine.  A caller that already holds those
reports passes them in (``reports=`` / ``hot_reports=``) and no pass is
made: the experiment pipeline (:class:`repro.experiments.pipeline.AppRun`)
hands the baseline its ground-truth reports and gives both partitioned
scenarios the one hot pass it made per operating point, both on the lazy
DFA.  Reports are bit-identical across engines, so every cycle count is
the same either way.  The event-driven cold phase (``run_events``) always
runs here, on the bit-packed engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..ap.batching import batch_network, pack_batches, slice_network
from ..ap.config import APConfig
from ..nfa.analysis import NetworkTopology, analyze_network
from ..nfa.automaton import Network
from ..sim.compiled import compile_network
from ..sim.engine import as_input_array, run, run_events
from ..sim.result import reports_equal, reports_to_array
from .cpu_model import CPUCostModel, DEFAULT_CPU_MODEL
from .partition import PartitionedNetwork, partition_network, plan_hot_batches
from .profiling import profile_network

__all__ = [
    "BaselineOutcome",
    "PartitionedOutcome",
    "run_baseline_ap",
    "prepare_partition",
    "run_base_spap",
    "run_ap_cpu",
]


@dataclass
class BaselineOutcome:
    """Baseline AP execution: batches of whole NFAs, one input pass each."""

    n_batches: int
    n_symbols: int
    reports: np.ndarray  # parent-global ids

    @property
    def cycles(self) -> int:
        return self.n_batches * self.n_symbols

    def seconds(self, config: APConfig) -> float:
        return config.cycles_to_seconds(self.cycles)


@dataclass
class PartitionedOutcome:
    """BaseAP/SpAP or AP–CPU execution of a partitioned application."""

    mode: str  # "spap" or "cpu"
    n_symbols: int
    n_hot_batches: int
    n_cold_batches: int
    base_cycles: int
    spap_consumed_cycles: int
    spap_stall_cycles: int
    cpu_seconds: float
    n_intermediate_reports: int
    reports: np.ndarray  # parent-global ids (intermediates stripped)

    @property
    def spap_cycles(self) -> int:
        return self.spap_consumed_cycles + self.spap_stall_cycles

    @property
    def cycles(self) -> int:
        """AP cycles only (BaseAP + SpAP modes); CPU time is separate."""
        return self.base_cycles + self.spap_cycles

    def seconds(self, config: APConfig) -> float:
        return config.cycles_to_seconds(self.cycles) + self.cpu_seconds

    def jump_ratio(self) -> Optional[float]:
        """Fraction of SpAP-mode input cycles skipped by jumps (Table IV).

        Counts consumed input cycles only: enable stalls are a separate
        overhead (the paper's PEN row — EStalls far above the JumpRatio-
        implied cycle count — shows its formula does the same).
        """
        if self.mode != "spap" or self.n_cold_batches == 0:
            return None
        denom = self.n_cold_batches * self.n_symbols
        return 1.0 - self.spap_consumed_cycles / float(denom)

    def queue_usage(self, config: APConfig):
        """Intermediate-report queue accounting for this run (§V-B).

        Refill counts and device-memory traffic for the run's intermediate
        report list against ``config``'s on-chip queue; feeds the unified
        runtime statistics (``repro.stats``).
        """
        from ..ap.queue import queue_usage

        return queue_usage(self.n_intermediate_reports, config)


def run_baseline_ap(
    network: Network,
    input_data,
    config: APConfig,
    *,
    reports: Optional[np.ndarray] = None,
) -> BaselineOutcome:
    """Execute the unpartitioned application in batches (the paper's baseline).

    ``reports`` are the whole network's reports on ``input_data`` from a
    pass the caller already made (any engine); without them the network
    is streamed once here on the bit-packed engine.
    """
    symbols = as_input_array(input_data)
    batches = batch_network(network, config.capacity)
    if reports is None:
        reports = run(compile_network(network), symbols, track_enabled=False).reports
    return BaselineOutcome(
        n_batches=len(batches),
        n_symbols=int(symbols.size),
        reports=reports,
    )


def prepare_partition(
    network: Network,
    profiling_input,
    config: APConfig,
    *,
    topology: Optional[NetworkTopology] = None,
    fill: bool = True,
) -> Tuple[PartitionedNetwork, List[List[int]]]:
    """Profile, choose layers, fill batches, and partition (§IV pipeline).

    Returns the partitioned network and the hot batch plan (bins of parent
    automaton indices).
    """
    if topology is None:
        topology = analyze_network(network)
    profile = profile_network(network, profiling_input, topology=topology)
    layers, bins = plan_hot_batches(
        network, topology, profile.layers, config.capacity, fill=fill
    )
    partitioned = partition_network(network, layers, topology=topology)
    return partitioned, bins


def _hot_phase(
    partitioned: PartitionedNetwork,
    symbols: np.ndarray,
    hot_bins: Sequence[Sequence[int]],
    reports: Optional[np.ndarray] = None,
):
    """Run BaseAP mode once; split reports into final vs intermediate events.

    ``reports`` are the hot network's reports from a pass the caller
    already made; without them the hot network is streamed here.

    Returns ``(base_cycles, final_reports_parent, events_cold, n_events)``
    where events are ``(position, cold_gid)`` enable events.
    """
    if reports is None:
        reports = run(
            compile_network(partitioned.hot), symbols, track_enabled=False
        ).reports
    if reports.size:
        intermediate = partitioned.hot_is_intermediate[reports[:, 1]]
        final = reports[~intermediate]
        raw_events = reports[intermediate]
    else:
        final = reports
        raw_events = reports
    final_parent = final.copy()
    if final_parent.size:
        final_parent[:, 1] = partitioned.hot_to_parent[final[:, 1]]

    # An intermediate state v' is a reporting copy of its cold target v, so
    # v' activating at position c means v itself would have activated at c:
    # SpAP enables v at c and re-matches input[c], reproducing the original
    # activation (and hence v's successor enables at c+1) exactly.
    events = raw_events.copy()
    n_total_events = int(events.shape[0])
    if events.size:
        events[:, 1] = np.asarray(
            [partitioned.translation[int(gid)] for gid in raw_events[:, 1]], dtype=np.int64
        )
    base_cycles = len(hot_bins) * int(symbols.size)
    return base_cycles, final_parent, reports_to_array(events), n_total_events


def run_base_spap(
    partitioned: PartitionedNetwork,
    input_data,
    config: APConfig,
    hot_bins: Sequence[Sequence[int]],
    *,
    hot_reports: Optional[np.ndarray] = None,
) -> PartitionedOutcome:
    """BaseAP mode on the hot set, then SpAP mode on the cold set (§V).

    ``hot_reports`` are the hot network's reports on ``input_data`` from a
    pass the caller already made; without them the hot set is streamed here.
    """
    symbols = as_input_array(input_data)
    base_cycles, final_parent, events, n_events = _hot_phase(
        partitioned, symbols, hot_bins, hot_reports
    )

    all_reports = [final_parent]
    consumed = 0
    stalls = 0
    cold_bins: List[List[int]] = []
    executed_cold_batches = 0
    if partitioned.cold.n_states:
        sizes = [a.n_states for a in partitioned.cold.automata]
        cold_bins = pack_batches(sizes, config.capacity)
        for members in cold_bins:
            batch = slice_network(partitioned.cold, members)
            batch_events = _events_for_batch(events, batch.global_ids)
            if batch_events.size == 0:
                # A cold batch with no pending intermediate reports (and no
                # start states) can never enable anything; the host skips
                # configuring it entirely.
                continue
            executed_cold_batches += 1
            outcome = run_events(
                compile_network(batch.network), symbols, batch_events, count_stalls=True
            )
            consumed += outcome.consumed_cycles
            stalls += outcome.stall_cycles
            batch_reports = batch.to_parent_reports(outcome.reports)  # -> cold gids
            if batch_reports.size:
                batch_reports[:, 1] = partitioned.cold_to_parent[batch_reports[:, 1]]
            all_reports.append(batch_reports)

    return PartitionedOutcome(
        mode="spap",
        n_symbols=int(symbols.size),
        n_hot_batches=len(hot_bins),
        n_cold_batches=executed_cold_batches,
        base_cycles=base_cycles,
        spap_consumed_cycles=consumed,
        spap_stall_cycles=stalls,
        cpu_seconds=0.0,
        n_intermediate_reports=n_events,
        reports=reports_to_array(np.concatenate([r for r in all_reports if r.size > 0])
                                 if any(r.size for r in all_reports) else []),
    )


def run_ap_cpu(
    partitioned: PartitionedNetwork,
    input_data,
    config: APConfig,
    hot_bins: Sequence[Sequence[int]],
    cpu_model: CPUCostModel = DEFAULT_CPU_MODEL,
    *,
    hot_reports: Optional[np.ndarray] = None,
) -> PartitionedOutcome:
    """BaseAP mode on the hot set; CPU software handler for the cold set.

    ``hot_reports`` is as for :func:`run_base_spap`.
    """
    symbols = as_input_array(input_data)
    base_cycles, final_parent, events, n_events = _hot_phase(
        partitioned, symbols, hot_bins, hot_reports
    )

    all_reports = [final_parent]
    cpu_seconds = 0.0
    if partitioned.cold.n_states and (events.size or False):
        outcome = run_events(
            compile_network(partitioned.cold), symbols, events, count_stalls=False
        )
        cpu_seconds = cpu_model.seconds(outcome.consumed_cycles, n_events)
        cold_reports = outcome.reports.copy()
        if cold_reports.size:
            cold_reports[:, 1] = partitioned.cold_to_parent[cold_reports[:, 1]]
        all_reports.append(cold_reports)

    return PartitionedOutcome(
        mode="cpu",
        n_symbols=int(symbols.size),
        n_hot_batches=len(hot_bins),
        n_cold_batches=0,
        base_cycles=base_cycles,
        spap_consumed_cycles=0,
        spap_stall_cycles=0,
        cpu_seconds=cpu_seconds,
        n_intermediate_reports=n_events,
        reports=reports_to_array(np.concatenate([r for r in all_reports if r.size > 0])
                                 if any(r.size for r in all_reports) else []),
    )


def _events_for_batch(events: np.ndarray, batch_global_ids: np.ndarray) -> np.ndarray:
    """Filter events to targets inside a cold batch; rewrite to local ids.

    ``batch_global_ids`` is ascending (batches keep parent order), so
    membership and translation are a single ``searchsorted``.
    """
    if events.size == 0:
        return events
    position = np.searchsorted(batch_global_ids, events[:, 1])
    position_clipped = np.minimum(position, batch_global_ids.size - 1)
    member = batch_global_ids[position_clipped] == events[:, 1]
    out = events[member].copy()
    out[:, 1] = position_clipped[member]
    return out


def verify_equivalence(baseline: BaselineOutcome, partitioned: PartitionedOutcome) -> bool:
    """The correctness invariant: partitioned execution reports exactly the
    baseline's reports (intermediate reports excluded)."""
    return reports_equal(baseline.reports, partitioned.reports)
