"""Per-partition backend advisories: the fusion layer of ``repro.cost``.

One :class:`BackendAdvisory` per partition fuses the three static analyses:

* the budgeted subset-construction explorer's DFA-safety verdict
  (:mod:`repro.cost.explore`),
* the symbol-class compression accounting (:mod:`repro.cost.classes`),
* the calibrated per-backend cost model (:mod:`repro.cost.model`), fed the
  profile-free hot fraction from :mod:`repro.semant.predict`.

Findings are emitted through the SPAP-C0xx rule family of
:mod:`repro.verify.diagnostics` — the same diagnostics substrate every
other static pass reports through — and
:func:`check_advisory_soundness` rebuilds a proven-safe partition's DFA
rows through the shared subset-construction core and replays them against
the reference simulator, turning "the proof holds for the table the DFA
backend executes" from an argument into a CI-gated differential check
(SPAP-C001).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nfa.automaton import Network
from ..semant.predict import predict_hot_cold
from ..sim.compiled import compile_network
from ..sim.dfa import dfa_run, pack_dfa
from ..sim.reference import reference_run
from ..sim.result import reports_equal
from ..sim.subset import construct, subset_tables
from ..verify.diagnostics import VerificationReport
from .classes import ClassAnalysis, analyze_symbol_classes
from .explore import DEFAULT_DFA_BUDGET, SubsetExploration, explore_subset_construction
from .model import (
    DFA_TABLE_BUDGET,
    CostFeatures,
    CostModel,
    DEFAULT_COST_MODEL,
    dfa_entry_bytes,
    rank_backends,
)

__all__ = [
    "BackendAdvisory",
    "THIN_MARGIN",
    "advise_network",
    "check_advisory_soundness",
    "emit_advisory_diagnostics",
    "partition_advisories",
]

#: Below this winner/runner-up cost ratio the advisory is a coin toss
#: (SPAP-C005): measurement noise can flip the measured order.
THIN_MARGIN = 1.10

#: Classes beyond this leave no real compression headroom (SPAP-C003).
_INEFFECTIVE_CLASSES = 128


@dataclass(frozen=True)
class BackendAdvisory:
    """Everything ``repro.cost`` can say statically about one partition."""

    partition: str  # "network", "hot", or "cold"
    n_states: int
    n_automata: int
    classes: ClassAnalysis
    exploration: SubsetExploration
    hot_fraction: float  # profile-free predicted-active fraction
    mean_fanout: float
    costs: Dict[str, Optional[float]]  # backend -> predicted us/symbol
    recommended: str  # cheapest feasible backend
    margin: float  # runner-up cost / winner cost (1.0 when unopposed)

    @property
    def dfa_safe(self) -> bool:
        return self.exploration.dfa_safe

    @property
    def dfa_states(self) -> Optional[int]:
        return self.exploration.n_subset_states if self.exploration.dfa_safe else None

    def to_json(self) -> Dict[str, object]:
        return {
            "partition": self.partition,
            "n_states": self.n_states,
            "n_automata": self.n_automata,
            "n_classes": self.classes.n_classes,
            "n_distinct_symbol_sets": self.classes.n_distinct_symbol_sets,
            "table_bytes_dense": self.classes.table_bytes_dense,
            "table_bytes_classed": self.classes.table_bytes_classed,
            "compression_ratio": self.classes.compression_ratio,
            "dfa_budget": self.exploration.budget,
            "dfa_safe": self.dfa_safe,
            "dfa_states": self.dfa_states,
            "dfa_frontier_depth": self.exploration.frontier_depth,
            "hot_fraction": self.hot_fraction,
            "mean_fanout": self.mean_fanout,
            "costs_us_per_symbol": dict(self.costs),
            "recommended": self.recommended,
            "margin": self.margin,
        }

    def render(self) -> str:
        ranked = rank_backends(self.costs)
        pricing = ", ".join(f"{name} {cost:.2f}us" for name, cost in ranked)
        return (
            f"{self.partition}: {self.n_states} states, "
            f"{self.classes.n_classes} classes "
            f"({self.classes.compression_ratio:.1f}x table compression); "
            f"{self.exploration.describe()}; "
            f"advise {self.recommended} "
            f"(margin {self.margin:.2f}x; {pricing})"
        )


def _mean_fanout(network: Network) -> float:
    n = network.n_states
    return (network.n_edges / n) if n else 0.0


def _static_hot_fraction(network: Network, horizon: int) -> float:
    """Profile-free predicted-active fraction (raw mask, not layer-closed).

    A partition with no start states (a cold partition: enabled only by
    SpAP events) predicts nothing hot, which is exactly the sparse-activity
    regime the reference backend's cost formula rewards.
    """
    n = network.n_states
    if n == 0 or network.n_automata == 0:
        return 0.0
    prediction = predict_hot_cold(network, horizon=horizon)
    return float(prediction.hot_mask.sum()) / n


def advise_network(
    network: Network,
    *,
    partition: str = "network",
    budget: int = DEFAULT_DFA_BUDGET,
    event_driven: bool = False,
    horizon: int = 4096,
    model: CostModel = DEFAULT_COST_MODEL,
) -> BackendAdvisory:
    """Fuse the three static analyses into one advisory for ``network``."""
    exploration = explore_subset_construction(network, budget=budget)
    # The explorer's tables are the ones the class count is read from:
    # one compile per partition, not two.
    class_analysis = analyze_symbol_classes(
        network, n_classes=exploration.n_classes
    )
    hot_fraction = _static_hot_fraction(network, horizon)
    features = CostFeatures(
        n_states=network.n_states,
        n_words=class_analysis.n_words,
        n_classes=class_analysis.n_classes,
        mean_fanout=_mean_fanout(network),
        hot_fraction=hot_fraction,
        event_driven=event_driven,
        dfa_safe=exploration.dfa_safe,
        dfa_states=exploration.n_subset_states if exploration.dfa_safe else None,
    )
    costs = model.predict(features)
    ranked = rank_backends(costs)
    if not ranked:  # unreachable: reference/bitpacked are always feasible
        raise ValueError("cost model declared every backend infeasible")
    recommended = ranked[0][0]
    margin = (ranked[1][1] / ranked[0][1]) if len(ranked) > 1 and ranked[0][1] > 0 else 1.0
    return BackendAdvisory(
        partition=partition,
        n_states=network.n_states,
        n_automata=network.n_automata,
        classes=class_analysis,
        exploration=exploration,
        hot_fraction=hot_fraction,
        mean_fanout=features.mean_fanout,
        costs=costs,
        recommended=recommended,
        margin=margin,
    )


def emit_advisory_diagnostics(
    advisory: BackendAdvisory, report: VerificationReport
) -> None:
    """Record the advisory's SPAP-C findings on ``report``."""
    where = advisory.partition
    exploration = advisory.exploration
    if not exploration.dfa_safe:
        report.emit(
            "SPAP-C002",
            f"subset construction burst the budget: {exploration.describe()}",
            location=where,
        )
    if advisory.classes.n_classes > _INEFFECTIVE_CLASSES:
        report.emit(
            "SPAP-C003",
            f"{advisory.classes.n_classes} symbol classes of "
            f"{256} — class compression saves only "
            f"{advisory.classes.compression_ratio:.2f}x",
            location=where,
        )
    table_bytes = (
        advisory.dfa_states
        * advisory.classes.n_classes
        * dfa_entry_bytes(advisory.dfa_states)
        if advisory.dfa_states is not None
        else None
    )
    if table_bytes is not None and table_bytes > DFA_TABLE_BUDGET:
        report.emit(
            "SPAP-C004",
            f"DFA proven safe ({advisory.dfa_states} states) but its table "
            f"needs {table_bytes} B "
            f"({dfa_entry_bytes(advisory.dfa_states)}-byte entries) "
            f"> budget {DFA_TABLE_BUDGET} B",
            location=where,
        )
    if advisory.margin < THIN_MARGIN and advisory.margin > 0:
        ranked = rank_backends(advisory.costs)
        runner_up = ranked[1][0] if len(ranked) > 1 else "none"
        report.emit(
            "SPAP-C005",
            f"advisory margin {advisory.margin:.3f}x between "
            f"{advisory.recommended} and {runner_up} is below "
            f"{THIN_MARGIN}x — treat the recommendation as a tie",
            location=where,
        )
    for name, cost in advisory.costs.items():
        if cost is not None and (not np.isfinite(cost) or cost < 0):
            report.emit(
                "SPAP-C006",
                f"cost model produced {cost!r} for backend {name}",
                location=where,
            )


def check_advisory_soundness(
    network: Network,
    advisory: BackendAdvisory,
    report: VerificationReport,
    *,
    replay_input: Optional[bytes] = None,
) -> None:
    """Differentially validate a DFA-safety proof (SPAP-C001).

    For a partition the explorer proved safe, building the DFA rows at the
    same budget must succeed with exactly the proven state count, and —
    when ``replay_input`` is given — the packed table must replay
    bit-identical reports against the reference simulator.  No table-byte
    gate applies: a safe partition whose table exceeds the byte budget is
    SPAP-C004's finding, not a false proof.  Emits SPAP-C001 on any
    divergence; silent otherwise.
    """
    if not advisory.dfa_safe:
        return
    where = advisory.partition
    tables = subset_tables(compile_network(network))
    built = construct(tables, advisory.exploration.budget, rows=True)
    if not built.complete:
        report.emit(
            "SPAP-C001",
            f"explorer proved {advisory.dfa_states} subset states but "
            f"building the DFA rows burst the same budget "
            f"at BFS depth {built.frontier_depth}",
            location=where,
        )
        return
    if built.n_subsets != advisory.dfa_states:
        report.emit(
            "SPAP-C001",
            f"explorer proved {advisory.dfa_states} subset states but "
            f"building the DFA rows produced {built.n_subsets}",
            location=where,
        )
        return
    if replay_input is not None and network.n_states:
        expected = reference_run(network, replay_input)
        replayed = dfa_run(pack_dfa(tables, built), replay_input)
        if not reports_equal(replayed.reports, expected.reports):
            report.emit(
                "SPAP-C001",
                "DFA replay diverged from the reference simulation "
                f"on a {len(replay_input)}-byte input",
                location=where,
            )


def partition_advisories(
    partitions: List[Tuple[str, Network, bool]],
    *,
    budget: int = DEFAULT_DFA_BUDGET,
    horizon: int = 4096,
    model: CostModel = DEFAULT_COST_MODEL,
) -> List[BackendAdvisory]:
    """Advise each named ``(name, network, event_driven)`` partition."""
    return [
        advise_network(
            network,
            partition=name,
            budget=budget,
            event_driven=event_driven,
            horizon=horizon,
            model=model,
        )
        for name, network, event_driven in partitions
        if network.n_states > 0
    ]
