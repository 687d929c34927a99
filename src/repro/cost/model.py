"""Analytic per-backend cost model over static features.

Predicts, per partition and per engine backend, the expected wall time per
input symbol — from quantities available *without running any input*:
state count, packed bit-matrix width, effective alphabet-class count, the
profile-free hot fraction from :mod:`repro.semant.predict`, and the
DFA-safety verdict of :mod:`repro.cost.explore`.

Backends modeled (the pluggable-engine set the ROADMAP's hybrid-DFA item
will make selectable per partition):

* ``reference`` — the set-based engine: cost tracks the number of *active*
  states per cycle, so it wins when activity is sparse (event-driven cold
  partitions).
* ``bitpacked`` — the word-parallel engine: cost tracks the packed vector
  width ``n_words`` plus a fixed per-cycle overhead, independent of
  activity.
* ``dfa`` — table-driven DFA dispatch: one lookup per symbol, independent
  of both width and activity, feasible only when subset construction was
  proven bounded and the table fits the memory budget.
* ``lazydfa`` — the bounded-subset lazy-DFA hybrid: cached-subset lookups
  at close-to-``dfa`` speed, an LRU cap instead of a safety proof, so it
  is feasible for every streaming partition (and is where infeasible
  selections fall back).  Cost is ``lz_base`` when the partition is
  DFA-safe (the cache converges to the full table) and
  ``lz_base * lz_unsafe_factor`` otherwise — the factor is a measured
  average of the cache-churn slowdown on the proven-unsafe bench apps.

Calibration (DESIGN.md §12): the default coefficients are solved from the
committed ``BENCH_engine.json`` operating point — Snort at scale 64,
1081 states (17 words) — whose measured throughputs are
0.045 / 0.168 / 14.48 / 10.11 MB/s for reference / bitpacked / dfa /
lazydfa (22.2 / 5.95 / 0.069 / 0.099 us per symbol).
:meth:`CostModel.from_engine_bench` re-derives them from any such
document, so re-benching recalibrates the model without touching code —
including ``dfa_base``, measured from the table-driven backend itself
since it landed.  Units are microseconds per input symbol; only *ratios*
matter for the advisory, which is what the cost-smoke CI check validates
(predicted-fastest vs measured-fastest agreement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..nfa.symbolset import ALPHABET_SIZE
from ..sim.dfa import DFA_TABLE_BUDGET

__all__ = [
    "BACKENDS",
    "STREAMING_BACKENDS",
    "DFA_TABLE_BUDGET",
    "CostFeatures",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "dfa_entry_bytes",
    "rank_backends",
]

#: Every backend the model prices, in canonical order.
BACKENDS: Tuple[str, ...] = (
    "reference",
    "bitpacked",
    "dfa",
    "lazydfa",
)

#: Backends that consume one contiguous symbol stream (no enable events).
STREAMING_BACKENDS: Tuple[str, ...] = ("dfa", "lazydfa")


def dfa_entry_bytes(n_dfa_states: int) -> int:
    """Bytes per transition-table entry for a DFA of ``n_dfa_states``.

    The executor (:func:`repro.sim.dfa.dfa_table_dtype`) packs successor
    ids as uint16 when they fit, uint32 otherwise; this is the same ladder
    expressed as a byte count so feasibility can be priced *before* any
    table is built.  The two must stay in lock-step — pinned by a
    cross-check in ``tests/test_dfa_backend.py``.
    """
    return 2 if n_dfa_states <= 0xFFFF else 4

# Word-work share of bitpacked cost at the calibration point: the fraction
# of a cycle spent on width-proportional NumPy word ops (vs fixed Python
# dispatch overhead).  An assumption, not a measurement — see DESIGN.md §12.
_WORD_WORK_SHARE = 0.35

# Active fraction assumed for the reference engine's calibration point and
# the share of its cost that is per-active-state set manipulation.
_CAL_ACTIVE_FRACTION = 0.10
_REF_BASE_SHARE = 0.10


@dataclass(frozen=True)
class CostFeatures:
    """Static features of one partition, as the cost model consumes them."""

    n_states: int
    n_words: int  # ceil(n_states / 64), the packed vector width
    n_classes: int  # effective alphabet size (repro.cost.classes)
    mean_fanout: float  # edges per state
    hot_fraction: float  # profile-free predicted-active fraction (semant)
    event_driven: bool  # cold partition: enabled by SpAP events, not a stream
    dfa_safe: bool  # subset construction proven bounded (repro.cost.explore)
    dfa_states: Optional[int]  # subset-state count when safe

    @property
    def dfa_table_bytes(self) -> Optional[int]:
        """Conservative pre-build estimate: 8-byte entries.

        Deliberately pessimistic (the widest plausible entry) so it can be
        quoted before any dtype decision exists; the feasibility gate uses
        :attr:`dfa_table_bytes_actual` instead, so a DFA is never rejected
        on the basis of this over-estimate.
        """
        if self.dfa_states is None:
            return None
        return self.dfa_states * self.n_classes * 8

    @property
    def dfa_table_bytes_actual(self) -> Optional[int]:
        """Footprint with the dtype the executor would really pick.

        ``states * classes * dfa_entry_bytes(states)`` plus the symbol→
        class translation vector — the exact bytes
        ``repro.sim.dfa.CompiledDFA.table_bytes`` reports after the build.
        """
        if self.dfa_states is None:
            return None
        return (
            self.dfa_states * self.n_classes * dfa_entry_bytes(self.dfa_states)
            + ALPHABET_SIZE
        )


@dataclass(frozen=True)
class CostModel:
    """Per-backend cost coefficients (microseconds per input symbol)."""

    ref_base: float  # reference: fixed per-cycle dispatch
    ref_per_active: float  # reference: per active state per cycle
    bp_base: float  # bitpacked: fixed per-cycle dispatch
    bp_per_word: float  # bitpacked: per packed word per cycle
    dfa_base: float  # dfa: one table lookup + report probe per symbol
    lz_base: float = 0.3  # lazydfa: one cached-cell chase per symbol
    lz_unsafe_factor: float = 4.0  # lazydfa: churn multiplier when unsafe

    def predict(self, features: CostFeatures) -> Dict[str, Optional[float]]:
        """Predicted us/symbol per backend; ``None`` marks infeasible."""
        active = features.hot_fraction * features.n_states
        costs: Dict[str, Optional[float]] = {
            "reference": self.ref_base + self.ref_per_active * active,
            "bitpacked": self.bp_base + self.bp_per_word * features.n_words,
            "dfa": None,
            "lazydfa": None,
        }
        if not features.event_driven:
            table_bytes = features.dfa_table_bytes_actual
            if (
                features.dfa_safe
                and table_bytes is not None
                and table_bytes <= DFA_TABLE_BUDGET
            ):
                costs["dfa"] = self.dfa_base
            # The hybrid needs no proof: feasible for every streaming
            # partition, with a measured churn penalty where the explorer
            # could not prove a bounded subset space (or where a proven
            # table would burst the memory budget, which the LRU absorbs).
            costs["lazydfa"] = (
                self.lz_base
                if costs["dfa"] is not None
                else self.lz_base * self.lz_unsafe_factor
            )
        return costs

    @classmethod
    def from_engine_bench(
        cls,
        document: Mapping[str, object],
        *,
        active_fraction: float = _CAL_ACTIVE_FRACTION,
        dfa_base: Optional[float] = None,
    ) -> "CostModel":
        """Solve coefficients from a ``BENCH_engine.json``-shaped document.

        Uses the document's workload shape (states) and measured
        MB/s, under the documented word-work-share assumption.  ``dfa_base``
        is taken from the document's measured ``throughput_mb_s["dfa"]``
        when present (the harness times the real table-driven backend on
        the same workload); an explicit argument overrides, and documents
        predating the backend fall back to the historical 0.7 us/symbol
        placeholder.
        """
        workload = document["workload"]
        throughput = document["throughput_mb_s"]
        if not isinstance(workload, Mapping) or not isinstance(throughput, Mapping):
            raise ValueError("engine bench document missing workload/throughput_mb_s")
        n_states = int(workload["n_states"])  # type: ignore[call-overload]
        n_words = (n_states + 63) // 64

        def us_per_symbol(mb_s: object) -> float:
            return 1.0 / float(mb_s)  # type: ignore[arg-type]  # 1/(MB/s) = us/B

        ref_us = us_per_symbol(throughput["reference"])
        bp_us = us_per_symbol(throughput["bitpacked"])
        if dfa_base is None:
            measured_dfa = throughput.get("dfa")
            dfa_base = us_per_symbol(measured_dfa) if measured_dfa else 0.7

        # Lazy hybrid: hit-path cost from the calibration workload (the
        # cache converges there, so this measures the cached-cell chase);
        # churn factor from the harness's proven-unsafe app section.
        # Documents predating the backend fall back to "4x the dfa lookup"
        # and a 4x churn multiplier.
        measured_lz = throughput.get("lazydfa")
        lz_base = us_per_symbol(measured_lz) if measured_lz else dfa_base * 4.0
        lz_unsafe_factor = 4.0
        unsafe_section = document.get("lazydfa_unsafe")
        if isinstance(unsafe_section, Mapping):
            apps = unsafe_section.get("apps")
            if isinstance(apps, Sequence) and apps:
                ratios = [
                    us_per_symbol(entry["lazydfa_mb_s"]) / lz_base
                    for entry in apps
                    if isinstance(entry, Mapping) and entry.get("lazydfa_mb_s")
                ]
                if ratios:
                    lz_unsafe_factor = max(1.0, sum(ratios) / len(ratios))

        bp_per_word = bp_us * _WORD_WORK_SHARE / n_words
        bp_base = bp_us - bp_per_word * n_words
        ref_base = ref_us * _REF_BASE_SHARE
        active = max(1.0, active_fraction * n_states)
        ref_per_active = (ref_us - ref_base) / active
        return cls(
            ref_base=ref_base,
            ref_per_active=ref_per_active,
            bp_base=bp_base,
            bp_per_word=bp_per_word,
            dfa_base=dfa_base,
            lz_base=lz_base,
            lz_unsafe_factor=lz_unsafe_factor,
        )


#: Coefficients solved by :meth:`CostModel.from_engine_bench` from the
#: committed BENCH_engine.json (Snort, scale 64, 1081 states); baked
#: as literals so importing the model never reads the filesystem.
#: ``dfa_base`` is now a *measurement* (1 / the dfa engine's MB/s on the
#: same workload), not the pre-backend placeholder.
DEFAULT_COST_MODEL = CostModel(
    ref_base=2.2222,
    ref_per_active=0.185,
    bp_base=3.869,
    bp_per_word=0.1225,
    dfa_base=0.0691,
    lz_base=0.099,
    lz_unsafe_factor=4.2399,
)


def rank_backends(
    costs: Mapping[str, Optional[float]]
) -> Tuple[Tuple[str, float], ...]:
    """Feasible backends cheapest-first, ties broken by canonical order."""
    feasible = [
        (name, cost)
        for name, cost in ((name, costs.get(name)) for name in BACKENDS)
        if cost is not None
    ]
    return tuple(sorted(feasible, key=lambda pair: (pair[1], BACKENDS.index(pair[0]))))
