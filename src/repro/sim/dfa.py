"""Table-driven DFA execution backend: one table lookup per input symbol.

The NFA engines pay per-cycle costs proportional to either the active-state
count (:mod:`repro.sim.reference`) or the packed vector width
(:func:`repro.sim.engine.run`).  For partitions the budgeted explorer
(:mod:`repro.cost.explore`) proves DFA-safe, neither cost is necessary:
subset construction collapses every enabled set into a single integer
state, and execution becomes one dense table lookup per symbol — the
CPU-DFA regime of the paper's §VIII related work, with CAMA-style
symbol-class column compression.

:func:`compile_dfa` runs the shared subset-construction core
(:func:`repro.sim.subset.construct` with ``rows=True``) and packs its rows
into a dense ``(n_dfa_states, n_classes)`` transition table (uint16 when
the state count fits, uint32 otherwise — the same dtype ladder the cost
model's feasibility gate prices via :func:`repro.cost.model.dfa_entry_bytes`),
a symbol→class translation vector, and flat per-``(state, class)`` report
tuples.  :func:`dfa_run` then executes a tight index-chase loop whose
per-symbol work is three list indexing operations — no NumPy dispatch, no
set manipulation — which is what buys the 10x+ MB/s over the bit-packed
engine recorded in ``BENCH_engine.json``.

Feasibility is gated twice, honoring the same limits the advisory uses
(DESIGN.md §13): the subset-state budget (:data:`DEFAULT_DFA_BUDGET`) and
the materialized-table memory budget (:data:`DFA_TABLE_BUDGET`).  Both
failure modes raise :class:`DfaInfeasibleError`; a successful build is
itself the proof.  :func:`dfa_feasible` answers the same question without
building rows.

Results are bit-identical to the reference engine — reports *and*, when
``track_enabled`` is requested, the ever-enabled set, recovered from the
subset each DFA state encodes (``subset_masks``) — property-gated by
``tests/test_dfa_backend.py`` and the cross-engine suite.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nfa.automaton import Network
from ..nfa.symbolset import ALPHABET_SIZE
from .compiled import compile_network
from .engine import as_input_array
from .result import SimResult, reports_to_array
from .subset import (
    DEFAULT_DFA_BUDGET,
    SubsetConstruction,
    SubsetTables,
    construct,
    subset_tables,
)

__all__ = [
    "CompiledDFA",
    "DFA_TABLE_BUDGET",
    "DfaInfeasibleError",
    "compile_dfa",
    "dfa_feasible",
    "dfa_run",
    "dfa_table_dtype",
    "pack_dfa",
]

InputLike = Union[bytes, bytearray, str, np.ndarray, Sequence[int]]

#: Memory budget for a materialized DFA transition table (bytes).  A safe
#: subset count whose table would still exceed this is advised against
#: (SPAP-C004): the dtype-priced table must fit cache-adjacent memory.
DFA_TABLE_BUDGET = 32 << 20


class DfaInfeasibleError(RuntimeError):
    """The network cannot be executed as a table-driven DFA.

    Raised when subset construction bursts the state budget, or when the
    proven DFA's materialized table would exceed the memory budget.
    """


def dfa_table_dtype(n_dfa_states: int) -> "np.dtype[np.unsignedinteger]":
    """Smallest unsigned dtype that can index ``n_dfa_states`` states.

    Must stay consistent with :func:`repro.cost.model.dfa_entry_bytes`, the
    pre-build estimate the feasibility gate prices tables with — pinned by
    a cross-check in ``tests/test_dfa_backend.py``.
    """
    return np.dtype(np.uint16) if n_dfa_states <= 0xFFFF else np.dtype(np.uint32)


@dataclass
class CompiledDFA:
    """A materialized table-driven DFA, ready for :func:`dfa_run`.

    ``transitions[s, c]`` is the successor DFA state for symbol class
    ``c``; ``reports[s * n_classes + c]`` / ``reports_mid[...]`` are the
    reporting NFA global ids that transition fires (``reports_mid``
    excludes end-of-data reporters and is used at every position except
    the last); ``subset_masks[s]`` is the packed NFA-state membership of
    DFA state ``s`` (for ever-enabled recovery).
    """

    n_states: int  # DFA subset states
    n_nfa_states: int  # global states of the source network
    n_classes: int  # compressed symbol classes (columns)
    n_words: int  # packed words per NFA state vector
    class_of_symbol: np.ndarray  # (256,) symbol -> class index
    transitions: np.ndarray  # (n_states, n_classes) uint16/uint32
    reports: Tuple[Tuple[int, ...], ...]  # flat (state, class) -> gids
    reports_mid: Tuple[Tuple[int, ...], ...]  # same, eod reporters removed
    subset_masks: np.ndarray  # (n_states, n_words) uint64
    _flat: Optional[List[int]] = field(default=None, repr=False, compare=False)
    _flat_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def table_bytes(self) -> int:
        """Actual footprint: transition table plus the byte->class map."""
        return int(self.transitions.nbytes) + ALPHABET_SIZE

    def __getstate__(self) -> dict:
        """Pickle support for the network store (``repro.grid.store``).

        The lazily-built flat table and its lock are process-local: the
        flat list would bloat the serialized artifact (it is derivable
        from ``transitions``), and a ``threading.Lock`` cannot cross a
        process boundary at all.  Both are rebuilt on first use after
        :meth:`__setstate__`.
        """
        state = dict(self.__dict__)
        state["_flat"] = None
        del state["_flat_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._flat_lock = threading.Lock()

    def run_tables(self) -> Tuple[List[int], Tuple[Tuple[int, ...], ...],
                                  Tuple[Tuple[int, ...], ...]]:
        """Hot-loop tables: a flat Python transition list whose entries are
        pre-multiplied by ``n_classes`` (so ``state`` doubles as the row
        base and one add yields the flat index), plus the report tuples.
        Built lazily, cached on the instance.

        The build is guarded by a lock: serve executes batches
        executor-side, so two workers can race the first call on a shared
        artifact — without the lock they would double-materialize (or, on
        non-CPython memory models, observe a half-assigned attribute).
        The fast path stays lock-free: ``_flat`` is assigned exactly once,
        after the list is fully built.
        """
        flat = self._flat
        if flat is None:
            with self._flat_lock:
                flat = self._flat
                if flat is None:
                    flat = (
                        self.transitions.astype(np.int64).ravel()
                        * self.n_classes
                    ).tolist()
                    self._flat = flat
        return flat, self.reports_mid, self.reports


def _table_bytes(n_dfa_states: int, n_classes: int) -> int:
    """Transition-table plus byte->class-map footprint, priced with the
    dtype :func:`dfa_table_dtype` would pick."""
    return (
        n_dfa_states * n_classes * dfa_table_dtype(n_dfa_states).itemsize
        + ALPHABET_SIZE
    )


def pack_dfa(tables: SubsetTables, built: SubsetConstruction) -> CompiledDFA:
    """Pack a complete ``construct(..., rows=True)`` into execution tables.

    Applies no budget gate: the advisory soundness replay (SPAP-C001) packs
    proven-safe partitions whose table exceeds the byte budget too.
    """
    n = built.n_subsets
    n_words = tables.n_words
    transitions = np.array(built.transitions, dtype=dfa_table_dtype(n))
    subset_bytes = b"".join(key.to_bytes(n_words * 8, "little") for key in built.subsets)
    return CompiledDFA(
        n_states=n,
        n_nfa_states=tables.n_states,
        n_classes=tables.n_classes,
        n_words=n_words,
        class_of_symbol=tables.class_of_symbol,
        transitions=transitions.reshape(n, tables.n_classes),
        reports=built.reports,
        reports_mid=built.reports_mid,
        subset_masks=np.frombuffer(subset_bytes, dtype="<u8")
        .astype(np.uint64)
        .reshape(n, n_words),
    )


def compile_dfa(
    network: Network,
    *,
    budget: int = DEFAULT_DFA_BUDGET,
    table_budget: int = DFA_TABLE_BUDGET,
) -> CompiledDFA:
    """Determinize ``network`` and materialize the dense execution tables.

    ``budget`` caps subset construction; ``table_budget`` caps the
    materialized transition-table bytes.  Raises :class:`DfaInfeasibleError`
    when either gate fails, so callers have a single feasibility surface
    regardless of *why* the DFA is off the table.
    """
    tables = subset_tables(compile_network(network))
    built = construct(tables, budget, rows=True)
    if not built.complete:
        raise DfaInfeasibleError(
            f"subset construction burst the {budget}-state budget "
            f"at BFS depth {built.frontier_depth}"
        )
    table_bytes = _table_bytes(built.n_subsets, tables.n_classes)
    if table_bytes > table_budget:
        raise DfaInfeasibleError(
            f"DFA table needs {table_bytes} B "
            f"({built.n_subsets} states x {tables.n_classes} classes x "
            f"{dfa_table_dtype(built.n_subsets).itemsize} B) "
            f"> budget {table_budget} B"
        )
    return pack_dfa(tables, built)


def dfa_feasible(
    network: Network,
    *,
    budget: int = DEFAULT_DFA_BUDGET,
    table_budget: int = DFA_TABLE_BUDGET,
) -> bool:
    """Whether :func:`compile_dfa` would succeed, without building rows:
    the same two gates, over a counting-only construction."""
    tables = subset_tables(compile_network(network))
    built = construct(tables, budget)
    return built.complete and _table_bytes(built.n_subsets, tables.n_classes) <= table_budget


def dfa_run(
    compiled: CompiledDFA,
    input_data: InputLike,
    *,
    track_enabled: bool = False,
) -> SimResult:
    """Consume ``input_data``; return a :class:`SimResult` bit-identical to
    the reference engine's.

    The hot loop is pure Python over flat lists: per symbol, one add (the
    pre-multiplied state base plus the symbol's class), one report-tuple
    index plus an emptiness branch, and one transition-list index.  With
    ``track_enabled`` the loop additionally records each visited DFA state
    (one set-add per symbol) and recovers the NFA-level ever-enabled
    vector afterwards by OR-ing the visited states' subset masks.
    """
    symbols = as_input_array(input_data)
    n = int(symbols.size)
    classes: List[int] = (
        compiled.class_of_symbol[symbols].tolist() if n else []
    )
    trans, mid, full = compiled.run_tables()
    out: List[Tuple[int, int]] = []
    append = out.append
    state = 0  # pre-multiplied row base of the initial DFA state (index 0)
    ever = np.zeros(compiled.n_words, dtype=np.uint64)
    if n:
        last = n - 1
        if track_enabled:
            visited = {0}
            for position in range(last):
                idx = state + classes[position]
                fired = mid[idx]
                if fired:
                    for gid in fired:
                        append((position, gid))
                state = trans[idx]
                visited.add(state)
            rows = np.fromiter(
                (base // compiled.n_classes for base in visited),
                dtype=np.int64,
                count=len(visited),
            )
            ever = np.bitwise_or.reduce(compiled.subset_masks[rows], axis=0)
        else:
            for position in range(last):
                idx = state + classes[position]
                fired = mid[idx]
                if fired:
                    for gid in fired:
                        append((position, gid))
                state = trans[idx]
        idx = state + classes[last]
        for gid in full[idx]:
            append((last, gid))
    return SimResult(
        n_states=compiled.n_nfa_states,
        n_symbols=n,
        cycles=n,
        reports=reports_to_array(out),
        ever_enabled=ever,
    )
