"""Bounded-subset lazy-DFA hybrid: memoized subset states with NFA fallback.

The table-driven backend (:mod:`repro.sim.dfa`) only serves partitions the
budgeted explorer proves DFA-safe; the blowup cases (LV, ER, SPM, Fermi,
Brill at bench scale) are exactly where the paper's large-scale workloads
live.  But for many such patterns the *visited* subset space per input is
tiny even when the *reachable* space explodes (the DFA-vs-NFA tradeoff
literature in PAPERS.md), so this module executes the subset construction
*lazily*: an LRU-capped cache maps each subset actually reached during
execution to a per-symbol-class row of ``(successor, report tuples)``
cells, materialized on first use by the shared subset-construction step
(:meth:`repro.sim.subset.SubsetTables.step`) the eager backend builds its
table with — one cache entry per (subset, class) pair ever exercised,
never the full reachable table.

Execution (DESIGN.md §14):

* **Hit** — the current subset's cell for the input's symbol class exists
  and its successor link points at a live cached row: emit the
  pre-computed report tuple and follow the link.  Per-symbol work is a
  dict lookup, a tuple unpack, and an attribute check — DFA speed.
* **Miss** — the row has no cell for the class yet: perform one subset
  step (semantically one :func:`repro.sim.engine.run` cycle), memoize the
  resulting cell, and re-enter the cache at the successor subset.
* **Eviction** — rows beyond ``capacity`` are dropped LRU-first; evicted
  rows are tombstoned (``live = False``) so stale successor links repair
  themselves through a cache lookup on next use.
* **Churn burst** — when one input evicts more than
  ``capacity * churn_factor`` rows, the cache is clearly thrashing for
  this input: new-row insertion stops for the remainder of the run and
  uncached subsets execute as pure fallback steps (the cache still serves
  hits, and execution re-enters it whenever a step lands on a cached
  subset).

Subset keys are Python big-ints (bit ``g`` = global state ``g``), the same
encoding the budgeted explorer uses, so ``track_enabled`` recovery is an
OR over the visited subset keys, taken as the run goes — each visited
subset *is* its own subset-construction witness.  Results are
bit-identical to the reference engine (reports and ever-enabled), gated
by the cross-engine equivalence suite including adversarial capacity-1/2
runs that force every fallback path.

A compiled artifact is safe to share across threads: :func:`lazydfa_run`
holds the artifact's lock for the duration of a run (the cache is shared
mutable state), serializing concurrent executor-side batches the way
``repro.serve`` issues them.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nfa.automaton import Network
from .compiled import compile_network
from .engine import as_input_array
from .result import SimResult, reports_to_array
from .subset import SubsetTables, subset_tables

__all__ = [
    "DEFAULT_LAZY_CAPACITY",
    "DEFAULT_CHURN_FACTOR",
    "CompiledLazyDfa",
    "compile_lazydfa",
    "lazydfa_run",
]

InputLike = Union[bytes, bytearray, str, np.ndarray, Sequence[int]]

#: Default LRU capacity (cached subset rows).  Sized so a worst-case row
#: set (a few dozen classes x a few dozen bytes per cell) stays well under
#: the DFA table budget while covering every per-input visited set seen in
#: the 26-app registry with room to spare.
DEFAULT_LAZY_CAPACITY = 2048

#: An input that evicts more than ``capacity * churn_factor`` rows is
#: thrashing: stop inserting new rows for the rest of that input.
DEFAULT_CHURN_FACTOR = 4.0

#: One memoized (subset, class) cell: successor subset key, mid-stream
#: report tuple, end-of-data report tuple, and a direct link to the
#: successor's cached row (``None`` when uncached; may be tombstoned).
_Cell = Tuple[int, Tuple[int, ...], Tuple[int, ...], Optional["_Row"]]


class _Row:
    """One cached subset state: its key and the per-class cells built so far.

    ``cells`` maps a symbol class to its cell and holds only the classes
    an input has exercised, so a row's size follows the work done on it,
    not the class count (ER has 256 classes and builds a handful per row).
    ``live`` is the eviction tombstone — stale direct links from other
    rows' cells check it and repair through the cache.  Evicted rows drop
    their ``cells`` so the only retained state is the subset key a repair
    lookup needs.
    """

    __slots__ = ("mask", "cells", "live")

    def __init__(self, mask: int) -> None:
        self.mask = mask
        self.cells: Optional[Dict[int, _Cell]] = {}
        self.live = True


class CompiledLazyDfa:
    """Lazy-DFA execution artifact: subset tables plus the subset cache.

    Holds the network's :class:`~repro.sim.subset.SubsetTables` and the
    LRU subset cache that persists across runs, so repeated inputs over
    the same artifact execute mostly at table speed.  Lifetime cache
    counters are exposed via :meth:`cache_stats`; :meth:`clear_cache`
    resets both the cache and those counters.
    """

    def __init__(
        self,
        tables: SubsetTables,
        *,
        capacity: int = DEFAULT_LAZY_CAPACITY,
        churn_factor: float = DEFAULT_CHURN_FACTOR,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"lazy-DFA capacity must be >= 1, got {capacity}")
        if churn_factor <= 0:
            raise ValueError(
                f"lazy-DFA churn factor must be > 0, got {churn_factor}"
            )
        self.tables = tables
        self.capacity = capacity
        self.churn_factor = churn_factor
        # OrderedDict semantics via plain dict: Python dicts preserve
        # insertion order and re-insertion moves a key to the end, which is
        # all the LRU discipline needs.
        self._cache: Dict[int, _Row] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.cell_builds = 0
        self.inserts = 0
        self.evictions = 0
        self.fallback_steps = 0

    def __getstate__(self) -> dict:
        """Pickle support for the network store (``repro.grid.store``).

        The subset cache is process-local by design: its rows hold direct
        next-row object links (and the lock guarding them cannot cross a
        process boundary), so a deserialized artifact starts from the
        post-compile state — empty cache, zero lifetime counters — and
        refills lazily during execution, exactly like a fresh
        :func:`compile_lazydfa` output.
        """
        state = dict(self.__dict__)
        state["_cache"] = {}
        del state["_lock"]
        for counter in ("hits", "cell_builds", "inserts", "evictions",
                        "fallback_steps"):
            state[counter] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def cache_stats(self) -> Dict[str, int]:
        """Lifetime cache counters plus current occupancy (for benches,
        serve introspection, and the adversarial-cap tests)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._cache),
                "hits": self.hits,
                "cell_builds": self.cell_builds,
                "inserts": self.inserts,
                "evictions": self.evictions,
                "fallback_steps": self.fallback_steps,
            }

    def clear_cache(self) -> None:
        """Drop every cached row (tombstoning them for link repair) and
        zero the lifetime counters — a full reset to the post-compile
        state, so :meth:`cache_stats` after a clear describes only work
        done since the clear."""
        with self._lock:
            for row in self._cache.values():
                row.live = False
                row.cells = None
            self._cache.clear()
            self.hits = 0
            self.cell_builds = 0
            self.inserts = 0
            self.evictions = 0
            self.fallback_steps = 0


def compile_lazydfa(
    network: Network,
    *,
    capacity: int = DEFAULT_LAZY_CAPACITY,
    churn_factor: float = DEFAULT_CHURN_FACTOR,
) -> CompiledLazyDfa:
    """Derive the subset tables of ``network``; no subset construction
    runs here — the cache fills during execution.

    Unlike :func:`repro.sim.dfa.compile_dfa` there is no feasibility gate:
    the cache is bounded by ``capacity`` regardless of how large the
    reachable subset space is, which is the whole point of the hybrid.
    """
    return CompiledLazyDfa(
        subset_tables(compile_network(network)),
        capacity=capacity,
        churn_factor=churn_factor,
    )


def lazydfa_run(
    compiled: CompiledLazyDfa,
    input_data: InputLike,
    *,
    track_enabled: bool = False,
) -> SimResult:
    """Consume ``input_data``; return a :class:`SimResult` bit-identical to
    the reference engine's.

    Holds the artifact's lock for the whole run (the subset cache is
    shared mutable state; serve executes batches executor-side).  With
    ``track_enabled`` the loop ORs each visited subset key into the
    ever-enabled mask as it goes — the subset keys double as subset
    witnesses, mirroring the eager backend's ``subset_masks`` recovery —
    so the witness costs one big-int, not one per distinct subset.
    """
    tables = compiled.tables
    step = tables.step
    reports_of = tables.fired
    symbols = as_input_array(input_data)
    n = int(symbols.size)
    classes: List[int] = (
        tables.class_of_symbol[symbols].tolist() if n else []
    )
    out: List[Tuple[int, int]] = []
    append = out.append
    ever_int = 0

    with compiled._lock:
        cache = compiled._cache
        capacity = compiled.capacity
        churn_limit = compiled.capacity * compiled.churn_factor
        caching = True
        run_evictions = 0
        hits = builds = inserts = evictions = fallback = 0

        def lookup(mask: int) -> Optional[_Row]:
            """Cache probe; inserts a fresh row unless churn disabled it."""
            nonlocal hits, inserts, evictions, run_evictions, caching
            found = cache.get(mask)
            if found is not None:
                del cache[mask]  # re-insertion refreshes LRU recency
                cache[mask] = found
                hits += 1
                return found
            if not caching:
                return None
            made = _Row(mask)
            cache[mask] = made
            inserts += 1
            if len(cache) > capacity:
                old = cache.pop(next(iter(cache)))
                old.live = False
                old.cells = None
                evictions += 1
                run_evictions += 1
                if run_evictions > churn_limit:
                    caching = False
            return made

        cur = tables.initial
        row = lookup(cur)
        last = n - 1
        for position in range(n):
            if track_enabled:
                ever_int |= cur
            cls = classes[position]
            if row is not None:
                cells = row.cells
                assert cells is not None  # live rows always hold cells
                cell = cells.get(cls)
                if cell is None:
                    activated, nxt_mask = step(row.mask, cls)
                    fired_mid, fired_full = reports_of(activated)
                    builds += 1
                    nxt_row = row if nxt_mask == cur else lookup(nxt_mask)
                    cell = (nxt_mask, fired_mid, fired_full, nxt_row)
                    cells[cls] = cell
                else:
                    nxt_row = cell[3]
                    if nxt_row is not None and not nxt_row.live:
                        nxt_row = lookup(cell[0])
                        cell = (cell[0], cell[1], cell[2], nxt_row)
                        cells[cls] = cell
                    elif nxt_row is None:
                        nxt_row = lookup(cell[0])
                        if nxt_row is not None:
                            cell = (cell[0], cell[1], cell[2], nxt_row)
                            cells[cls] = cell
                fired = cell[2] if position == last else cell[1]
                if fired:
                    for gid in fired:
                        append((position, gid))
                cur = cell[0]
                row = nxt_row
            else:
                # Fallback step: the current subset is uncached (churn
                # burst); execute one bit-parallel NFA step and try to
                # re-enter the cache at the successor.
                activated, nxt_mask = step(cur, cls)
                fired_mid, fired_full = reports_of(activated)
                fallback += 1
                fired = fired_full if position == last else fired_mid
                if fired:
                    for gid in fired:
                        append((position, gid))
                cur = nxt_mask
                row = lookup(cur)

        compiled.hits += hits
        compiled.cell_builds += builds
        compiled.inserts += inserts
        compiled.evictions += evictions
        compiled.fallback_steps += fallback

    ever = np.frombuffer(
        ever_int.to_bytes(tables.n_words * 8, "little"), dtype=np.uint64
    ).copy()
    return SimResult(
        n_states=tables.n_states,
        n_symbols=n,
        cycles=n,
        reports=reports_to_array(out),
        ever_enabled=ever,
    )
