"""The subset-construction core: one step function, one budgeted BFS.

Every consumer of subset construction in the repo walks the transition
function defined here, over tables derived from the
:class:`~repro.sim.compiled.CompiledNetwork` the bit-packed engines already
execute:

* the cost explorer (:func:`repro.cost.explore.explore_subset_construction`)
  proves DFA safety with ``construct(tables, budget)`` — counting subsets,
  storing no rows;
* the table-driven backend (:func:`repro.sim.dfa.compile_dfa`) builds its
  dense table with ``construct(tables, budget, rows=True)``;
* the lazy hybrid (:mod:`repro.sim.lazydfa`) calls :meth:`SubsetTables.step`
  on a cache miss.

Subsets are Python big-ints (bit ``g`` = global state ``g``).  A transition
on symbol class ``c`` is one AND with the class's accept mask, then the OR
of the activated states' successor masks and the all-input start states —
semantically one :func:`repro.sim.engine.run` cycle.  Symbol classes are
the distinct rows of the compiled accept matrix, numbered by their smallest
byte (CAMA's column compression: real rulesets distinguish a few dozen
classes, not 256).

The successor depends only on the activated set, and one walk meets few
distinct activated sets (Snort_L's network at scale 48: 364,918 cells, 4,120
activated sets), so :func:`construct` memoizes the target subset index per
activated set and computes a miss through :meth:`SubsetTables.successor`,
the same code :meth:`SubsetTables.step` runs.  The memo lives for one call
and holds at most ``budget`` keys, no more than the subset index itself.

The independent oracle these results are tested against — a frozenset
subset construction that shares no code with this module — lives in
``tests/determinize_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nfa.symbolset import ALPHABET_SIZE
from .compiled import CompiledNetwork

__all__ = [
    "DEFAULT_DFA_BUDGET",
    "SubsetConstruction",
    "SubsetTables",
    "construct",
    "subset_tables",
]

#: Default subset-state budget: small enough that a safe partition's table
#: (budget x classes x entry bytes) stays cache-resident, large enough to
#: admit the trie-shaped hot partitions whose subset space is near-linear.
DEFAULT_DFA_BUDGET = 4096


def _bits(mask: int) -> Tuple[int, ...]:
    """Indices of set bits, ascending."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _packed_int(packed: np.ndarray) -> int:
    """A packed uint64 state vector as a big-int (bit ``g`` = state ``g``)."""
    return int.from_bytes(packed.astype("<u8").tobytes(), "little")


@dataclass(frozen=True, eq=False)
class SubsetTables:
    """A network as big-int masks: the subset-construction view.

    ``class_of_symbol[b]`` is byte ``b``'s symbol class; ``class_accept[c]``
    is the set of states accepting class ``c``'s bytes; ``successors[g]``
    is state ``g``'s successor set.  ``always`` holds the all-input start
    states (re-enabled on every transition), ``initial`` both start kinds,
    ``report`` the reporting states and ``mid_report`` those that may fire
    before end-of-data.
    """

    n_states: int
    class_of_symbol: np.ndarray  # (256,) int64
    class_accept: Tuple[int, ...]
    successors: Tuple[int, ...]
    always: int
    initial: int
    report: int
    mid_report: int

    @property
    def n_classes(self) -> int:
        return len(self.class_accept)

    @property
    def n_words(self) -> int:
        """Packed 64-bit words per state vector (as in ``CompiledNetwork``)."""
        return (max(self.n_states, 1) + 63) // 64

    def successor(self, activated: int) -> int:
        """The subset an activated set enables: the OR of its states'
        successor masks plus the all-input start states."""
        nxt = self.always
        successors = self.successors
        rest = activated
        while rest:
            low = rest & -rest
            nxt |= successors[low.bit_length() - 1]
            rest ^= low
        return nxt

    def step(self, mask: int, cls: int) -> Tuple[int, int]:
        """One subset transition from ``mask`` on class ``cls``.

        Returns ``(activated, successor)``: the states of ``mask`` that
        accept the class, and the subset they enable.
        """
        activated = mask & self.class_accept[cls]
        return activated, self.successor(activated)

    def fired(self, activated: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(mid, full)`` report tuples for an activated set: ``full`` at
        the last input position, ``mid`` (end-of-data reporters removed)
        everywhere else."""
        full = activated & self.report
        if not full:
            return (), ()
        return _bits(activated & self.mid_report), _bits(full)


def subset_tables(compiled: CompiledNetwork) -> SubsetTables:
    """Derive the subset-construction masks from a compiled network."""
    class_of = np.zeros(ALPHABET_SIZE, dtype=np.int64)
    class_index: Dict[bytes, int] = {}
    class_accept: List[int] = []
    accept = compiled.accept.astype("<u8")
    for symbol in range(ALPHABET_SIZE):
        row = accept[symbol].tobytes()
        cls = class_index.get(row)
        if cls is None:
            cls = class_index[row] = len(class_accept)
            class_accept.append(int.from_bytes(row, "little"))
        class_of[symbol] = cls

    indptr = compiled.indptr.tolist()
    indices = compiled.indices.tolist()
    successors: List[int] = []
    for gid in range(compiled.n_states):
        mask = 0
        for dst in indices[indptr[gid]:indptr[gid + 1]]:
            mask |= 1 << dst
        successors.append(mask)

    always = _packed_int(compiled.start_all)
    report, mid_report = compiled.report_ints()
    return SubsetTables(
        n_states=compiled.n_states,
        class_of_symbol=class_of,
        class_accept=tuple(class_accept),
        successors=tuple(successors),
        always=always,
        initial=always | _packed_int(compiled.start_sod),
        report=report,
        mid_report=mid_report,
    )


@dataclass(frozen=True)
class SubsetConstruction:
    """Outcome of one budgeted breadth-first subset construction.

    When ``complete``, ``n_subsets`` is the exact reachable-subset count.
    Otherwise the budget burst: ``n_subsets`` is ``budget + 1`` and
    ``frontier_depth`` is the BFS depth (symbols consumed from the initial
    subset) of the subset that burst it.  ``max_subset_size`` is the
    largest subset seen, the blowup witness.

    With ``rows=True`` a complete construction also holds the DFA: state
    ``s`` is ``subsets[s]`` (state 0 is the initial subset), and
    ``transitions`` / ``reports`` / ``reports_mid`` are flat over
    ``s * n_classes + c``.
    """

    complete: bool
    budget: int
    n_subsets: int
    max_subset_size: int
    frontier_depth: Optional[int]
    subsets: Tuple[int, ...] = ()
    transitions: Tuple[int, ...] = ()
    reports: Tuple[Tuple[int, ...], ...] = ()
    reports_mid: Tuple[Tuple[int, ...], ...] = ()


def construct(
    tables: SubsetTables, budget: int = DEFAULT_DFA_BUDGET, *, rows: bool = False
) -> SubsetConstruction:
    """Breadth-first subset construction, capped at ``budget`` subsets.

    A reachable-subset count of exactly ``budget`` completes; one more
    bursts.  Never raises on blowup (that is the result, not an error).
    Reachability does not depend on worklist order, so the count is the
    one any subset construction of the same transition function finds.

    A cell whose activated set was already seen takes its target index
    from a per-call memo instead of re-ORing the successor masks; the memo
    stops growing at ``budget`` keys (later misses are computed, not
    stored), and results are identical with or without it.
    """
    if budget < 1:
        # The initial subset always exists, so a zero budget could never
        # honor its own contract.
        raise ValueError(f"budget must be >= 1, got {budget}")
    initial = tables.initial
    index_of: Dict[int, int] = {initial: 0}
    order: List[int] = [initial]
    depth: List[int] = [0]
    max_size = bin(initial).count("1")
    transitions: List[int] = []
    reports: List[Tuple[int, ...]] = []
    reports_mid: List[Tuple[int, ...]] = []
    # activated set -> target index; capped at ``budget`` keys so it never
    # outgrows ``index_of``.
    memo: Dict[int, int] = {}
    successor = tables.successor
    fired = tables.fired
    class_accept = tables.class_accept

    head = 0
    while head < len(order):
        current = order[head]
        for accept in class_accept:
            activated = current & accept
            target = memo.get(activated)
            if target is None:
                nxt = successor(activated)
                target = index_of.get(nxt)
                if target is None:
                    if len(order) >= budget:
                        return SubsetConstruction(
                            complete=False,
                            budget=budget,
                            n_subsets=len(order) + 1,
                            max_subset_size=max_size,
                            frontier_depth=depth[head] + 1,
                        )
                    target = index_of[nxt] = len(order)
                    order.append(nxt)
                    depth.append(depth[head] + 1)
                    max_size = max(max_size, bin(nxt).count("1"))
                if len(memo) < budget:
                    memo[activated] = target
            if rows:
                transitions.append(target)
                mid, full = fired(activated)
                reports.append(full)
                reports_mid.append(mid)
        head += 1

    return SubsetConstruction(
        complete=True,
        budget=budget,
        n_subsets=len(order),
        max_subset_size=max_size,
        frontier_depth=None,
        subsets=tuple(order) if rows else (),
        transitions=tuple(transitions),
        reports=tuple(reports),
        reports_mid=tuple(reports_mid),
    )
