"""Independent oracle: frozenset subset construction of an NFA network.

A deliberately naive determinizer that shares no code with the
subset-construction core in ``repro.sim.subset``: it flattens the
:class:`~repro.nfa.automaton.Network` itself, computes alphabet classes by
testing every symbol-set against every byte, and walks subsets as
frozensets, depth-first.  Tests compare the core's subset counts, tables
and reports against it, so a bug in the core cannot hide behind a shared
helper.

Semantics match the network exactly: a DFA state is the set of enabled NFA
states; all-input start states are re-enabled on every transition, and a
transition that activates reporting NFA states emits those reports at the
consumed position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple, Union

import numpy as np

from repro.nfa.automaton import Network, StartKind
from repro.nfa.symbolset import ALPHABET_SIZE, SymbolSet
from repro.sim.result import reports_to_array

__all__ = [
    "DFA",
    "DeterminizeError",
    "NetworkTables",
    "alphabet_classes",
    "class_representatives",
    "determinize",
    "flatten_network",
]


class DeterminizeError(RuntimeError):
    """Raised when subset construction exceeds the state cap."""


@dataclass(frozen=True)
class NetworkTables:
    """A network flattened to per-global-state tables (determinization view).

    ``successors[g]`` lists global successor ids; ``always`` is the set of
    all-input start states (re-enabled on every transition); ``initial`` is
    the subset-construction start set (both start kinds).
    """

    symbol_sets: Tuple[SymbolSet, ...]
    successors: Tuple[Tuple[int, ...], ...]
    reporting: Tuple[bool, ...]
    eod: Tuple[bool, ...]
    always: FrozenSet[int]
    initial: FrozenSet[int]

    @property
    def n_states(self) -> int:
        return len(self.symbol_sets)


def flatten_network(network: Network) -> NetworkTables:
    """Flatten a network into the tables subset construction walks."""
    symbol_sets: List[SymbolSet] = []
    successors: List[Tuple[int, ...]] = []
    reporting: List[bool] = []
    eod: List[bool] = []
    always: List[int] = []
    initial: List[int] = []
    offsets = network.offsets()
    for a_index, automaton in enumerate(network.automata):
        base = offsets[a_index]
        for state in automaton.states():
            symbol_sets.append(state.symbol_set)
            successors.append(tuple(base + d for d in automaton.successors(state.sid)))
            reporting.append(state.reporting)
            eod.append(state.eod)
            if state.start is StartKind.ALL_INPUT:
                always.append(base + state.sid)
                initial.append(base + state.sid)
            elif state.start is StartKind.START_OF_DATA:
                initial.append(base + state.sid)
    return NetworkTables(
        symbol_sets=tuple(symbol_sets),
        successors=tuple(successors),
        reporting=tuple(reporting),
        eod=tuple(eod),
        always=frozenset(always),
        initial=frozenset(initial),
    )


def alphabet_classes(network: Network) -> Tuple[np.ndarray, int]:
    """Group symbols that every state in the network treats identically.

    Returns ``(class_of, n_classes)`` where ``class_of[b]`` maps byte ``b``
    to its equivalence-class index.  Two bytes share a class exactly when
    no symbol-set in the network distinguishes them, so a transition table
    needs one column per class rather than one per byte (CAMA's
    observation: real rulesets use a few dozen classes, not 256).
    """
    classes: Dict[Tuple[bool, ...], int] = {}
    class_of = np.zeros(ALPHABET_SIZE, dtype=np.int64)
    distinct_sets = {state.symbol_set for _g, _a, state in network.global_states()}
    ordered = sorted(distinct_sets, key=lambda symbol_set: symbol_set.mask)
    for symbol in range(ALPHABET_SIZE):
        signature = tuple(symbol_set.matches(symbol) for symbol_set in ordered)
        if signature not in classes:
            classes[signature] = len(classes)
        class_of[symbol] = classes[signature]
    return class_of, len(classes)


def class_representatives(class_of: np.ndarray, n_classes: int) -> np.ndarray:
    """One representative symbol per class (the smallest member)."""
    representative = np.zeros(n_classes, dtype=np.int64)
    for symbol in range(ALPHABET_SIZE - 1, -1, -1):
        representative[int(class_of[symbol])] = symbol
    return representative


@dataclass
class DFA:
    """A table-driven DFA over compressed symbol classes.

    ``transitions[s, c]`` is the next DFA state for symbol class ``c``;
    ``reports[s][c]`` lists the network's reporting state ids activated by
    that transition (empty tuple if silent); ``reports_mid`` is the same
    with end-of-data reporters removed (used at every position except the
    last).  ``subsets[s]`` is the set of global NFA states DFA state ``s``
    encodes — the subset-construction witness tests compare the core's
    ``subset_masks`` against.
    """

    n_states: int
    initial: int
    class_of_symbol: np.ndarray  # (256,) symbol -> class index
    transitions: np.ndarray  # (n_states, n_classes)
    reports: List[List[Tuple[int, ...]]]
    reports_mid: List[List[Tuple[int, ...]]]
    subsets: Tuple[FrozenSet[int], ...] = ()

    @property
    def n_classes(self) -> int:
        return int(self.transitions.shape[1])

    def run(self, input_data: Union[bytes, bytearray, str]) -> np.ndarray:
        """Consume the input; return ``(position, nfa_state)`` reports."""
        if isinstance(input_data, str):
            input_data = input_data.encode("latin-1")
        symbols = np.frombuffer(bytes(input_data), dtype=np.uint8)
        classes = self.class_of_symbol[symbols]
        out: List[Tuple[int, int]] = []
        state = self.initial
        transitions = self.transitions
        last = int(classes.size) - 1
        for position in range(classes.size):
            cls = int(classes[position])
            table = self.reports if position == last else self.reports_mid
            for gid in table[state][cls]:
                out.append((position, gid))
            state = int(transitions[state, cls])
        return reports_to_array(out)


def determinize(network: Network, *, max_states: int = 65536) -> DFA:
    """Subset construction over the whole network.

    Raises :class:`DeterminizeError` when more than ``max_states`` subset
    states are generated (the classic DFA blowup the AP avoids natively).
    A network whose reachable-subset count is *exactly* ``max_states``
    succeeds — the same boundary semantics as ``repro.sim.subset.construct``,
    pinned by the boundary regression tests in ``tests/test_dfa_backend.py``.
    """
    if max_states < 1:
        # Mirror the explorer's budget validation: the initial subset always
        # exists, so max_states=0 could never honor its own contract.
        raise ValueError(f"max_states must be >= 1, got {max_states}")
    class_of, n_classes = alphabet_classes(network)
    representative = class_representatives(class_of, n_classes)
    tables = flatten_network(network)
    symbol_sets = tables.symbol_sets
    successors = tables.successors
    reporting = tables.reporting
    eod = tables.eod
    always_frozen = tables.always
    initial = tables.initial

    index_of: Dict[FrozenSet[int], int] = {initial: 0}
    worklist: List[FrozenSet[int]] = [initial]
    transition_rows: List[List[int]] = []
    report_rows: List[List[Tuple[int, ...]]] = []
    report_mid_rows: List[List[Tuple[int, ...]]] = []

    while worklist:
        current = worklist.pop()
        row = [0] * n_classes
        reps_row: List[Tuple[int, ...]] = [()] * n_classes
        reps_mid_row: List[Tuple[int, ...]] = [()] * n_classes
        for cls in range(n_classes):
            symbol = int(representative[cls])
            activated = [gid for gid in current if symbol_sets[gid].matches(symbol)]
            fired = tuple(sorted(gid for gid in activated if reporting[gid]))
            nxt = set(always_frozen)
            for gid in activated:
                nxt.update(successors[gid])
            target = frozenset(nxt)
            if target not in index_of:
                if len(index_of) >= max_states:
                    raise DeterminizeError(
                        f"subset construction exceeded {max_states} states"
                    )
                index_of[target] = len(index_of)
                worklist.append(target)
            row[cls] = index_of[target]
            reps_row[cls] = fired
            reps_mid_row[cls] = tuple(gid for gid in fired if not eod[gid])
        while len(transition_rows) <= index_of[current]:
            transition_rows.append([])
            report_rows.append([])
            report_mid_rows.append([])
        transition_rows[index_of[current]] = row
        report_rows[index_of[current]] = reps_row
        report_mid_rows[index_of[current]] = reps_mid_row

    n_states = len(index_of)
    transitions = np.zeros((n_states, n_classes), dtype=np.int64)
    for state_index, row in enumerate(transition_rows):
        transitions[state_index, :] = row
    subsets: List[FrozenSet[int]] = [frozenset()] * n_states
    for subset, state_index in index_of.items():
        subsets[state_index] = subset
    return DFA(
        n_states=n_states,
        initial=0,
        class_of_symbol=class_of,
        transitions=transitions,
        reports=report_rows,
        reports_mid=report_mid_rows,
        subsets=tuple(subsets),
    )
