"""Shared test utilities: random network generation and hypothesis strategies."""

from __future__ import annotations

import random
from typing import Optional

from hypothesis import strategies as st

from repro.nfa.automaton import Automaton, Network, StartKind
from repro.nfa.symbolset import SymbolSet

#: A small alphabet keeps random inputs likely to hit transitions.
SMALL_ALPHABET = b"abcd"


def random_symbol_set(rng: random.Random, alphabet: bytes = SMALL_ALPHABET) -> SymbolSet:
    size = rng.randint(1, len(alphabet))
    return SymbolSet.from_symbols(rng.sample(list(alphabet), size))


def random_automaton(
    rng: random.Random,
    *,
    n_states: Optional[int] = None,
    cyclic: bool = True,
    name: str = "rand",
    start: StartKind = StartKind.ALL_INPUT,
) -> Automaton:
    """A random connected-ish automaton over the small alphabet.

    Guarantees at least one start and one reporting state.  With
    ``cyclic=True``, back edges (and hence SCCs) may appear.
    """
    n = n_states if n_states is not None else rng.randint(1, 12)
    automaton = Automaton(name)
    for index in range(n):
        automaton.add_state(
            random_symbol_set(rng),
            start=start if index == 0 else StartKind.NONE,
            reporting=index == n - 1,
            report_code=f"{name}:{index}" if index == n - 1 else None,
        )
    # A spine keeps every state reachable.
    for index in range(1, n):
        automaton.add_edge(rng.randint(0, index - 1), index)
    # Extra random edges.
    extra = rng.randint(0, n)
    for _ in range(extra):
        src = rng.randrange(n)
        if cyclic:
            dst = rng.randrange(n)
        else:
            if src == n - 1:
                continue
            dst = rng.randint(src + 1, n - 1)
        automaton.add_edge(src, dst)
    # A few extra reporting states make report comparisons more sensitive.
    for _ in range(rng.randint(0, 2)):
        state = automaton.state(rng.randrange(n))
        state.reporting = True
        if state.report_code is None:
            state.report_code = f"{name}:{state.sid}"
    # Occasionally make a reporter end-of-data-only (exercises eod paths).
    if rng.random() < 0.3:
        reporters = automaton.reporting_states()
        automaton.state(rng.choice(reporters)).eod = True
    return automaton


def random_network(
    rng: random.Random,
    *,
    n_automata: Optional[int] = None,
    cyclic: bool = True,
    start: StartKind = StartKind.ALL_INPUT,
) -> Network:
    count = n_automata if n_automata is not None else rng.randint(1, 5)
    network = Network("rand-net")
    for index in range(count):
        network.add(
            random_automaton(rng, cyclic=cyclic, name=f"nfa{index}", start=start)
        )
    return network


def blowup_network(tail: int = 13) -> Network:
    """``a`` followed by ``tail`` wildcards: 2**tail reachable subsets.

    The classic counting pattern whose subset construction bursts any
    reasonable budget (here 8192 > DEFAULT_DFA_BUDGET = 4096), used to
    exercise the infeasible paths without waiting on a real blowup.
    """
    automaton = Automaton("blowup")
    automaton.add_state(
        SymbolSet.from_symbols(b"a"), start=StartKind.ALL_INPUT
    )
    for index in range(tail):
        automaton.add_state(
            SymbolSet.universal(),
            reporting=index == tail - 1,
            report_code="blow" if index == tail - 1 else None,
        )
        automaton.add_edge(index, index + 1)
    network = Network("blowup-net")
    network.add(automaton)
    return network


def random_input(rng: random.Random, length: int, alphabet: bytes = SMALL_ALPHABET) -> bytes:
    return bytes(rng.choice(alphabet) for _ in range(length))


#: Hypothesis strategy: a seed we expand into (network, input) via random.Random,
#: which shrinks better than composite object strategies for graph-shaped data.
seeds = st.integers(min_value=0, max_value=2**32 - 1)
input_lengths = st.integers(min_value=0, max_value=40)
