"""Budgeted subset-construction exploration: DFA-safety proofs.

"Deterministic vs. Non-Deterministic Finite Automata in Automata
Processing" (PAPERS.md) shows a DFA backend only pays off when subset
construction stays bounded; this module decides that *statically*, per
partition, without ever materializing a transition table.

The explorer is the shared subset-construction core
(:func:`repro.sim.subset.construct`) run without rows, so its verdict is a
proof about the very transition function :func:`repro.sim.dfa.compile_dfa`
materializes:

* ``dfa_safe=True`` means the set of reachable subset states was exhausted
  and its size is ``n_subset_states <= budget``, so ``compile_dfa`` at the
  same budget builds exactly ``n_subset_states`` DFA states (the soundness
  gate in ``tests/test_cost.py`` replays this claim across the corpus, and
  checks the count against an independent frozenset oracle).
* ``dfa_safe=False`` reports the growth frontier instead: how many subsets
  had been discovered when the budget burst, at which BFS depth, and the
  largest subset seen (the blowup witness).

A burst walk is the explorer's cost: ``budget`` subsets times the class
count in cells.  The core memoizes each cell's target by activated set
(at most ``budget`` entries, freed when the walk returns), so only the
first cell per distinct activated set pays the successor OR (DESIGN.md
§12 has the measured before/after).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..nfa.automaton import Network
from ..sim.compiled import compile_network
from ..sim.subset import DEFAULT_DFA_BUDGET, construct, subset_tables

__all__ = ["DEFAULT_DFA_BUDGET", "SubsetExploration", "explore_subset_construction"]


@dataclass(frozen=True)
class SubsetExploration:
    """Outcome of one budgeted subset-construction walk.

    When ``dfa_safe``, ``n_subset_states`` is exactly the DFA state count
    ``compile_dfa`` would produce.  Otherwise it is the number of distinct
    subsets discovered when the budget burst (``budget + 1``), and
    ``frontier_depth`` is the BFS depth (symbols consumed from the initial
    subset) at which that happened.
    """

    dfa_safe: bool
    budget: int
    n_subset_states: int
    n_classes: int
    n_nfa_states: int
    max_subset_size: int  # largest |subset| seen: the blowup witness
    frontier_depth: Optional[int]  # None when the walk completed

    def describe(self) -> str:
        if self.dfa_safe:
            return (
                f"DFA-safe: {self.n_subset_states} subset states "
                f"<= budget {self.budget} ({self.n_classes} classes)"
            )
        return (
            f"budget {self.budget} exceeded: >{self.budget} subsets at "
            f"BFS depth {self.frontier_depth} "
            f"(largest subset {self.max_subset_size}/{self.n_nfa_states} states)"
        )


def explore_subset_construction(
    network: Network, *, budget: int = DEFAULT_DFA_BUDGET
) -> SubsetExploration:
    """Walk the reachable subset states, counting, up to ``budget``.

    Breadth-first from the initial subset, so a burst budget reports the
    shallowest growth frontier.  Returns a :class:`SubsetExploration`;
    never raises on blowup (that is the result, not an error).
    """
    tables = subset_tables(compile_network(network))
    built = construct(tables, budget)
    return SubsetExploration(
        dfa_safe=built.complete,
        budget=budget,
        n_subset_states=built.n_subsets,
        n_classes=tables.n_classes,
        n_nfa_states=tables.n_states,
        max_subset_size=built.max_subset_size,
        frontier_depth=built.frontier_depth,
    )
