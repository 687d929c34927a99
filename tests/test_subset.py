"""The memoized subset-construction BFS against a plain one.

:func:`repro.sim.subset.construct` takes each cell's target index from a
memo keyed by activated set, capped at ``budget`` keys.  The reference walk
below has no memo: it calls :meth:`SubsetTables.step` on every cell, so any
divergence — a stale target, a miss mishandled after the memo fills, a burst
detected one cell early or late — shows up as an unequal
:class:`SubsetConstruction` (burst triple, subset order, transition rows
and report tuples alike).
"""

import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings

from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import get_run
from repro.nfa.automaton import Network
from repro.nfa.build import literal_chain
from repro.sim.compiled import compile_network
from repro.sim.subset import SubsetConstruction, SubsetTables, construct, subset_tables

from helpers import blowup_network, random_network, seeds

_CONFIG = ExperimentConfig(scale=64, input_len=512)
_BUDGETS = (1, 2, 16, 4096)


def _plain_construct(tables: SubsetTables, budget: int, rows: bool) -> SubsetConstruction:
    """Breadth-first subset construction with one ``step`` per cell."""
    order: List[int] = [tables.initial]
    index_of: Dict[int, int] = {tables.initial: 0}
    depth: List[int] = [0]
    max_size = bin(tables.initial).count("1")
    cells: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []
    head = 0
    while head < len(order):
        for cls in range(tables.n_classes):
            activated, nxt = tables.step(order[head], cls)
            if nxt not in index_of:
                if len(order) >= budget:
                    return SubsetConstruction(False, budget, len(order) + 1,
                                              max_size, depth[head] + 1)
                index_of[nxt] = len(order)
                order.append(nxt)
                depth.append(depth[head] + 1)
                max_size = max(max_size, bin(nxt).count("1"))
            mid, full = tables.fired(activated)
            cells.append((index_of[nxt], full, mid))
        head += 1
    if not rows:
        return SubsetConstruction(True, budget, len(order), max_size, None)
    return SubsetConstruction(
        True, budget, len(order), max_size, None,
        subsets=tuple(order),
        transitions=tuple(cell[0] for cell in cells),
        reports=tuple(cell[1] for cell in cells),
        reports_mid=tuple(cell[2] for cell in cells),
    )


def _burst(built: SubsetConstruction) -> Tuple[int, int, object]:
    return built.n_subsets, built.max_subset_size, built.frontier_depth


class TestMemoMatchesPlainWalk:
    @pytest.mark.parametrize("budget", _BUDGETS)
    def test_counting_pattern(self, budget):
        # 2**13 reachable subsets; at budget 4096 the walk meets 4,097
        # distinct activated sets before it bursts, so its last miss runs
        # after the memo is full.
        tables = subset_tables(compile_network(blowup_network()))
        built = construct(tables, budget)
        plain = _plain_construct(tables, budget, rows=False)
        assert not built.complete
        assert _burst(built) == _burst(plain)
        assert built == plain

    def test_counting_pattern_completes_at_its_size(self):
        tables = subset_tables(compile_network(blowup_network(tail=8)))
        for budget in (256, 257, 4096):
            built = construct(tables, budget, rows=True)
            assert built.complete and built.n_subsets == 256
            assert built == _plain_construct(tables, budget, rows=True)

    @pytest.mark.parametrize("budget", (1, 2))
    def test_more_activated_sets_than_the_cap(self, budget):
        # Eight edgeless all-input reporters on distinct bytes: one subset
        # (every transition re-enables the same start states) but nine
        # distinct activated sets, so most misses come after the memo is
        # full, and their report tuples must still land on the right cells.
        network = Network("bytes")
        for index, byte in enumerate(b"abcdefgh"):
            network.add(literal_chain(bytes([byte]), name=f"b{index}",
                                      report_code=f"r{index}"))
        tables = subset_tables(compile_network(network))
        built = construct(tables, budget, rows=True)
        assert built.complete and built.n_subsets == 1
        assert tables.n_classes == 9
        assert built == _plain_construct(tables, budget, rows=True)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_random_networks(self, seed):
        tables = subset_tables(compile_network(random_network(random.Random(seed))))
        for budget in (1, 3, 64):
            assert construct(tables, budget, rows=True) == _plain_construct(
                tables, budget, rows=True
            )


@pytest.fixture(scope="module", params=["Snort", "ER", "Fermi"])
def registry_partitions(request):
    run = get_run(request.param, _CONFIG)
    partitioned, _bins = run.partition(0.01, run.config.half_core)
    subjects = [("network", run.network), ("hot", partitioned.hot),
                ("cold", partitioned.cold)]
    return [
        (f"{request.param}/{name}", subset_tables(compile_network(network)))
        for name, network in subjects
        if network.n_states
    ]


class TestRegistryPartitions:
    def test_burst_triples_and_rows(self, registry_partitions):
        for where, tables in registry_partitions:
            for budget in _BUDGETS:
                built = construct(tables, budget, rows=True)
                plain = _plain_construct(tables, budget, rows=True)
                assert _burst(built) == _burst(plain), (where, budget)
                assert built == plain, (where, budget)
