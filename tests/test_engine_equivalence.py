"""Cross-engine equivalence: all engines report bit-identically.

The execution paths — the pure-Python reference, the bit-packed scalar
engine, the table-driven DFA engine, the bounded-subset lazy-DFA hybrid,
and the multi-stream lock-step batch kernel that serving and the
segment-parallel model use — implement the same homogeneous-NFA semantics
through completely different datapaths.  These property tests pin them to
each other on random networks (cyclic, eod reporters, multiple automata)
and random inputs, including both internal dispatch paths of the
multi-stream kernel and the hybrid under adversarially tiny LRU caps
(capacity 1 and 2, where every transition evicts and the fallback path
carries the run); the ``dfa`` arm additionally sweeps every DFA-safe
registry application at the standard bench scale.  Degenerate inputs — empty and single-symbol — get explicit
parity arms across every registered engine (reports *and* witness masks).
"""

import random

import numpy as np
from hypothesis import given, settings

from repro import bitops
from repro.reduce import reduce_network
from repro.sim import (
    ENGINES,
    compile_dfa,
    compile_lazydfa,
    compile_network,
    dfa_feasible,
    dfa_run,
    lazydfa_run,
    reference_run,
    reports_equal,
    run,
)
from repro.sim import multistream as ms
from repro.sim.multistream import run_multi

from helpers import input_lengths, random_input, random_network, seeds


class _forced_path:
    """Pin run_multi to its big-int or packed-word internal path.

    A plain context manager (not the ``monkeypatch`` fixture) so it can be
    used inside hypothesis tests, which forbid function-scoped fixtures.
    """

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        self.saved = (ms._BIGINT_WORD_LIMIT, ms._BIGINT_STREAM_LIMIT)
        if self.path == "bigint":
            ms._BIGINT_WORD_LIMIT = ms._BIGINT_STREAM_LIMIT = 1 << 30
        else:
            ms._BIGINT_WORD_LIMIT = 0

    def __exit__(self, *exc):
        ms._BIGINT_WORD_LIMIT, ms._BIGINT_STREAM_LIMIT = self.saved
        return False


class TestFourEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(seeds, input_lengths)
    def test_reports_identical_across_engines(self, seed, length):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, length)
        compiled = compile_network(network)

        expected = reference_run(network, data).reports
        assert reports_equal(run(compiled, data).reports, expected)
        (multi,) = run_multi(compiled, [data])
        assert reports_equal(multi.reports, expected)
        if dfa_feasible(network):  # the dfa arm covers every safe network
            assert reports_equal(dfa_run(compile_dfa(network), data).reports, expected)
        # The hybrid needs no feasibility gate; capacity 1 forces an
        # eviction on every distinct subset, so the fallback/re-entry path
        # carries most of the run.
        for capacity in (1, 2, None):
            lazy = (compile_lazydfa(network) if capacity is None
                    else compile_lazydfa(network, capacity=capacity))
            assert reports_equal(
                lazydfa_run(lazy, data).reports, expected
            ), f"capacity={capacity}"

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_hot_sets_identical(self, seed):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, rng.randint(1, 30))
        compiled = compile_network(network)

        scalar = run(compiled, data, track_enabled=True)
        (multi,) = run_multi(compiled, [data], track_enabled=True)
        assert (scalar.ever_enabled == multi.ever_enabled).all()
        if dfa_feasible(network):
            dfa = dfa_run(compile_dfa(network), data, track_enabled=True)
            assert (scalar.ever_enabled == dfa.ever_enabled).all()
        # Witness recovery from cached subset keys must survive eviction
        # churn: the visited-subset OR is taken per position, not from the
        # (lossy) cache contents.
        for capacity in (1, 2, None):
            lazy = (compile_lazydfa(network) if capacity is None
                    else compile_lazydfa(network, capacity=capacity))
            hybrid = lazydfa_run(lazy, data, track_enabled=True)
            assert (scalar.ever_enabled == hybrid.ever_enabled).all(), (
                f"capacity={capacity}"
            )

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_multistream_both_paths_match_scalar(self, seed):
        """K ragged streams, each bit-identical to its own scalar run, on
        both the big-int and packed-word internal paths."""
        rng = random.Random(seed)
        network = random_network(rng)
        compiled = compile_network(network)
        streams = [random_input(rng, rng.randint(0, 30)) for _ in range(rng.randint(1, 6))]
        expected = [run(compiled, s, track_enabled=True) for s in streams]

        for path in ("bigint", "packed"):
            with _forced_path(path):
                results = run_multi(compiled, streams, track_enabled=True)
            assert len(results) == len(streams)
            for got, want in zip(results, expected):
                assert reports_equal(got.reports, want.reports), path
                assert (got.ever_enabled == want.ever_enabled).all(), path
                assert got.cycles == want.cycles


class TestReducedNetworkEquivalence:
    """The ``--reduce`` execution path: every engine run on the
    SPAP-R-reduced network, lifted through the state-mapping table, must
    match the reference run on the *parent* network — reports in both
    modes, witness masks additionally in exact mode.  This closes the
    loop the per-engine arms above leave open: reduction composes with
    every datapath, not just the reference simulator.
    """

    @settings(max_examples=40, deadline=None)
    @given(seeds, input_lengths)
    def test_exact_reduction_lifts_bit_identically(self, seed, length):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, length)
        truth = reference_run(network, data)
        reduction = reduce_network(network, mode="exact")
        n = network.n_states
        truth_mask = bitops.to_bool(truth.ever_enabled, n)
        for name, engine in ENGINES.items():
            if not engine.feasible(reduction.network):
                continue
            got = engine.run_network(reduction.network, data, track_enabled=True)
            lifted = reduction.lift_result(got)
            assert reports_equal(lifted.reports, truth.reports), name
            assert np.array_equal(
                bitops.to_bool(lifted.ever_enabled, n), truth_mask
            ), name

    @settings(max_examples=30, deadline=None)
    @given(seeds, input_lengths)
    def test_aggressive_reduction_preserves_reports(self, seed, length):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, length)
        expected = reference_run(network, data).reports
        reduction = reduce_network(network, mode="aggressive")
        for name, engine in ENGINES.items():
            if not engine.feasible(reduction.network):
                continue
            got = engine.run_network(reduction.network, data)
            assert reports_equal(reduction.lift_reports(got.reports), expected), name


class TestDegenerateInputs:
    """Empty and single-symbol streams across every registered engine.

    The boundary positions are where engines disagree first: an empty
    stream must produce zero reports and an all-zero witness mask without
    stepping any datapath, and a one-symbol stream is simultaneously the
    first *and* last position (eod reporters fire, mid-only bookkeeping
    must not).  Every entry in the registry — not a hand-kept list — is
    pinned to the reference engine on both, so a sixth engine cannot land
    without inheriting the parity bar.
    """

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_empty_input_parity(self, seed):
        rng = random.Random(seed)
        network = random_network(rng)
        expected = reference_run(network, b"")
        assert expected.reports.shape[0] == 0
        for name, engine in ENGINES.items():
            if not engine.feasible(network):
                continue
            got = engine.run_network(network, b"", track_enabled=True)
            assert got.reports.shape[0] == 0, name
            assert (got.ever_enabled == expected.ever_enabled).all(), name
            assert not got.ever_enabled.any(), name

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_single_symbol_parity(self, seed):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, 1)
        expected = reference_run(network, data)
        for name, engine in ENGINES.items():
            if not engine.feasible(network):
                continue
            got = engine.run_network(network, data, track_enabled=True)
            assert reports_equal(got.reports, expected.reports), name
            assert (got.ever_enabled == expected.ever_enabled).all(), name
