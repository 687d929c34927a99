"""Unit tests for the multi-stream lock-step batch kernel (repro.sim.multistream)."""

import numpy as np
import pytest

from repro.nfa.automaton import Automaton, Network, StartKind
from repro.nfa.symbolset import SymbolSet
from repro.sim import compile_network, reports_equal, run
from repro.sim import multistream as ms
from repro.sim.multistream import run_multi


def _chain_network(word: bytes = b"ab", eod: bool = False) -> Network:
    """One automaton matching ``word`` anywhere, reporting on its last state."""
    automaton = Automaton("chain")
    for index, symbol in enumerate(word):
        automaton.add_state(
            SymbolSet.from_symbols([symbol]),
            start=StartKind.ALL_INPUT if index == 0 else StartKind.NONE,
            reporting=index == len(word) - 1,
            report_code=f"chain:{index}" if index == len(word) - 1 else None,
        )
        if index:
            automaton.add_edge(index - 1, index)
    if eod:
        automaton.state(len(word) - 1).eod = True
    network = Network("chain-net")
    network.add(automaton)
    return network


class TestRunMulti:
    def test_no_streams(self):
        compiled = compile_network(_chain_network())
        assert run_multi(compiled, []) == []

    def test_single_stream_matches_scalar(self):
        compiled = compile_network(_chain_network())
        data = b"xxabyabz"
        (multi,) = run_multi(compiled, [data], track_enabled=True)
        scalar = run(compiled, data, track_enabled=True)
        assert reports_equal(multi.reports, scalar.reports)
        assert (multi.ever_enabled == scalar.ever_enabled).all()
        assert multi.cycles == scalar.cycles == len(data)

    def test_empty_stream_among_live_ones(self):
        compiled = compile_network(_chain_network())
        results = run_multi(compiled, [b"ab", b"", b"xabab"])
        assert [r.n_symbols for r in results] == [2, 0, 5]
        assert results[0].reports.shape[0] == 1
        assert results[1].reports.size == 0
        assert results[2].reports.shape[0] == 2

    def test_all_streams_empty(self):
        compiled = compile_network(_chain_network())
        results = run_multi(compiled, [b"", b""])
        assert all(r.reports.size == 0 and r.cycles == 0 for r in results)

    def test_all_streams_empty_with_tracking(self):
        # Degenerate lanes must still produce a correctly-shaped (all-zero)
        # hot set when tracking is on.
        compiled = compile_network(_chain_network())
        results = run_multi(compiled, [b"", b""], track_enabled=True)
        for result in results:
            assert result.hot_count() == 0
            assert result.ever_enabled.shape == (compiled.n_words,)

    def test_empty_lanes_never_enter_the_matrix(self, monkeypatch):
        # A zero-length stream gets its trivial result without occupying a
        # lock-step lane: the surviving single live stream still rides the
        # bigint path even when the stream limit is 1.
        compiled = compile_network(_chain_network())
        monkeypatch.setattr(ms, "_BIGINT_STREAM_LIMIT", 1)
        seen = {}
        original = ms._lockstep_bigint

        def spy(compiled_, sym_rows, lengths, reports, ever):
            seen["lengths"] = list(lengths)
            return original(compiled_, sym_rows, lengths, reports, ever)

        monkeypatch.setattr(ms, "_lockstep_bigint", spy)
        results = run_multi(compiled, [b"", b"abab", b""], track_enabled=True)
        assert seen["lengths"] == [4]
        assert [r.n_symbols for r in results] == [0, 4, 0]
        scalar = run(compiled, b"abab", track_enabled=True)
        assert reports_equal(results[1].reports, scalar.reports)
        assert (results[1].ever_enabled == scalar.ever_enabled).all()
        assert results[0].hot_count() == results[2].hot_count() == 0

    def test_packed_path_with_empty_and_ragged_lanes(self):
        # Force the packed (k > _BIGINT_STREAM_LIMIT) path with a mix of
        # empty, short, and long streams; every lane must match the scalar
        # engine bit for bit.
        compiled = compile_network(_chain_network())
        streams = ([b"abab", b"", b"xxabx", b"ab"] * 8)[: ms._BIGINT_STREAM_LIMIT + 6]
        results = run_multi(compiled, streams, track_enabled=True)
        assert len(results) == len(streams)
        for stream, got in zip(streams, results):
            want = run(compiled, stream, track_enabled=True)
            assert reports_equal(got.reports, want.reports)
            assert (got.ever_enabled == want.ever_enabled).all()
            assert got.cycles == len(stream)

    def test_ragged_eod_fires_at_each_streams_own_end(self):
        # End-of-data reporters must fire at each stream's final position,
        # not the longest stream's.
        compiled = compile_network(_chain_network(eod=True))
        short, long = b"ab", b"abxxab"
        results = run_multi(compiled, [short, long])
        expected = [run(compiled, s) for s in (short, long)]
        for got, want in zip(results, expected):
            assert reports_equal(got.reports, want.reports)
        assert results[0].reports.shape[0] == 1  # "ab" ends at position 1
        assert results[1].reports.shape[0] == 1  # only the final "ab" reports

    def test_identical_streams_identical_results(self):
        compiled = compile_network(_chain_network())
        data = b"abab"
        results = run_multi(compiled, [data] * 5)
        for result in results[1:]:
            assert reports_equal(result.reports, results[0].reports)

    def test_packed_path_csr_fallback(self, monkeypatch):
        # Packed path with successor_masks disabled: the CSR scatter branch.
        compiled = compile_network(_chain_network())
        monkeypatch.setattr(ms, "_BIGINT_WORD_LIMIT", 0)
        monkeypatch.setattr(type(compiled), "successor_masks", lambda self: None)
        results = run_multi(compiled, [b"abab", b"xxab"])
        monkeypatch.undo()
        expected = [run(compiled, s) for s in (b"abab", b"xxab")]
        for got, want in zip(results, expected):
            assert reports_equal(got.reports, want.reports)

    def test_bigint_path_csr_fallback(self, monkeypatch):
        compiled = compile_network(_chain_network())
        monkeypatch.setattr(ms, "_BIGINT_WORD_LIMIT", 1 << 30)
        monkeypatch.setattr(ms, "_BIGINT_STREAM_LIMIT", 1 << 30)
        monkeypatch.setattr(type(compiled), "successor_masks", lambda self: None)
        results = run_multi(compiled, [b"abab", b"xxab"])
        monkeypatch.undo()
        expected = [run(compiled, s) for s in (b"abab", b"xxab")]
        for got, want in zip(results, expected):
            assert reports_equal(got.reports, want.reports)

    def test_rejects_bad_input(self):
        compiled = compile_network(_chain_network())
        with pytest.raises(ValueError):
            run_multi(compiled, [np.array([1.5, 2.5])])
