"""End-to-end tests for the match service (server, batcher, client, loadgen).

Every test spins a real :class:`MatchServer` on a unix socket inside a
private event loop and talks to it through the framed protocol — injected
toy networks keep this fast (no registry compile).
"""

import asyncio
import contextlib
import random
import struct

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import get_run
from repro.nfa.automaton import Automaton, Network, StartKind
from repro.nfa.symbolset import SymbolSet
from repro.serve import protocol
from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.client import (
    AsyncServeClient,
    ConnectionLostError,
    ServeRequestError,
)
from repro.serve.loadgen import (
    LoadgenConfig,
    RequestClass,
    render_results,
    run_loadgen,
)
from repro.serve.protocol import ErrorCode, ProtocolError
from repro.serve.server import MatchServer, ServerOptions
from repro.serve.state import ServeState
from repro.sim import FALLBACK_BACKEND, reports_equal, run
from repro.stats import validate_serve_stats


def _chain_network(word: bytes = b"ab") -> Network:
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
    network = Network(f"chain-{word.decode()}")
    network.add(automaton)
    return network


@contextlib.asynccontextmanager
async def _server(tmp_path, **overrides):
    """A running server on a unix socket with two injected toy apps."""
    sock = str(tmp_path / "serve.sock")
    options = ServerOptions(unix_path=sock, warmup=False, **overrides)
    server = MatchServer(None, options)
    server.state.add_network("toy", _chain_network(b"ab"))
    server.state.add_network("toy2", _chain_network(b"abc"))
    await server.start()
    loop_task = asyncio.ensure_future(server.serve_until_stopped())
    try:
        yield server, sock
    finally:
        await server.stop()
        await asyncio.wait_for(loop_task, 10)


async def _read_reply(reader) -> protocol.Frame:
    preamble = await reader.readexactly(protocol.PREAMBLE_SIZE)
    header_len, payload_len = protocol.decode_preamble(preamble)
    body = await reader.readexactly(header_len + payload_len)
    decoded = protocol.decode_frame(preamble + body)
    assert decoded is not None
    return decoded[0]


class TestMatchCorrectness:
    def test_reply_matches_scalar_run(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (server, sock):
                data = b"xxabyababz" * 7
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    outcome = await client.match("toy", data)
                compiled = server.state.get_blocking("toy").compiled
                scalar = run(compiled, data)
                assert outcome.n_symbols == len(data)
                assert outcome.reports == [tuple(r) for r in scalar.reports.tolist()]
                assert not outcome.reports_truncated
                assert outcome.batch_size == 1  # eager when idle: no window paid

        asyncio.run(scenario())

    @pytest.mark.parametrize("backend, engine", [
        ("multistream", "multistream"), ("dfa", "dfa"),
        ("lazydfa", "lazydfa"), ("auto", "dfa"),
    ])
    def test_coalesced_replies_match_scalar_run_on_every_backend(
            self, tmp_path, backend, engine):
        # A wide window folds the concurrent requests into shared batches,
        # so the multistream arm exercises K > 1 lock-step passes.
        payloads = [b"xxabyababz" * n + b"ab" for n in range(1, 9)]

        async def scenario():
            async with _server(tmp_path, backend=backend,
                               window_ms=50.0) as (server, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    outcomes = await asyncio.gather(
                        *[client.match("toy", data) for data in payloads]
                    )
                entry = server.state.get_blocking("toy")
                assert entry.backend == engine
                assert max(o.batch_size for o in outcomes) >= 2
                for data, outcome in zip(payloads, outcomes):
                    scalar = run(entry.compiled, data)
                    assert outcome.reports == [tuple(r) for r in scalar.reports.tolist()]

        asyncio.run(scenario())

    def test_empty_payload_is_a_valid_match(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    outcome = await client.match("toy", b"")
                assert outcome.n_symbols == 0
                assert outcome.reports == []

        asyncio.run(scenario())

    def test_max_reports_truncates_reply(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    outcome = await client.match("toy", b"ab" * 50, max_reports=3)
                assert len(outcome.reports) == 3
                assert outcome.reports_truncated

        asyncio.run(scenario())

    def test_two_apps_route_to_their_own_networks(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    out_ab, out_abc = await asyncio.gather(
                        client.match("toy", b"zabz"),
                        client.match("toy2", b"zabcz"),
                    )
                assert out_ab.app == "toy" and len(out_ab.reports) == 1
                assert out_abc.app == "toy2" and len(out_abc.reports) == 1

        asyncio.run(scenario())


class TestCoalescing:
    def test_concurrent_requests_batch_together(self, tmp_path):
        async def scenario():
            async with _server(tmp_path, window_ms=50.0) as (server, sock):
                data = b"xyab" * 512  # big enough that a batch takes a while
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    outcomes = await asyncio.gather(
                        *[client.match("toy", data) for _ in range(16)]
                    )
                sizes = sorted(o.batch_size for o in outcomes)
                assert sizes[-1] >= 2, f"no coalescing happened: {sizes}"
                assert server.batcher.batched_requests == 16
                assert server.batcher.batches_dispatched < 16
                # Everyone still got the right answer.
                expected = len(run(server.state.get_blocking("toy").compiled,
                                   data).reports)
                assert all(len(o.reports) == expected for o in outcomes)

        asyncio.run(scenario())


class TestDeadlines:
    def test_already_expired_deadline_is_typed_and_dropped(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (server, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    with pytest.raises(ServeRequestError) as info:
                        await client.match("toy", b"abab", deadline_ms=0.0)
                    assert info.value.code == ErrorCode.DEADLINE_EXCEEDED
                    # The connection survived; a generous deadline succeeds.
                    outcome = await client.match("toy", b"abab",
                                                 deadline_ms=60_000.0)
                    assert len(outcome.reports) == 2
                assert server.batcher.expired == 1

        asyncio.run(scenario())


class TestAdmissionControl:
    def test_batcher_rejects_above_queue_depth(self, tmp_path):
        """Deterministic: eager dispatch takes #1, #2 queues, #3 rejected."""
        async def scenario():
            state = ServeState()
            entry = state.add_network("toy", _chain_network(b"ab"))
            batcher = MicroBatcher(BatchPolicy(window_s=0.05, max_batch=1,
                                               max_queue_depth=1))
            results = await asyncio.gather(
                batcher.submit(entry, b"ab"),
                batcher.submit(entry, b"ab"),
                batcher.submit(entry, b"ab"),
                return_exceptions=True,
            )
            codes = [r.code if isinstance(r, ProtocolError) else "ok"
                     for r in results]
            assert codes == ["ok", "ok", ErrorCode.OVERLOADED]

        asyncio.run(scenario())

    def test_server_counts_rejections(self, tmp_path):
        async def scenario():
            async with _server(tmp_path, max_queue_depth=1) as (server, sock):
                data = b"xyab" * 512
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    outcomes = await asyncio.gather(
                        *[client.match("toy", data) for _ in range(16)],
                        return_exceptions=True,
                    )
                ok = [o for o in outcomes if not isinstance(o, Exception)]
                rejected = [o for o in outcomes
                            if isinstance(o, ServeRequestError)]
                assert len(ok) + len(rejected) == 16
                assert all(o.code == ErrorCode.OVERLOADED for o in rejected)
                assert server.requests_rejected == len(rejected)

        asyncio.run(scenario())

    def test_drain_fails_queued_requests(self, tmp_path):
        async def scenario():
            state = ServeState()
            entry = state.add_network("toy", _chain_network(b"ab"))
            batcher = MicroBatcher(BatchPolicy(window_s=30.0, max_batch=4))
            first = asyncio.ensure_future(batcher.submit(entry, b"ab"))
            await first  # dispatched eagerly; queue now idle
            second = asyncio.ensure_future(batcher.submit(entry, b"ab"))
            third = asyncio.ensure_future(batcher.submit(entry, b"ab"))
            await asyncio.sleep(0)  # both parked behind the 30s window
            assert batcher.queue_depth == 1  # second dispatched eagerly
            await batcher.drain()
            with pytest.raises(ProtocolError) as info:
                await third
            assert info.value.code == ErrorCode.OVERLOADED
            await second  # its batch was already in flight when we drained

        asyncio.run(scenario())


class TestErrorPaths:
    def test_unknown_app_is_typed(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    with pytest.raises(ServeRequestError) as info:
                        await client.match("no-such-app", b"ab")
                    assert info.value.code == ErrorCode.UNKNOWN_APP
                    # Typed errors are recoverable: the connection still works.
                    assert (await client.match("toy", b"ab")).n_symbols == 2

        asyncio.run(scenario())

    def test_disallowed_registry_app_is_typed(self, tmp_path):
        async def scenario():
            # Serve only toy networks; a real registry app must be refused
            # without compiling anything.
            async with _server(tmp_path, max_apps=2) as (server, sock):
                server.state.allowed = []
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    with pytest.raises(ServeRequestError) as info:
                        await client.match("Snort", b"ab")
                    assert info.value.code == ErrorCode.UNKNOWN_APP

        asyncio.run(scenario())


class TestClientConnectionLoss:
    """Regression: a connection that dies mid-flight must fail every
    pending future with the typed :class:`ConnectionLostError` — and every
    later request too — instead of leaving callers hung on futures whose
    replies can never arrive (the grid router's failover trigger)."""

    def test_mid_flight_kill_fails_pending_and_later_requests(self, tmp_path):
        async def scenario():
            sock = str(tmp_path / "stub.sock")

            async def swallow_and_die(reader, writer):
                await reader.read(64)  # accept part of the request, then die
                writer.close()

            stub = await asyncio.start_unix_server(swallow_and_die, path=sock)
            try:
                client = await AsyncServeClient.open(unix_path=sock)
                with pytest.raises(ConnectionLostError):
                    await client.match("toy", b"abcd")
                # Terminal: the client never offers the dead connection again.
                assert not client.connected
                with pytest.raises(ConnectionLostError):
                    await client.ping()
                await client.close()
            finally:
                stub.close()
                await stub.wait_closed()

        asyncio.run(scenario())

    def test_kill_with_many_requests_parked_fails_all_of_them(self, tmp_path):
        async def scenario():
            sock = str(tmp_path / "stub.sock")
            writers = []

            async def park_forever(reader, writer):
                writers.append(writer)
                await reader.read(1 << 16)  # never reply

            stub = await asyncio.start_unix_server(park_forever, path=sock)
            try:
                client = await AsyncServeClient.open(unix_path=sock)
                parked = [asyncio.ensure_future(client.match("toy", b"abcd"))
                          for _ in range(8)]
                await asyncio.sleep(0.05)  # all eight are in flight
                assert not any(f.done() for f in parked)
                for writer in writers:
                    writer.close()  # the "worker" dies mid-flight
                results = await asyncio.gather(*parked, return_exceptions=True)
                assert len(results) == 8
                assert all(isinstance(r, ConnectionLostError) for r in results)
                # ...and it is a ConnectionError subclass, so existing
                # broad handlers keep working.
                assert all(isinstance(r, ConnectionError) for r in results)
                await client.close()
            finally:
                stub.close()
                await stub.wait_closed()

        asyncio.run(scenario())

    def test_server_side_errors_do_not_terminal_state_the_client(self, tmp_path):
        """Null-id error frames (connection-level, but recoverable) fail
        the in-flight requests without poisoning the connection."""
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    with pytest.raises(ServeRequestError):
                        await client.match("no-such-app", b"ab")
                    assert client.connected
                    assert (await client.match("toy", b"ab")).n_symbols == 2

        asyncio.run(scenario())


class TestMalformedFramesOverTheWire:
    def test_bad_magic_gets_error_reply_then_close(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(b"XX" + protocol.control_frame("ping", 1)[2:])
                await writer.drain()
                reply = await _read_reply(reader)
                assert reply.header["type"] == "error"
                assert reply.header["code"] == ErrorCode.BAD_FRAME
                assert await reader.read() == b""  # server closed the stream
                writer.close()

        asyncio.run(scenario())

    def test_oversized_length_gets_error_reply_then_close(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(struct.pack(
                    ">2sBxII", protocol.MAGIC, protocol.PROTOCOL_VERSION,
                    protocol.MAX_HEADER_BYTES + 1, 0,
                ))
                await writer.drain()
                reply = await _read_reply(reader)
                assert reply.header["code"] == ErrorCode.FRAME_TOO_LARGE
                assert await reader.read() == b""
                writer.close()

        asyncio.run(scenario())

    def test_bad_json_header_keeps_the_connection_framed(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                reader, writer = await asyncio.open_unix_connection(sock)
                raw = b"{broken json"
                writer.write(struct.pack(
                    ">2sBxII", protocol.MAGIC, protocol.PROTOCOL_VERSION,
                    len(raw), 0,
                ) + raw)
                await writer.drain()
                reply = await _read_reply(reader)
                assert reply.header["code"] == ErrorCode.BAD_HEADER
                # Recoverable: a valid frame on the same connection still works.
                writer.write(protocol.control_frame("ping", 5))
                await writer.drain()
                pong = await _read_reply(reader)
                assert pong.header["type"] == "pong"
                assert pong.header["id"] == 5
                writer.close()

        asyncio.run(scenario())

    def test_truncated_preamble_then_disconnect_does_not_kill_server(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                _reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(b"RS\x01")  # 3 of 12 preamble bytes
                await writer.drain()
                writer.close()
                # Server must survive; prove it with a fresh client.
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    await client.ping()

        asyncio.run(scenario())

    def test_server_survives_random_garbage_corpus(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (server, sock):
                rng = random.Random(0xF022)
                for _ in range(25):
                    _reader, writer = await asyncio.open_unix_connection(sock)
                    blob = bytes(rng.randrange(256)
                                 for _ in range(rng.randrange(1, 200)))
                    writer.write(blob)
                    await writer.drain()
                    writer.close()
                    with contextlib.suppress(ConnectionError):
                        await writer.wait_closed()
                # Still serving, and the stats export is still schema-valid.
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    await client.ping()
                    document = await client.stats()
                validate_serve_stats(document)

        asyncio.run(scenario())


class TestStatsAndLifecycle:
    def test_stats_document_validates_and_adds_up(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    await client.ping()
                    await client.match("toy", b"abab")
                    with contextlib.suppress(ServeRequestError):
                        await client.match("nope", b"ab")
                    document = await client.stats()
                validate_serve_stats(document)
                requests = document["requests"]
                assert requests["received"] >= 4
                assert requests["errors"] == 1
                assert document["errors_by_code"] == [
                    {"code": ErrorCode.UNKNOWN_APP, "count": 1}
                ]
                assert document["batches"]["dispatched"] >= 1
                stage_names = {span["name"] for span in document["stages"]}
                assert {"execute", "request", "reply"} <= stage_names

        asyncio.run(scenario())

    def test_remote_shutdown_stops_the_server(self, tmp_path):
        async def scenario():
            sock = str(tmp_path / "serve.sock")
            server = MatchServer(None, ServerOptions(unix_path=sock,
                                                     warmup=False))
            server.state.add_network("toy", _chain_network(b"ab"))
            await server.start()
            loop_task = asyncio.ensure_future(server.serve_until_stopped())
            client = await AsyncServeClient.open(unix_path=sock)
            await client.shutdown()
            await client.close()
            await asyncio.wait_for(loop_task, 10)  # returned on its own

        asyncio.run(scenario())

    def test_shutdown_frames_can_be_disabled(self, tmp_path):
        async def scenario():
            async with _server(tmp_path, allow_shutdown=False) as (_s, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    with pytest.raises(ServeRequestError) as info:
                        await client.shutdown()
                    assert info.value.code == ErrorCode.SHUTDOWN_DISABLED
                    await client.ping()  # still serving

        asyncio.run(scenario())

    def test_lru_keeps_at_most_max_apps(self):
        state = ServeState(max_apps=1)
        state.add_network("one", _chain_network(b"ab"))
        state.add_network("two", _chain_network(b"abc"))
        assert state.resident() == ["two"]
        assert state.evictions == 1

    def test_warmup_compiles_and_runs_injected_apps(self):
        state = ServeState()
        state.add_network("toy", _chain_network(b"ab"))
        assert state.warmup(["toy"]) == ["toy"]
        assert state.timer.calls("warmup") == 1

    def test_lazydfa_backend_serves_injected_network(self):
        from repro.sim import run as scalar_run
        from repro.sim.compiled import compile_network

        state = ServeState(backend="lazydfa")
        network = _chain_network(b"ab")
        entry = state.add_network("toy", network)
        assert entry.backend == "lazydfa"
        assert entry.lazydfa is not None
        data = b"xabababx"
        (got,) = entry.execute_batch([data])
        expected = scalar_run(compile_network(network), data)
        assert (got.reports == expected.reports).all()

    @staticmethod
    def _blowup_network() -> Network:
        # ``a`` then 13 wildcards: 2**13 reachable subsets, past the DFA
        # budget, so the one compile_dfa attempt fails.
        automaton = Automaton("blowup")
        automaton.add_state(SymbolSet.from_symbols(b"a"), start=StartKind.ALL_INPUT)
        for index in range(13):
            automaton.add_state(SymbolSet.universal(), reporting=index == 12,
                                report_code="blow" if index == 12 else None)
            automaton.add_edge(index, index + 1)
        unsafe = Network("blowup-net")
        unsafe.add(automaton)
        return unsafe

    def test_auto_backend_lands_dfa_unsafe_network_on_lazydfa(self):
        from repro.sim.compiled import compile_network

        unsafe = self._blowup_network()
        state = ServeState(backend="auto")
        assert state.add_network("safe", _chain_network(b"ab")).backend == "dfa"
        entry = state.add_network("unsafe", unsafe)
        assert entry.backend == "lazydfa"
        assert entry.dfa is None and entry.lazydfa is not None
        assert state.timer.calls("compile_dfa") == 2
        assert state.timer.calls("compile_lazydfa") == 1
        data = b"xa" + b"y" * 20 + b"aa" + b"z" * 14
        (got,) = entry.execute_batch([data])
        expected = run(compile_network(unsafe), data)
        assert (got.reports == expected.reports).all()

    def test_forced_dfa_lands_dfa_unsafe_network_on_lazydfa(self):
        # Serving is availability-first: a forced engine that cannot run
        # falls back to the same engine the registry path falls back to.
        state = ServeState(backend="dfa")
        entry = state.add_network("unsafe", self._blowup_network())
        assert entry.backend == FALLBACK_BACKEND == "lazydfa"
        assert entry.dfa is None and entry.lazydfa is not None

    @pytest.mark.parametrize("backend", ["multistream", "auto"])
    def test_reduced_registry_app_replies_lift_to_truth(self, backend):
        # HM reduces at scale 64, so every reply goes through the lift.
        config = ExperimentConfig(scale=64, input_len=512)
        state = ServeState(config, backend=backend, reduce=True)
        entry = state.get_blocking("HM")
        truth_run = get_run("HM", config)
        assert entry.reduction is not None
        assert entry.compiled.n_states < truth_run.compiled.n_states
        if backend == "multistream":
            assert entry.backend == "multistream"
        data = truth_run.test_input
        streams = [data, data[: len(data) // 2], b""]
        for stream, got in zip(streams, entry.execute_batch(streams)):
            expected = run(truth_run.compiled, stream)
            assert reports_equal(got.reports, expected.reports)
        assert len(entry.execute_batch([data])[0].reports) == len(truth_run.truth.reports)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="serve backend"):
            ServeState(backend="systolic")


class TestLoadgen:
    def test_closed_loop_counts_every_request(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                config = LoadgenConfig(apps=["toy", "toy2"], requests=24,
                                       concurrency=4, input_len=64,
                                       unix_path=sock)
                result = await run_loadgen(config)
                assert result.ok == 24
                assert result.errors == 0
                assert result.rps > 0
                assert len(result.latencies_ms) == 24
                assert result.percentile(50) <= result.percentile(99)
                table = render_results([result])
                assert "closed" in table and "p99ms" in table
                payload = result.to_json()
                assert payload["ok"] == 24
                assert payload["latency_ms"]["p50"] > 0

        asyncio.run(scenario())

    def test_open_loop_paces_arrivals(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                config = LoadgenConfig(apps=["toy"], requests=10,
                                       concurrency=2, mode="open", rate=500.0,
                                       input_len=32, unix_path=sock)
                result = await run_loadgen(config)
                assert result.ok == 10
                assert result.errors == 0
                # 10 arrivals at 500/s cannot finish faster than 18ms.
                assert result.elapsed_s >= 9 / 500.0

        asyncio.run(scenario())

    def test_loadgen_counts_typed_errors_instead_of_raising(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                config = LoadgenConfig(apps=["no-such-app"], requests=5,
                                       concurrency=2, input_len=16,
                                       unix_path=sock)
                result = await run_loadgen(config)
                assert result.ok == 0
                assert result.errors == 5
                assert result.errors_by_code == {ErrorCode.UNKNOWN_APP: 5}

        asyncio.run(scenario())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadgenConfig(apps=[])
        with pytest.raises(ValueError):
            LoadgenConfig(apps=["toy"], mode="open")  # open loop needs a rate
        with pytest.raises(ValueError):
            LoadgenConfig(apps=["toy"], mode="sideways")
        with pytest.raises(ValueError, match="open-loop"):
            LoadgenConfig(apps=["toy"], duration_s=1.0)  # closed + duration
        with pytest.raises(ValueError, match="positive"):
            LoadgenConfig(apps=["toy"], mode="open", rate=10.0, duration_s=0.0)
        with pytest.raises(ValueError, match="non-empty"):
            LoadgenConfig(apps=["toy"], classes=())
        with pytest.raises(ValueError, match="positive weight"):
            RequestClass("batch", weight=0.0)

    def test_duration_overrides_request_count(self):
        config = LoadgenConfig(apps=["toy"], requests=5, mode="open",
                               rate=40.0, duration_s=0.5)
        assert config.total_requests() == 20  # ceil(40 * 0.5), not 5

    def test_open_loop_duration_with_weighted_classes(self, tmp_path):
        """The overload-sweep shape: a fixed-duration open loop split into
        weighted classes, each with its own deadline and percentiles."""
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                config = LoadgenConfig(
                    apps=["toy"], concurrency=4, mode="open", rate=400.0,
                    duration_s=0.25, input_len=32, unix_path=sock,
                    classes=(
                        RequestClass("interactive", weight=3.0,
                                     deadline_ms=60_000.0),
                        RequestClass("batch", weight=1.0),
                    ),
                )
                result = await run_loadgen(config)
                total = config.total_requests()
                assert result.ok == total and result.errors == 0
                assert set(result.classes) == {"interactive", "batch"}
                per_class = result.classes
                assert sum(c.ok for c in per_class.values()) == total
                # 3:1 weights: interactive dominates (seed-stable split).
                assert per_class["interactive"].ok > per_class["batch"].ok
                payload = result.to_json()
                assert payload["requests"] == total
                assert payload["overloaded"] == 0
                assert payload["classes"]["interactive"]["latency_ms"]["p50"] > 0
                table = render_results([result])
                assert "class interactive" in table and "class batch" in table

        asyncio.run(scenario())

    def test_expired_deadlines_count_per_class(self, tmp_path):
        """A class whose deadline is already expired collects typed
        DEADLINE_EXCEEDED rejections; the other class is untouched."""
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                config = LoadgenConfig(
                    apps=["toy"], concurrency=2, mode="open", rate=500.0,
                    duration_s=0.1, input_len=16, unix_path=sock, seed=3,
                    classes=(
                        RequestClass("doomed", weight=1.0, deadline_ms=0.0),
                        RequestClass("fine", weight=1.0),
                    ),
                )
                result = await run_loadgen(config)
                doomed, fine = result.classes["doomed"], result.classes["fine"]
                assert doomed.ok == 0
                assert doomed.deadline_exceeded == doomed.errors > 0
                assert fine.errors == 0 and fine.ok > 0
                assert result.deadline_exceeded == doomed.deadline_exceeded
                assert result.ok == fine.ok
                json_doc = result.to_json()
                assert json_doc["deadline_exceeded"] == doomed.errors
                assert json_doc["classes"]["doomed"]["deadline_exceeded"] \
                    == doomed.errors

        asyncio.run(scenario())

    def test_overloaded_rejections_are_counted_not_raised(self, tmp_path):
        """Open-loop overload against a tiny admission bound: the round
        completes, with OVERLOADED counted on the result (the bounded-p99
        contract the grid bench asserts)."""
        async def scenario():
            async with _server(tmp_path, max_queue_depth=1,
                               window_ms=20.0) as (_server_obj, sock):
                config = LoadgenConfig(
                    apps=["toy"], concurrency=8, mode="open", rate=2000.0,
                    duration_s=0.2, input_len=2048, unix_path=sock,
                )
                result = await run_loadgen(config)
                assert result.ok + result.errors == config.total_requests()
                assert result.overloaded == result.errors > 0
                assert result.errors_by_code[ErrorCode.OVERLOADED] \
                    == result.overloaded

        asyncio.run(scenario())
