"""Tests for the sharded serving grid (``repro.grid``).

Three layers, matching the subsystem:

* shard assignment — deterministic rendezvous hashing, replication,
  minimal reshuffling;
* the network store — build/partition/save/load round-trips, operating
  point enforcement, and the bit-identical fresh-process guarantee
  (a subprocess loads a pickled store and must reproduce the in-process
  pipeline's reports across all five engines);
* the router — pure routing policy (spill/failover/typed errors), the
  merged v2 stats schema, and a real end-to-end grid with a mid-run
  worker kill.
"""

import asyncio
import json
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import get_run
from repro.grid import Grid, GridOptions, GridRouter, RouterOptions, StoreError
from repro.grid.shard import Assignment, ShardMap, assign_shards, rendezvous_weight
from repro.grid.store import STORE_FORMAT, build_store, load_store
from repro.serve.client import AsyncServeClient, ServeRequestError
from repro.serve.protocol import ErrorCode, ParsedRequest, ProtocolError
from repro.sim import ENGINES, run
from repro.stats import validate_serve_stats
from repro.stats.schema import SchemaError

SMALL = ExperimentConfig(scale=8, input_len=512)
#: Two registry apps whose auto advisories cover both table-driven
#: engines at scale 8: Bro217 is DFA-safe, LV takes the lazy hybrid.
STORE_APPS = ["Bro217", "LV"]


@pytest.fixture(scope="module")
def store():
    return build_store(STORE_APPS, SMALL, backend="auto")


class TestShardAssignment:
    APPS = [f"app-{i}" for i in range(64)]

    def test_assignment_is_deterministic(self):
        first = assign_shards(self.APPS, 4)
        second = assign_shards(self.APPS, 4)
        assert first.assignments == second.assignments

    def test_primary_is_the_top_ranked_worker(self):
        shards = assign_shards(self.APPS, 4)
        for app, assignment in shards.assignments.items():
            weights = {w: rendezvous_weight(app, w) for w in range(4)}
            assert assignment.primary == max(weights, key=weights.get)

    def test_replica_is_distinct_runner_up(self):
        shards = assign_shards(self.APPS, 4)
        for assignment in shards.assignments.values():
            assert assignment.replica is not None
            assert assignment.replica != assignment.primary

    def test_single_worker_has_no_replica(self):
        shards = assign_shards(self.APPS, 1)
        assert all(a.primary == 0 and a.replica is None
                   for a in shards.assignments.values())

    def test_removing_the_last_worker_only_moves_its_apps(self):
        """The rendezvous property the failover design leans on: shrinking
        the pool never reassigns an app whose primary survives."""
        before = assign_shards(self.APPS, 4)
        after = assign_shards(self.APPS, 3)
        for app in self.APPS:
            if before.assignments[app].primary != 3:
                assert after.assignments[app].primary == \
                    before.assignments[app].primary

    def test_shards_are_roughly_balanced(self):
        shards = assign_shards([f"app-{i}" for i in range(400)], 4)
        counts = [len(shards.primaries_for(w)) for w in range(4)]
        assert sum(counts) == 400
        assert min(counts) >= 50  # i.i.d. uniform: wildly lopsided = bug

    def test_apps_for_includes_replicas(self):
        shards = assign_shards(["A", "B"], 2)
        resident = {w: set(shards.apps_for(w)) for w in (0, 1)}
        # With two workers every app is resident everywhere (primary+replica).
        assert resident[0] == resident[1] == {"A", "B"}

    def test_owner_raises_a_helpful_keyerror(self):
        shards = assign_shards(["A"], 2)
        with pytest.raises(KeyError, match="not in this shard map"):
            shards.owner("missing")

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError, match="at least one worker"):
            assign_shards(["A"], 0)


class TestNetworkStore:
    def test_auto_backend_follows_the_advisory(self, store):
        bro = store.apps["Bro217"]
        assert bro.backend == "dfa" and bro.dfa is not None
        lv = store.apps["LV"]
        assert lv.backend == "lazydfa" and lv.lazydfa is not None

    def test_partition_slices_and_rejects_missing(self, store):
        part = store.partition(["LV"])
        assert part.names == ["LV"]
        assert part.scale == store.scale
        with pytest.raises(StoreError, match="no entry for nope"):
            store.partition(["nope"])

    def test_save_load_round_trip(self, store, tmp_path):
        path = str(tmp_path / "store.bin")
        store.save(path)
        loaded = load_store(path, SMALL)
        assert loaded.names == store.names
        assert loaded.apps["Bro217"].backend == "dfa"

    def test_operating_point_mismatch_fails_loudly(self, store, tmp_path):
        path = str(tmp_path / "store.bin")
        store.save(path)
        other = ExperimentConfig(scale=16, input_len=512)
        with pytest.raises(StoreError, match="built at scale=8"):
            load_store(path, other)

    def test_missing_and_corrupt_files_are_typed(self, tmp_path):
        with pytest.raises(StoreError, match="no network store"):
            load_store(str(tmp_path / "absent.bin"))
        garbage = str(tmp_path / "garbage.bin")
        with open(garbage, "wb") as fh:
            fh.write(b"not a pickle at all")
        with pytest.raises(StoreError):
            load_store(garbage)

    def test_wrong_envelope_and_version_are_typed(self, store, tmp_path):
        alien = str(tmp_path / "alien.bin")
        with open(alien, "wb") as fh:
            pickle.dump({"format": "something-else"}, fh)
        with pytest.raises(StoreError, match="not a repro network store"):
            load_store(alien)
        future = str(tmp_path / "future.bin")
        with open(future, "wb") as fh:
            pickle.dump({"format": STORE_FORMAT, "version": 99,
                         "store": store}, fh)
        with pytest.raises(StoreError, match="version 99"):
            load_store(future)

    def test_unknown_app_rejected_at_build(self):
        with pytest.raises(StoreError, match="unknown application"):
            build_store(["no-such-app"], SMALL)

    def test_fresh_process_reports_are_bit_identical(self, store, tmp_path):
        """The satellite guarantee: a store loaded in a *fresh interpreter*
        reproduces the in-process pipeline's reports bit-for-bit on every
        engine whose artifact it carries — all four engines across the two
        apps (reference/bitpacked everywhere, dfa on Bro217, lazydfa on
        LV)."""
        store_path = str(tmp_path / "store.bin")
        store.save(store_path)
        data = bytes((7 * i + 3) % 256 for i in range(SMALL.input_len))
        data_path = str(tmp_path / "input.bin")
        with open(data_path, "wb") as fh:
            fh.write(data)
        out_path = str(tmp_path / "reports.json")
        script = str(tmp_path / "replay.py")
        with open(script, "w") as fh:
            fh.write(textwrap.dedent("""\
                import json, sys
                from repro.experiments.config import ExperimentConfig
                from repro.grid.store import load_store
                from repro.sim import dfa_run, lazydfa_run, reference_run, run

                store_path, data_path, out_path, scale, input_len = sys.argv[1:6]
                config = ExperimentConfig(scale=int(scale), input_len=int(input_len))
                store = load_store(store_path, config)
                data = open(data_path, "rb").read()
                out = {}
                for name, app in store.apps.items():
                    engines = {
                        "reference": reference_run(app.network, data),
                        "bitpacked": run(app.compiled, data),
                    }
                    if app.dfa is not None:
                        engines["dfa"] = dfa_run(app.dfa, data)
                    if app.lazydfa is not None:
                        engines["lazydfa"] = lazydfa_run(app.lazydfa, data)
                    out[name] = {k: r.reports.tolist() for k, r in engines.items()}
                json.dump(out, open(out_path, "w"))
            """))
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, script, store_path, data_path, out_path,
             str(SMALL.scale), str(SMALL.input_len)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        with open(out_path) as fh:
            fresh = json.load(fh)

        expected_engines = {"Bro217": 3, "LV": 3}  # 2 common + 1 table engine
        seen = set()
        for app in STORE_APPS:
            pipeline = get_run(app, SMALL)
            in_process = {
                "reference": ENGINES["reference"].run_network(
                    pipeline.network, data),
                "bitpacked": run(pipeline.compiled, data),
            }
            if store.apps[app].dfa is not None:
                in_process["dfa"] = ENGINES["dfa"].run(
                    pipeline.compiled_dfa, data)
            if store.apps[app].lazydfa is not None:
                in_process["lazydfa"] = ENGINES["lazydfa"].run(
                    pipeline.compiled_lazydfa, data)
            assert set(fresh[app]) == set(in_process)
            assert len(fresh[app]) == expected_engines[app]
            seen |= set(fresh[app])
            for engine, result in in_process.items():
                got = [tuple(r) for r in fresh[app][engine]]
                want = [tuple(r) for r in result.reports.tolist()]
                assert got == want, f"{app}/{engine} diverged in fresh process"
        assert seen == {"reference", "bitpacked", "dfa", "lazydfa"}


def _policy_router(spill_threshold: int = 2) -> GridRouter:
    shard_map = ShardMap(n_workers=2, assignments={
        "A": Assignment(app="A", primary=0, replica=1),
        "S": Assignment(app="S", primary=0, replica=None),
    })
    router = GridRouter(shard_map, {0: "w0.sock", 1: "w1.sock"},
                        RouterOptions(spill_threshold=spill_threshold))
    for link in router.links.values():
        link.up = True
    return router


class TestRoutingPolicy:
    """`_pick_target` is pure routing policy: test it without processes."""

    def test_primary_wins_when_idle(self):
        router = _policy_router()
        assert router._pick_target("A").worker_id == 0
        assert router.spills == 0

    def test_hot_primary_spills_to_cooler_replica(self):
        router = _policy_router(spill_threshold=2)
        router.links[0].inflight = 5
        assert router._pick_target("A").worker_id == 1
        assert router.spills == 1

    def test_no_spill_when_replica_is_just_as_loaded(self):
        router = _policy_router(spill_threshold=2)
        router.links[0].inflight = 5
        router.links[1].inflight = 5
        assert router._pick_target("A").worker_id == 0
        assert router.spills == 0

    def test_unreplicated_app_never_spills(self):
        router = _policy_router(spill_threshold=2)
        router.links[0].inflight = 50
        assert router._pick_target("S").worker_id == 0
        assert router.spills == 0

    def test_dead_primary_fails_over_to_replica(self):
        router = _policy_router()
        router.links[0].mark_down()
        assert router._pick_target("A").worker_id == 1

    def test_everyone_down_is_a_typed_overload(self):
        router = _policy_router()
        router.links[0].mark_down()
        router.links[1].mark_down()
        with pytest.raises(ProtocolError) as info:
            router._pick_target("A")
        assert info.value.code == ErrorCode.OVERLOADED
        assert info.value.recoverable

    def test_unknown_app_is_typed(self):
        router = _policy_router()
        with pytest.raises(ProtocolError) as info:
            router._pick_target("missing")
        assert info.value.code == ErrorCode.UNKNOWN_APP

    def test_admission_bound_rejects_before_routing(self):
        router = _policy_router()
        router.options = RouterOptions(max_inflight=0)
        request = ParsedRequest(type="match", request_id=7, app="A",
                                deadline_ms=None, max_reports=None)
        with pytest.raises(ProtocolError) as info:
            asyncio.run(router._route_match(request, b"xy"))
        assert info.value.code == ErrorCode.OVERLOADED
        assert router.requests_rejected == 1

    def test_failover_target_skips_the_failed_worker(self):
        router = _policy_router()
        fallback = router._failover_target("A", router.links[0])
        assert fallback is not None and fallback.worker_id == 1
        assert router._failover_target("S", router.links[0]) is None


class TestGridStatsSchema:
    """Satellite: the v2 serve schema with its ``grid`` section."""

    def _document(self):
        router = GridRouter(ShardMap(n_workers=1, assignments={}), {})
        return router.stats_document()

    def test_router_document_is_v2_and_valid(self):
        document = self._document()
        assert document["schema_version"] == 2
        validate_serve_stats(document)  # also validated at export, belt+braces
        assert document["grid"]["n_workers"] == 0
        assert document["grid"]["workers"] == []

    def test_v2_without_grid_section_rejected(self):
        document = self._document()
        del document["grid"]
        with pytest.raises(SchemaError, match="grid"):
            validate_serve_stats(document)

    def test_v1_with_grid_section_rejected(self):
        """Version dispatch, not a union schema: a v1 export must not
        smuggle in the grid section."""
        document = self._document()
        document["schema_version"] = 1
        with pytest.raises(SchemaError, match="grid"):
            validate_serve_stats(document)

    def test_grid_worker_row_shape_enforced(self):
        document = self._document()
        document["grid"]["workers"] = [{"worker": 0, "up": True}]
        with pytest.raises(SchemaError, match="forwarded"):
            validate_serve_stats(document)

    def test_grid_counter_types_enforced(self):
        document = self._document()
        document["grid"]["failovers"] = "many"
        with pytest.raises(SchemaError, match="failovers"):
            validate_serve_stats(document)

    def test_merge_lag_is_nullable(self):
        document = self._document()
        assert document["grid"]["merge_lag_ms"] is None  # no merge ran

    @pytest.mark.parametrize("version", [0, 3, "2", None, 2.0, True, False])
    def test_unsupported_versions_are_typed(self, version):
        """Any unsupported or non-integer version — including ``True``,
        an ``int`` subclass hashing equal to 1 — names the supported set."""
        document = self._document()
        document["schema_version"] = version
        with pytest.raises(SchemaError) as info:
            validate_serve_stats(document)
        message = str(info.value)
        assert "unsupported serve schema_version" in message
        assert "2, 1" in message


class TestGridEndToEnd:
    """Real worker processes, real sockets: serve, merge stats, kill a
    worker mid-run, and keep serving through the replica."""

    def test_grid_serves_matches_and_survives_a_worker_kill(
            self, store, tmp_path):
        payload = bytes((5 * i + 1) % 256 for i in range(256))
        expected = {
            app: [tuple(r) for r in
                  run(store.apps[app].compiled, payload).reports.tolist()]
            for app in STORE_APPS
        }

        async def scenario():
            sock = str(tmp_path / "router.sock")
            options = GridOptions(workers=2, unix_path=sock,
                                  merge_interval_s=0.1)
            async with Grid(STORE_APPS, SMALL, options) as grid:
                router = grid.router
                assert router is not None
                client = await AsyncServeClient.open(unix_path=sock)
                try:
                    for app in STORE_APPS:
                        outcome = await client.match(app, payload)
                        assert outcome.reports == expected[app]

                    with pytest.raises(ServeRequestError) as info:
                        await client.match("no-such-app", payload)
                    assert info.value.code == ErrorCode.UNKNOWN_APP

                    document = await client.stats()
                    validate_serve_stats(document)
                    assert document["schema_version"] == 2
                    assert document["grid"]["n_workers"] == 2
                    assert document["grid"]["workers_down"] == 0

                    # Kill one primary; its apps must keep serving
                    # (identical reports) through the replica, with zero
                    # protocol-level errors for the client.
                    shard_map = grid.shard_map
                    assert shard_map is not None
                    victim = shard_map.owner(STORE_APPS[0]).primary
                    grid.kill_worker(victim)
                    for app in STORE_APPS:
                        outcome = await client.match(app, payload)
                        assert outcome.reports == expected[app]
                    assert router.failovers >= 1

                    await asyncio.sleep(0.3)  # let the merge loop notice
                    document = await client.stats()
                    validate_serve_stats(document)
                    assert document["grid"]["failovers"] >= 1
                    assert document["grid"]["workers_down"] == 1
                finally:
                    await client.close()

        asyncio.run(scenario())
