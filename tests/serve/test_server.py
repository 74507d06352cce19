"""End-to-end daemon tests: HTTP, batching, bit-identity, isolation.

Most tests share one thread-mode daemon (module-scoped): a single
in-process worker lane makes runs deterministic and fork-free while
still exercising the full HTTP -> admission -> batching -> pool ->
executor path over a real TCP socket.  Process-mode behavior (worker
death, restarts) is covered separately with skip guards for sandboxes
where process pools are unavailable.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.obs.tracer import canonical_lines
from repro.serve import (
    Batcher,
    ColoringServer,
    PoolSupervisor,
    ServeClient,
    ServerBusy,
    ServerHandle,
    execute_request,
    parse_request,
)

RING = {"kind": "ring-stream", "n": 96}
GNP = {"kind": "gnp", "n": 26, "density": 0.2, "seed": 5}
GREEDY = {"name": "greedy-reduction"}
SWEEP = {"name": "two-sweep", "p": 2, "seed": 7}


@pytest.fixture(scope="module")
def daemon():
    server = ColoringServer(mode="thread", max_batch=4,
                            prewarm=({"kind": "ring-stream", "n": 96},))
    with ServerHandle(server) as handle:
        yield handle


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.host, daemon.port) as conn:
        yield conn


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0

    def test_unknown_route_404(self, client):
        status, payload = client.request("GET", "/nope")
        assert status == 404
        assert payload["error"]["type"] == "NotFound"

    def test_wrong_method_405(self, client):
        status, payload = client.request("POST", "/healthz", {})
        assert status == 405

    def test_malformed_json_400(self, client):
        client.conn.request("POST", "/color", body="{not json",
                            headers={"Content-Type": "application/json"})
        response = client.conn.getresponse()
        assert response.status == 400
        response.read()

    def test_bad_request_400(self, client):
        status, payload = client.color({"topology": {"kind": "torus"},
                                        "algorithm": GREEDY})
        assert status == 400
        assert payload["error"]["type"] == "RequestError"

    def test_stats_shape(self, client):
        client.color({"topology": RING, "algorithm": GREEDY})
        stats = client.stats()
        assert stats["kind"] == "stats"
        assert stats["requests"]["total"] >= 1
        assert stats["pool"]["mode"] == "thread"
        assert stats["pool"]["restarts"] == 0
        assert stats["queue"]["capacity"] == 256
        assert stats["latency_ms"]["p50"] is not None
        assert stats["latency_ms"]["p99"] is not None
        assert stats["caches"]["enabled"] is True
        assert "counters" in stats["caches"]
        assert stats["boot"]["prewarmed"] == ["('ring-stream', 96)"]


class TestColoring:
    def test_greedy_request(self, client):
        status, payload = client.color(
            {"topology": RING, "algorithm": GREEDY})
        assert status == 200
        assert payload["kind"] == "coloring"
        assert payload["result"]["valid"] is True
        assert payload["batch"]["size"] >= 1
        assert payload["timing"]["queue_wait_s"] >= 0
        assert payload["timing"]["request_wall_s"] > 0

    def test_prewarmed_topology_reports_shm_hit(self, client):
        # Satellite contract: a request against a published topology
        # reports a warm "topologies" lookup in its manifest.
        status, payload = client.color(
            {"topology": RING, "algorithm": GREEDY})
        assert status == 200
        counters = payload["manifest"]["cache_counters"]
        assert counters["topologies"]["hits"] == 1
        assert counters["topologies"]["misses"] == 0

    def test_second_identical_request_is_warm(self, client):
        # Warm-cache regression: first request on a fresh family pays
        # the misses, the identical follow-up rides the registries.
        body = {"topology": {"kind": "gnp", "n": 24, "density": 0.2,
                             "seed": 77},
                "algorithm": GREEDY}
        _, first = client.color(body)
        _, second = client.color(body)
        nets_first = first["manifest"]["cache_counters"].get(
            "networks", {})
        nets_second = second["manifest"]["cache_counters"].get(
            "networks", {})
        assert nets_first.get("misses", 0) >= 1
        assert nets_second == {"hits": 1, "misses": 0}

    def test_algorithm_failure_does_not_poison_the_pool(self, client):
        status, payload = client.color({
            "topology": {"kind": "ring-stream", "n": 16},
            "algorithm": {"name": "two-sweep", "lists": "stuck",
                          "check": False},
        })
        assert status == 422
        assert payload["error"]["type"] == "AlgorithmFailure"
        # The very next request on the same daemon succeeds.
        status, payload = client.color(
            {"topology": RING, "algorithm": GREEDY})
        assert status == 200
        assert payload["status"] == "ok"

    def test_upload_then_color_by_handle(self, client):
        edges = [(i, i + 1) for i in range(9)] + [(9, 0)]
        status, upload = client.upload(10, edges)
        assert status == 200
        assert upload["n"] == 10 and upload["m"] == 10
        status, payload = client.color({
            "topology": {"kind": "graph", "id": upload["id"]},
            "algorithm": GREEDY,
        })
        assert status == 200
        assert payload["result"]["valid"] is True
        assert payload["topology"]["n"] == 10

    def test_unknown_handle_400(self, client):
        status, payload = client.color({
            "topology": {"kind": "graph", "id": "deadbeef"},
            "algorithm": GREEDY,
        })
        assert status == 400


class TestBitIdentity:
    """The acceptance contract: daemon == serial, byte for byte."""

    def test_mixed_concurrent_traffic_matches_serial(self, daemon):
        # Two topologies x two algorithm classes, interleaved from
        # four client threads -- every response must be bit-identical
        # (logical trace + ledger + coloring checksum) to a serial
        # in-process execute_request of the same spec.
        bodies = [
            {"topology": RING, "algorithm": GREEDY},
            {"topology": GNP, "algorithm": SWEEP},
            {"topology": RING, "algorithm": dict(SWEEP, seed=9)},
            {"topology": GNP, "algorithm": GREEDY},
        ]
        references = [execute_request(parse_request(b)) for b in bodies]
        results = {}

        def drive(worker):
            with ServeClient(daemon.host, daemon.port) as conn:
                for step in range(3):
                    index = (worker + step) % len(bodies)
                    status, payload = conn.color(bodies[index])
                    results[(worker, step)] = (status, index, payload)

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert len(results) == 12
        for (worker, step), (status, index, payload) in results.items():
            reference = references[index]
            assert status == 200, (worker, step, payload)
            assert payload["result"]["colors_blake2b"] == \
                reference["result"]["colors_blake2b"]
            assert payload["ledger"] == reference["ledger"]
            assert canonical_lines(payload["trace"]) == \
                canonical_lines(reference["trace"])


class TestBatcherAdmission:
    def test_full_queue_raises_server_busy(self):
        async def scenario():
            supervisor = PoolSupervisor(workers=1, mode="thread")
            try:
                batcher = Batcher(supervisor, max_queue=1)
                # No dispatch loop running: the first submit parks in
                # the queue, the second must be shed immediately.
                first = asyncio.ensure_future(
                    batcher.submit(parse_request(
                        {"topology": RING, "algorithm": GREEDY})))
                await asyncio.sleep(0)
                with pytest.raises(ServerBusy):
                    await batcher.submit(parse_request(
                        {"topology": RING, "algorithm": GREEDY}))
                first.cancel()
            finally:
                supervisor.close()

        asyncio.run(scenario())

    def test_compatible_requests_coalesce(self):
        async def scenario():
            supervisor = PoolSupervisor(workers=1, mode="thread")
            try:
                batcher = Batcher(supervisor, max_batch=8)
                spec = parse_request(
                    {"topology": RING, "algorithm": GREEDY})
                pending = [asyncio.ensure_future(batcher.submit(spec))
                           for _ in range(4)]
                await asyncio.sleep(0)  # everything queued, no loop yet
                batcher.start()
                payloads = await asyncio.gather(*pending)
                await batcher.stop()
                return payloads
            finally:
                supervisor.close()

        payloads = asyncio.run(scenario())
        # All four were waiting when the dispatcher first looked, so
        # they ran as one micro-batch.
        assert [p["batch"]["size"] for p in payloads] == [4, 4, 4, 4]
        assert [p["batch"]["index"] for p in payloads] == [0, 1, 2, 3]
        assert all(p["status"] == "ok" for p in payloads)


class TestProcessMode:
    def test_worker_death_triggers_restart_and_recovery(self):
        import os
        import signal

        server = ColoringServer(mode="process", workers=2, max_batch=4)
        try:
            with ServerHandle(server) as handle:
                if server.supervisor.pool.mode != "process":
                    pytest.skip("process pools unavailable: "
                                f"{server.supervisor.pool.fallback_reason}")
                with ServeClient(handle.host, handle.port) as conn:
                    status, payload = conn.color(
                        {"topology": RING, "algorithm": GREEDY})
                    assert status == 200
                    reference = payload["result"]["colors_blake2b"]
                    victims = list(
                        server.supervisor.pool.executor._processes)
                    os.kill(victims[0], signal.SIGKILL)
                    # The batch hit by the kill is retried on a fresh
                    # pool; either way the daemon must answer correctly.
                    status, payload = conn.color(
                        {"topology": RING, "algorithm": GREEDY})
                    if status != 200:
                        status, payload = conn.color(
                            {"topology": RING, "algorithm": GREEDY})
                    assert status == 200
                    assert payload["result"]["colors_blake2b"] == \
                        reference
                    stats = conn.stats()
                    assert stats["pool"]["restarts"] >= 1
        except PermissionError:  # pragma: no cover - sandboxed CI
            pytest.skip("process pools unavailable in this sandbox")


    def test_stats_cache_counters_match_registry(self):
        # Worker lookups reach the daemon only as merged registry
        # deltas; /stats must report them, not just the daemon's own.
        server = ColoringServer(mode="process", workers=1, max_batch=4)
        try:
            with ServerHandle(server) as handle:
                if server.supervisor.pool.mode != "process":
                    pytest.skip("process pools unavailable: "
                                f"{server.supervisor.pool.fallback_reason}")
                with ServeClient(handle.host, handle.port) as conn:
                    status, payload = conn.color(
                        {"topology": GNP, "algorithm": SWEEP})
                    assert status == 200
                    assert payload["manifest"]["cache_counters"]
                    stats = conn.stats()
        except PermissionError:  # pragma: no cover - sandboxed CI
            pytest.skip("process pools unavailable in this sandbox")
        lookups = {}
        for sample in stats["metrics"]["repro_cache_lookups_total"][
                "samples"]:
            labels = sample["labels"]
            entry = lookups.setdefault(labels["registry"],
                                       {"hits": 0, "misses": 0})
            outcome = "hits" if labels["outcome"] == "hit" else "misses"
            entry[outcome] += int(sample["value"])
        assert stats["caches"]["counters"] == lookups


class TestWarmBoot:
    def test_disk_cache_round_trip(self, tmp_path, monkeypatch):
        # Satellite contract: a daemon spills its substrate cache at
        # shutdown and the next boot starts warm from disk.
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))
        first = ColoringServer(mode="thread")
        with ServerHandle(first) as handle:
            assert first.boot["disk_cache_loaded"] is False
            with ServeClient(handle.host, handle.port) as conn:
                status, _ = conn.color(
                    {"topology": GNP, "algorithm": GREEDY})
                assert status == 200
        assert (tmp_path / "substrate_cache.pkl").exists()
        second = ColoringServer(mode="thread")
        with ServerHandle(second) as handle:
            assert second.boot["disk_cache_loaded"] is True
            with ServeClient(handle.host, handle.port) as conn:
                stats = conn.stats()
                assert stats["caches"]["disk"]["loaded"] is True
