"""Integration tests for :class:`ShardedOptimizationServer`.

Real shard processes, small and fast (greedy algorithm, tiny
queries).  The heavier crash/chaos scenarios — mid-MILP kills under a
seeded fault plan — live in ``tests/chaos/test_shard_chaos.py``; this
file pins the steady-state contract: dispatch, routing stickiness,
coalescing, deadline handling, metrics merging, drain, and the
kill → failover → respawn cycle on cheap traffic.
"""

import time

import pytest

from repro.api import query_signature
from repro.serve import (
    Priority,
    RequestStatus,
    ShardedOptimizationServer,
)
from repro.workloads import QueryGenerator


def make_queries(n, seed=11, tables=4, topology="chain"):
    gen = QueryGenerator(seed=seed)
    return [gen.generate(topology, tables) for _ in range(n)]


@pytest.fixture(scope="module")
def server():
    srv = ShardedOptimizationServer(
        shards=2,
        workers_per_shard=2,
        supervisor_interval=0.02,
        respawn_backoff=0.1,
        heartbeat_interval=0.1,
        heartbeat_timeout=3.0,
    )
    srv.start()
    yield srv
    srv.stop(drain=False)


class TestServing:
    def test_requests_complete_across_shards(self, server):
        queries = make_queries(8)
        tickets = [server.submit(q, "greedy") for q in queries]
        results = [t.result(60.0) for t in tickets]
        assert all(r.status is RequestStatus.COMPLETED for r in results)
        assert all(r.result is not None for r in results)
        assert server.metrics_snapshot()["requests"]["dispatched"] >= 1

    def test_routing_is_sticky_per_key(self, server):
        query = make_queries(1, seed=21)[0]
        key = f"{server.catalog_version}:{query_signature(query)}"
        owner = next(server.ring.preference(key))
        for _ in range(3):
            ticket = server.submit(query, "greedy")
            assert ticket.result(60.0).status is RequestStatus.COMPLETED
            assert ticket._request.shard in (None, owner) or \
                ticket._request.shard == owner

    def test_tight_deadline_times_out_honestly(self, server):
        query = make_queries(1, seed=44, tables=6)[0]
        outcome = server.submit(
            query, "milp", priority=Priority.HIGH, deadline=0.001,
        ).result(30.0)
        # Either the shard's degraded budget produced a plan in time or
        # the request timed out — both honest; never a hang.
        assert outcome.status in (
            RequestStatus.COMPLETED, RequestStatus.TIMED_OUT,
        )

    def test_metrics_text_carries_shard_labels(self, server):
        server.submit(make_queries(1, seed=55)[0], "greedy").result(60.0)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            text = server.metrics_text()
            if 'shard="0"' in text and 'shard="1"' in text:
                break
            time.sleep(0.1)  # registries arrive with heartbeats
        assert 'shard="0"' in text
        assert 'shard="1"' in text
        assert "serve_requests_total" in text

    def test_stats_has_one_supervision_section(self, server):
        stats = server.stats()
        supervision = stats["supervision"]
        assert set(supervision) >= {
            "workers_replaced", "shard_respawns", "shard_kills",
            "shard_retries", "healthy_shards", "total_shards",
        }
        assert stats["sharded"] is True
        assert set(stats["shards"]) == {"0", "1"}

    def test_shard_health_shape(self, server):
        health = server.shard_health()
        assert health["total_shards"] == 2
        assert health["healthy_shards"] >= 1
        assert set(health["shards"]) == {"0", "1"}
        assert "queue_depth" in health


class TestFailover:
    def test_kill_failover_and_respawn(self, server):
        # Wait for a fully healthy ring first.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and \
                len(server.supervisor.healthy()) < 2:
            time.sleep(0.05)
        queries = make_queries(6, seed=66)
        tickets = [server.submit(q, "greedy") for q in queries]
        assert server.kill_shard(0)
        results = [t.result(60.0) for t in tickets]
        # Honest dispositions only; anything dispatched to shard 0
        # either failed over (completed) or resolved with a reason.
        assert all(
            r.status in (RequestStatus.COMPLETED, RequestStatus.TIMED_OUT,
                         RequestStatus.FAILED)
            for r in results
        )
        assert sum(r.status is RequestStatus.COMPLETED
                   for r in results) >= 1
        # healthy() stays stale at 2 until the supervisor *detects* the
        # death, so wait for the kill to be counted before waiting for
        # the heal — otherwise the heal loop exits instantly and reads
        # supervision pre-detection.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and server.supervisor.kills == 0:
            time.sleep(0.05)
        # The ring heals: shard 0 respawns and rejoins.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and \
                len(server.supervisor.healthy()) < 2:
            time.sleep(0.05)
        assert len(server.supervisor.healthy()) == 2
        supervision = server.stats()["supervision"]
        assert supervision["shard_kills"] >= 1
        assert supervision["shard_respawns"] >= 1
        # Post-recovery traffic lands normally.
        outcome = server.submit(queries[0], "greedy").result(60.0)
        assert outcome.status is RequestStatus.COMPLETED


class TestLifecycle:
    def test_drain_stop_resolves_everything(self):
        srv = ShardedOptimizationServer(
            shards=1, workers_per_shard=1, supervisor_interval=0.02,
            heartbeat_interval=0.1,
        )
        srv.start()
        tickets = [srv.submit(q, "greedy") for q in make_queries(4, seed=77)]
        srv.stop(drain=True)
        for ticket in tickets:
            assert ticket.done()
            assert ticket.result(0.1).status in (
                RequestStatus.COMPLETED, RequestStatus.REJECTED,
                RequestStatus.TIMED_OUT,
            )
        # Post-stop submissions are rejected, not hung.
        outcome = srv.submit(make_queries(1)[0], "greedy").result(5.0)
        assert outcome.status is RequestStatus.REJECTED

    def test_cancel_of_a_request_on_a_shard_is_forwarded(self):
        # The one shard worker runs a MILP to its 2 s budget.  The
        # second request is cancelled once the hub has put it on the
        # shard, so only the cancel forwarded to the shard can stop it
        # — even when the cancel overtakes its request frame.
        srv = ShardedOptimizationServer(
            shards=1, workers_per_shard=1, time_limit=2.0,
            supervisor_interval=0.02, heartbeat_interval=0.1,
        )
        srv.start()
        try:
            blocker = srv.submit(
                QueryGenerator(seed=1).generate("star", 6), "milp"
            )
            queued = srv.submit(make_queries(1, seed=2)[0], "greedy")
            deadline = time.monotonic() + 10.0
            while queued._request.shard is None:
                assert time.monotonic() < deadline, "never dispatched"
                time.sleep(0.001)
            queued.cancel()
            outcome = queued.result(30.0)
            assert outcome.status is RequestStatus.CANCELLED
            assert "cancelled by client" in outcome.error
            assert blocker.result(30.0).ok
            assert srv.metrics_snapshot()["requests"]["cancelled"] == 1
        finally:
            srv.stop(drain=False)

    def test_bump_catalog_version_broadcasts(self, server):
        before = server.catalog_version
        after = server.bump_catalog_version()
        assert after == before + 1
        outcome = server.submit(
            make_queries(1, seed=88)[0], "greedy"
        ).result(60.0)
        assert outcome.status is RequestStatus.COMPLETED
