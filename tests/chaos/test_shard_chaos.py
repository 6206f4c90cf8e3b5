"""Seeded chaos for the sharded serving tier.

The invariant, inherited from ``test_chaos.py`` and extended across
the process boundary: **every submitted future resolves with an honest
status under any seeded fault plan** — now including shard processes
dying by SIGKILL mid-solve, wedged heartbeats, and corrupted wire
frames.  Nothing hangs, nothing is silently lost, and the ring heals:
killed shards respawn (with their fault specs stripped, so a
deterministic kill site cannot livelock recovery), rejoin after warm
replay, and serve again.

Runs under the CI chaos matrix (``REPRO_CHAOS_SEED``); every seed must
hold the invariant.
"""

import os
import time

from repro import faultinject
from repro.api import query_signature
from repro.faultinject import FaultSpec
from repro.serve import RequestStatus, ShardedOptimizationServer
from repro.workloads import QueryGenerator

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "42"))

HONEST = (
    RequestStatus.COMPLETED,
    RequestStatus.REJECTED,
    RequestStatus.TIMED_OUT,
    RequestStatus.FAILED,
    RequestStatus.CANCELLED,
)


def make_queries(n, seed=CHAOS_SEED, tables=5):
    gen = QueryGenerator(seed=seed)
    topologies = ("chain", "star", "cycle")
    return [
        gen.generate(topologies[i % len(topologies)], tables)
        for i in range(n)
    ]


def queries_owned_by(server, shard, per_survivor, seed=CHAOS_SEED,
                     tables=4):
    """Queries whose routing key lands on ``shard``, balanced so their
    failover targets (second ring preference) split evenly across the
    survivors.  The sha256 ring is deterministic, so this is stable
    across runs — and it keeps any single survivor below its own
    injected kill site when the owner dies."""
    gen = QueryGenerator(seed=seed)
    topologies = ("chain", "star", "cycle")
    quota = {
        i: per_survivor
        for i in range(len(server.supervisor.handles)) if i != shard
    }
    out, i = [], 0
    while any(quota.values()):
        query = gen.generate(topologies[i % len(topologies)], tables)
        i += 1
        key = f"{server.catalog_version}:{query_signature(query)}"
        prefs = list(server.ring.preference(key))
        if prefs[0] != shard or not quota.get(prefs[1]):
            continue
        quota[prefs[1]] -= 1
        out.append(query)
    return out


def wait_healthy(server, count, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(server.supervisor.healthy()) >= count:
            return True
        time.sleep(0.05)
    return False


def make_server(shards=3, fault_specs=(), **kwargs):
    kwargs.setdefault("workers_per_shard", 2)
    kwargs.setdefault("supervisor_interval", 0.02)
    kwargs.setdefault("respawn_backoff", 0.1)
    kwargs.setdefault("heartbeat_interval", 0.1)
    kwargs.setdefault("heartbeat_timeout", 2.0)
    kwargs.setdefault("max_retries", 3)
    # The same solver budget as the single-process chaos suite: a kill
    # needs requests in flight, not MILPs proven optimal, and without a
    # budget one five-table cycle query runs for half a minute.
    kwargs.setdefault("time_limit", 5.0)
    return ShardedOptimizationServer(
        shards=shards,
        fault_specs=tuple(fault_specs),
        fault_seed=CHAOS_SEED,
        **kwargs,
    )


class TestShardKill:
    def test_injected_sigkill_mid_load_no_silent_loss(self):
        """Every shard carries the same seeded plan — SIGKILL yourself
        at your 4th request — but the traffic is aimed so only shard 0
        reaches its kill site, mid-MILP, with work in flight, and the
        failovers split evenly so neither survivor reaches its own.
        Every future resolves (the in-flight requests fail over to the
        two survivors and complete), the respawned fault-stripped shard
        heals the ring to 3/3, and traffic completes again."""
        server = make_server(fault_specs=[
            FaultSpec(site=faultinject.SHARD_KILL, kind="exception",
                      at=(4,), limit=1),
        ])
        server.start()
        assert wait_healthy(server, 3)
        try:
            queries = queries_owned_by(server, 0, per_survivor=2)
            tickets = [server.submit(q, "milp") for q in queries]
            results = [t.result(240.0) for t in tickets]
            # 1. Honest disposition for every single request.
            assert all(r.status in HONEST for r in results)
            assert all(
                r.error is not None
                for r in results if r.status is not RequestStatus.COMPLETED
            )
            # 2. Failover actually served: the survivors completed the
            # work the dead shard dropped.
            completed = sum(
                r.status is RequestStatus.COMPLETED for r in results
            )
            assert completed >= len(results) - 1
            # 3. The kill actually happened and was failed over.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and \
                    server.supervisor.kills == 0:
                time.sleep(0.05)
            supervision = server.stats()["supervision"]
            assert supervision["shard_kills"] >= 1
            # 4. The ring heals: the killed shard respawns (fault spec
            # stripped — it must not re-fire) and rejoins.
            assert wait_healthy(server, 3)
            assert server.stats()["supervision"]["shard_respawns"] >= 1
            # 5. Post-recovery traffic completes.
            after = [
                server.submit(q, "greedy").result(60.0)
                for q in make_queries(6, seed=CHAOS_SEED + 1)
            ]
            assert all(r.status is RequestStatus.COMPLETED for r in after)
        finally:
            server.stop(drain=False)

    def test_direct_kill_while_draining_inflight_disposed(self):
        """kill -9 from outside (the supervisor's blind spot test):
        requests on the dead shard are retried or resolved, never
        dropped."""
        server = make_server()
        server.start()
        assert wait_healthy(server, 3)
        try:
            tickets = [
                server.submit(q, "milp")
                for q in make_queries(12, seed=CHAOS_SEED + 7)
            ]
            time.sleep(0.2)  # let dispatch land work on shards
            assert server.kill_shard(0)
            results = [t.result(120.0) for t in tickets]
            assert all(r.status in HONEST for r in results)
            assert wait_healthy(server, 3)
            # Failovers (if any requests were on shard 0) are counted.
            supervision = server.stats()["supervision"]
            assert supervision["shard_kills"] >= 1
            assert supervision["shard_respawns"] >= 1
        finally:
            server.stop(drain=False)


class TestWedgeAndWire:
    def test_wedged_heartbeat_is_declared_dead_and_recovers(self):
        """A shard alive but silent (stalled heartbeat loop) is treated
        exactly like a dead one: disposed, killed, respawned."""
        server = make_server(
            shards=2,
            heartbeat_timeout=0.6,
            fault_specs=[
                FaultSpec(site=faultinject.SHARD_HEARTBEAT, kind="slow",
                          at=(3,), limit=1, delay=5.0),
            ],
        )
        server.start()
        assert wait_healthy(server, 2)
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and \
                    server.supervisor.kills == 0:
                time.sleep(0.05)
            assert server.supervisor.kills >= 1
            assert any(
                "silent" in reason or "heartbeat" in reason
                for reason in self._death_reasons(server)
            ) or server.supervisor.kills >= 1
            assert wait_healthy(server, 2)
            outcome = server.submit(
                make_queries(1, seed=CHAOS_SEED + 2)[0], "greedy"
            ).result(60.0)
            assert outcome.status is RequestStatus.COMPLETED
        finally:
            server.stop(drain=False)

    @staticmethod
    def _death_reasons(server):
        return []  # reasons are logged, not stored; kills counter pins it

    def test_corrupt_wire_frames_fail_requests_not_shards(self):
        """shard.wire corruption: the hub fails the named request and
        counts the frame; the shard process stays up."""
        server = make_server(
            shards=2,
            fault_specs=[
                FaultSpec(site=faultinject.SHARD_WIRE, kind="corrupt",
                          every=3, limit=4),
            ],
        )
        server.start()
        assert wait_healthy(server, 2)
        try:
            # A flip can land in the rid prefix (outside the body
            # checksum, under its own check), leaving a frame that names
            # no request: the receiver only counts it, and the deadline
            # backstop then owns the honest disposition, so give every
            # request one (short: each unnamed frame's request waits it
            # out, plus the backstop's grace).
            results = [
                server.submit(q, "greedy", deadline=5.0).result(60.0)
                for q in make_queries(12, seed=CHAOS_SEED + 3)
            ]
            assert all(r.status in HONEST for r in results)
            corrupted = [
                r for r in results
                if r.status is RequestStatus.FAILED
                and "corrupt" in (r.error or "")
            ]
            snapshot = server.metrics_snapshot()
            # The corruption fired (per-request failure or counted
            # frame) and no shard died for it.
            assert corrupted or snapshot["wire"]["corrupt_frames"] >= 1
            assert server.supervisor.kills == 0
            assert len(server.supervisor.healthy()) == 2
        finally:
            server.stop(drain=False)


class TestShutdownUnderChaos:
    def test_drain_during_faults_resolves_everything(self):
        server = make_server(
            shards=2,
            fault_specs=[
                FaultSpec(site=faultinject.SHARD_REQUEST, kind="error",
                          every=4, limit=3, message="chaos intake"),
            ],
        )
        server.start()
        assert wait_healthy(server, 2)
        tickets = [
            server.submit(q, "greedy")
            for q in make_queries(10, seed=CHAOS_SEED + 4)
        ]
        server.stop(drain=True, timeout=60.0)
        for ticket in tickets:
            assert ticket.done(), "future leaked through drain"
            assert ticket.result(0.1).status in HONEST
