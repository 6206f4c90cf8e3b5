"""The request-lifecycle contract both serving front ends share.

:class:`OptimizationServer` (worker threads) and
:class:`ShardedOptimizationServer` (shard processes) inherit one
lifecycle — validation, admission, coalescing, cancellation and
resolve-once accounting — so every test here runs against both: a
one-worker server and a one-shard, one-worker fleet.
"""

import math
import time

import pytest

from repro import obs
from repro.api import OptimizerSettings
from repro.obs import Tracer
from repro.serve import (
    OptimizationServer,
    RequestStatus,
    ShardedOptimizationServer,
)
from repro.workloads import QueryGenerator

HONEST = (
    RequestStatus.COMPLETED,
    RequestStatus.REJECTED,
    RequestStatus.TIMED_OUT,
    RequestStatus.FAILED,
    RequestStatus.CANCELLED,
)


@pytest.fixture(params=["single", "sharded"])
def server(request):
    if request.param == "single":
        srv = OptimizationServer(OptimizerSettings(time_limit=2.0), workers=1)
    else:
        srv = ShardedOptimizationServer(
            shards=1,
            workers_per_shard=1,
            time_limit=2.0,
            supervisor_interval=0.02,
            heartbeat_interval=0.1,
        )
    srv.start()
    yield srv
    srv.stop(drain=False)


def small_query(seed=0):
    return QueryGenerator(seed=seed).generate("chain", 4)


def slow_query(seed=0):
    """A query greedy spends a few hundred milliseconds on."""
    return QueryGenerator(seed=seed).generate("clique", 20)


def submit_blocker(server):
    """Occupy the one worker with a MILP that runs to its 2 s budget,
    and return once the executor holds it."""
    blocker = server.submit(
        QueryGenerator(seed=1).generate("star", 6), "milp"
    )
    deadline = time.monotonic() + 10.0
    while len(server.scheduler):
        assert time.monotonic() < deadline, "blocker never left the queue"
        time.sleep(0.001)
    return blocker


def executor_runs(server):
    """Requests the executor took on: solves started on the single
    server, dispatches to a shard on the hub."""
    snapshot = server.metrics_snapshot()
    if isinstance(server, ShardedOptimizationServer):
        return snapshot["requests"]["dispatched"]
    return snapshot["optimizations"]


def test_invalid_deadlines_raise_and_leave_counters_balanced(server):
    for deadline in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            server.submit(small_query(), "greedy", deadline=deadline)
    assert server.metrics_snapshot()["requests"]["submitted"] == 0


def test_submit_after_stop_is_rejected(server):
    server.stop()
    outcome = server.submit(small_query(), "greedy").result(5)
    assert outcome.status is RequestStatus.REJECTED
    # the reason names the real cause, and no executor was restarted
    # against the permanently closed scheduler
    assert outcome.error == "server stopped"
    assert not server.started
    assert executor_runs(server) == 0


def test_unknown_algorithm_fails_through_the_resolve_path(server):
    tracer = Tracer(sample="all")
    with obs.tracing(tracer):
        outcome = server.submit(small_query(), "nope").result(5)
    assert outcome.status is RequestStatus.FAILED
    assert "unknown algorithm" in outcome.error
    assert outcome.total_seconds > 0
    assert outcome.trace_id is not None
    assert tracer.find(outcome.trace_id) is not None
    assert tracer.stats()["kept"] == tracer.stats()["started"] == 1
    snapshot = server.metrics_snapshot()
    assert snapshot["requests"]["failed"] == 1
    assert snapshot["latency"]["total"]["count"] == 1
    assert executor_runs(server) == 0


def test_deadline_free_duplicates_coalesce(server):
    query = slow_query()
    tickets = [server.submit(query, "greedy") for _ in range(4)]
    results = [t.result(60) for t in tickets]
    assert all(r.status is RequestStatus.COMPLETED for r in results)
    assert sum(r.coalesced for r in results) == 3
    assert server.metrics_snapshot()["coalesce"]["coalesced"] == 3


def test_cancel_of_a_queued_request_resolves_cancelled(server):
    # The one worker is busy with a MILP that runs to its 2 s budget;
    # the second request waits behind it (in the scheduler, or on the
    # shard) and is cancelled before it can start.
    blocker = server.submit(
        QueryGenerator(seed=1).generate("star", 6), "milp"
    )
    queued = server.submit(small_query(seed=2), "greedy")
    queued.cancel()
    outcome = queued.result(30)
    assert outcome.status is RequestStatus.CANCELLED
    assert outcome.error == "cancelled: cancelled by client"
    assert blocker.result(30).ok
    snapshot = server.metrics_snapshot()
    assert snapshot["requests"]["cancelled"] == 1
    assert snapshot["requests"]["completed"] == 1


def test_cancel_of_a_coalesced_follower_resolves_it_at_once(server):
    # Two identical deadline-free MILP requests coalesce; the follower's
    # client gives up while the leader's solve runs to its 2 s budget.
    query = QueryGenerator(seed=3).generate("star", 6)
    leader = server.submit(query, "milp")
    follower = server.submit(query, "milp")
    time.sleep(0.1)
    follower.cancel()
    outcome = follower.result(1.0)
    assert not leader.done()
    assert outcome.status is RequestStatus.CANCELLED
    assert outcome.error == "cancelled: cancelled by client"
    assert not outcome.coalesced
    assert leader.result(30).status is RequestStatus.COMPLETED
    requests = server.metrics_snapshot()["requests"]
    assert requests["submitted"] == 2
    assert requests["cancelled"] == 1
    assert requests["completed"] == 1
    assert sum(
        requests[status.value] for status in HONEST
    ) == requests["submitted"]
    assert server.metrics_snapshot()["coalesce"]["in_flight"] == 0


def test_hard_stop_resolves_every_future_followers_included(server):
    busy = submit_blocker(server)
    duplicate = slow_query(seed=2)
    leader = server.submit(duplicate, "greedy")
    follower = server.submit(duplicate, "greedy")
    server.stop(drain=False)
    tickets = (busy, leader, follower)
    assert all(t.done() for t in tickets)
    outcomes = [t.result(0) for t in tickets]
    assert all(o.status in HONEST for o in outcomes)
    assert outcomes[2].status is outcomes[1].status
    if isinstance(server, OptimizationServer):
        # The leader never started: rejected, with its follower.
        assert outcomes[1].status is RequestStatus.REJECTED
        assert outcomes[2].error == "server shutting down"
