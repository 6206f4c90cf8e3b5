"""End-to-end tests for :class:`OptimizationServer`.

The acceptance-criteria proofs live here:

* duplicate-heavy concurrent load performs *strictly fewer*
  optimizations than requests served (coalesce rate > 0);
* MILP requests share root bases across queries through the keyed
  :class:`BasisExchangePool` (``lp_stats`` shows warm solves, the pool
  shows cross-query hits);
* under overload the server sheds with ``REJECTED`` (bounded queue)
  and deadline-constrained requests degrade or time out instead of
  queueing unboundedly.
"""

import sys
import threading
import time

from repro.api import (
    OptimizerRegistry,
    OptimizerService,
    OptimizerSettings,
)
from repro.api.result import PlanResult
from repro.milp.solution import SolveStatus
from repro.plans.operators import JoinAlgorithm
from repro.plans.plan import LeftDeepPlan
from repro.serve import (
    OptimizationServer,
    Priority,
    RequestStatus,
)
from repro.workloads import QueryGenerator


class RecordingStub:
    """Optimizer stub: sleeps, counts calls, records budgets."""

    honors_time_limit = True

    def __init__(self, name="stub", delay=0.0):
        self.name = name
        self.delay = delay
        self.calls = 0
        self.budgets = []
        self._lock = threading.Lock()

    def __call__(self, settings):  # factory protocol
        return self

    def optimize(self, query, *, time_limit=None):
        with self._lock:
            self.calls += 1
            self.budgets.append(time_limit)
        if self.delay:
            time.sleep(self.delay)
        plan = LeftDeepPlan.from_order(
            query, [t.name for t in query.tables], JoinAlgorithm.HASH
        )
        return PlanResult(
            algorithm=self.name,
            query=query,
            plan=plan,
            status=SolveStatus.FEASIBLE,
            objective=1.0,
            true_cost=1.0,
        )


def stub_server(stub, *, settings=None, **kwargs):
    registry = OptimizerRegistry()
    registry.register(stub.name, stub)
    service = OptimizerService(
        settings=settings or OptimizerSettings(),
        registry=registry,
    )
    return OptimizationServer(service=service, **kwargs)


def queries(topology, tables, count, distinct=True):
    if distinct:
        return [
            QueryGenerator(seed=s).generate(topology, tables)
            for s in range(count)
        ]
    query = QueryGenerator(seed=0).generate(topology, tables)
    return [query] * count


class TestCoalescing:
    def test_duplicates_coalesce_to_one_optimization(self):
        stub = RecordingStub(delay=0.3)
        with stub_server(stub, workers=2) as server:
            batch = queries("star", 4, 8, distinct=False)
            tickets = [server.submit(q, "stub") for q in batch]
            results = [t.result(30) for t in tickets]
        assert all(r.status is RequestStatus.COMPLETED for r in results)
        # strictly fewer optimizations than requests served
        assert stub.calls == 1
        assert sum(r.coalesced for r in results) == 7
        snap = server.metrics_snapshot()
        assert snap["optimizations"] < snap["requests"]["completed"]
        assert snap["coalesce"]["rate"] > 0
        # followers share the identical PlanResult object
        plans = {id(r.result) for r in results}
        assert len(plans) == 1

    def test_mixed_duplicates(self):
        stub = RecordingStub(delay=0.2)
        with stub_server(stub, workers=2) as server:
            distinct = queries("chain", 4, 3)
            tickets = []
            for _ in range(4):
                tickets.extend(
                    server.submit(q, "stub") for q in distinct
                )
            results = [t.result(30) for t in tickets]
        assert all(r.status is RequestStatus.COMPLETED for r in results)
        assert stub.calls == 3

    def test_sequential_duplicates_hit_the_plan_cache(self):
        stub = RecordingStub()
        with stub_server(stub, workers=1) as server:
            query = queries("star", 4, 1)[0]
            first = server.optimize(query, "stub", timeout=30)
            second = server.optimize(query, "stub", timeout=30)
        assert first.ok and second.ok
        assert stub.calls == 1  # second answered by the plan cache
        assert server.service.stats.hits == 1
        assert not second.coalesced  # cache hit, not coalesced

    def test_follower_cancels_racing_the_leader_resolve_once(self):
        # Followers cancelled from more threads than cores while their
        # leader finishes: each resolves exactly once, CANCELLED or with
        # the leader's answer, and the counters balance.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        cancelled = 0
        try:
            for round_ in range(10):
                stub = RecordingStub(delay=0.01)
                with stub_server(stub, workers=1) as server:
                    query = queries("star", 4, 1)[0]
                    leader = server.submit(query, "stub")
                    followers = [
                        server.submit(query, "stub") for _ in range(16)
                    ]
                    cancellers = [
                        threading.Thread(
                            target=lambda t=ticket, d=i: (
                                time.sleep(0.001 * d), t.cancel()
                            )
                        )
                        for i, ticket in enumerate(followers)
                    ]
                    for thread in cancellers:
                        thread.start()
                    for thread in cancellers:
                        thread.join(10)
                        assert not thread.is_alive()
                    outcomes = [t.result(10) for t in followers]
                    assert leader.result(10).ok
                statuses = [o.status for o in outcomes]
                assert set(statuses) <= {
                    RequestStatus.CANCELLED, RequestStatus.COMPLETED
                }, round_
                requests = server.metrics_snapshot()["requests"]
                assert requests["submitted"] == 17
                assert requests["cancelled"] == statuses.count(
                    RequestStatus.CANCELLED
                )
                assert requests["completed"] == 1 + statuses.count(
                    RequestStatus.COMPLETED
                )
                assert server.coalescer.in_flight() == 0
                cancelled += requests["cancelled"]
        finally:
            sys.setswitchinterval(interval)
        # The earliest cancels land while the leader still sleeps.
        assert cancelled > 0

    def test_coalescing_disabled(self):
        stub = RecordingStub(delay=0.1)
        with stub_server(stub, workers=1, coalesce=False) as server:
            batch = queries("star", 4, 3, distinct=False)
            tickets = [server.submit(q, "stub") for q in batch]
            results = [t.result(30) for t in tickets]
        assert all(r.ok for r in results)
        # first solve populates the cache; the rest hit it (no coalescer)
        assert stub.calls >= 1
        assert sum(r.coalesced for r in results) == 0


class TestOverload:
    def test_bounded_queue_sheds_rejected(self):
        stub = RecordingStub(delay=0.4)
        with stub_server(
            stub, workers=1, queue_capacity=2, coalesce=False
        ) as server:
            batch = queries("chain", 4, 10)
            tickets = [server.submit(q, "stub") for q in batch]
            results = [t.result(60) for t in tickets]
        statuses = {r.status for r in results}
        assert statuses <= {
            RequestStatus.COMPLETED, RequestStatus.REJECTED
        }
        rejected = sum(
            r.status is RequestStatus.REJECTED for r in results
        )
        completed = sum(r.ok for r in results)
        assert rejected > 0, "overload must shed, not queue unboundedly"
        assert completed + rejected == 10
        assert completed <= 1 + 2 + 1  # in-flight + capacity + race slack
        snap = server.metrics_snapshot()
        assert snap["queue"]["shed"] == rejected
        for r in results:
            if r.status is RequestStatus.REJECTED:
                assert r.error == "queue full"

    def test_followers_of_shed_leader_are_rejected_too(self):
        stub = RecordingStub(delay=0.4)
        with stub_server(
            stub, workers=1, queue_capacity=1
        ) as server:
            # occupy the worker and the single queue slot with distinct
            # queries, then coalesce two requests onto a leader that
            # must be shed
            block = queries("chain", 4, 2)
            t_busy = [server.submit(q, "stub") for q in block]
            shed_query = queries("star", 4, 1)[0]
            t_leader = server.submit(shed_query, "stub")
            follower_result = server.submit(shed_query, "stub").result(5)
            leader_result = t_leader.result(5)
            [t.result(60) for t in t_busy]
        if leader_result.status is RequestStatus.REJECTED:
            assert follower_result.status is RequestStatus.REJECTED

    def test_priority_orders_contended_work(self):
        stub = RecordingStub(delay=0.25)
        finished = []
        with stub_server(stub, workers=1, coalesce=False) as server:
            batch = queries("chain", 4, 4)
            # first request occupies the single worker
            busy = server.submit(batch[0], "stub")
            time.sleep(0.05)
            order = []
            for query, priority, label in (
                (batch[1], Priority.LOW, "low-1"),
                (batch[2], Priority.LOW, "low-2"),
                (batch[3], Priority.HIGH, "high"),
            ):
                ticket = server.submit(query, "stub", priority=priority)
                ticket.future.add_done_callback(
                    lambda _f, label=label: finished.append(label)
                )
                order.append(ticket)
            busy.result(30)
            [t.result(30) for t in order]
        assert finished[0] == "high"


class TestDeadlines:
    def test_tight_deadline_degrades_budget(self):
        stub = RecordingStub()
        settings = OptimizerSettings(time_limit=30.0)
        with stub_server(stub, settings=settings, workers=1) as server:
            query = queries("star", 4, 1)[0]
            outcome = server.optimize(
                query, "stub", deadline=1.0, timeout=30
            )
        assert outcome.ok
        assert outcome.degraded_budget is not None
        assert 0 < outcome.degraded_budget <= 0.95
        assert stub.budgets == [outcome.degraded_budget]
        snap = server.metrics_snapshot()
        assert snap["requests"]["degraded"] == 1

    def test_loose_deadline_keeps_default_budget(self):
        stub = RecordingStub()
        settings = OptimizerSettings(time_limit=0.5)
        with stub_server(stub, settings=settings, workers=1) as server:
            query = queries("star", 4, 1)[0]
            outcome = server.optimize(
                query, "stub", deadline=600.0, timeout=30
            )
        assert outcome.ok
        assert outcome.degraded_budget is None
        assert stub.budgets == [None]  # service default applies

    def test_expired_deadline_times_out_not_optimizes(self):
        stub = RecordingStub(delay=0.4)
        with stub_server(stub, workers=1, coalesce=False) as server:
            blocker, victim = queries("chain", 4, 2)
            busy = server.submit(blocker, "stub")
            late = server.submit(victim, "stub", deadline=0.05)
            outcome = late.result(30)
            busy.result(30)
        assert outcome.status is RequestStatus.TIMED_OUT
        assert stub.calls == 1  # the victim never reached the optimizer
        snap = server.metrics_snapshot()
        assert snap["requests"]["timed_out"] == 1

    def test_default_deadline_applies(self):
        stub = RecordingStub(delay=0.3)
        with stub_server(
            stub, workers=1, coalesce=False, default_deadline=0.05
        ) as server:
            blocker, victim = queries("chain", 4, 2)
            server.submit(blocker, "stub")
            outcome = server.submit(victim, "stub").result(30)
        assert outcome.status is RequestStatus.TIMED_OUT

    def test_degraded_solves_bypass_the_plan_cache(self):
        stub = RecordingStub()
        settings = OptimizerSettings(time_limit=30.0)
        with stub_server(stub, settings=settings, workers=1) as server:
            query = queries("star", 4, 1)[0]
            first = server.optimize(
                query, "stub", deadline=1.0, timeout=30
            )
            second = server.optimize(
                query, "stub", deadline=1.0, timeout=30
            )
        assert first.ok and second.ok
        assert first.degraded_budget is not None
        # each degraded request re-optimizes (near-unique budgets would
        # otherwise pollute the LRU with unmatchable keys) and nothing
        # was stored
        assert stub.calls == 2
        assert server.service.cache_size() == 0
        assert server.service.stats.requests == 0

    def test_deadline_requests_never_coalesce(self):
        # A deadline carrier must get its own budget and its own
        # timeout disposition — it neither follows a no-deadline
        # leader (whose answer may arrive after the deadline) nor
        # leads one (its degraded plan must not be shared).
        stub = RecordingStub(delay=0.5)
        with stub_server(stub, workers=1) as server:
            blocker = queries("chain", 4, 1)[0]
            dup = queries("star", 4, 1)[0]
            busy = server.submit(blocker, "stub")
            time.sleep(0.05)
            leader = server.submit(dup, "stub")  # no deadline
            hurried = server.submit(dup, "stub", deadline=0.05)
            hurried_outcome = hurried.result(30)
            leader_outcome = leader.result(30)
            busy.result(30)
        assert leader_outcome.status is RequestStatus.COMPLETED
        # not coalesced: timed out on its own terms instead of being
        # handed the leader's answer after its deadline
        assert hurried_outcome.status is RequestStatus.TIMED_OUT
        assert not hurried_outcome.coalesced
        assert server.metrics_snapshot()["coalesce"]["coalesced"] == 0

    def test_deadline_request_does_not_disturb_leaders_entry(self):
        # A deadline request for the same key as an in-flight
        # no-deadline leader must not pop that leader's coalescing
        # entry when it finishes first (its followers would be
        # orphaned or double-resolved).
        stub = RecordingStub(delay=0.3)
        with stub_server(stub, workers=2) as server:
            dup = queries("star", 4, 1)[0]
            leader = server.submit(dup, "stub")          # worker 1
            hurried = server.submit(dup, "stub", deadline=5.0)  # worker 2
            time.sleep(0.05)
            follower = server.submit(dup, "stub")        # coalesces
            assert hurried.result(30).ok
            assert leader.result(30).ok
            assert follower.result(30).ok
        assert server.coalescer.in_flight() == 0

    def test_degraded_request_served_from_full_budget_cache(self):
        stub = RecordingStub()
        settings = OptimizerSettings(time_limit=30.0)
        with stub_server(stub, settings=settings, workers=1) as server:
            query = queries("star", 4, 1)[0]
            warm = server.optimize(query, "stub", timeout=30)
            hurried = server.optimize(
                query, "stub", deadline=1.0, timeout=30
            )
        assert warm.ok and hurried.ok
        # answered from the cached full-budget plan: no fresh solve,
        # no degradation
        assert stub.calls == 1
        assert hurried.result is warm.result
        assert hurried.degraded_budget is None
        assert server.metrics_snapshot()["requests"]["degraded"] == 0


class TestLifecycle:
    def test_graceful_drain_finishes_queued_work(self):
        stub = RecordingStub(delay=0.1)
        server = stub_server(stub, workers=1, coalesce=False)
        server.start()
        tickets = [
            server.submit(q, "stub") for q in queries("chain", 4, 5)
        ]
        server.stop(drain=True)
        results = [t.result(1) for t in tickets]
        assert all(r.status is RequestStatus.COMPLETED for r in results)
        assert stub.calls == 5

    def test_hard_stop_rejects_queued_work(self):
        stub = RecordingStub(delay=0.3)
        server = stub_server(stub, workers=1, coalesce=False)
        server.start()
        tickets = [
            server.submit(q, "stub") for q in queries("chain", 4, 5)
        ]
        time.sleep(0.05)  # let the worker pick one up
        server.stop(drain=False)
        results = [t.result(5) for t in tickets]
        rejected = [
            r for r in results if r.status is RequestStatus.REJECTED
        ]
        assert rejected, "queued work must be rejected on hard stop"
        for r in rejected:
            assert r.error == "server shutting down"
        assert all(t.done() for t in tickets)

    def test_optimizer_exception_becomes_failed(self):
        class Exploding(RecordingStub):
            def optimize(self, query, *, time_limit=None):
                raise RuntimeError("boom")

        stub = Exploding()
        with stub_server(stub, workers=1) as server:
            outcome = server.optimize(
                queries("star", 4, 1)[0], "stub", timeout=30
            )
        assert outcome.status is RequestStatus.FAILED
        assert "boom" in outcome.error


class TestCrossQueryBasisSharing:
    def test_milp_requests_warm_start_each_other(self):
        # Same-shaped 4-table join queries produce equal-signature
        # standard forms, so the second and third requests seed their
        # root LPs from the first one's published basis.
        batch = [
            QueryGenerator(seed=s).generate("chain", 4) for s in range(3)
        ]
        settings = OptimizerSettings(time_limit=10.0)
        with OptimizationServer(settings, workers=1) as server:
            results = [
                server.optimize(q, "milp", timeout=120) for q in batch
            ]
        assert all(r.ok for r in results)
        assert server.basis_pool is not None
        pool = server.basis_pool.as_dict()
        assert pool["publishes"] >= 1
        assert pool["hits"] >= 1, "cross-query fetch never hit the pool"
        lp = server.service.lp_stats
        assert lp.sessions == 3
        assert lp.warm_solves > 0
        snap = server.metrics_snapshot()
        assert snap["basis_pool"]["hits"] >= 1
        assert snap["lp"]["warm_ratio"] > 0

    def test_share_bases_disabled(self):
        server = OptimizationServer(workers=1, share_bases=False)
        assert server.basis_pool is None
        assert "basis_pool" not in server.metrics_snapshot()


class TestMetricsSnapshot:
    def test_snapshot_shape(self):
        stub = RecordingStub()
        with stub_server(stub, workers=1) as server:
            server.optimize(queries("star", 4, 1)[0], "stub", timeout=30)
        snap = server.metrics_snapshot()
        assert snap["requests"]["submitted"] == 1
        assert snap["requests"]["completed"] == 1
        assert snap["optimizations"] == 1
        assert snap["latency"]["total"]["count"] == 1
        assert snap["queue"]["capacity"] == 64
        assert 0 <= snap["cache"]["hit_rate"] <= 1
        assert "solves" in snap["lp"]

    def test_metrics_text_exposition(self):
        stub = RecordingStub()
        with stub_server(stub, workers=1) as server:
            server.optimize(queries("star", 4, 1)[0], "stub", timeout=30)
        text = server.metrics_text()
        assert "serve_requests_total 1" in text
        assert "serve_completed_total 1" in text
        assert "serve_total_seconds" in text
