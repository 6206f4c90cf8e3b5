"""The long-lived optimization server: workers over a deadline queue.

:class:`OptimizationServer` is the deployable front of the stack,
layered strictly on :class:`repro.api.OptimizerService` (no new
per-algorithm code paths).  Its request lifecycle — validate, admit,
coalesce, resolve exactly once, account — lives in a base class that
the multi-process :class:`~repro.serve.sharded.ShardedOptimizationServer`
shares, so both front ends apply the same disposition rules; each
subclass only supplies its executor (worker threads here, shard
processes there):

* admission goes through a :class:`~repro.serve.scheduler.DeadlineScheduler`
  — bounded queue, strict-priority + earliest-deadline ordering,
  explicit ``REJECTED`` shedding under overload;
* duplicate in-flight queries collapse through a
  :class:`~repro.serve.coalesce.RequestCoalescer` (N identical requests
  → one optimization, N futures), composing with the service's plan
  cache, which covers sequential duplicates;
* a shared :class:`~repro.milp.lp_backend.BasisExchangePool` is wired
  into every MILP solve via ``SolverOptions.basis_pool``, so
  equal-shaped formulations from *different* queries warm-start each
  other's root LPs across requests (the keyed-fetch pool);
* per-request deadlines are converted into optimization budgets
  (:func:`~repro.serve.scheduler.degraded_budget`) threaded into the
  service's ``time_limit`` — a late-admitted anytime MILP request
  returns its best-so-far plan on time instead of blowing the deadline;
* every stage records into a :class:`~repro.serve.metrics.MetricsRegistry`
  (queue depth, wait/service/total latency histograms, coalesce and
  cache and LP-warm ratios) exposed as a dict snapshot and as a text
  page via :mod:`repro.serve.http`.
"""

from __future__ import annotations

import enum
import logging
import math
import threading
import time
from collections.abc import Callable
from concurrent.futures import InvalidStateError
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro import obs
from repro.api import (
    OptimizerService,
    OptimizerSettings,
    available_algorithms,
    query_signature,
)
from repro.api.result import PlanResult
from repro.cancel import CancelToken
from repro.milp.branch_and_bound import SolverOptions
from repro.milp.lp_backend import BasisExchangePool
from repro.store import basis_key, store_flush_interval, store_replay_budget
from repro.store import serde as store_serde

from repro.serve.coalesce import RequestCoalescer
from repro.serve.metrics import MetricsRegistry
from repro.serve.resilience import (
    BreakerBoard,
    ResilientExecutor,
    RetryPolicy,
)
from repro.serve.scheduler import (
    DeadlineScheduler,
    Priority,
    ServeRequest,
    degraded_budget,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

    from repro.catalog.query import Query

__all__ = [
    "OptimizationServer",
    "RequestStatus",
    "ServeResult",
    "ServeTicket",
]

logger = logging.getLogger("repro.serve")


class RequestStatus(enum.Enum):
    """Final disposition of one request."""

    COMPLETED = "completed"
    REJECTED = "rejected"
    TIMED_OUT = "timed_out"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class ServeResult:
    """What one request got back, with serving-side accounting.

    ``result`` is the unified :class:`~repro.api.PlanResult` (``None``
    unless ``status`` is ``COMPLETED``).  ``coalesced`` marks followers
    that were answered by another request's optimization;
    ``degraded_budget`` is the reduced time budget a deadline imposed
    (``None`` when the default budget applied).
    """

    status: RequestStatus
    algorithm: str
    result: PlanResult | None = None
    error: str | None = None
    coalesced: bool = False
    degraded_budget: float | None = None
    wait_seconds: float = 0.0
    service_seconds: float = 0.0
    total_seconds: float = 0.0
    #: Trace id of this request's :mod:`repro.obs` trace (``None`` when
    #: tracing was off or the request was not sampled).  Also echoed in
    #: ``result.diagnostics["trace_id"]`` for completed requests.
    trace_id: str | None = None

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.COMPLETED


class ServeTicket:
    """Handle on a submitted request: block on :meth:`result`."""

    def __init__(
        self,
        request: ServeRequest,
        on_cancel: Callable[[ServeRequest], None] | None = None,
    ) -> None:
        self._request = request
        #: Set only for coalesced followers: detaches the follower from
        #: its leader so a cancel resolves it at once.
        self._on_cancel = on_cancel

    @property
    def future(self) -> "Future[ServeResult]":
        return self._request.future

    def result(self, timeout: float | None = None) -> ServeResult:
        """The request's :class:`ServeResult` (blocks until resolved)."""
        return self._request.future.result(timeout)

    def done(self) -> bool:
        return self._request.future.done()

    def cancel(self, reason: str = "cancelled by client") -> None:
        """Cooperatively cancel this request.

        Queued requests resolve ``CANCELLED`` when a worker (or the
        sharded hub's dispatcher) picks them up; in-flight solves stop
        at their next cancellation poll (the MILP checks between
        pivots) and resolve with their best-so-far plan (``COMPLETED``)
        or ``CANCELLED`` when nothing was found.  On the sharded tier
        the hub forwards the cancel to the shard holding the request.
        A coalesced follower resolves ``CANCELLED`` at once, while its
        leader's solve runs on.  Already-resolved requests are
        unaffected.
        """
        if self._request.cancel_token is not None:
            self._request.cancel_token.cancel(reason)
        if self._on_cancel is not None:
            self._on_cancel(self._request)


def _priority(value: "Priority | str | int") -> Priority:
    if isinstance(value, Priority):
        return value
    if isinstance(value, str):
        try:
            return Priority[value.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown priority {value!r}; expected one of "
                f"{[p.name.lower() for p in Priority]}"
            ) from None
    return Priority(value)


def _cancelled(request: ServeRequest, wait: float = 0.0) -> ServeResult:
    """The outcome of a request its client cancelled before it ran."""
    return ServeResult(
        status=RequestStatus.CANCELLED,
        algorithm=request.algorithm,
        error=f"cancelled: {request.cancel_token.reason}",
        wait_seconds=wait,
    )


class _RequestLifecycle:
    """The request lifecycle both serving front ends share.

    admit → coalesce → resolve once → account: deadline and priority
    validation, the per-request :class:`CancelToken` and trace, the
    algorithm check, coalescing, admission control, idempotent
    resolution with follower fan-out, and the request counters and
    histograms.  Subclasses supply the executor that drains
    :attr:`scheduler` — worker threads (:class:`OptimizationServer`) or
    shard processes (:class:`~repro.serve.sharded.ShardedOptimizationServer`)
    — plus ``start``/``stop`` and a ``catalog_version``.
    """

    def __init__(
        self,
        *,
        queue_capacity: int,
        coalesce: bool,
        default_deadline: float | None,
    ) -> None:
        self.scheduler = DeadlineScheduler(queue_capacity)
        self.coalescer = RequestCoalescer() if coalesce else None
        self.default_deadline = default_deadline
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._started = False

        m = self.metrics
        self._requests_total = m.counter(
            "serve_requests_total", "requests submitted")
        self._completed = m.counter(
            "serve_completed_total", "requests answered with a result")
        self._rejected = m.counter(
            "serve_rejected_total", "requests shed by admission control")
        self._timed_out = m.counter(
            "serve_timed_out_total", "requests whose deadline expired")
        self._failed = m.counter(
            "serve_failed_total", "requests that raised")
        self._cancelled = m.counter(
            "serve_cancelled_total", "requests cancelled cooperatively")
        self._coalesced = m.counter(
            "serve_coalesced_total", "requests answered by another's solve")
        self._slow_requests = m.counter(
            "serve_slow_requests_total",
            "traced requests slower than the tracer's slow threshold")
        self._errors = m.counter_family(
            "errors_total", "errors by exception type")
        self._queue_depth = m.gauge(
            "serve_queue_depth", "requests waiting in the scheduler")
        self._wait_hist = m.histogram(
            "serve_wait_seconds", "queue wait time")
        self._total_hist = m.histogram(
            "serve_total_seconds", "submit-to-resolve latency")

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop(drain=True)

    @property
    def started(self) -> bool:
        with self._lock:
            return self._started

    def _algorithms(self) -> tuple[str, ...]:
        """Registry keys this server can run."""
        return available_algorithms()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        query: "Query",
        algorithm: str = "auto",
        *,
        priority: "Priority | str | int" = Priority.NORMAL,
        deadline: float | None = None,
        trace_context: dict | None = None,
    ) -> ServeTicket:
        """Submit ``query`` for optimization; returns immediately.

        ``deadline`` is relative seconds from now; it both schedules the
        request (earliest deadline first within its priority class) and
        caps its optimization budget.  The ticket's future always
        resolves — ``REJECTED`` synchronously when admission sheds the
        request, ``FAILED`` synchronously for an unknown algorithm,
        ``TIMED_OUT``/``FAILED``/``CANCELLED``/``COMPLETED`` from the
        executor.

        ``trace_context`` is a serialized :func:`repro.obs.serialize_context`
        dict from an upstream process (the sharded hub): the request's
        trace then *continues* the upstream trace under the same id
        instead of starting a fresh one, so one request that crossed
        the shard wire reads as one trace.
        """
        # Validate before counting, so a raised ValueError leaves the
        # submitted/resolved counters balanced.  NaN would sail through
        # an `<= 0` check and then poison the EDF heap and the solver's
        # time-limit comparisons.
        resolved_priority = _priority(priority)
        effective = (
            deadline if deadline is not None else self.default_deadline
        )
        if effective is not None and not (
            math.isfinite(effective) and effective > 0
        ):
            raise ValueError(
                "deadline must be a positive finite number of seconds"
            )
        self._requests_total.inc()
        request = ServeRequest(
            query=query,
            algorithm=algorithm,
            priority=resolved_priority,
        )
        if effective is not None:
            request.deadline = request.submitted + effective
        request.cancel_token = CancelToken(deadline=request.deadline)
        trace = obs.continue_trace(
            "request",
            trace_context,
            algorithm=algorithm,
            priority=resolved_priority.name.lower(),
            query=getattr(query, "name", "?"),
        )
        if trace:
            request.trace = trace
        if self.scheduler.closed:
            # A stopped server stays stopped: the scheduler cannot
            # reopen, so restarting the executor would only dress the
            # rejection up as a transient "queue full".
            self._resolve_rejection(request, "server stopped")
            return ServeTicket(request)
        # Benign double-checked fast path: start() re-checks under the
        # lock, so the worst case is one redundant call.
        if not self._started:
            self.start()
        algorithms = self._algorithms()
        if algorithm not in algorithms:
            self._resolve(request, ServeResult(
                status=RequestStatus.FAILED,
                algorithm=algorithm,
                error=(
                    f"unknown algorithm {algorithm!r}; registered: "
                    f"{', '.join(algorithms)}"
                ),
            ))
            return ServeTicket(request)
        request.key = (
            self.catalog_version,
            algorithm,
            query_signature(query),
        )
        # Only deadline-free requests coalesce: a deadline carrier must
        # get its own (possibly degraded) budget and its own timeout
        # disposition, and conversely a deadline-free request must never
        # inherit a leader's deadline-truncated plan or TIMED_OUT — the
        # same quality invariant that keeps degraded solves out of the
        # plan cache.
        if self.coalescer is not None and request.deadline is None:
            if not self.coalescer.lead_or_follow(request.key, request):
                # Follower: answered by the leader, consumes nothing.
                self._coalesced.inc()
                return ServeTicket(request, self._cancel_follower)
            request.leads = True
        # The admission span nests under the request root: attach the
        # root to the submitting thread for the duration of the offer.
        with obs.attach(request.trace):
            admitted = self.scheduler.offer(request)
        if not admitted:
            self._resolve_rejection(request, "queue full")
            return ServeTicket(request)
        self._queue_depth.set(len(self.scheduler))
        return ServeTicket(request)

    def optimize(
        self,
        query: "Query",
        algorithm: str = "auto",
        *,
        priority: "Priority | str | int" = Priority.NORMAL,
        deadline: float | None = None,
        timeout: float | None = None,
    ) -> ServeResult:
        """Synchronous convenience: submit and block for the result."""
        ticket = self.submit(
            query, algorithm, priority=priority, deadline=deadline
        )
        return ticket.result(timeout)

    def _resolve_if_cancelled(
        self, request: ServeRequest, wait: float
    ) -> bool:
        """Resolve ``CANCELLED`` a request cancelled while it was still
        queued, so it never starts; ``True`` when it was."""
        token = request.cancel_token
        if token is None or not token.cancel_requested:
            return False
        self._finish(request, _cancelled(request, wait))
        return True

    def _cancel_follower(self, request: ServeRequest) -> None:
        """Detach a cancelled coalesced follower from its leader and
        resolve it ``CANCELLED``; the leader's solve runs on for the
        requests still waiting on it.  A follower the leader already
        took is resolved by :meth:`_finish`."""
        if self.coalescer.detach(request.key, request):
            self._resolve(request, _cancelled(request))

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def _finish(self, request: ServeRequest, outcome: ServeResult) -> None:
        """Resolve ``request`` and every follower coalesced onto it."""
        # Only deadline-free requests coalesce (see submit), so every
        # follower here was willing to wait for the full-budget answer
        # it is handed — no late-delivery or quality mismatch to check.
        followers = (
            self.coalescer.complete(request.key) if request.leads else []
        )
        self._resolve(request, outcome)
        for follower in followers:
            if follower.cancel_token.cancel_requested:
                # Cancelled after the leader took its followers: the
                # cancel lost the race to detach, not its effect.
                self._resolve(follower, _cancelled(follower))
                continue
            self._resolve(follower, replace(
                outcome,
                coalesced=True,
                wait_seconds=0.0,
                service_seconds=0.0,
            ))

    def _resolve(self, request: ServeRequest, outcome: ServeResult) -> None:
        total = time.monotonic() - request.submitted
        outcome.total_seconds = total
        trace = request.trace
        if trace:
            outcome.trace_id = trace.trace_id
            if outcome.result is not None and "trace_id" not in (
                outcome.result.diagnostics
            ):
                # Never mutate a possibly-cached PlanResult shared with
                # other requests: echo the trace id on a copy (the same
                # discipline the resilience ladder uses for its
                # degradation record).
                outcome.result = replace(
                    outcome.result,
                    diagnostics={
                        **outcome.result.diagnostics,
                        "trace_id": trace.trace_id,
                    },
                )
        # set_result-first makes resolution idempotent and atomic: an
        # executor answering late and the watchdog, shard-death
        # disposition or deadline backstop that already gave up on it
        # may both call this, and exactly one may count.
        try:
            request.future.set_result(outcome)
        # repro: allow[NUM-004] the documented idempotent-resolve site: executor and watchdog/backstop may race, exactly one counts
        except InvalidStateError:
            return
        if trace:
            self._finish_trace(request, trace, outcome)
        self._total_hist.observe(total)
        counter = {
            RequestStatus.COMPLETED: self._completed,
            RequestStatus.REJECTED: self._rejected,
            RequestStatus.TIMED_OUT: self._timed_out,
            RequestStatus.FAILED: self._failed,
            RequestStatus.CANCELLED: self._cancelled,
        }[outcome.status]
        counter.inc()

    def _finish_trace(
        self, request: ServeRequest, trace: "obs.Span", outcome: ServeResult
    ) -> None:
        """Close the request's root span (publishing the trace through
        the tracer's sampling verdict) and emit the structured
        slow-request log line with the span breakdown."""
        if request.queue_span is not None:
            request.queue_span.finish()
        trace.annotate(status=outcome.status.value)
        if outcome.coalesced:
            trace.annotate(coalesced=True)
        trace.finish()
        duration_ms = trace.trace.duration_ms()
        tracer = obs.active()
        if tracer is not None and duration_ms >= tracer.slow_ms:
            self._slow_requests.inc()
            logger.warning(
                "slow request trace_id=%s status=%s algorithm=%s "
                "total_ms=%.1f wait_ms=%.1f breakdown=%s",
                trace.trace_id, outcome.status.value, outcome.algorithm,
                duration_ms, outcome.wait_seconds * 1000.0,
                trace.trace.breakdown(),
            )

    def _resolve_rejection(self, request: ServeRequest, reason: str) -> None:
        """``REJECTED``-resolve a request that never ran, and the
        followers coalesced onto it (they would otherwise wait forever
        on an outcome that never comes)."""
        if request.leads:
            for follower in self.coalescer.withdraw(request.key):
                self._resolve(follower, ServeResult(
                    status=RequestStatus.REJECTED,
                    algorithm=follower.algorithm,
                    error=reason,
                ))
        self._resolve(request, ServeResult(
            status=RequestStatus.REJECTED,
            algorithm=request.algorithm,
            error=reason,
        ))

    def _reject_queued(self) -> None:
        """Reject every request still in the scheduler (shutdown)."""
        for request in self.scheduler.drain():
            self._resolve_rejection(request, "server shutting down")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """The request, coalescing, latency, queue and error sections
        both front ends report; subclasses add their executor's."""
        requests = self._requests_total.value
        coalesced = self._coalesced.value
        return {
            "requests": {
                "submitted": requests,
                "completed": self._completed.value,
                "rejected": self._rejected.value,
                "timed_out": self._timed_out.value,
                "failed": self._failed.value,
                "cancelled": self._cancelled.value,
            },
            "coalesce": {
                "coalesced": coalesced,
                "rate": coalesced / requests if requests else 0.0,
                "in_flight": (
                    self.coalescer.in_flight()
                    if self.coalescer is not None else 0
                ),
            },
            "latency": {
                "wait": self._wait_hist.snapshot(),
                "total": self._total_hist.snapshot(),
            },
            "queue": {
                "depth": len(self.scheduler),
                "capacity": self.scheduler.capacity,
                "offered": self.scheduler.offered,
                "shed": self.scheduler.shed,
            },
            "errors": self._errors.as_dict(),
        }

    def stats(self) -> dict:
        """The ``GET /stats`` payload: :meth:`metrics_snapshot`, under
        the name the HTTP layer calls on either front end."""
        return self.metrics_snapshot()


class OptimizationServer(_RequestLifecycle):
    """Async optimization server over an :class:`OptimizerService`.

    Parameters
    ----------
    settings:
        Base :class:`OptimizerSettings`.  The server copies them and
        wires the shared basis pool into ``extra["solver_options"]``
        (an existing ``solver_options`` entry is preserved, only its
        ``basis_pool`` is filled in).
    workers:
        Worker-thread count — concurrent optimizations in flight.
    queue_capacity:
        Bound on queued (not yet running) requests; beyond it
        submissions are ``REJECTED`` (load shedding).
    default_deadline:
        Deadline in seconds applied to requests submitted without one
        (``None`` = no implicit deadline).
    coalesce:
        Collapse concurrent identical requests into one optimization.
    share_bases:
        Wire the cross-query :class:`BasisExchangePool` through
        ``SolverOptions.basis_pool``.
    service:
        Pre-built :class:`OptimizerService` to serve from (tests,
        custom registries).  When given, ``settings`` is ignored and
        basis-pool wiring is skipped — the caller owns the service
        configuration.
    cache_entries:
        Plan-cache capacity of the internally built service.
    store:
        Optional :class:`repro.store.PlanStore`.  The service serves
        write-through/read-through from it, and the server adds the
        lifecycle around it: warm-up replay on :meth:`start` (hot plans
        into the plan cache, basis snapshots into the exchange pool,
        bounded by ``replay_budget``, before any worker accepts
        traffic), periodic flush from the watchdog, and a final flush
        on ``stop(drain=True)``.  Store failures never fail requests.
    replay_budget:
        Maximum plans (and basis snapshots) replayed at start; defaults
        to ``REPRO_STORE_REPLAY_BUDGET``.
    flush_interval:
        Seconds between periodic store flushes; defaults to
        ``REPRO_STORE_FLUSH_INTERVAL``.

    Examples
    --------
    >>> from repro.workloads import QueryGenerator
    >>> queries = [QueryGenerator(seed=s).generate("star", 5) for s in range(3)]
    >>> with OptimizationServer(workers=2) as server:
    ...     tickets = [server.submit(q, "greedy") for q in queries]
    ...     all(t.result(30).ok for t in tickets)
    True
    """

    def __init__(
        self,
        settings: OptimizerSettings | None = None,
        *,
        workers: int = 4,
        queue_capacity: int = 64,
        default_deadline: float | None = None,
        coalesce: bool = True,
        share_bases: bool = True,
        service: OptimizerService | None = None,
        cache_entries: int = 1024,
        store=None,
        replay_budget: int | None = None,
        flush_interval: float | None = None,
        budget_safety: float = 0.9,
        min_budget: float = 0.05,
        retry_policy: RetryPolicy | None = None,
        breakers: BreakerBoard | None = None,
        enable_ladder: bool = True,
        watchdog_interval: float = 0.1,
        wedge_grace: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if watchdog_interval <= 0:
            raise ValueError("watchdog_interval must be positive")
        if wedge_grace <= 0:
            raise ValueError("wedge_grace must be positive")
        super().__init__(
            queue_capacity=queue_capacity,
            coalesce=coalesce,
            default_deadline=default_deadline,
        )
        self.basis_pool: BasisExchangePool | None = None
        if service is not None:
            self.service = service
            if store is not None and self.service.store is None:
                # Attach the store to a caller-built service so the
                # read/write-through path exists for the replay to feed.
                self.service.store = store
            elif store is None:
                store = self.service.store
        else:
            settings = settings or OptimizerSettings()
            if share_bases:
                self.basis_pool = BasisExchangePool()
                settings = self._wire_basis_pool(settings, self.basis_pool)
            self.service = OptimizerService(
                settings=settings,
                max_workers=workers,
                max_entries=cache_entries,
                store=store,
            )
        self.store = store
        self.replay_budget = (
            int(replay_budget) if replay_budget is not None
            else store_replay_budget()
        )
        self.flush_interval = (
            float(flush_interval) if flush_interval is not None
            else store_flush_interval()
        )
        self._last_flush = time.monotonic()
        #: store.stats values already folded into the metrics counters
        #: (the counters are monotonic; the sync applies deltas).
        self._store_synced = {"hits": 0, "writes": 0}
        self.budget_safety = budget_safety
        self.min_budget = min_budget
        self.resilience = ResilientExecutor(
            self.service,
            retry=retry_policy,
            breakers=breakers,
            enable_ladder=enable_ladder,
        )
        self.watchdog_interval = watchdog_interval
        self.wedge_grace = wedge_grace
        self._workers: list[threading.Thread] = []
        self._num_workers = workers
        #: What each live worker thread is optimizing right now; the
        #: watchdog walks this to fire deadline cancellations and to
        #: detect wedged workers.
        self._inflight: dict[threading.Thread, ServeRequest] = {}
        #: When the watchdog first saw each in-flight request overdue
        #: (cancelled token but still running), keyed by id(request).
        self._overdue_since: dict[int, float] = {}
        #: Threads written off as wedged; never joined, never reused.
        self._wedged: set[threading.Thread] = set()
        self._watchdog_thread: threading.Thread | None = None
        self._watchdog_stop = threading.Event()
        self._worker_seq = 0

        m = self.metrics
        self._optimizations = m.counter(
            "serve_optimizations_total",
            "optimizer invocations (cache hits included, followers not)")
        self._degraded = m.counter(
            "serve_degraded_total", "requests run under a reduced budget")
        self._retries = m.counter(
            "serve_retries_total", "transient-failure retries")
        self._ladder_descents = m.counter(
            "serve_ladder_descents_total",
            "requests answered below their requested rung")
        self._workers_replaced = m.counter(
            "serve_workers_replaced_total",
            "wedged workers written off and replaced")
        self._busy_workers = m.gauge(
            "serve_busy_workers", "workers currently optimizing")
        self._service_hist = m.histogram(
            "serve_service_seconds", "optimization time")
        self._store_hits = m.counter(
            "store_hits_total", "plan-store reads answered from disk")
        self._store_writes = m.counter(
            "store_writes_total", "plan-store records written")
        self._store_replay_seconds = m.gauge(
            "store_replay_seconds", "duration of the start-up warm replay")
        self._store_replayed_plans = m.gauge(
            "store_replayed_plans", "plans preloaded by the warm replay")
        self._store_replayed_bases = m.gauge(
            "store_replayed_bases", "bases preloaded by the warm replay")

    @staticmethod
    def _wire_basis_pool(
        settings: OptimizerSettings, pool: BasisExchangePool
    ) -> OptimizerSettings:
        """Copy ``settings`` with ``extra["solver_options"].basis_pool``
        pointing at the shared pool (existing options preserved)."""
        extra = dict(settings.extra)
        base = extra.get("solver_options")
        if base is None:
            options = SolverOptions(time_limit=settings.time_limit)
        else:
            options = replace(base)
        if options.basis_pool is None:
            options.basis_pool = pool
        extra["solver_options"] = options
        return replace(settings, extra=extra)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "OptimizationServer":
        """Spawn the worker pool and the deadline watchdog (idempotent).

        With a store attached, the warm-up replay runs *before* the
        first worker exists: the plan cache and the basis pool are
        seeded from the last durable state, so the very first admitted
        request can hit a warm cache instead of racing the replay.
        """
        with self._lock:
            if self._started:
                return self
            self._started = True
        if self.store is not None:
            self._warm_replay()
        with self._lock:
            if not self._started:  # stopped during replay
                return self
            for _ in range(self._num_workers):
                self._spawn_worker_locked()
            self._watchdog_stop.clear()
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop,
                name="serve-watchdog",
                daemon=True,
            )
            self._watchdog_thread.start()
        return self

    def _spawn_worker_locked(self) -> threading.Thread:
        """Start one worker thread; caller holds ``self._lock``."""
        thread = threading.Thread(
            target=self._worker_loop,
            name=f"serve-worker-{self._worker_seq}",
            daemon=True,
        )
        self._worker_seq += 1
        thread.start()
        self._workers.append(thread)
        return thread

    def _warm_replay(self) -> None:
        """Seed the plan cache and basis pool from the store.

        Bounded by :attr:`replay_budget` on each keyspace and entirely
        best-effort: a throwing or corrupt store leaves the server
        starting cold, exactly as if no store were attached.  Duration
        and counts land in the ``store_replay_*`` metrics.
        """
        started = time.monotonic()
        plans = 0
        bases = 0
        try:
            plans = self.service.replay_from_store(self.replay_budget)
        except Exception as error:  # noqa: BLE001 - replay is best-effort
            logger.warning("plan replay failed; starting cold: %s", error)
        if self.basis_pool is not None:
            try:
                rows = self.store.bases(self.replay_budget)
            except Exception as error:  # noqa: BLE001
                logger.warning(
                    "basis replay failed; starting cold: %s", error
                )
                rows = []
            for _signature, payload in rows:
                try:
                    self.basis_pool.publish(store_serde.decode_basis(payload))
                    bases += 1
                except store_serde.StoreCorruptionError:
                    continue
        duration = time.monotonic() - started
        self._store_replay_seconds.set(duration)
        self._store_replayed_plans.set(plans)
        self._store_replayed_bases.set(bases)
        if plans or bases:
            logger.info(
                "warm replay: %d plans, %d bases in %.3fs",
                plans, bases, duration,
            )

    def _flush_store(self) -> None:
        """Persist the basis pool and flush the store (best-effort)."""
        if self.store is None:
            return
        if self.basis_pool is not None:
            for signature, basis in self.basis_pool.entries():
                try:
                    self.store.put_basis(
                        basis_key(signature), store_serde.encode_basis(basis)
                    )
                except Exception:  # noqa: BLE001 - flush is best-effort
                    logger.debug(
                        "basis flush failed for %s", signature, exc_info=True
                    )
        try:
            self.store.flush()
        except Exception as error:  # noqa: BLE001
            logger.warning("store flush failed: %s", error)
        self._last_flush = time.monotonic()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut the server down; every outstanding future still resolves.

        ``drain=True`` (graceful): stop admitting, let the workers
        finish everything already queued, then exit.  ``drain=False``:
        stop admitting, ``REJECTED``-resolve everything still queued
        (and its followers), cancel in-flight solves cooperatively, and
        exit as soon as they stop.  Worker threads are joined up to
        ``timeout`` seconds total — except threads the watchdog already
        wrote off as wedged, which are skipped rather than waited on.
        Whatever is still unresolved when the join budget runs out
        (requests held by wedged workers, stragglers in the queue) is
        force-resolved — ``TIMED_OUT`` for in-flight work, ``REJECTED``
        for never-started queue leftovers — so no client blocks forever
        on a future the server can no longer honor.
        """
        self.scheduler.close()
        if not drain:
            self._reject_queued()
            with self._lock:
                inflight = list(self._inflight.values())
            for request in inflight:
                if request.cancel_token is not None:
                    request.cancel_token.cancel("server shutting down")
        deadline = time.monotonic() + timeout
        for thread in list(self._workers):
            if thread in self._wedged:
                continue  # provably stuck; waiting only burns the budget
            thread.join(max(0.0, deadline - time.monotonic()))
        self._watchdog_stop.set()
        with self._lock:
            watchdog = self._watchdog_thread
        if watchdog is not None:
            watchdog.join(max(0.1, deadline - time.monotonic()))
        # Leftover resolution: nothing a dead server holds may dangle.
        with self._lock:
            stuck = list(self._inflight.items())
        for thread, request in stuck:
            if thread.is_alive():
                logger.error(
                    "worker %s still wedged at shutdown; "
                    "force-resolving its request", thread.name,
                )
                self._finish(request, ServeResult(
                    status=RequestStatus.TIMED_OUT,
                    algorithm=request.algorithm,
                    error="server stopped while request was wedged in flight",
                ))
        self._reject_queued()
        if drain:
            # Graceful exit persists the working set (plans were written
            # through as they were solved; bases live only in the pool
            # until here).  A non-drain stop deliberately skips this —
            # it is the kill-9 rehearsal, and recovery must work from
            # the last periodic flush alone.
            self._flush_store()
        with self._lock:
            self._workers.clear()
            self._watchdog_thread = None
            self._started = False

    @property
    def catalog_version(self) -> int:
        return self.service.catalog_version

    def _algorithms(self) -> tuple[str, ...]:
        return self.service.algorithms()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        me = threading.current_thread()
        while True:
            if me in self._wedged:
                # The watchdog wrote this thread off and already
                # resolved its request; a replacement carries the queue.
                return
            request = self.scheduler.take(timeout=0.2)
            self._queue_depth.set(len(self.scheduler))
            if request is None:
                if self.scheduler.closed and not len(self.scheduler):
                    return
                continue
            self._busy_workers.inc()
            with self._lock:
                self._inflight[me] = request
            try:
                self._process(request)
            finally:
                with self._lock:
                    self._inflight.pop(me, None)
                    self._overdue_since.pop(id(request), None)
                self._busy_workers.dec()

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------

    def _watchdog_loop(self) -> None:
        """Fire deadline cancellations; write off wedged workers.

        Two escalation steps per in-flight request: first the request's
        token is cancelled the moment its deadline passes (the solver
        polls it between pivots and stops within milliseconds); if a
        worker *still* has not returned ``wedge_grace`` seconds after
        its token fired — a backend stuck in native code where no poll
        can reach — the request is force-resolved ``TIMED_OUT``, the
        thread is written off, and a replacement worker is spawned so
        pool capacity survives the loss.
        """
        while not self._watchdog_stop.wait(self.watchdog_interval):
            now = time.monotonic()
            if (
                self.store is not None
                and now - self._last_flush >= self.flush_interval
            ):
                self._flush_store()
            with self._lock:
                inflight = list(self._inflight.items())
            for thread, request in inflight:
                token = request.cancel_token
                if token is None:
                    continue
                if not token.cancelled:
                    continue  # deadline not reached, nobody cancelled
                key = id(request)
                with self._lock:
                    first = self._overdue_since.setdefault(key, now)
                if now - first < self.wedge_grace:
                    continue
                self._write_off_wedged(thread, request)

    def _write_off_wedged(
        self, thread: threading.Thread, request: ServeRequest
    ) -> None:
        """Give up on a worker that ignored cancellation past the grace
        period: resolve its request honestly, replace the thread."""
        with self._lock:
            # Re-check under the lock: the worker may have finished
            # between the watchdog's snapshot and now.
            if self._inflight.get(thread) is not request:
                return
            del self._inflight[thread]
            self._overdue_since.pop(id(request), None)
            self._wedged.add(thread)
            if thread in self._workers:
                self._workers.remove(thread)
            replace_worker = self._started and not self.scheduler.closed
            if replace_worker:
                self._spawn_worker_locked()
        logger.error(
            "worker %s wedged (no response %.1fs after cancellation); "
            "request resolved TIMED_OUT%s",
            thread.name, self.wedge_grace,
            ", replacement spawned" if replace_worker else "",
        )
        self._workers_replaced.inc()
        self._errors.labels(type="WedgedWorker").inc()
        self._finish(request, ServeResult(
            status=RequestStatus.TIMED_OUT,
            algorithm=request.algorithm,
            error="worker wedged past deadline; written off",
        ))

    def _process(self, request: ServeRequest) -> None:
        """Worker-side entry: adopt the request's trace context (the
        explicit cross-thread handoff), close its queue-wait span, and
        run the pipeline under the root span."""
        if request.queue_span is not None:
            request.queue_span.finish()
        with obs.attach(request.trace):
            self._process_attached(request)

    def _process_attached(self, request: ServeRequest) -> None:
        now = time.monotonic()
        request.started = now
        wait = now - request.submitted
        self._wait_hist.observe(wait)
        if self._resolve_if_cancelled(request, wait):
            return

        remaining = request.remaining(now)
        budget = degraded_budget(
            request,
            self.service.settings.time_limit,
            safety=self.budget_safety,
            min_budget=self.min_budget,
            now=now,
        )
        if (remaining is not None and remaining <= 0) or budget == 0.0:
            self._finish(
                request,
                ServeResult(
                    status=RequestStatus.TIMED_OUT,
                    algorithm=request.algorithm,
                    error="deadline expired before optimization started",
                    wait_seconds=wait,
                ),
            )
            return

        if budget is not None:
            # A full-budget plan already cached for this query beats any
            # degraded fresh solve: instant (meets every deadline) and
            # higher quality.
            cached = self.service.cached_result(
                request.query, request.algorithm
            )
            if cached is not None:
                self._finish(request, ServeResult(
                    status=RequestStatus.COMPLETED,
                    algorithm=cached.algorithm,
                    result=cached,
                    wait_seconds=wait,
                ))
                return
            self._degraded.inc()
        started_solve = time.monotonic()
        try:
            self._optimizations.inc()
            # Degraded budgets are near-unique floats (derived from the
            # remaining deadline) and budget is part of the plan-cache
            # key: storing those results would fill the LRU with
            # entries no later request can ever match — and serving
            # them to full-budget requests would hand out deadline-
            # truncated (lower-quality) plans.  Degraded solves are
            # answered from the full-budget cache above when possible
            # and otherwise solved fresh without touching the cache.
            outcome = self.resilience.execute(
                request.query,
                request.algorithm,
                budget=budget,
                use_cache=budget is None,
                cancel_token=request.cancel_token,
            )
        except Exception as error:  # noqa: BLE001 - server must not die
            # The resilience executor absorbs optimizer failures; only
            # a bug in the serving stack itself lands here.  Log it
            # with the traceback — a bare FAILED result hides exactly
            # the kind of defect this path exists to surface.
            logger.exception(
                "unhandled error serving %s request for %r",
                request.algorithm, getattr(request.query, "name", "?"),
            )
            self._errors.labels(type=type(error).__name__).inc()
            self._finish(
                request,
                ServeResult(
                    status=RequestStatus.FAILED,
                    algorithm=request.algorithm,
                    error=f"{type(error).__name__}: {error}",
                    wait_seconds=wait,
                    service_seconds=time.monotonic() - started_solve,
                ),
            )
            return
        service_seconds = time.monotonic() - started_solve
        self._service_hist.observe(service_seconds)
        if outcome.retries:
            self._retries.inc(outcome.retries)
        if outcome.degraded:
            self._ladder_descents.inc()
        if outcome.result is not None:
            self._finish(
                request,
                ServeResult(
                    status=RequestStatus.COMPLETED,
                    algorithm=outcome.result.algorithm,
                    result=outcome.result,
                    degraded_budget=budget,
                    wait_seconds=wait,
                    service_seconds=service_seconds,
                ),
            )
            return
        if outcome.cancelled is not None:
            status = (
                RequestStatus.TIMED_OUT
                if outcome.cancelled == "deadline expired"
                else RequestStatus.CANCELLED
            )
            self._finish(
                request,
                ServeResult(
                    status=status,
                    algorithm=request.algorithm,
                    error=f"cancelled: {outcome.cancelled}",
                    wait_seconds=wait,
                    service_seconds=service_seconds,
                ),
            )
            return
        error = outcome.error or "optimization failed"
        logger.warning(
            "%s request for %r failed every rung: %s",
            request.algorithm, getattr(request.query, "name", "?"), error,
        )
        self._errors.labels(type=error.split(":", 1)[0]).inc()
        self._finish(
            request,
            ServeResult(
                status=RequestStatus.FAILED,
                algorithm=request.algorithm,
                error=error,
                wait_seconds=wait,
                service_seconds=service_seconds,
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _sync_store_metrics(self) -> None:
        """Fold the store's own counters into the metrics registry.

        The store counts internally (it is shared with non-serving
        callers); the registry counters are monotonic, so the sync
        applies deltas since the last exposition.
        """
        if self.store is None:
            return
        stats = self.store.stats
        for name, counter in (
            ("hits", self._store_hits),
            ("writes", self._store_writes),
        ):
            current = getattr(stats, name)
            delta = current - self._store_synced[name]
            if delta > 0:
                counter.inc(delta)
                self._store_synced[name] = current

    def metrics_snapshot(self) -> dict:
        """One JSON-friendly view across server, cache, LP and pool."""
        self._sync_store_metrics()
        with self._lock:
            wedged = len(self._wedged)
        snapshot = super().metrics_snapshot()
        snapshot["requests"]["degraded"] = self._degraded.value
        snapshot["latency"]["service"] = self._service_hist.snapshot()
        snapshot.update({
            "optimizations": self._optimizations.value,
            "cache": {
                "hits": self.service.stats.hits,
                "misses": self.service.stats.misses,
                "hit_rate": self.service.stats.hit_rate,
                "evictions": self.service.stats.evictions,
                "size": self.service.cache_size(),
            },
            "lp": self.service.lp_stats.as_dict(),
            "resilience": {
                "retries": self._retries.value,
                "ladder_descents": self._ladder_descents.value,
                "workers_replaced": self._workers_replaced.value,
                "breakers": self.resilience.breakers.as_dict(),
            },
            # One place for every "the serving tier replaced a broken
            # part" counter — thread-level here, process-level (shard
            # respawns/kills/retries) added by the sharded front end.
            "supervision": {
                "workers_replaced": self._workers_replaced.value,
                "wedged_workers": wedged,
                "shard_respawns": 0,
                "shard_kills": 0,
                "shard_retries": 0,
            },
        })
        if self.basis_pool is not None:
            snapshot["basis_pool"] = self.basis_pool.as_dict()
        if self.store is not None:
            try:
                summary = self.store.summary()
            except Exception as error:  # noqa: BLE001 - stats must not fail
                summary = {"error": f"{type(error).__name__}: {error}"}
            summary["replay"] = {
                "seconds": self._store_replay_seconds.value,
                "plans": self._store_replayed_plans.value,
                "bases": self._store_replayed_bases.value,
                "budget": self.replay_budget,
            }
            snapshot["store"] = summary
        return snapshot

    def metrics_text(self) -> str:
        """Prometheus-style text exposition (``GET /metrics``)."""
        self._sync_store_metrics()
        return self.metrics.expose()
