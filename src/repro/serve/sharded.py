"""Multi-process sharded optimization serving.

:class:`ShardedOptimizationServer` shares the single-process
:class:`~repro.serve.server.OptimizationServer`'s request lifecycle —
``submit``/``optimize``/``stats``, the same
:class:`~repro.serve.scheduler.DeadlineScheduler` admission, the same
deadline-free request coalescing, cancellation and resolve-once
accounting, all inherited from one base class — but executes every
optimization in one of N shard child processes, each running a full
inner server (worker pool, resilience ladder, shard-local plan cache,
:class:`~repro.milp.lp_backend.BasisExchangePool`, per-shard store
with warm replay).  Pure-python MILP solves serialize on the GIL; the
process boundary is what actually buys concurrent solves.

Request flow::

    submit → scheduler (admission, priority/EDF) → dispatcher thread
           → HashRing.route((catalog_version, query_signature))
           → shard breaker check → checksum-framed request over the pipe
    shard  → inner OptimizationServer → framed ServeResult back
    reader → resolve the hub future (idempotent) + per-shard metrics

Failure flow (the point of the module)::

    ShardSupervisor.tick → dead/silent shard → take_inflight()
        → deadline still allows and retries remain?  re-offer to the
          scheduler (routes to the next healthy ring owner)
        : deadline blown?  TIMED_OUT          — honest, never silent
        : retries exhausted?  FAILED with the shard's obituary
    → respawn with backoff → store-backed warm replay → ready →
      the ring walk finds the shard healthy again (no rebuild)

Consistent-hash routing keeps each key's plan cache and basis pool
shard-local and *hot across respawns*: a recovered shard owns exactly
its old keyspace, and its warm replay reloaded exactly those plans.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable

from repro import faultinject, obs

from repro.serve import shardwire
from repro.serve.metrics import render_labeled
from repro.serve.scheduler import ServeRequest
from repro.serve.server import (
    RequestStatus,
    ServeResult,
    _RequestLifecycle,
)
from repro.serve.ring import HashRing
from repro.serve.shard import (
    ShardConfig,
    shard_heartbeat_interval,
    shard_heartbeat_timeout,
    shard_max_retries,
    shard_start_method,
    shard_vnodes,
)
from repro.serve.supervisor import ShardHandle, ShardState, ShardSupervisor

__all__ = ["ShardedOptimizationServer"]

logger = logging.getLogger("repro.serve.shard")

#: Ceiling on how long a deadline-free request may sit on a shard
#: before the hub force-resolves it (the shard's own watchdog should
#: have answered long before; this is the hub's last-resort backstop).
DEFAULT_REQUEST_TIMEOUT = 300.0

#: Post-deadline grace before the hub force-resolves an overdue
#: request: the shard's watchdog normally reports the TIMED_OUT itself
#: (with better accounting); the hub only overrides a shard that went
#: quiet *without* being declared dead yet.
DEADLINE_GRACE = 2.0


class ShardedOptimizationServer(_RequestLifecycle):
    """N shard processes behind one scheduler, supervisor and ring.

    Parameters mirror :class:`~repro.serve.server.OptimizationServer`
    where they mean the same thing; the shard-specific knobs default
    from the ``REPRO_SHARD_*`` environment (documented in
    docs/operations.md).

    ``fault_specs``/``fault_seed`` seed each shard child's own
    deterministic :class:`~repro.faultinject.FaultPlan` (per-index
    seeds); hub-side sites (scheduler admission, the wire) use the
    process-global plan as usual.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        workers_per_shard: int = 2,
        queue_capacity: int = 128,
        shard_queue_capacity: int = 64,
        default_deadline: float | None = None,
        coalesce: bool = True,
        cost_model: str = "hash",
        time_limit: float = 30.0,
        seed: int = 0,
        precision: str = "high",
        store_path: str | None = None,
        store_backend: str | None = None,
        replay_budget: int | None = None,
        flush_interval: float | None = None,
        heartbeat_interval: float | None = None,
        heartbeat_timeout: float | None = None,
        supervisor_interval: float = 0.05,
        spawn_timeout: float = 60.0,
        max_retries: int | None = None,
        respawn: bool = True,
        respawn_backoff: float = 0.25,
        breaker_threshold: int = 5,
        breaker_reset: float = 5.0,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        vnodes: int | None = None,
        start_method: str | None = None,
        budget_safety: float = 0.9,
        min_budget: float = 0.05,
        fault_specs: tuple | None = None,
        fault_seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        super().__init__(
            queue_capacity=queue_capacity,
            coalesce=coalesce,
            default_deadline=default_deadline,
        )
        self.shards = shards
        self.request_timeout = request_timeout
        self.max_retries = (
            max_retries if max_retries is not None else shard_max_retries()
        )
        self.supervisor_interval = supervisor_interval
        self.clock = clock
        self._catalog_version = 0
        beat = (
            heartbeat_interval if heartbeat_interval is not None
            else shard_heartbeat_interval()
        )
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else shard_heartbeat_timeout()
        )
        configs = [
            ShardConfig(
                index=index,
                workers=workers_per_shard,
                queue_capacity=shard_queue_capacity,
                cost_model=cost_model,
                time_limit=time_limit,
                seed=seed,
                precision=precision,
                coalesce=coalesce,
                store_path=store_path,
                store_backend=store_backend,
                replay_budget=replay_budget,
                flush_interval=flush_interval,
                heartbeat_interval=beat,
                budget_safety=budget_safety,
                min_budget=min_budget,
                fault_seed=fault_seed,
                fault_specs=tuple(fault_specs or ()),
            )
            for index in range(shards)
        ]
        self.supervisor = ShardSupervisor(
            configs,
            on_failure=self._on_shard_failure,
            on_message=self._on_shard_message,
            on_ready=self._on_shard_ready,
            clock=clock,
            heartbeat_timeout=self.heartbeat_timeout,
            spawn_timeout=spawn_timeout,
            respawn=respawn,
            respawn_backoff=respawn_backoff,
            breaker_threshold=breaker_threshold,
            breaker_reset=breaker_reset,
            start_method=start_method or shard_start_method(),
        )
        self.ring = HashRing(
            shards, vnodes if vnodes is not None else shard_vnodes()
        )
        self._rid_lock = threading.Lock()
        self._next_rid = 1
        self._dispatcher: threading.Thread | None = None
        self._supervisor_thread: threading.Thread | None = None
        self._stop_loops = threading.Event()

        m = self.metrics
        self._dispatched = m.counter(
            "serve_dispatched_total", "requests shipped to a shard")
        self._shard_kills = m.counter(
            "serve_shard_kills_total", "shards declared dead")
        self._shard_respawns = m.counter(
            "serve_shard_respawns_total", "shard processes respawned")
        self._shard_retries = m.counter(
            "serve_shard_retries_total",
            "requests re-dispatched after a shard death")
        self._wire_corrupt = m.counter(
            "serve_wire_corrupt_total", "corrupt frames on the shard wire")
        self._healthy_shards = m.gauge(
            "serve_healthy_shards", "shards currently in the routing ring")
        self._shard_inflight = m.gauge(
            "serve_shard_inflight", "requests currently on shards")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(
        self, wait_ready: bool = True, timeout: float = 60.0
    ) -> "ShardedOptimizationServer":
        """Spawn every shard; optionally block until the ring is live.

        ``wait_ready`` blocks until at least one shard reports ready
        (each finishes its warm replay first), so the first submitted
        request has somewhere to go.
        """
        with self._lock:
            if self._started:
                return self
            self._started = True
        self.supervisor.start()
        self._stop_loops.clear()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="shard-dispatcher", daemon=True,
        )
        self._dispatcher.start()
        self._supervisor_thread = threading.Thread(
            target=self._supervise_loop, name="shard-supervisor", daemon=True,
        )
        self._supervisor_thread.start()
        if wait_ready:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                if self.supervisor.healthy():
                    break
                time.sleep(0.01)
            else:
                logger.warning(
                    "no shard became ready within %.1fs; "
                    "requests will be rejected until one does", timeout,
                )
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut down; every outstanding future still resolves.

        ``drain=True``: stop admitting, dispatch what is queued, tell
        every shard to drain (each inner server finishes its in-flight
        work and ships the results), then reap.  ``drain=False``:
        reject the queue, stop the shards hard, and force-resolve
        whatever was in flight as ``TIMED_OUT`` — honestly, since the
        work genuinely did not complete.
        """
        self.scheduler.close()
        deadline = time.monotonic() + timeout
        if drain:
            # Phase 1: let the dispatcher empty the admission queue.
            while len(self.scheduler) and time.monotonic() < deadline:
                time.sleep(0.01)
            # Phase 2: ask every live shard to drain and say bye.
            for handle in self.supervisor.handles:
                if handle.state in (ShardState.READY, ShardState.STARTING):
                    handle.mark_draining()
                    handle.send(shardwire.encode_control("drain"))
            # Phase 3: wait for in-flight results (the supervisor loop
            # keeps running, so a shard dying mid-drain still gets its
            # requests disposed honestly).
            while time.monotonic() < deadline:
                if not any(
                    h.inflight_count() for h in self.supervisor.handles
                ):
                    break
                time.sleep(0.01)
        else:
            for handle in self.supervisor.handles:
                handle.send(shardwire.encode_control("stop"))
        self._stop_loops.set()
        self.supervisor.stop()
        # Nothing a dead server holds may dangle: queue leftovers are
        # REJECTED (never started), in-flight leftovers TIMED_OUT.
        self._reject_queued()
        for handle in self.supervisor.handles:
            for _rid, request in handle.take_inflight():
                self._finish(request, ServeResult(
                    status=RequestStatus.TIMED_OUT,
                    algorithm=request.algorithm,
                    error="server stopped while request was on a shard",
                ))
        for thread in (self._dispatcher, self._supervisor_thread):
            if thread is not None:
                thread.join(max(0.1, deadline - time.monotonic()))
        with self._lock:
            self._started = False

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            request = self.scheduler.take(timeout=0.1)
            self._queue_depth.set(len(self.scheduler))
            if request is None:
                if self.scheduler.closed and not len(self.scheduler):
                    return
                if self._stop_loops.is_set():
                    return
                continue
            try:
                self._dispatch(request)
            except Exception as error:  # noqa: BLE001 - loop must survive
                logger.exception("dispatch failed")
                self._errors.labels(type=type(error).__name__).inc()
                self._finish(request, ServeResult(
                    status=RequestStatus.FAILED,
                    algorithm=request.algorithm,
                    error=f"dispatch error: {type(error).__name__}: {error}",
                ))

    def _dispatch(self, request: ServeRequest) -> None:
        """Route one admitted request onto a healthy shard."""
        if request.queue_span is not None:
            request.queue_span.finish()
            request.queue_span = None
        now = time.monotonic()
        wait = now - request.submitted
        self._wait_hist.observe(wait)
        if self._resolve_if_cancelled(request, wait):
            return
        remaining = request.remaining(now)
        if remaining is not None and remaining <= 0:
            self._finish(request, ServeResult(
                status=RequestStatus.TIMED_OUT,
                algorithm=request.algorithm,
                error="deadline expired before dispatch",
            ))
            return
        key = f"{request.key[0]}:{request.key[2]}"
        healthy = self.supervisor.healthy()
        self._healthy_shards.set(len(healthy))
        dispatched = False
        for index in self.ring.preference(key):
            if index not in healthy:
                continue
            handle = self.supervisor.handle(index)
            if not handle.breaker.allow():
                continue
            if self._send_request(handle, request, remaining):
                dispatched = True
                break
            # send failed: the breaker records the failure; the next
            # ring owner gets a chance within this same dispatch.
            handle.breaker.record_failure()
        if not dispatched:
            self._finish(request, ServeResult(
                status=RequestStatus.REJECTED,
                algorithm=request.algorithm,
                error="no healthy shard available",
            ))

    def _send_request(
        self,
        handle: ShardHandle,
        request: ServeRequest,
        remaining: float | None,
    ) -> bool:
        with self._rid_lock:
            rid = self._next_rid
            self._next_rid += 1
        request.rid = rid
        request.shard = handle.index
        request.dispatched = time.monotonic()
        if request.trace:
            request.trace.annotate(shard=handle.index)
            request.trace.event("shard.dispatch", shard=handle.index,
                                rid=rid, attempt=request.attempts)
        blob = shardwire.encode_request(
            rid,
            request.query,
            request.algorithm,
            priority=int(request.priority),
            deadline_s=remaining,
            catalog_version=self.catalog_version,
            trace=obs.serialize_context(request.trace),
        )
        fault = faultinject.check(faultinject.SHARD_WIRE)
        if fault is not None and fault.kind == "corrupt":
            plan = faultinject.active()
            if plan is not None:
                blob = faultinject.corrupt_payload(blob, plan.rng_for(fault))
                self._wire_corrupt.inc()
        # Track before sending: the shard could answer (or die) between
        # send and track, and an untracked answer would be dropped.
        handle.track(rid, request)
        if not handle.send(blob):
            handle.untrack(rid)
            request.shard = None
            return False
        self._dispatched.inc()
        self._shard_inflight.set(sum(
            h.inflight_count() for h in self.supervisor.handles
        ))
        return True

    # ------------------------------------------------------------------
    # Shard callbacks (supervisor reader / tick threads)
    # ------------------------------------------------------------------

    def _on_shard_message(
        self, handle: ShardHandle, rid: int, body: dict[str, Any]
    ) -> None:
        if body.get("_corrupt") is not None:
            # A frame died on the wire.  With a readable rid the named
            # request fails honestly; without one we can only count it —
            # the request itself is still covered by the deadline
            # backstop and the shard-death disposition.
            self._wire_corrupt.inc()
            request = handle.untrack(rid) if rid else None
            if request is not None:
                self._finish(request, ServeResult(
                    status=RequestStatus.FAILED,
                    algorithm=request.algorithm,
                    error=(
                        "corrupt frame on the shard wire: "
                        f"{body['_corrupt']}"
                    ),
                ))
            return
        if body["type"] != "result":
            return
        request = handle.untrack(rid)
        if request is None:
            return  # late answer for a request already disposed
        try:
            outcome = shardwire.result_from_body(body)
        except shardwire.ShardWireError as error:
            self._wire_corrupt.inc()
            self._finish(request, ServeResult(
                status=RequestStatus.FAILED,
                algorithm=request.algorithm,
                error=f"undecodable result from shard: {error}",
            ))
            return
        # The shard answered — whatever the verdict, the *process* is
        # alive and routable.
        handle.breaker.record_success()
        self._shard_inflight.set(sum(
            h.inflight_count() for h in self.supervisor.handles
        ))
        if request.trace:
            request.trace.annotate(shard_trace=outcome.trace_id)
        self._finish(request, outcome)

    def _on_shard_ready(self, handle: ShardHandle) -> None:
        self._healthy_shards.set(len(self.supervisor.healthy()))

    def _on_shard_failure(
        self,
        handle: ShardHandle,
        inflight: list[tuple[int, ServeRequest]],
        reason: str,
    ) -> None:
        """Honest disposition of a dead shard's in-flight requests."""
        self._shard_kills.inc()
        self._errors.labels(type="ShardFailure").inc()
        self._healthy_shards.set(len(self.supervisor.healthy()))
        now = time.monotonic()
        for _rid, request in inflight:
            request.attempts += 1
            request.shard = None
            obituary = f"shard {handle.index} died: {reason}"
            remaining = request.remaining(now)
            if self.scheduler.closed:
                self._finish(request, ServeResult(
                    status=RequestStatus.TIMED_OUT,
                    algorithm=request.algorithm,
                    error=f"{obituary} (during shutdown)",
                ))
            elif remaining is not None and remaining <= 0.05:
                # The deadline does not allow a retry: honest timeout.
                self._finish(request, ServeResult(
                    status=RequestStatus.TIMED_OUT,
                    algorithm=request.algorithm,
                    error=f"{obituary}; deadline does not allow a retry",
                ))
            elif request.attempts > self.max_retries:
                self._finish(request, ServeResult(
                    status=RequestStatus.FAILED,
                    algorithm=request.algorithm,
                    error=(
                        f"{obituary}; gave up after "
                        f"{request.attempts} attempts"
                    ),
                ))
            else:
                # Retry on a healthy shard: back through admission so
                # priority/EDF ordering still holds under failover.
                self._shard_retries.inc()
                if request.trace:
                    request.trace.event(
                        "shard.failover", from_shard=handle.index,
                        attempt=request.attempts, reason=reason,
                    )
                if not self.scheduler.offer(request):
                    self._finish(request, ServeResult(
                        status=RequestStatus.REJECTED,
                        algorithm=request.algorithm,
                        error=f"{obituary}; failover queue full",
                    ))
        self._shard_inflight.set(sum(
            h.inflight_count() for h in self.supervisor.handles
        ))

    # ------------------------------------------------------------------
    # Supervision loop (hub side)
    # ------------------------------------------------------------------

    def _supervise_loop(self) -> None:
        while not self._stop_loops.wait(self.supervisor_interval):
            try:
                self.supervisor.tick()
                self._respawn_accounting()
                self._deadline_backstop()
            except Exception:  # noqa: BLE001 - loop must survive
                logger.exception("supervision tick failed")

    def _respawn_accounting(self) -> None:
        total = self.supervisor.respawns_total
        recorded = self._shard_respawns.value
        if total > recorded:
            self._shard_respawns.inc(total - recorded)
        self._healthy_shards.set(len(self.supervisor.healthy()))

    def _deadline_backstop(self) -> None:
        """Forward client cancels; force-resolve requests a
        live-but-silent shard sat on.

        A :meth:`~repro.serve.server.ServeTicket.cancel` of a request
        already on a shard is forwarded to that shard on every tick
        until the answer arrives: a cancel that overtakes its request
        frame is dropped shard-side, and a repeat is harmless (the
        shard's ticket cancel is idempotent).  The inner server resolves
        the request like any cancel and ships the outcome back.

        Normal deadline handling is shard-side (the inner watchdog).
        This backstop only fires when a request is ``DEADLINE_GRACE``
        past its deadline — or ``request_timeout`` old without one —
        and the shard still holds it: the hub resolves ``TIMED_OUT``,
        tells the shard to cancel, and ignores any late answer.
        """
        now = time.monotonic()
        for handle in self.supervisor.handles:
            for rid, request in handle.inflight_snapshot():
                token = request.cancel_token
                if token.cancel_requested:
                    handle.send(shardwire.encode_control(
                        "cancel", rid=rid, reason=token.reason,
                    ))
                remaining = request.remaining(now)
                overdue = (
                    remaining is not None
                    and remaining < -DEADLINE_GRACE
                )
                if not overdue and request.dispatched is not None:
                    overdue = (
                        remaining is None
                        and now - request.dispatched > self.request_timeout
                    )
                if not overdue:
                    continue
                if handle.untrack(rid) is None:
                    continue  # a result beat us to it
                handle.send(shardwire.encode_control(
                    "cancel", rid=rid, reason="deadline expired",
                ))
                self._finish(request, ServeResult(
                    status=RequestStatus.TIMED_OUT,
                    algorithm=request.algorithm,
                    error="deadline expired on shard; hub backstop fired",
                ))

    # ------------------------------------------------------------------
    # Catalog + chaos surface
    # ------------------------------------------------------------------

    @property
    def catalog_version(self) -> int:
        with self._lock:
            return self._catalog_version

    def bump_catalog_version(self) -> int:
        """Invalidate cached plans everywhere: bump the hub's routing
        version (new ring keys) and broadcast to every shard's inner
        service."""
        with self._lock:
            self._catalog_version += 1
            version = self._catalog_version
        for handle in self.supervisor.handles:
            handle.send(shardwire.encode_control("bump"))
        return version

    def kill_shard(self, index: int) -> bool:
        """SIGKILL one shard process (chaos/benchmark surface).

        Returns whether a live process was killed.  Recovery is the
        supervisor's job: detection → disposition → respawn → rejoin.
        """
        handle = self.supervisor.handle(index)
        with handle._lock:  # repro: allow[LOCK-001] chaos API reads the live process under the handle lock
            process = handle._process
        if process is None or not process.is_alive():
            return False
        process.kill()
        return True

    # ------------------------------------------------------------------
    # Introspection (the /metrics, /healthz and /stats surfaces)
    # ------------------------------------------------------------------

    def shard_health(self) -> dict[str, Any]:
        """Per-shard liveness for ``/healthz``."""
        health = self.supervisor.health()
        health["queue_depth"] = len(self.scheduler)
        health["draining"] = self.scheduler.closed
        return health

    def shard_stats(self) -> dict[str, dict[str, Any]]:
        """Last heartbeat metrics snapshot per shard."""
        return {
            str(handle.index): handle.stats_snapshot()
            for handle in self.supervisor.handles
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        health = self.supervisor.health()
        shard_stats = self.shard_stats()
        snapshot = super().metrics_snapshot()
        snapshot["requests"]["dispatched"] = self._dispatched.value
        snapshot.update({
            "sharded": True,
            # One supervision section: per-shard worker replacement
            # (from each shard's resilience stats) beside shard
            # respawns, kills and failover retries.
            "supervision": {
                "workers_replaced": sum(
                    int(
                        (s.get("resilience") or {}).get(
                            "workers_replaced", 0
                        ) or 0
                    )
                    for s in shard_stats.values()
                    if isinstance(s, dict)
                ),
                "shard_respawns": self.supervisor.respawns_total,
                "shard_kills": self.supervisor.kills,
                "shard_retries": self._shard_retries.value,
                "healthy_shards": health["healthy_shards"],
                "total_shards": health["total_shards"],
            },
            "wire": {"corrupt_frames": self._wire_corrupt.value},
            "shards": {
                index: {
                    **health["shards"][index],
                    "server": stats,
                }
                for index, stats in shard_stats.items()
            },
        })
        return snapshot

    def metrics_text(self) -> str:
        """Merged exposition: hub registry + every shard's registry
        labeled ``shard="N"`` (satellite: one scrape page)."""
        parts = [self.metrics.expose()]
        for handle in self.supervisor.handles:
            registry = handle.registry_snapshot()
            if registry:
                parts.append(render_labeled(
                    registry, {"shard": str(handle.index)}
                ))
        return "".join(parts)
