"""Shard supervision: heartbeat health, crash/hang detection, respawn.

The supervisor owns the shard *processes* so the front end
(:class:`~repro.serve.sharded.ShardedOptimizationServer`) can own the
*requests*.  Its contract, in failure-first order:

* **Detection.**  A shard is declared dead when its process exited,
  its pipe hit EOF, its heartbeats went silent past the timeout (a
  wedged-but-alive shard counts as dead — the caller cannot tell the
  difference and must not wait to find out), or it never finished
  starting within the spawn timeout.  All timing runs on an injectable
  clock, so the unit suite drives hang detection without sleeping.
* **Honest disposition.**  Declaring a shard dead atomically takes its
  in-flight request table and hands it to the front end's
  ``on_failure`` callback.  Nothing is ever dropped on the floor: the
  front end retries each request on a healthy shard when its deadline
  allows, else resolves it ``TIMED_OUT``/``FAILED`` — the never-
  silent-loss invariant the chaos suite pins.
* **Respawn.**  Dead shards respawn automatically with exponential
  backoff (reset on a successful start).  The child re-runs its
  store-backed warm replay before sending ``ready``, and only the
  ``ready`` transition rejoins it to the routing ring — a recovering
  shard never receives traffic cold.
* **Breakers.**  Each shard carries a
  :class:`~repro.serve.resilience.CircuitBreaker`; the front end
  consults it when routing, so a flapping shard sheds to its ring
  neighbors even between supervisor ticks.

Everything process-shaped (``Process``/``Connection``) is duck-typed:
the unit suite substitutes fakes and drives ``tick()`` by hand.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import threading
import time
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable

from repro.serve import shardwire
from repro.serve.resilience import CircuitBreaker
from repro.serve.shard import ShardConfig, shard_main

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.scheduler import ServeRequest

__all__ = ["ShardHandle", "ShardState", "ShardSupervisor"]

logger = logging.getLogger("repro.serve.shard")


class ShardState(Enum):
    """Lifecycle of one shard slot (see docs/operations.md runbook)."""

    #: Process launched; waiting for warm replay + ``ready``.
    STARTING = "starting"
    #: Healthy member of the routing ring.
    READY = "ready"
    #: Told to drain; finishing in-flight work, receiving no new.
    DRAINING = "draining"
    #: Declared dead; in-flight disposed; awaiting respawn (or final).
    DEAD = "dead"


class ShardHandle:
    """One shard slot: current process, pipe, state and request table.

    The slot outlives any single incarnation — ``index`` and the
    accumulated counters are stable across respawns.  All mutable state
    is guarded by the handle's own lock; the supervisor, the reader
    thread and the front end's dispatcher all touch it.
    """

    def __init__(self, config: ShardConfig, breaker: CircuitBreaker) -> None:
        self.index = config.index
        self.config = config
        self.breaker = breaker
        self._lock = threading.Lock()
        self._state = ShardState.DEAD
        self._process: Any = None
        self._conn: Any = None
        self._send_lock = threading.Lock()
        self._last_heartbeat = 0.0
        self._spawned_at = 0.0
        self._link_down = False
        self._said_bye = False
        self._stats: dict[str, Any] = {}
        self._registry: dict[str, Any] = {}
        self._inflight: dict[int, "ServeRequest"] = {}
        self._consecutive_failures = 0
        self._next_respawn_at: float | None = None
        self.pid: int | None = None
        self.respawns = 0
        self.incarnation = 0
        self.replayed_plans = 0
        self.replayed_bases = 0

    # -- state ---------------------------------------------------------

    @property
    def state(self) -> ShardState:
        with self._lock:
            return self._state

    def is_ready(self) -> bool:
        with self._lock:
            return self._state is ShardState.READY and not self._link_down

    def adopt(self, process: Any, conn: Any, now: float) -> None:
        """Install a freshly spawned incarnation (STARTING)."""
        with self._lock:
            self._process = process
            self._conn = conn
            self._state = ShardState.STARTING
            self._spawned_at = now
            self._last_heartbeat = now
            self._link_down = False
            self._said_bye = False
            self._next_respawn_at = None

    def mark_ready(self, body: dict[str, Any], now: float) -> None:
        with self._lock:
            if self._state is not ShardState.STARTING:
                return
            self._state = ShardState.READY
            self._last_heartbeat = now
            self._consecutive_failures = 0
            self.pid = int(body.get("pid", 0)) or None
            self.replayed_plans = int(body.get("replayed_plans", 0))
            self.replayed_bases = int(body.get("replayed_bases", 0))
        self.breaker.record_success()

    def mark_draining(self) -> None:
        with self._lock:
            if self._state in (ShardState.READY, ShardState.STARTING):
                self._state = ShardState.DRAINING

    def note_heartbeat(self, body: dict[str, Any], now: float) -> None:
        stats = body.get("stats") or {}
        with self._lock:
            self._last_heartbeat = now
            if isinstance(stats, dict):
                self._stats = stats
                registry = stats.get("registry")
                if isinstance(registry, dict):
                    self._registry = registry

    def note_bye(self) -> None:
        with self._lock:
            self._said_bye = True

    def note_link_down(self) -> None:
        with self._lock:
            self._link_down = True

    def stats_snapshot(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._stats)

    def registry_snapshot(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._registry)

    def heartbeat_age(self, now: float) -> float:
        with self._lock:
            return now - self._last_heartbeat

    # -- request table -------------------------------------------------

    def track(self, rid: int, request: "ServeRequest") -> None:
        with self._lock:
            self._inflight[rid] = request

    def untrack(self, rid: int) -> "ServeRequest | None":
        with self._lock:
            return self._inflight.pop(rid, None)

    def take_inflight(self) -> list[tuple[int, "ServeRequest"]]:
        """Atomically claim every in-flight request (death disposition:
        exactly one party may resolve each)."""
        with self._lock:
            items = list(self._inflight.items())
            self._inflight.clear()
            return items

    def inflight_snapshot(self) -> list[tuple[int, "ServeRequest"]]:
        with self._lock:
            return list(self._inflight.items())

    def inflight_count(self) -> int:
        with self._lock:
            return len(self._inflight)

    # -- pipe ----------------------------------------------------------

    def send(self, blob: bytes) -> bool:
        """Ship one frame; ``False`` marks the link down (the next tick
        declares the shard dead and disposes its requests)."""
        with self._lock:
            conn = self._conn
            if conn is None or self._link_down:
                return False
        try:
            with self._send_lock:
                conn.send_bytes(blob)
            return True
        except (BrokenPipeError, OSError):
            self.note_link_down()
            return False

    def close_link(self, conn: Any) -> None:
        """Close one incarnation's pipe once its reader saw EOF, marking
        the link down if ``conn`` is still the live pipe.  Under the
        send lock, so a concurrent :meth:`send` never writes into a pipe
        that is closing under it."""
        with self._lock:
            if self._conn is conn:
                self._link_down = True
        with self._send_lock:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    # -- death ---------------------------------------------------------

    def declare_dead(self, now: float) -> tuple[Any, Any] | None:
        """Transition to DEAD; ``(process, conn)`` to reap, or ``None``
        when already dead (the tick raced another declaration)."""
        with self._lock:
            if self._state is ShardState.DEAD:
                return None
            self._state = ShardState.DEAD
            process, conn = self._process, self._conn
            self._process = None
            self._conn = None
            self._link_down = True
            self._consecutive_failures += 1
            return process, conn

    def schedule_respawn(self, at: float | None) -> None:
        with self._lock:
            self._next_respawn_at = at

    def respawn_due(self, now: float) -> bool:
        with self._lock:
            return (
                self._state is ShardState.DEAD
                and self._next_respawn_at is not None
                and now >= self._next_respawn_at
            )

    def failure_streak(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def health(self, now: float) -> dict[str, Any]:
        """One ``/healthz`` row for this shard."""
        with self._lock:
            return {
                "state": self._state.value,
                "pid": self.pid,
                "heartbeat_age_s": round(now - self._last_heartbeat, 3),
                "inflight": len(self._inflight),
                "respawns": self.respawns,
                "replayed_plans": self.replayed_plans,
                "replayed_bases": self.replayed_bases,
                "breaker": self.breaker.as_dict()["state"],
            }


class ShardSupervisor:
    """Spawns, watches, reaps and respawns the shard processes.

    ``tick()`` is the whole control loop, called periodically by the
    front end (and directly by tests with a fake clock): detect dead or
    silent shards, dispose their in-flight requests through
    ``on_failure``, and respawn when backoff allows.
    """

    def __init__(
        self,
        configs: list[ShardConfig],
        *,
        on_failure: Callable[
            [ShardHandle, list[tuple[int, "ServeRequest"]], str], None
        ],
        on_message: Callable[[ShardHandle, int, dict[str, Any]], None],
        on_ready: Callable[[ShardHandle], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
        heartbeat_timeout: float = 2.0,
        spawn_timeout: float = 60.0,
        respawn: bool = True,
        respawn_backoff: float = 0.5,
        respawn_backoff_max: float = 10.0,
        breaker_threshold: int = 5,
        breaker_reset: float = 5.0,
        start_method: str = "fork",
        start_readers: bool = True,
    ) -> None:
        self.clock = clock
        self.heartbeat_timeout = heartbeat_timeout
        self.spawn_timeout = spawn_timeout
        self.respawn = respawn
        self.respawn_backoff = respawn_backoff
        self.respawn_backoff_max = respawn_backoff_max
        self.start_method = start_method
        self.start_readers = start_readers
        self._on_failure = on_failure
        self._on_message = on_message
        self._on_ready = on_ready
        self._stopping = False
        self._lock = threading.Lock()
        self.kills = 0
        self.respawns_total = 0
        self.handles = [
            ShardHandle(
                config,
                CircuitBreaker(
                    failure_threshold=breaker_threshold,
                    reset_timeout=breaker_reset,
                    clock=clock,
                ),
            )
            for config in configs
        ]

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        for handle in self.handles:
            self.spawn(handle)

    def stop(self) -> None:
        """Hard-stop every process (the front end drains first when it
        wants grace); no respawns after this."""
        with self._lock:
            self._stopping = True
        for handle in self.handles:
            handle.schedule_respawn(None)
            reaped = handle.declare_dead(self.clock())
            if reaped is None:
                continue
            process, conn = reaped
            self._reap(process, conn)

    @property
    def stopping(self) -> bool:
        with self._lock:
            return self._stopping

    # -- spawning ------------------------------------------------------

    def _spawn_process(self, config: ShardConfig) -> tuple[Any, Any]:
        """Launch one shard child; ``(process, hub_conn)``.

        Overridable seam: the unit suite substitutes fakes here and
        exercises every supervision path without real processes.
        """
        ctx = multiprocessing.get_context(self.start_method)
        hub_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=shard_main,
            args=(child_conn, config),
            name=f"repro-shard-{config.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, hub_conn

    def spawn(self, handle: ShardHandle) -> None:
        """Start (or restart) ``handle``'s shard process."""
        if self.stopping:
            return
        config = handle.config
        if handle.incarnation > 0:
            # Injected process faults are first-incarnation-only by
            # default, so a deterministic kill-site cannot re-fire
            # forever and livelock recovery.
            config = dataclasses.replace(
                config,
                incarnation=handle.incarnation,
                fault_specs=(
                    config.fault_specs if config.faults_on_respawn else ()
                ),
            )
        try:
            process, conn = self._spawn_process(config)
        except Exception as error:  # noqa: BLE001 - spawn must not kill hub
            logger.error("shard %d spawn failed: %s", handle.index, error)
            handle.schedule_respawn(self.clock() + self.respawn_backoff)
            return
        now = self.clock()
        handle.adopt(process, conn, now)
        handle.incarnation += 1
        if self.start_readers:
            threading.Thread(
                target=self._reader_loop,
                args=(handle, conn),
                name=f"shard-{handle.index}-reader",
                daemon=True,
            ).start()
        logger.info(
            "shard %d: incarnation %d starting", handle.index,
            handle.incarnation,
        )

    # -- reading -------------------------------------------------------

    def _reader_loop(self, handle: ShardHandle, conn: Any) -> None:
        """Drain one incarnation's pipe until EOF, then close it.

        Bound to the connection, not the handle: after a respawn the
        old reader sees EOF on the old pipe and exits while the new
        incarnation gets its own thread.  Only the reader closes its
        pipe: the supervisor kills the process, which ends the pipe in
        EOF here, whereas a close from another thread can land inside
        ``recv_bytes`` and raise ``TypeError`` instead of ``EOFError``.
        """
        while True:
            try:
                blob = conn.recv_bytes()
            except (EOFError, OSError):
                handle.close_link(conn)
                return
            self.dispatch_message(handle, blob)

    def dispatch_message(self, handle: ShardHandle, blob: bytes) -> None:
        """Decode and route one shard → hub frame (also the unit-test
        entry for driving fake shards)."""
        now = self.clock()
        try:
            rid, body = shardwire.decode_message(blob)
        except shardwire.ShardWireError as error:
            rid = shardwire.peek_rid(blob)
            self._on_message(handle, rid, {
                "type": "result",
                "_corrupt": f"{error}",
            })
            return
        kind = body["type"]
        if kind == "heartbeat":
            handle.note_heartbeat(body, now)
        elif kind == "ready":
            handle.mark_ready(body, now)
            logger.info(
                "shard %d: ready (pid=%s, %d plans + %d bases replayed)",
                handle.index, handle.pid,
                handle.replayed_plans, handle.replayed_bases,
            )
            if self._on_ready is not None:
                self._on_ready(handle)
        elif kind == "bye":
            handle.note_bye()
        else:
            handle.note_heartbeat({}, now)  # any frame proves liveness
            self._on_message(handle, rid, body)

    # -- the control loop ----------------------------------------------

    def tick(self, now: float | None = None) -> None:
        """One supervision pass: detect, dispose, respawn."""
        if now is None:
            now = self.clock()
        for handle in self.handles:
            state = handle.state
            if state is ShardState.DEAD:
                if self.respawn and not self.stopping and \
                        handle.respawn_due(now):
                    handle.respawns += 1
                    self.respawns_total += 1
                    self.spawn(handle)
                continue
            reason = self._death_reason(handle, state, now)
            if reason is not None:
                self._handle_death(handle, reason, now)

    def _death_reason(
        self, handle: ShardHandle, state: ShardState, now: float
    ) -> str | None:
        with handle._lock:  # repro: allow[LOCK-001] multi-field liveness predicate must read one consistent snapshot
            process = handle._process
            link_down = handle._link_down
            said_bye = handle._said_bye
            beat_age = now - handle._last_heartbeat
            spawn_age = now - handle._spawned_at
        if said_bye and state is ShardState.DRAINING:
            return None  # clean drain exit, reaped by the front end
        if process is not None and not process.is_alive():
            code = getattr(process, "exitcode", None)
            return f"process exited (exitcode={code})"
        if link_down:
            return "pipe closed"
        if state is ShardState.STARTING and spawn_age > self.spawn_timeout:
            return f"no ready within {self.spawn_timeout:.1f}s"
        if (
            state in (ShardState.READY, ShardState.DRAINING)
            and beat_age > self.heartbeat_timeout
        ):
            return (
                f"heartbeat silent {beat_age:.2f}s "
                f"(timeout {self.heartbeat_timeout:.2f}s)"
            )
        return None

    def _handle_death(
        self, handle: ShardHandle, reason: str, now: float
    ) -> None:
        reaped = handle.declare_dead(now)
        if reaped is None:
            return  # another thread already declared it
        process, conn = reaped
        self.kills += 1
        handle.breaker.record_failure()
        self._reap(process, conn)
        inflight = handle.take_inflight()
        logger.error(
            "shard %d declared dead: %s (%d in flight)",
            handle.index, reason, len(inflight),
        )
        if not self.stopping and self.respawn:
            streak = max(1, handle.failure_streak())
            backoff = min(
                self.respawn_backoff_max,
                self.respawn_backoff * (2 ** (streak - 1)),
            )
            handle.schedule_respawn(now + backoff)
        # Disposition last: the front end may immediately re-offer onto
        # healthy shards, and the respawn schedule above must already
        # stand so a full ring loss still heals.
        self._on_failure(handle, inflight, reason)

    def _reap(self, process: Any, conn: Any) -> None:
        """Kill and join a dead incarnation.  Its reader thread closes
        the pipe on the resulting EOF; without readers, close it here."""
        try:
            if process is not None and process.is_alive():
                process.kill()
            if process is not None:
                process.join(timeout=1.0)
        except (OSError, ValueError, AssertionError):  # pragma: no cover
            pass
        if self.start_readers or conn is None:
            return
        try:
            conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    # -- introspection -------------------------------------------------

    def healthy(self) -> set[int]:
        return {h.index for h in self.handles if h.is_ready()}

    def handle(self, index: int) -> ShardHandle:
        return self.handles[index]

    def health(self) -> dict[str, Any]:
        now = self.clock()
        per_shard = {
            str(h.index): h.health(now) for h in self.handles
        }
        healthy = sum(
            1 for row in per_shard.values() if row["state"] == "ready"
        )
        return {
            "shards": per_shard,
            "healthy_shards": healthy,
            "total_shards": len(self.handles),
            "kills": self.kills,
            "respawns": self.respawns_total,
        }
