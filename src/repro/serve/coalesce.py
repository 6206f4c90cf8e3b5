"""In-flight request coalescing (single-flight) for identical queries.

Duplicate traffic is the norm on a query surface: dashboards refresh the
same report, retry storms re-send the query that just timed out, N
microservice replicas warm up with the same prepared statements.  The
plan cache already collapses *sequential* duplicates; this module
collapses *concurrent* ones — N in-flight requests for the same
``(catalog version, algorithm, query signature)`` become one
optimization and N resolved futures.

The composition with the cache is deliberate: the leader's optimization
populates the plan cache through ``OptimizerService.optimize``, so by
the time followers from a *later* burst arrive they hit the cache
instead of the coalescer.  Coalescing covers exactly the window the
cache cannot: between the first miss and its store.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable

from repro.serve.scheduler import ServeRequest

__all__ = ["RequestCoalescer"]


class _InFlight:
    """One leader plus the followers awaiting its outcome."""

    __slots__ = ("leader", "followers")

    def __init__(self, leader: ServeRequest) -> None:
        self.leader = leader
        self.followers: list[ServeRequest] = []


class RequestCoalescer:
    """Tracks in-flight optimization keys and attaches followers.

    Lifecycle: the server calls :meth:`lead_or_follow` at admission.
    The first request for a key becomes the *leader* and is enqueued
    normally; subsequent requests for the same key are recorded as
    *followers* and never enter the scheduler at all — they consume no
    queue capacity and no worker.  When the leader's outcome is known
    the server calls :meth:`complete`, which hands back the followers
    so their futures can be resolved with the shared result.

    A leader that never runs (shed on a full queue, shutdown) must be
    withdrawn with :meth:`complete` too, so followers fail with it
    rather than hang.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._in_flight: dict[Hashable, _InFlight] = {}
        self.coalesced = 0

    def lead_or_follow(
        self, key: Hashable, request: ServeRequest
    ) -> bool:
        """Register ``request`` under ``key``; ``True`` if it leads.

        Traced followers are linked to their leader: the follower's
        root span records ``coalesced_into`` (the leader's trace id)
        and the leader's root records a ``coalesce.follower`` event, so
        either trace leads to the other in the trace viewer.
        """
        with self._lock:
            entry = self._in_flight.get(key)
            if entry is None:
                self._in_flight[key] = _InFlight(request)
                return True
            entry.followers.append(request)
            self.coalesced += 1
            leader_trace = entry.leader.trace
            if request.trace:
                request.trace.annotate(
                    coalesced_into=(
                        leader_trace.trace_id if leader_trace else None
                    )
                )
            if leader_trace:
                leader_trace.event(
                    "coalesce.follower",
                    trace_id=(
                        request.trace.trace_id if request.trace else None
                    ),
                )
            return False

    def withdraw(self, key: Hashable) -> list[ServeRequest]:
        """Remove ``key`` without an outcome; returns orphaned followers.

        Used when the leader was shed before running: callers resolve
        the followers the same way they resolve the leader (followers
        coalesced onto a rejected leader are rejected with it).
        """
        return self.complete(key)

    def complete(self, key: Hashable) -> list[ServeRequest]:
        """Close out ``key``; returns the followers to resolve."""
        with self._lock:
            entry = self._in_flight.pop(key, None)
            return entry.followers if entry is not None else []

    def detach(self, key: Hashable, follower: ServeRequest) -> bool:
        """Remove one follower from ``key``'s entry (its client gave up).

        ``False`` when the entry was already completed: the follower is
        then in the leader's hands and is resolved from there.
        """
        with self._lock:
            entry = self._in_flight.get(key)
            followers = entry.followers if entry is not None else []
            # By identity: requests are dataclasses, and == would
            # compare their queries field by field.
            for index, waiting in enumerate(followers):
                if waiting is follower:
                    del followers[index]
                    return True
            return False

    def in_flight(self) -> int:
        """Number of distinct keys currently in flight."""
        with self._lock:
            return len(self._in_flight)

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "coalesced": self.coalesced,
                "in_flight": len(self._in_flight),
            }
