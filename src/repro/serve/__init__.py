"""``repro.serve`` — the async optimization server.

Where :mod:`repro.api` made every algorithm one library surface, this
package makes that surface *deployable*: a long-lived server with the
concerns a production query engine actually has — concurrent clients,
duplicate in-flight queries, deadlines, overload — built strictly on
:class:`~repro.api.OptimizerService` (no per-algorithm front ends).

Layers, bottom up:

* :mod:`repro.serve.metrics` — counters/gauges/histograms with a text
  exposition (queue depth, latency percentiles, coalesce/cache/warm
  ratios);
* :mod:`repro.serve.scheduler` — bounded priority + earliest-deadline
  queue with admission control and deadline-degraded budgets;
* :mod:`repro.serve.coalesce` — in-flight request coalescing keyed by
  query signature (N concurrent identical queries → 1 optimization);
* :mod:`repro.serve.resilience` — cancel tokens, the degradation
  ladder, retries and per-(algorithm, size) circuit breakers;
* :mod:`repro.serve.server` — the request lifecycle both front ends
  share (validation, admission, coalescing, cancellation, resolve-once
  accounting) and :class:`OptimizationServer` on top of it: worker
  pool, deadline watchdog, store replay, cross-query basis sharing
  through the keyed :class:`~repro.milp.lp_backend.BasisExchangePool`,
  graceful drain;
* :mod:`repro.serve.http` — stdlib JSON-over-HTTP front end
  (``POST /optimize``, ``GET /metrics``, ``GET /healthz``), also
  reachable as the ``repro serve`` CLI subcommand;
* :mod:`repro.serve.ring` / :mod:`repro.serve.shardwire` /
  :mod:`repro.serve.shard` / :mod:`repro.serve.supervisor` /
  :mod:`repro.serve.sharded` — the multi-process tier:
  :class:`ShardedOptimizationServer` inherits the same lifecycle and
  runs N shard child processes as its executor (each a full inner
  server with shard-local plan cache, basis pool and store), routes by
  consistent hash of ``(catalog_version, query_signature)``, supervises
  with heartbeats, forwards client cancels, and fails over in-flight
  requests honestly when a shard dies (``repro serve --shards N``).

Quickstart::

    from repro.serve import OptimizationServer, Priority

    with OptimizationServer(workers=4) as server:
        ticket = server.submit(query, "auto", priority=Priority.HIGH,
                               deadline=0.5)
        outcome = ticket.result()
        if outcome.ok:
            print(outcome.result.plan.describe())
        print(server.metrics_snapshot()["coalesce"])
"""

from repro.serve.coalesce import RequestCoalescer
from repro.serve.http import OptimizationHTTPServer, make_http_server
from repro.serve.metrics import (
    Counter,
    CounterFamily,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.serve.resilience import (
    BreakerBoard,
    BreakerState,
    CancelToken,
    CancelledError,
    CircuitBreaker,
    ResilientExecutor,
    RetryPolicy,
    size_class,
)
from repro.serve.scheduler import (
    DeadlineScheduler,
    Priority,
    ServeRequest,
    degraded_budget,
)
from repro.serve.ring import HashRing
from repro.serve.server import (
    OptimizationServer,
    RequestStatus,
    ServeResult,
    ServeTicket,
)
from repro.serve.sharded import ShardedOptimizationServer
from repro.serve.supervisor import ShardState, ShardSupervisor

__all__ = [
    "BreakerBoard",
    "BreakerState",
    "CancelToken",
    "CancelledError",
    "CircuitBreaker",
    "Counter",
    "CounterFamily",
    "DeadlineScheduler",
    "Gauge",
    "HashRing",
    "Histogram",
    "MetricsRegistry",
    "OptimizationHTTPServer",
    "OptimizationServer",
    "Priority",
    "RequestCoalescer",
    "RequestStatus",
    "ResilientExecutor",
    "RetryPolicy",
    "ServeRequest",
    "ServeResult",
    "ServeTicket",
    "ShardState",
    "ShardSupervisor",
    "ShardedOptimizationServer",
    "degraded_budget",
    "make_http_server",
    "size_class",
]
