"""The benchmark's four workloads, driven through public surfaces only.

Every workload makes its inputs from ``seed`` alone, runs for
``seconds`` and then checks every answer with :class:`~oracle.Oracle`.
The program is reached only through :mod:`repro.api` and
:mod:`repro.serve`.

=====================  =====================================================
``solve-small``        closed loop, 1 caller: ``OptimizerService.optimize``
                       on 3-table queries with ``milp`` and no cache —
                       proven-optimal plans, almost all time in LP solves
``anytime-large``      closed loop, 1 caller: ``milp`` on 5-6-table queries
                       under a 0.5 s deadline that always binds — plan
                       quality and punctuality at the deadline
``serve-interactive``  open loop, 1 generator thread: ``auto`` on 8-10-table
                       queries through ``OptimizationServer`` at 150
                       requests/s, 30% from a 16-query hot set, the rest
                       never sent before — admission, queue, coalescer,
                       plan cache
``serve-sharded``      open loop, 1 generator thread: ``auto`` on 6-8-table
                       queries through a 2-shard ``ShardedOptimizationServer``
                       with sqlite stores at 200 requests/s, 30% repeats,
                       a catalog bump every 1,000 requests — hub, wire,
                       ring, shard servers, store
=====================  =====================================================

Each workload keeps its per-request work homogeneous (one query size
band, a deadline that binds, a moderate fixed rate) so the medians of a
20-second run repeat across seeds.
"""

from __future__ import annotations

import gc
import itertools
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import OptimizerService, OptimizerSettings
from repro.cancel import CancelToken
from repro.serve import OptimizationServer, ShardedOptimizationServer
from repro.workloads import QueryGenerator

from oracle import Oracle
from stats import geomean, mean, percentile

#: Hash-join cost model at the paper's high precision (tolerance 3) and
#: a 30 s budget: the configuration every workload requests.
SETTINGS = OptimizerSettings(time_limit=30.0)

#: Scratch space inside the checkout (sqlite stores, traces).
OUT_DIR = Path(__file__).resolve().parent / "out"

ANYTIME_BUDGET_S = 0.5
#: Simplex-routed shapes (at most 230 variables), whose pivot loop
#: polls the deadline.  One request in ``ANYTIME_HIGHS_EVERY``, the
#: first included, is a 6-cycle instead: 235 variables, so its LPs go
#: to HiGHS, which cannot be interrupted.  Rare enough that the median
#: measures the deadline rather than HiGHS's overrun, yet every run
#: solves HiGHS LPs.
ANYTIME_SHAPES = (("chain", 5), ("star", 5), ("cycle", 5), ("chain", 6), ("star", 6))
ANYTIME_HIGHS_EVERY = 20

#: Offered rates of the open loops (requests/s): the interactive
#: server's interpreter is busy about a quarter of the time and the
#: fleet runs at under half its closed-loop throughput, so queueing
#: stays modest and latency measures the serving path, not a backlog.
INTERACTIVE_RATE = 150
SHARDED_RATE = 200
HOT_QUERIES = 16
#: The rest are queries never sent before, so the plan cache (1,024
#: entries) fills and evicts, and the hit share stays at this value:
#: below one half, so the median request is a cache miss rather than
#: sitting on the edge between hits and misses.
HOT_SHARE = 0.3
#: ``serve-sharded``: share of requests repeating an earlier query, and
#: the number of submissions between catalog bumps.
REPEAT_SHARE = 0.3
BUMP_EVERY = 1000


@dataclass
class Outcome:
    """What one workload run measured (end-to-end values derive from it)."""

    setup_s: list[float]
    latencies_ms: list[float]
    elapsed_s: float
    completed: int
    attempted: int
    failed: int
    wrong: list[str] = field(default_factory=list)
    cost_ratios: list[float] = field(default_factory=list)
    #: Printed, never gated.
    info: dict = field(default_factory=dict)
    #: Per-layer values measured outside the spans (reported when traced).
    layer: dict = field(default_factory=dict)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "latency_ms.p50": percentile(self.latencies_ms, 50),
            "throughput_rps": self.completed / self.elapsed_s,
            "cost_ratio_geomean": geomean(self.cost_ratios),
        }

    def check(self, oracle: Oracle, answers) -> None:
        """Oracle-check ``(query, PlanResult)`` pairs."""
        for query, result in answers:
            why = oracle.check(query, result)
            if why is not None:
                self.wrong.append(f"{query.name}: {why}")
            else:
                self.cost_ratios.append(result.true_cost / oracle.optimum(query))


def make_query(seed: int, topology: str, tables: int):
    """One generated query; its name carries the generator seed."""
    return QueryGenerator(seed=seed).generate(topology, tables)


def warmup_query(tables: int):
    """Fixed (seed-independent) query for set-up, so set-up is comparable."""
    return make_query(0, "chain", tables)


def _set_up(start, repeats: int, stop=None):
    """Time ``start()`` (build + first answered request) ``repeats`` times.

    Returns the last target and every sample; earlier targets are
    stopped, untimed, before the next one starts.
    """
    samples, target = [], None
    for _ in range(repeats):
        if target is not None and stop is not None:
            stop(target)
        began = time.perf_counter()
        target = start()
        samples.append(time.perf_counter() - began)
    return target, samples


def _quiesce() -> None:
    """Collect, then exempt every object alive now from later collections.

    Called right before each timed region: the pre-built inputs and the
    oracle's tables would otherwise be rescanned by every full
    collection and stall the timed requests for tens of milliseconds.
    """
    gc.collect()
    gc.freeze()


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"warm-up request failed: {what}")


# ----------------------------------------------------------------------
# solve-small / anytime-large: one caller on OptimizerService
# ----------------------------------------------------------------------

def _start_service() -> OptimizerService:
    service = OptimizerService(SETTINGS)
    _require(service.optimize(warmup_query(3), "milp").has_plan, "service")
    return service


def _closed_loop(pool, seconds, tracer, budget_s=None) -> Outcome:
    """One caller optimizing ``pool`` queries in turn with ``milp``, no cache."""
    oracle = Oracle(SETTINGS)
    for query in pool:
        oracle.optimum(query)
    service, setup = _set_up(_start_service, 9)
    answers, latencies, errors = [], [], []
    _quiesce()
    tracer.install()
    start = time.perf_counter()
    while True:
        query = pool[len(latencies) % len(pool)]
        began = time.perf_counter()
        try:
            if budget_s is None:
                result = service.optimize(query, "milp", use_cache=False)
            else:
                # The deadline travels as the serving layer sends it: a
                # budget plus a token the pivot loop polls.
                result = service.optimize(
                    query, "milp", time_limit=budget_s, use_cache=False,
                    cancel_token=CancelToken(deadline=time.monotonic() + budget_s),
                )
            answers.append((query, result))
        except Exception as error:  # noqa: BLE001 - count it, keep measuring
            errors.append(f"{query.name}: {type(error).__name__}: {error}")
        finished = time.perf_counter()
        latencies.append((finished - began) * 1e3)
        if finished - start >= seconds:
            break
    tracer.uninstall()

    outcome = Outcome(
        setup_s=setup, latencies_ms=latencies, elapsed_s=finished - start,
        completed=len(answers), attempted=len(latencies), failed=len(errors),
    )
    outcome.check(oracle, answers)
    results = [result for _, result in answers]
    outcome.info["errors"] = errors
    outcome.info["optimal_share"] = mean(r.status.name == "OPTIMAL" for r in results)
    outcome.info["factor_geomean"] = geomean(
        r.optimality_factor for r in results if r.optimality_factor < float("inf")
    )
    if budget_s is not None:
        outcome.info["late_share"] = mean(
            latency > 1.1 * budget_s * 1e3 for latency in latencies
        )
    return outcome


def solve_small(seed: int, seconds: float, tracer) -> Outcome:
    rng = random.Random(seed)
    topologies = ("chain", "star", "cycle", "clique")
    pool = [
        make_query(rng.randrange(1 << 30), topologies[i % 4], 3)
        for i in range(max(8, int(seconds * 10)))
    ]
    return _closed_loop(pool, seconds, tracer)


def anytime_large(seed: int, seconds: float, tracer) -> Outcome:
    rng = random.Random(seed)
    pool = [
        make_query(
            rng.randrange(1 << 30),
            *(("cycle", 6) if i % ANYTIME_HIGHS_EVERY == 0
              else ANYTIME_SHAPES[i % len(ANYTIME_SHAPES)]),
        )
        for i in range(max(ANYTIME_HIGHS_EVERY, int(seconds * 3)))
    ]
    return _closed_loop(pool, seconds, tracer, budget_s=ANYTIME_BUDGET_S)


# ----------------------------------------------------------------------
# serve-interactive / serve-sharded: a fixed-rate open loop
# ----------------------------------------------------------------------

def _shape(index: int, sizes: tuple[int, ...]) -> tuple[str, int]:
    return ("chain", "star", "cycle")[index % 3], sizes[(index // 3) % len(sizes)]


@dataclass
class _Load:
    """One open-loop run: per request, its answer and timings."""

    outcomes: list
    latency_ms: list[float]
    late_ms: list[float]
    depth: list[int]
    elapsed_s: float


def _open_loop(server, queries, rate: float, tracer, bump_every: int = 0) -> _Load:
    """Submit ``queries`` with ``auto`` at ``rate`` per second from this thread.

    Latency runs from each request's due time, so generator lateness
    counts.  ``depth`` is the admission queue right after each submit.
    """
    count = len(queries)
    due, sent, depth, tickets = [0.0] * count, [0.0] * count, [0] * count, []
    _quiesce()
    tracer.install()
    base = time.monotonic() + 0.01
    for index, query in enumerate(queries):
        due[index] = base + index / rate
        delay = due[index] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent[index] = time.monotonic()
        tickets.append(server.submit(query, "auto"))
        depth[index] = len(server.scheduler)
        if bump_every and (index + 1) % bump_every == 0:
            server.bump_catalog_version()
    outcomes = [ticket.result(timeout=120) for ticket in tickets]
    tracer.uninstall()
    finish = [sent[i] + outcomes[i].total_seconds for i in range(count)]
    return _Load(
        outcomes=outcomes,
        latency_ms=[(finish[i] - due[i]) * 1e3 for i in range(count)],
        late_ms=[(sent[i] - due[i]) * 1e3 for i in range(count)],
        depth=depth,
        elapsed_s=max(finish) - base,
    )


def _served(setup, queries, load: _Load, oracle: Oracle) -> Outcome:
    """The outcome of an open-loop run, every answer oracle-checked."""
    ok = [i for i, result in enumerate(load.outcomes) if result.ok]
    outcome = Outcome(
        setup_s=setup, latencies_ms=load.latency_ms, elapsed_s=load.elapsed_s,
        completed=len(ok), attempted=len(queries), failed=len(queries) - len(ok),
    )
    outcome.check(oracle, [(queries[i], load.outcomes[i].result) for i in ok])
    outcome.info["errors"] = [
        f"{query.name}: {result.status.value}: {result.error}"
        for query, result in zip(queries, load.outcomes) if not result.ok
    ]
    outcome.info["generator_late_ms.p99"] = percentile(load.late_ms, 99)
    outcome.info["queue_depth_mid_end"] = (load.depth[len(load.depth) // 2], load.depth[-1])

    served = [load.outcomes[i] for i in ok if not load.outcomes[i].coalesced]
    wait = [result.wait_seconds * 1e3 for result in served]
    service = [result.service_seconds * 1e3 for result in served]
    outcome.layer.update({
        "queue.wait_ms.p50": percentile(wait, 50),
        "queue.wait_ms.p90": percentile(wait, 90),
        "serve.service_ms.p50": percentile(service, 50),
        "serve.service_ms.p90": percentile(service, 90),
        "queue.depth_max": max(load.depth),
        "gen.late_ms.p99": percentile(load.late_ms, 99),
        "gen.sent": len(queries),
    })
    return outcome


def _breaker_opens(snapshot: dict) -> int:
    return sum(b["opens"] for b in snapshot["resilience"]["breakers"].values())


def _start_server() -> OptimizationServer:
    server = OptimizationServer(SETTINGS, workers=2, queue_capacity=256)
    server.start()
    _require(server.optimize(warmup_query(8), "auto", timeout=60).ok, "server")
    return server


def serve_interactive(seed: int, seconds: float, tracer) -> Outcome:
    rng = random.Random(seed)
    sizes = (8, 9, 10)
    hot = [make_query(rng.randrange(1 << 30), *_shape(i, sizes)) for i in range(HOT_QUERIES)]
    fresh = itertools.count()
    queries = [
        hot[rng.randrange(HOT_QUERIES)] if rng.random() < HOT_SHARE
        else make_query(rng.randrange(1 << 30), *_shape(next(fresh), sizes))
        for _ in range(max(1, round(INTERACTIVE_RATE * seconds)))
    ]
    oracle = Oracle(SETTINGS)
    for query in queries:
        oracle.optimum(query)
    server, setup = _set_up(_start_server, 20, stop=OptimizationServer.stop)
    for query in hot:  # let the plan cache fill before timing
        server.optimize(query, "auto", timeout=60)
    load = _open_loop(server, queries, INTERACTIVE_RATE, tracer)
    snapshot = server.metrics_snapshot()
    server.stop()

    outcome = _served(setup, queries, load, oracle)
    outcome.layer.update({
        "queue.shed": snapshot["queue"]["shed"],
        "coalesce.rate": snapshot["coalesce"]["rate"],
        "ladder.descents": snapshot["resilience"]["ladder_descents"],
        "serve.retries": snapshot["resilience"]["retries"],
        "breaker.opens": _breaker_opens(snapshot),
        "api.cache_hit_rate": snapshot["cache"]["hit_rate"],
        "api.cache_evictions": snapshot["cache"]["evictions"],
    })
    return outcome


def _start_fleet(store_dir: Path) -> ShardedOptimizationServer:
    server = ShardedOptimizationServer(
        shards=2, workers_per_shard=1, time_limit=SETTINGS.time_limit,
        store_path=str(store_dir / "plans.sqlite"),
    )
    server.start(wait_ready=True, timeout=120)
    try:
        deadline = time.monotonic() + 120
        while server.shard_health()["healthy_shards"] < server.shards:
            if time.monotonic() > deadline:
                raise RuntimeError("shards never all became ready")
            time.sleep(0.001)
        _require(server.optimize(warmup_query(6), "auto", timeout=120).ok, "fleet")
    except BaseException:
        server.stop(drain=False)
        raise
    return server


def _fresh_shard_stats(server: ShardedOptimizationServer) -> dict:
    """Per-shard snapshots that account for every dispatched request.

    Shards report through heartbeats, so a snapshot read right after
    the load can predate its last answers, or be ``{}`` before the
    first beat.  Wait until the shards' submitted counts add up to what
    the hub dispatched and each shard has resolved all of them; an
    empty snapshot is never summed as zero.
    """
    dispatched = server.metrics_snapshot()["requests"]["dispatched"]
    deadline = time.monotonic() + 30
    while True:
        shards = server.shard_stats()
        if all(shards.values()):
            counts = [stats["requests"] for stats in shards.values()]
            resolved = all(
                sum(c[k] for k in ("completed", "rejected", "timed_out",
                                   "failed", "cancelled")) == c["submitted"]
                for c in counts
            )
            if resolved and sum(c["submitted"] for c in counts) == dispatched:
                return shards
        if time.monotonic() > deadline:
            empty = [index for index, stats in shards.items() if not stats]
            raise RuntimeError(
                f"shard stats stale after the load: empty snapshots from "
                f"shards {empty}, hub dispatched {dispatched}"
            )
        time.sleep(0.02)


def serve_sharded(seed: int, seconds: float, tracer) -> Outcome:
    rng = random.Random(seed)
    earlier: list = []
    queries = []
    for _ in range(max(1, round(SHARDED_RATE * seconds))):
        if earlier and rng.random() < REPEAT_SHARE:
            queries.append(rng.choice(earlier))
        else:
            earlier.append(make_query(rng.randrange(1 << 30), *_shape(len(earlier), (6, 7, 8))))
            queries.append(earlier[-1])
    oracle = Oracle(SETTINGS)
    for query in earlier:
        oracle.optimum(query)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="sharded-", dir=OUT_DIR))
    try:
        stores = itertools.count()
        server, setup = _set_up(
            lambda: _start_fleet(scratch / f"store{next(stores)}"), 10,
            stop=ShardedOptimizationServer.stop,
        )
        try:
            load = _open_loop(server, queries, SHARDED_RATE, tracer, bump_every=BUMP_EVERY)
            shards = _fresh_shard_stats(server)
            hub = server.metrics_snapshot()
        finally:
            server.stop()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    outcome = _served(setup, queries, load, oracle)
    outcome.info["catalog_bumps"] = len(queries) // BUMP_EVERY
    stats = list(shards.values())
    submitted = [s["requests"]["submitted"] for s in stats]
    served = [r for r in load.outcomes if r.ok and not r.coalesced]
    outcome.layer.update({
        "hub.overhead_ms.p50": percentile([
            (r.total_seconds - r.wait_seconds - r.service_seconds) * 1e3 for r in served
        ], 50),
        "coalesce.rate": hub["coalesce"]["rate"],
        "queue.shed": hub["queue"]["shed"] + sum(s["queue"]["shed"] for s in stats),
        "serve.retries": hub["supervision"]["shard_retries"] + sum(
            s["resilience"]["retries"] for s in stats
        ),
        "ladder.descents": sum(s["resilience"]["ladder_descents"] for s in stats),
        "breaker.opens": sum(_breaker_opens(s) for s in stats),
        "shard.cache_hit_rate": _hit_rate(
            sum(s["cache"]["hits"] for s in stats), sum(s["cache"]["misses"] for s in stats),
        ),
        "shard.load_imbalance": max(submitted) / mean(submitted),
        "shard.respawns": hub["supervision"]["shard_respawns"],
        "store.writes": sum(s["store"]["stats"]["writes"] for s in stats),
        "store.hits": sum(s["store"]["stats"]["hits"] for s in stats),
        "store.replay_s": max(s["store"]["replay"]["seconds"] for s in stats),
    })
    return outcome


def _hit_rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


WORKLOADS = {
    "solve-small": solve_small,
    "anytime-large": anytime_large,
    "serve-interactive": serve_interactive,
    "serve-sharded": serve_sharded,
}
