"""Command-line interface: ``python -m repro.cli <command>``.

Built on the unified :mod:`repro.api` surface: every algorithm in the
registry is reachable through one ``--algorithm`` flag, and all of them
report through the same :class:`~repro.api.PlanResult`.

Commands
--------
``optimize``
    Optimize a query (from a JSON file or randomly generated) with any
    registered algorithm::

        python -m repro.cli optimize --algorithm auto --tables 6
        python -m repro.cli optimize --algorithm milp --topology star \\
            --tables 8 --time-limit 30
        python -m repro.cli optimize --algorithm selinger --query q.json

    ``--algorithm auto`` (the default is ``milp``, the paper's method)
    routes by table count and join-graph shape: exhaustive DP for small
    queries, IKKBZ for tree-shaped C_out queries, MILP for mid-size,
    greedy beyond.  ``--check-dp`` cross-checks any algorithm against the
    exhaustive DP optimum; ``--export-lp``/``--export-mps`` export the
    MILP formulation.
``algorithms``
    List every algorithm registered in :mod:`repro.api` (including
    third-party registrations) with budget-handling notes.  ``--json``
    emits machine-readable registry metadata for serve clients and the
    load generator.
``serve``
    Run the :mod:`repro.serve` optimization server with its JSON-over-
    HTTP front end (``POST /optimize``, ``GET /metrics``,
    ``GET /healthz``)::

        python -m repro.cli serve --port 8080 --workers 4
        curl -s localhost:8080/healthz

    Requests carry an optional ``priority`` and ``deadline_ms``;
    admission control sheds load with HTTP 503 when the queue is full,
    and deadline-constrained MILP requests run under a degraded budget
    instead of answering late.  Pair it with the closed-loop load
    generator ``python benchmarks/run_serve_bench.py`` (chain/star/
    clique/cycle mixes, configurable duplicate rate and arrival
    pattern) to measure throughput, latency percentiles and
    coalesce/cache/warm ratios.
    ``--store PATH`` persists plans and basis snapshots across
    restarts: a restarted server replays the hottest records before
    accepting traffic (see ``docs/operations.md``, "Persistence & warm
    restart").
    ``--shards N`` runs the multi-process tier instead: N shard child
    processes behind the same HTTP front end, consistent-hash routed,
    heartbeat-supervised, with crash failover and automatic warm
    respawn (see ``docs/operations.md``, "Sharded serving &
    failover").
``store inspect``
    Summarize a plan store for operators: entries per catalog version
    and algorithm, size on disk, last compaction::

        python -m repro.cli store inspect /var/lib/repro/plans.db
``trace``
    Record a traced synthetic workload through the serve stack and dump
    it for a trace viewer (see :mod:`repro.obs`)::

        python -m repro.cli trace --queries 4 --tables 6 \\
            --out trace.json
        # load trace.json into ui.perfetto.dev

    ``--dump-format jsonl`` emits one trace per line instead; the
    command always ends with a top-span summary table (where did the
    wall time go, aggregated over sampled requests).
``generate``
    Generate a random query and write it as JSON.
``figure1`` / ``figure2`` / ``ablation``
    Shortcuts to the experiment harness modules.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.api import (
    OptimizerSettings,
    available_algorithms,
    create_optimizer,
)
from repro.catalog.serde import load_query, save_plan, save_query
from repro.dp.selinger import MAX_DP_TABLES
from repro.milp.io import write_lp
from repro.milp.mps import write_mps
from repro.workloads.generator import QueryGenerator


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    optimize = commands.add_parser(
        "optimize", help="optimize a query with any registered algorithm"
    )
    optimize.add_argument("--query", help="query JSON file (see `generate`)")
    optimize.add_argument("--topology", default="star")
    optimize.add_argument("--tables", type=int, default=8)
    optimize.add_argument("--seed", type=int, default=0)
    optimize.add_argument(
        "--algorithm", default="milp",
        help="registry key (see `algorithms`); 'auto' routes by query "
             "shape, default: milp",
    )
    optimize.add_argument(
        "--precision", default="high", choices=("high", "medium", "low")
    )
    optimize.add_argument(
        "--cost-model", default="hash",
        choices=("cout", "hash", "sort_merge", "bnl"),
    )
    optimize.add_argument("--time-limit", type=float, default=30.0)
    optimize.add_argument("--no-warm-start", action="store_true")
    optimize.add_argument("--export-lp", help="write the MILP in LP format")
    optimize.add_argument("--export-mps", help="write the MILP in MPS format")
    optimize.add_argument("--save-plan", help="write the plan as JSON")
    optimize.add_argument(
        "--explain", action="store_true",
        help="print an EXPLAIN-style tree for the chosen plan",
    )
    optimize.add_argument(
        "--export-dot", help="write the plan as a Graphviz digraph"
    )
    optimize.add_argument(
        "--check-dp", action="store_true",
        help="cross-check against exhaustive DP (small queries only)",
    )

    algorithms = commands.add_parser(
        "algorithms", help="list registered optimization algorithms"
    )
    algorithms.add_argument(
        "--json", action="store_true",
        help="emit machine-readable registry metadata",
    )

    serve = commands.add_parser(
        "serve", help="run the JSON-over-HTTP optimization server"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--queue-capacity", type=int, default=64)
    serve.add_argument(
        "--shards", type=int,
        default=int(os.environ.get("REPRO_SHARDS", "0")),
        help="run N shard worker processes behind the front end "
             "(0 = single-process; default: REPRO_SHARDS or 0)",
    )
    serve.add_argument(
        "--shard-workers", type=int, default=2,
        help="worker threads inside each shard process",
    )
    serve.add_argument("--time-limit", type=float, default=30.0,
                       help="default optimization budget in seconds")
    serve.add_argument(
        "--default-deadline", type=float, default=None,
        help="deadline (seconds) applied to requests that send none",
    )
    serve.add_argument(
        "--cost-model", default="hash",
        choices=("cout", "hash", "sort_merge", "bnl"),
    )
    serve.add_argument(
        "--precision", default="high", choices=("high", "medium", "low")
    )
    serve.add_argument(
        "--no-coalesce", action="store_true",
        help="disable in-flight request coalescing",
    )
    serve.add_argument(
        "--no-share-bases", action="store_true",
        help="disable the cross-query basis exchange pool",
    )
    serve.add_argument(
        "--store", default=None, metavar="PATH",
        help="persist plans and bases at PATH; a restarted server "
             "replays them before accepting traffic",
    )
    serve.add_argument(
        "--store-backend", default=None, choices=("sqlite", "log"),
        help="store backend (default: REPRO_STORE_BACKEND or sqlite)",
    )
    serve.add_argument(
        "--replay-budget", type=int, default=None,
        help="max plans/bases replayed at start "
             "(default: REPRO_STORE_REPLAY_BUDGET)",
    )

    store = commands.add_parser(
        "store", help="operate on a persistent plan store"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    inspect = store_commands.add_parser(
        "inspect", help="summarize a plan store's contents"
    )
    inspect.add_argument("path", help="store file to inspect")
    inspect.add_argument(
        "--backend", default=None, choices=("sqlite", "log"),
        help="store backend (default: REPRO_STORE_BACKEND or sqlite)",
    )
    inspect.add_argument(
        "--json", action="store_true",
        help="emit the summary as machine-readable JSON",
    )

    analyze = commands.add_parser(
        "analyze",
        help="run the repository's static analysis (repro.devtools)",
    )
    analyze.add_argument(
        "--root", default=".",
        help="repository root to analyze (default: current directory)",
    )
    analyze.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is the CI contract)",
    )
    analyze.add_argument(
        "--stats", action="store_true",
        help="emit only per-rule counts (the BENCH_analyze.json shape)",
    )
    analyze.add_argument(
        "--verbose", action="store_true",
        help="also list suppressed findings in text output",
    )
    analyze.add_argument(
        "--write-baseline", metavar="PATH",
        help="write the stats report to PATH and still print the "
             "normal report",
    )

    trace = commands.add_parser(
        "trace",
        help="record a traced synthetic workload and summarize the spans",
    )
    trace.add_argument(
        "--queries", type=int, default=4,
        help="number of synthetic queries to serve (default: 4)",
    )
    trace.add_argument("--topology", default="star")
    trace.add_argument("--tables", type=int, default=6)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--algorithm", default="milp")
    trace.add_argument(
        "--duplicates", type=int, default=1,
        help="extra submissions of the first query (exercises "
             "coalescing and the plan cache; default: 1)",
    )
    trace.add_argument("--workers", type=int, default=2)
    trace.add_argument("--time-limit", type=float, default=10.0)
    trace.add_argument(
        "--cost-model", default="hash",
        choices=("cout", "hash", "sort_merge", "bnl"),
    )
    trace.add_argument(
        "--sample", default="all", choices=("all", "head", "slow"),
        help="sampling mode for the recording tracer (default: all)",
    )
    trace.add_argument(
        "--slow-ms", type=float, default=250.0,
        help="slow threshold for --sample slow (default: 250)",
    )
    trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the trace dump to PATH instead of stdout",
    )
    trace.add_argument(
        "--dump-format", default="chrome", choices=("chrome", "jsonl"),
        help="dump format: Chrome trace-event JSON (Perfetto-loadable) "
             "or one trace per line (default: chrome)",
    )
    trace.add_argument(
        "--top", type=int, default=10,
        help="rows in the span summary table (default: 10)",
    )

    generate = commands.add_parser(
        "generate", help="generate a random query as JSON"
    )
    generate.add_argument("output")
    generate.add_argument("--topology", default="star")
    generate.add_argument("--tables", type=int, default=8)
    generate.add_argument("--seed", type=int, default=0)

    for name in ("figure1", "figure2", "ablation"):
        sub = commands.add_parser(
            name, help=f"run the {name} experiment harness"
        )
        sub.add_argument("args", nargs=argparse.REMAINDER)
    return parser


def _load_or_generate(args) -> "object":
    if args.query:
        return load_query(args.query)
    generator = QueryGenerator(seed=args.seed)
    return generator.generate(args.topology, args.tables)


def _cmd_optimize(args) -> int:
    query = _load_or_generate(args)
    algorithm = args.algorithm
    if algorithm not in available_algorithms():
        print(
            f"unknown algorithm {algorithm!r}; "
            f"registered: {', '.join(available_algorithms())}",
            file=sys.stderr,
        )
        return 2
    settings = OptimizerSettings(
        cost_model=args.cost_model,
        time_limit=args.time_limit,
        seed=args.seed,
        precision=args.precision,
        extra={"warm_start": not args.no_warm_start},
    )
    if args.export_lp or args.export_mps:
        from repro.core.formulation import JoinOrderFormulation

        formulation = JoinOrderFormulation(
            query, settings.formulation_config(query.num_tables)
        )
        if args.export_lp:
            write_lp(formulation.model, args.export_lp)
            print(f"wrote MILP to {args.export_lp}")
        if args.export_mps:
            write_mps(formulation.model, args.export_mps)
            print(f"wrote MILP to {args.export_mps}")
    result = create_optimizer(algorithm, settings).optimize(query)
    routed = result.diagnostics.get("routed_to")
    label = f"{algorithm} -> {routed}" if routed else result.algorithm
    print(f"algorithm:         {label}")
    print(f"status:            {result.status.value}")
    if result.plan is None:
        reason = result.diagnostics.get(
            "error", "no plan found within the budget"
        )
        print(reason)
        return 1
    print(f"plan:              {result.plan.describe()}")
    print(f"true cost:         {result.true_cost:,.0f}")
    print(f"guaranteed factor: {result.optimality_factor:.3f}")
    effort = ""
    if "nodes" in result.diagnostics:
        effort = f" ({result.diagnostics['nodes']} nodes)"
    elif "subsets_explored" in result.diagnostics:
        effort = f" ({result.diagnostics['subsets_explored']} subsets)"
    elif "iterations" in result.diagnostics:
        effort = f" ({result.diagnostics['iterations']} iterations)"
    print(f"solve time:        {result.solve_time:.2f}s{effort}")
    if args.explain:
        from repro.plans.explain import explain_text

        print()
        print(explain_text(result.plan, use_cout=args.cost_model == "cout"))
    if args.export_dot:
        from pathlib import Path

        from repro.plans.explain import to_dot

        Path(args.export_dot).write_text(to_dot(result.plan) + "\n")
        print(f"wrote plan digraph to {args.export_dot}")
    if args.save_plan:
        save_plan(result.plan, args.save_plan)
        print(f"wrote plan to {args.save_plan}")
    if args.check_dp:
        if query.num_tables > MAX_DP_TABLES:
            print("DP check skipped: query too large")
        else:
            dp = create_optimizer("selinger", settings).optimize(query)
            if dp.true_cost is None:
                print("DP check skipped: DP did not finish in the budget")
            else:
                ratio = result.true_cost / max(dp.true_cost, 1e-12)
                print(f"DP optimum:        {dp.true_cost:,.0f} "
                      f"(ratio {ratio:.3f})")
    return 0


def _algorithm_metadata() -> list[dict]:
    """Machine-readable registry rows (the ``algorithms --json`` payload).

    Serve clients and the load generator consume this instead of
    scraping the human-readable listing: each row carries the registry
    key, whether the engine honors a time budget (``None`` = depends on
    routing), and the first line of the adapter's docstring.
    """
    from repro.api import default_registry

    rows = []
    for name in available_algorithms():
        factory = default_registry.factory(name)
        doc = (factory.__doc__ or "").strip().splitlines()
        rows.append({
            "name": name,
            "honors_time_limit": getattr(
                factory, "honors_time_limit", None
            ),
            "description": doc[0] if doc else "",
        })
    return rows


def _cmd_algorithms(args) -> int:
    if getattr(args, "json", False):
        import json

        print(json.dumps({"algorithms": _algorithm_metadata()}, indent=2))
        return 0
    print("registered algorithms:")
    for row in _algorithm_metadata():
        honors = row["honors_time_limit"]
        if honors is True:
            note = "honors --time-limit"
        elif honors is False:
            note = "ignores --time-limit (finishes early)"
        elif honors is None:
            note = "budget handling depends on the routed algorithm"
        else:
            note = ""
        print(f"  {row['name']:<16} {note}")
    return 0


def _cmd_serve(args) -> int:
    from repro.api import OptimizerSettings as _Settings
    from repro.serve import OptimizationServer, make_http_server

    if args.shards > 0:
        return _cmd_serve_sharded(args)
    settings = _Settings(
        cost_model=args.cost_model,
        time_limit=args.time_limit,
        precision=args.precision,
    )
    store = None
    if args.store:
        from repro.store import open_store

        store = open_store(args.store, backend=args.store_backend)
    server = OptimizationServer(
        settings,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        default_deadline=args.default_deadline,
        coalesce=not args.no_coalesce,
        share_bases=not args.no_share_bases,
        store=store,
        replay_budget=args.replay_budget,
    )
    httpd = make_http_server(server, args.host, args.port)
    host, port = httpd.server_address[:2]
    persistence = f", store {args.store}" if args.store else ""
    print(f"serving on http://{host}:{port} "
          f"({args.workers} workers, queue {args.queue_capacity}"
          f"{persistence}); "
          f"POST /optimize, GET /metrics, GET /healthz; Ctrl-C to drain")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        print("draining...")
    finally:
        httpd.shutdown()
        server.stop(drain=True)
        if store is not None:
            store.close()
    return 0


def _cmd_serve_sharded(args) -> int:
    """``repro serve --shards N``: the multi-process tier.

    Each shard is a child process running a full inner server over its
    own slice of the keyspace (consistent hash of catalog version +
    query signature); the hub supervises with heartbeats, respawns
    crashed shards after warm replay, and fails in-flight requests over
    to healthy shards.  ``--store PATH`` gives each shard its own
    ``PATH.shardN`` store so respawned shards come back warm.
    """
    from repro.serve import ShardedOptimizationServer, make_http_server

    server = ShardedOptimizationServer(
        shards=args.shards,
        workers_per_shard=args.shard_workers,
        queue_capacity=args.queue_capacity,
        default_deadline=args.default_deadline,
        coalesce=not args.no_coalesce,
        cost_model=args.cost_model,
        time_limit=args.time_limit,
        precision=args.precision,
        store_path=args.store,
        store_backend=args.store_backend,
        replay_budget=args.replay_budget,
    )
    httpd = make_http_server(server, args.host, args.port)
    host, port = httpd.server_address[:2]
    persistence = f", store {args.store}.shardN" if args.store else ""
    print(f"serving on http://{host}:{port} "
          f"({args.shards} shard processes x {args.shard_workers} workers"
          f"{persistence}); "
          f"POST /optimize, GET /metrics, GET /healthz; Ctrl-C to drain")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        print("draining shards...")
    finally:
        httpd.shutdown()
        server.stop(drain=True)
    return 0


def _cmd_store(args) -> int:
    from repro.store import StoreError, open_store

    if args.store_command != "inspect":  # pragma: no cover - argparse
        return 2
    from pathlib import Path

    if not Path(args.path).exists():
        print(f"no store at {args.path}", file=sys.stderr)
        return 2
    try:
        store = open_store(args.path, backend=args.backend)
    except StoreError as error:
        print(f"cannot open store: {error}", file=sys.stderr)
        return 2
    try:
        summary = store.summary()
    finally:
        store.close()
    if args.json:
        import json

        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"store:            {summary['path']} ({summary['backend']})")
    print(f"plans:            {summary['plans']} (cap {summary['max_plans']})")
    print(f"bases:            {summary['bases']}")
    print(f"size on disk:     {summary['size_bytes']:,} bytes")
    last = summary.get("last_compaction")
    if last:
        import datetime

        stamp = datetime.datetime.fromtimestamp(last).isoformat(
            sep=" ", timespec="seconds"
        )
        print(f"last compaction:  {stamp}")
    else:
        print("last compaction:  never")
    per_version = summary.get("plans_per_catalog_version") or {}
    if per_version:
        print("plans per catalog version:")
        for version, count in per_version.items():
            print(f"  v{version:<6} {count}")
    per_algorithm = summary.get("plans_per_algorithm") or {}
    if per_algorithm:
        print("plans per algorithm:")
        for algorithm, count in per_algorithm.items():
            print(f"  {algorithm:<16} {count}")
    return 0


def _cmd_trace(args) -> int:
    """Record a synthetic serve workload under a tracer and report it.

    Runs ``--queries`` generated queries (plus ``--duplicates`` repeats
    of the first one) through a real :class:`OptimizationServer` with an
    installed :class:`repro.obs.Tracer`, then dumps the sampled traces
    (``--out``/``--dump-format``) and prints a top-span summary — the
    offline equivalent of hitting ``GET /debug/traces`` on a live
    server.
    """
    from pathlib import Path

    from repro import obs
    from repro.obs import export as obs_export
    from repro.serve import OptimizationServer

    tracer = obs.Tracer(sample=args.sample, slow_ms=args.slow_ms)
    settings = OptimizerSettings(
        cost_model=args.cost_model,
        time_limit=args.time_limit,
        seed=args.seed,
    )
    generator = QueryGenerator(seed=args.seed)
    queries = [
        generator.generate(args.topology, args.tables)
        for _ in range(max(args.queries, 1))
    ]
    queries.extend(queries[0] for _ in range(max(args.duplicates, 0)))
    with obs.tracing(tracer):
        with OptimizationServer(settings, workers=args.workers) as server:
            tickets = [
                server.submit(query, args.algorithm) for query in queries
            ]
            outcomes = [ticket.result(timeout=600.0) for ticket in tickets]
        traces = tracer.traces()

    completed = sum(1 for o in outcomes if o.status.value == "completed")
    print(f"served {len(outcomes)} requests "
          f"({completed} completed, "
          f"{sum(1 for o in outcomes if o.coalesced)} coalesced)")
    stats = tracer.stats()
    print(f"traces: {stats['started']} started, {stats['kept']} kept "
          f"(sample={stats['sample']})")
    if args.dump_format == "jsonl":
        dump = obs_export.render_jsonl(traces)
    else:
        dump = obs_export.render_chrome(traces)
    if args.out:
        Path(args.out).write_text(dump, encoding="utf-8")
        print(f"wrote {args.dump_format} dump to {args.out}")
    else:
        print(dump)
    summary = obs_export.summarize(traces, top=args.top)
    if summary:
        print()
        print(f"{'span':<20} {'count':>6} {'total_ms':>10} "
              f"{'mean_ms':>9} {'max_ms':>9}")
        for row in summary:
            print(f"{row['name']:<20} {row['count']:>6} "
                  f"{row['total_ms']:>10.1f} {row['mean_ms']:>9.2f} "
                  f"{row['max_ms']:>9.2f}")
    return 0


def _cmd_generate(args) -> int:
    generator = QueryGenerator(seed=args.seed)
    query = generator.generate(args.topology, args.tables)
    save_query(query, args.output)
    print(f"wrote {query.name} to {args.output}")
    return 0


def _cmd_analyze(args) -> int:
    from pathlib import Path

    from repro.devtools import all_rules, run_analysis
    from repro.devtools.report import render_json, render_stats, render_text

    root = Path(args.root).resolve()
    report = run_analysis(root, all_rules())
    if args.write_baseline:
        Path(args.write_baseline).write_text(
            render_stats(report), encoding="utf-8"
        )
    if args.stats:
        out = render_stats(report)
    elif args.format == "json":
        out = render_json(report)
    else:
        out = render_text(report, verbose=args.verbose)
    sys.stdout.write(out)
    return 0 if report.clean else 1


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # Harness subcommands forward their options verbatim; argparse's
    # REMAINDER does not accept leading options, so dispatch early.
    if argv and argv[0] in ("figure1", "figure2", "ablation"):
        from repro.harness import ablation, figure1, figure2

        module = {"figure1": figure1, "figure2": figure2,
                  "ablation": ablation}[argv[0]]
        module.main(argv[1:])
        return 0
    args = _build_parser().parse_args(argv)
    if args.command == "optimize":
        return _cmd_optimize(args)
    if args.command == "algorithms":
        return _cmd_algorithms(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "figure1":
        from repro.harness import figure1

        figure1.main(args.args)
        return 0
    if args.command == "figure2":
        from repro.harness import figure2

        figure2.main(args.args)
        return 0
    if args.command == "ablation":
        from repro.harness import ablation

        ablation.main(args.args)
        return 0
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":
    sys.exit(main())
