"""Benchmark entry point: one workload, one seed, one timed run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 20 --trace 0

It builds nothing: the program is the pure-python package under
``src/`` of the same checkout, imported from there (never from an
installed copy).  The run prints a human-readable report, then, as its
last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}

``--trace 0`` reports every ``end_to_end`` metric of ``BENCHMARK.json``
with no wrappers installed.  ``--trace 1`` is a separate run that wraps
each layer's public entry (see ``tracing.py``), reports every
``per_layer`` metric and writes the spans to
``perfbench/out/traces/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program() -> str | None:
    """Put the checkout's ``src`` first on the path; ``None`` or why not."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program sources at {SRC}"
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        return f"repro imported from {repro.__file__}, not from {SRC}"
    return None


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One BLAS thread per process: the LPs here are far too small to gain
    # from more, and spinning BLAS threads would take the second core
    # from a one-caller workload and oversubscribe the sharded fleet.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    problem = _import_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    from stats import percentile
    from tracing import Tracer, layer_metrics
    from workloads import OUT_DIR, WORKLOADS

    tracer = Tracer() if args.trace else _NoTracer()
    started = time.perf_counter()
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    if args.trace:
        values = layer_metrics(tracer.spans, outcome.elapsed_s, tracer.span_cost_seconds())
        values.update(outcome.layer)
        # Over the untraced run's latency_ms.p50, the tracing overhead.
        values["trace.latency_ms.p50"] = outcome.end_to_end()["latency_ms.p50"]
        tracer.write(OUT_DIR / "traces" / f"{args.workload}.json", outcome.elapsed_s)
        wanted = spec["per_layer"]
    else:
        values = outcome.end_to_end()
        wanted = spec["end_to_end"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  run {time.perf_counter() - started:.1f} s")
    print(f"  attempted {outcome.attempted}  completed {outcome.completed}  "
          f"failed {outcome.failed}  wrong {len(outcome.wrong)}")
    metrics = {}
    for metric in wanted:
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<32} {value:>14.6g} {metric['unit']}")
    # Tails are printed, never gated: on a 2-CPU host they swing with
    # interpreter-lock handoffs and the host's own load.
    print(f"  latency_ms.p90: {percentile(outcome.latencies_ms, 90):.6g}  "
          f"latency_ms.p99: {percentile(outcome.latencies_ms, 99):.6g}")
    for key, value in outcome.info.items():
        if isinstance(value, list):
            for item in value:
                print(f"  {key}: {item}")
        else:
            print(f"  {key}: {value:.6g}" if isinstance(value, float) else f"  {key}: {value}")
    for why in outcome.wrong:
        print(f"  WRONG {why}")
    print(json.dumps({
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed + len(outcome.wrong),
        "metrics": metrics,
    }))
    return 0


class _NoTracer:
    """The untraced run: installs nothing."""

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


if __name__ == "__main__":
    sys.exit(main())
