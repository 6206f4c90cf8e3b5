"""Record the benchmark baseline: two sets of seeded runs per workload.

Usage (from the repository root; about 45 minutes on 2 CPUs)::

    python3 perfbench/baseline.py

Each set runs every workload ten times with distinct seeds (set 1:
seeds 1-10, set 2: seeds 101-110), untraced, through the command
``BENCHMARK.json`` names, and the result goes to
``perfbench/results/baseline.json``.  For every (metric, workload)
pair it records both sets' medians, their spread (quartile distance
over the median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles), the drift between the two medians, and whether each stays
within the metric's bound.  The tracing overhead comes from pairs of
runs on seeds 1-3, untraced then traced back to back so that the
host's drift between them stays small: the median of the pairs'
``latency_ms.p50`` ratios.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    process = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if process.returncode != 0:
        raise RuntimeError(f"{command} failed:\n{process.stderr}")
    result = json.loads(process.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{command} reported failures:\n{process.stdout}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _spread(values: list[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def _tracing_overhead(spec: dict, workload: str) -> dict:
    untraced, traced = [], []
    for seed in (1, 2, 3):
        untraced.append(_run(spec, workload, seed, 0)["latency_ms.p50"])
        traced.append(_run(spec, workload, seed, 1)["trace.latency_ms.p50"])
    return {
        "untraced_latency_ms_p50": untraced,
        "traced_latency_ms_p50": traced,
        "overhead_ratio": statistics.median(t / u for t, u in zip(traced, untraced)),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = {"set1": list(range(1, 11)), "set2": list(range(101, 111))}
    pairs: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [[] for _ in range(len(sets))] for name in
                  (m["name"] for m in spec["end_to_end"])}
        for index, seeds in enumerate(sets.values()):
            for seed in seeds:
                for name, value in _run(spec, workload, seed, 0).items():
                    values[name][index].append(value)
                print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        for metric in spec["end_to_end"]:
            first, second = values[metric["name"]]
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            pairs.setdefault(workload, {})[metric["name"]] = {
                "unit": metric["unit"],
                "bound": metric["bound"],
                "set1": {"median": m1, "spread": _spread(first), "values": first},
                "set2": {"median": m2, "spread": _spread(second), "values": second},
                "set2_worse_by": worse,
                "within_bound": worse <= metric["bound"] and (
                    metric["name"] == "setup_s"
                    or max(_spread(first), _spread(second)) <= metric["bound"]
                ),
            }

    overhead = {workload: _tracing_overhead(spec, workload) for workload in pairs}

    baseline = {
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": sets,
        "end_to_end": pairs,
        "tracing": overhead,
    }
    out = ROOT / "perfbench" / "results" / "baseline.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
