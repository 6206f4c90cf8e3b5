"""Seconds-long runs of every workload through the benchmark's command.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``
(about 40 seconds).  Each workload runs untraced and traced for two
seconds; the tests check the result contract, zero failures, that every
wrapper fired on the workloads it belongs to, that the one-caller
workloads' layers account for the measured wall time, and that the
benchmark fails without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from tracing import HOOKS, self_times  # noqa: E402

#: Failure and recovery counters, and effects a two-second run is too
#: short to produce (cache evictions, coalesced duplicates): zero on a
#: healthy smoke run.
MAY_STAY_ZERO = {
    "api.cache_evictions", "queue.shed", "ladder.descents", "serve.retries",
    "breaker.opens", "shard.respawns", "store.hits", "simplex.error_fallbacks",
    "coalesce.rate",
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced() -> dict:
    """Per workload: the traced run's result and its written trace."""
    runs = {}
    for workload in WORKLOADS:
        process = _run(workload, 1)
        trace = json.loads((HERE / "out" / "traces" / f"{workload}.json").read_text())
        runs[workload] = (process, _result(process), trace)
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    process = _run(workload, 0)
    result = _result(process)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, process.stdout
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]
        assert f"{metric['name']} " in process.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_fires_every_wrapper(workload, traced):
    process, result, trace = traced[workload]
    assert result["correct"] and result["failed"] == 0, process.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]

    spans = [dict(zip(trace["fields"], span)) for span in trace["spans"]]
    fired = {span["layer"] for span in spans}
    for hook in HOOKS:
        if workload in hook.workloads:
            assert hook.layer in fired, f"{hook.qualname} never fired on {workload}"

    if workload in ("solve-small", "anytime-large"):
        own = self_times(trace["spans"])
        assert min(own.values()) > -1e-6  # children nest inside parents
        roots = [span for span in spans if not span["parent"]]
        assert {span["layer"] for span in roots} == {"api"}
        covered = sum(span["end"] - span["start"] for span in roots)
        # Layer self times plus the roots' own (unattributed) time add
        # up to the wall: the loop outside the requests is under 1%.
        assert sum(own.values()) == pytest.approx(covered, rel=1e-9)
        assert covered == pytest.approx(trace["wall_s"], rel=0.01)
        assert result["metrics"]["unattributed.share"]["value"] <= 0.05


def test_every_layer_metric_is_measured_somewhere(traced):
    """A per-layer name no workload produces (a typo) would read 0 everywhere."""
    for metric in SPEC["per_layer"]:
        if metric["name"] not in MAY_STAY_ZERO:
            assert any(
                result["metrics"][metric["name"]]["value"] for _, result, _ in traced.values()
            ), metric["name"]


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/, the run fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    process = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
