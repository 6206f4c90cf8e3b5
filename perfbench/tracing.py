"""In-memory spans around the program's layer boundaries.

The traced run replaces one public callable per layer with a wrapper
that records a span: ``(id, layer, start, end, parent, request id,
thread, attrs)``.  Nothing under ``src/`` is edited; wrappers are
installed right before the timed region and removed right after it, so
the oracle and the set-up never appear in the trace, and the untraced
run installs none at all.

Functions imported by name (``from repro.core.extraction import
extract_plan``) are replaced at *every* import site that holds the
original object, so a caller never silently bypasses its layer.
Methods are replaced on their defining class.

A layer's self time is its span minus the spans of its children (on the
same thread, children nest inside their parent).  The self time of a
root ``OptimizerService.optimize`` span — the part of a request no
deeper layer accounts for — is reported as ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from stats import geomean, mean, percentile

#: Span tuple fields, in order (also the header of the written trace).
SPAN_FIELDS = ("id", "layer", "start", "end", "parent", "rid", "thread", "attrs")


def _formulation_attrs(args, result, before):
    model = args[0].model
    return {"vars": model.num_variables, "cons": model.num_constraints}


def _bnb_attrs(args, solution, before):
    objective, bound = solution.objective, solution.best_bound
    factor = (
        objective / bound
        if math.isfinite(objective) and math.isfinite(bound) and bound > 0
        else None
    )
    return {
        "nodes": solution.node_count,
        "lp_solves": solution.lp_solves,
        "optimal": solution.status.name == "OPTIMAL",
        "factor": factor,
    }


def _simplex_before(args):
    stats = args[0].stats
    return stats.refactorizations, stats.warm_solves


def _simplex_attrs(args, result, before):
    stats = args[0].stats
    return {
        "pivots": result.iterations,
        "refactorizations": stats.refactorizations - before[0],
        "warm": stats.warm_solves - before[1],
        # B&B reroutes exactly these statuses to HiGHS.
        "error": result.status.name in ("ERROR", "UNBOUNDED"),
    }


@dataclass(frozen=True)
class Hook:
    """One wrapped callable: ``module``'s ``qualname`` as layer ``layer``.

    ``workloads`` names the workloads on which the hook must fire (the
    smoke test asserts it).  ``before``/``after`` turn the call's
    arguments and result into span attributes.  For a ``generator``
    the span covers producing the first item.
    """

    layer: str
    module: str
    qualname: str
    workloads: tuple[str, ...]
    before: Callable | None = None
    after: Callable | None = None
    generator: bool = False


_MILP = ("solve-small", "anytime-large")

HOOKS = (
    Hook("api", "repro.api.service", "OptimizerService.optimize",
         _MILP + ("serve-interactive",)),
    Hook("signature", "repro.api.service", "query_signature",
         _MILP + ("serve-interactive", "serve-sharded")),
    Hook("formulation", "repro.core.formulation", "JoinOrderFormulation.__init__",
         _MILP, after=_formulation_attrs),
    Hook("warmstart", "repro.dp.greedy", "GreedyOptimizer.optimize", _MILP),
    Hook("bnb", "repro.milp.branch_and_bound", "BranchAndBoundSolver.solve",
         _MILP, after=_bnb_attrs),
    Hook("simplex", "repro.milp.simplex", "SimplexSession.solve", _MILP,
         before=_simplex_before, after=_simplex_attrs),
    Hook("highs", "repro.milp.lp_backend", "ScipyHighsBackend.solve",
         ("anytime-large",)),
    Hook("extract", "repro.core.extraction", "extract_plan", _MILP),
    Hook("plancost", "repro.plans.cost", "PlanCostEvaluator.cost",
         _MILP + ("serve-interactive",)),
    Hook("selinger", "repro.dp.selinger", "SelingerOptimizer.optimize",
         ("serve-interactive",)),
    Hook("shardwire.encode", "repro.serve.shardwire", "encode_request",
         ("serve-sharded",)),
    Hook("shardwire.decode", "repro.serve.shardwire", "decode_message",
         ("serve-sharded",)),
    Hook("shardwire.result", "repro.serve.shardwire", "result_from_body",
         ("serve-sharded",)),
    Hook("ring", "repro.serve.ring", "HashRing.preference",
         ("serve-sharded",), generator=True),
)

LAYERS = tuple(hook.layer for hook in HOOKS)


class Tracer:
    """Records spans from wrappers it installs; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            owner_name, _, attr = hook.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                wrapper = self._wrapper(hook, original)
                self._patch(owner, attr, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(hook, original)
            for name, site in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and \
                        getattr(site, attr, None) is original:
                    self._patch(site, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrapper(self, hook: Hook, original: Callable) -> Callable:
        spans, local, ids, rids = self.spans, self._local, self._ids, self._rids
        clock, layer = time.perf_counter, hook.layer
        before, after = hook.before, hook.after

        def record(args, call):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent, rid = stack[-1] if stack else (0, next(rids))
            snapshot = before(args) if before is not None else None
            stack.append((sid, rid))
            start = clock()
            try:
                result = call()
            except BaseException as error:
                end = clock()
                stack.pop()
                spans.append((sid, layer, start, end, parent, rid,
                              threading.get_ident(),
                              {"raised": type(error).__name__}))
                raise
            end = clock()
            stack.pop()
            attrs = after(args, result, snapshot) if after is not None else None
            spans.append((sid, layer, start, end, parent, rid,
                          threading.get_ident(), attrs))
            return result

        if hook.generator:
            # The work happens on the first next(), which the span must
            # cover; the rest of the walk stays lazy.
            @functools.wraps(original)
            def route(*args, **kwargs):
                def first_owner():
                    walk = original(*args, **kwargs)
                    return walk, next(walk, None)

                walk, first = record(args, first_owner)
                return walk if first is None else itertools.chain((first,), walk)

            return route

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            return record(args, lambda: original(*args, **kwargs))

        return wrapped

    # -- overhead ------------------------------------------------------

    @staticmethod
    def span_cost_seconds() -> float:
        """Measured cost of one wrapper around a no-op (seconds/span).

        Runs on a private tracer so the calibration spans never mix
        with the workload's.
        """
        calls = 20000
        noop = Tracer()._wrapper(Hook("probe", "", "noop", ()), lambda: None)
        bare = lambda: None  # noqa: E731 - same call shape as the wrapped one
        start = time.perf_counter()
        for _ in range(calls):
            bare()
        bare_s = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        return max(0.0, (time.perf_counter() - start - bare_s) / calls)

    # -- output --------------------------------------------------------

    def write(self, path, wall_s: float) -> None:
        """Write ``{"wall_s": ..., "fields": [...], "spans": [[...], ...]}``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"wall_s": wall_s, "fields": SPAN_FIELDS, "spans": self.spans},
                handle,
            )


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self seconds per span id: duration minus its children's durations."""
    covered: dict[int, float] = {}
    for span in spans:
        if span[4]:
            covered[span[4]] = covered.get(span[4], 0.0) + span[3] - span[2]
    return {span[0]: span[3] - span[2] - covered.get(span[0], 0.0) for span in spans}


def layer_metrics(spans: list[tuple], wall_s: float, span_cost_s: float) -> dict:
    """Per-layer values derived from the spans.

    ``wall_s`` is the timed region.  ``unattributed.share`` is the self
    time of the root ``api`` spans over their total time: the share of
    an optimization request that no deeper layer accounts for.
    """
    own = self_times(spans)
    by_layer: dict[str, list[tuple]] = {layer: [] for layer in LAYERS}
    for span in spans:
        by_layer[span[1]].append(span)

    def ms(layer):
        return [(span[3] - span[2]) * 1e3 for span in by_layer[layer]]

    def attrs(layer, key):
        return [span[7][key] for span in by_layer[layer] if span[7] and key in span[7]]

    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = len(by_layer[layer])
        values[f"{layer}.self_ms.sum"] = sum(own[span[0]] for span in by_layer[layer]) * 1e3

    roots = [span for span in by_layer["api"] if not span[4]]
    root_s = sum(span[3] - span[2] for span in roots)
    values["unattributed.share"] = (
        sum(own[span[0]] for span in roots) / root_s if root_s else 0.0
    )
    values["trace.spans"] = len(spans)
    values["trace.overhead_share"] = len(spans) * span_cost_s / wall_s

    values["api.optimize_ms.p50"] = percentile(ms("api"), 50)
    values["formulation.build_ms.p50"] = percentile(ms("formulation"), 50)
    values["formulation.variables.mean"] = mean(attrs("formulation", "vars"))
    values["formulation.constraints.mean"] = mean(attrs("formulation", "cons"))
    values["warmstart.ms.p50"] = percentile(ms("warmstart"), 50)

    bnb_ms = ms("bnb")
    nodes = sum(attrs("bnb", "nodes"))
    values["bnb.solve_ms.p50"] = percentile(bnb_ms, 50)
    values["bnb.nodes.sum"] = nodes
    values["bnb.nodes_per_s"] = nodes / (sum(bnb_ms) / 1e3) if bnb_ms else 0.0
    values["bnb.lp_solves.sum"] = sum(attrs("bnb", "lp_solves"))
    factors = [f for f in attrs("bnb", "factor") if f is not None]
    values["bnb.factor_geomean"] = geomean(factors)
    values["bnb.optimal_share"] = mean([float(o) for o in attrs("bnb", "optimal")])

    simplex_ms = ms("simplex")
    pivots = sum(attrs("simplex", "pivots"))
    solves = len(simplex_ms)
    values["simplex.ms.sum"] = sum(simplex_ms)
    values["simplex.ms_per_solve.p50"] = percentile(simplex_ms, 50)
    values["simplex.pivots.sum"] = pivots
    values["simplex.pivots_per_s"] = pivots / (sum(simplex_ms) / 1e3) if simplex_ms else 0.0
    values["simplex.warm_ratio"] = sum(attrs("simplex", "warm")) / solves if solves else 0.0
    values["simplex.refactorizations"] = sum(attrs("simplex", "refactorizations"))
    values["simplex.error_fallbacks"] = sum(attrs("simplex", "error"))

    values["highs.ms.sum"] = sum(ms("highs"))
    values["highs.ms_per_solve.p50"] = percentile(ms("highs"), 50)
    values["extract.ms.sum"] = sum(ms("extract"))
    values["plancost.ms.sum"] = sum(ms("plancost"))
    values["selinger.ms.p50"] = percentile(ms("selinger"), 50)
    values["selinger.ms.p90"] = percentile(ms("selinger"), 90)
    values["shardwire.encode_ms.sum"] = sum(ms("shardwire.encode"))
    values["shardwire.decode_ms.sum"] = sum(ms("shardwire.decode") + ms("shardwire.result"))
    values["ring.route_us.p50"] = percentile(ms("ring"), 50) * 1e3
    return values

