"""Branch-and-bound MILP solver with anytime behaviour.

This module replaces the commercial solver (Gurobi) used by the paper.  It
provides the solver features the paper's argument rests on:

* **anytime incumbents** — a stream of improving feasible solutions,
* **proven lower bounds** — the best-bound of the open search tree, which
  yields the guaranteed optimality factor plotted in the paper's Figure 2,
* **time limits / gap targets** — optimization can stop at a deadline or
  once the incumbent is provably within a factor of the optimum,
* **warm starts** — an externally constructed feasible solution seeds the
  incumbent (commercial solvers do the same with construction heuristics),
* **primal heuristics** — LP rounding with fix-and-solve, plus iterative
  diving, to find incumbents early.

LP relaxations are delegated to a pluggable backend through one stateful
:class:`~repro.milp.lp_backend.LPSession` per search tree.  The default
(``backend="auto"``) picks the self-contained revised simplex for small
models and HiGHS via scipy for large ones; the crossover honours the
``REPRO_AUTO_SIMPLEX_MAX_VARS`` environment override.  Nodes, dives and
fix-and-solve re-solves drive the session via ``set_bounds`` and seed it
with the parent node's optimal basis: a branching bound change leaves
that basis dual-feasible, so the re-optimization typically takes a
handful of dual-simplex pivots instead of a cold solve.  Root cutting
planes go through ``add_rows``, which extends the live basis with the
cut rows' slack columns so the cut loop stays warm too, and an optional
:class:`~repro.milp.lp_backend.BasisExchangePool` lets concurrent
solvers of the same form (the portfolio) seed each other's root LPs.

Bound propagation (:class:`~repro.milp.propagation.BoundPropagator`)
runs at the root, as presolve, and again on every box the search is
about to hand to the LP: tree nodes, dives, fix-and-solve and the
warm-start repair.  A box that propagates empty is pruned without an LP
solve (``bnb.prune`` with ``reason="propagated"``); any other box
reaches the LP with its integer bounds tightened, which fixes most
cardinality-threshold flags as soon as the join order decides them.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cancel import CancelToken
from repro.exceptions import CancelledError, SolverError
from repro.milp.cuts import CutGenerator, cuts_to_rows
from repro.milp.lp_backend import (
    AUTO_SIMPLEX_MAX_VARS,
    BasisExchangePool,
    LPBackend,
    LPResult,
    LPSession,
    LPStatus,
    ScipyHighsBackend,
    SimplexBasis,
    auto_simplex_max_vars,
    form_signature,
    get_backend,
    validate_pricing,
)
from repro.milp.simplex import RevisedSimplexBackend
from repro.milp.model import Model
from repro.milp.presolve import presolve
from repro.milp.propagation import BoundPropagator
from repro.milp.solution import (
    IncumbentEvent,
    MILPSolution,
    SolveStatus,
    relative_gap,
)
from repro.milp.standard_form import (
    StandardForm,
    extend_form_with_rows,
    to_standard_form,
)


@dataclass
class SolverOptions:
    """Tuning knobs for :class:`BranchAndBoundSolver`.

    Attributes
    ----------
    time_limit:
        Wall-clock budget in seconds (the paper uses 60 s).
    node_limit:
        Optional cap on processed nodes.
    gap_tolerance:
        Stop when the relative gap falls to or below this value.
    integrality_tol:
        Distance from an integer under which a value counts as integral.
    backend:
        LP backend name (``"auto"``, ``"scipy"`` or ``"simplex"``).
        ``"auto"`` uses the warm-start capable revised simplex for models
        up to :data:`~repro.milp.lp_backend.AUTO_SIMPLEX_MAX_VARS`
        variables and scipy/HiGHS beyond that.
    pricing:
        Primal pricing rule for the revised simplex: ``"auto"`` (the
        process default, ``REPRO_SIMPLEX_PRICING`` or Devex),
        ``"devex"``, ``"dantzig"`` or ``"bland"``.  Ignored by the
        scipy/HiGHS backend.
    lp_warm_start:
        Seed each node LP with the parent node's optimal basis when the
        backend supports it (dual-simplex re-optimization).  Disable for
        A/B measurements of the warm-start speedup.
    use_presolve:
        Propagate bounds through the rows at the root (presolve) and at
        every node, dive step and fix-and-solve before its LP; a box
        that propagates empty is pruned without an LP solve.  ``False``
        runs the unpropagated search.
    heuristics:
        Enable rounding/diving primal heuristics.
    dive_frequency:
        Run a diving heuristic every this many nodes (0 disables periodic
        dives; the root dive still runs when ``heuristics`` is on).
    max_dive_depth:
        Cap on LP resolves inside one dive.
    branching:
        ``"most_fractional"`` or ``"pseudocost"``.
    node_selection:
        ``"best_bound"`` (default) or ``"dfs"``.
    cuts:
        Separate cover/clique cutting planes at the root (cut-and-branch).
    max_cut_rounds:
        Number of separate/re-solve rounds at the root when ``cuts`` is on.
    max_cuts_per_round:
        Cap on cuts added per separation round.
    stop_check:
        Optional callable polled during the search; returning ``True``
        stops the solve as if the time limit had expired.  Used by the
        portfolio solver for cooperative cancellation.
    cancel_token:
        Optional :class:`repro.cancel.CancelToken` threaded from the
        serving layer.  Unlike ``stop_check`` (polled only between
        nodes), the token also reaches the LP session's pivot loop, so
        cancellation lands *mid-solve*.  A cancelled node LP is dropped
        and the search stops at the next budget poll with the incumbent
        intact (anytime semantics); ``session_stats["cancelled"]``
        records the reason.
    basis_pool:
        Optional :class:`~repro.milp.lp_backend.BasisExchangePool`.
        When set (the portfolio installs one), the root LP is seeded
        from the pool's best published basis and the solver publishes
        its own root basis back, so concurrent searches over the same
        form share the cold-start cost once.
    """

    time_limit: float = 60.0
    node_limit: int | None = None
    gap_tolerance: float = 1e-6
    integrality_tol: float = 1e-6
    backend: str = "auto"
    pricing: str = "auto"
    lp_warm_start: bool = True
    use_presolve: bool = True
    heuristics: bool = True
    dive_frequency: int = 40
    max_dive_depth: int = 400
    branching: str = "most_fractional"
    node_selection: str = "best_bound"
    cuts: bool = False
    max_cut_rounds: int = 8
    max_cuts_per_round: int = 50
    stop_check: Callable[[], bool] | None = None
    cancel_token: CancelToken | None = None
    basis_pool: BasisExchangePool | None = None


# AUTO_SIMPLEX_MAX_VARS / auto_simplex_max_vars() now live in
# lp_backend.py next to the other env-tunable simplex knobs; both are
# re-exported here (imported above) for backwards compatibility.

#: Sentinel ``basis`` for :meth:`BranchAndBoundSolver._solve_lp`: keep the
#: session's internally retained basis (used by the cut loop, where
#: ``add_rows`` just extended that basis with the new slack columns).
_SESSION_BASIS = object()


@dataclass(slots=True)
class _Node:
    """One branch-and-bound node, storing only its bound delta."""

    parent: "_Node | None"
    var_index: int  # -1 for the root
    lb: float
    ub: float
    depth: int
    lp_bound: float


#: Anytime callback: invoked on every incumbent/bound event.
AnytimeCallback = Callable[[IncumbentEvent], None]


class BranchAndBoundSolver:
    """Best-bound branch-and-bound over LP relaxations."""

    def __init__(self, model: Model, options: SolverOptions | None = None):
        self.model = model
        self.options = options or SolverOptions()
        backend_name = self.options.backend
        #: Why this tree's session is cold (``None`` for warm backends):
        #: "auto-size-routed" when ``backend="auto"`` handed the model
        #: to scipy/HiGHS over the variable crossover, else
        #: "backend-requested".  Surfaced in ``session_stats`` so a
        #: size-routed cold solve is distinguishable from an
        #: error-fallback one.
        self._cold_reason: str | None = None
        if backend_name == "auto":
            if model.num_variables <= auto_simplex_max_vars():
                backend_name = "simplex"
            else:
                backend_name = "scipy"
                self._cold_reason = "auto-size-routed"
        self._backend: LPBackend = get_backend(backend_name)
        if self.options.pricing != "auto" and hasattr(
            self._backend, "pricing"
        ):
            self._backend.pricing = validate_pricing(self.options.pricing)
        if not self._backend.supports_warm_start and self._cold_reason is None:
            self._cold_reason = "backend-requested"
        self._warm_lp = (
            self.options.lp_warm_start and self._backend.supports_warm_start
        )
        # When the revised simplex hits numerical trouble on one node it
        # returns ERROR; a per-solve fallback to HiGHS keeps the search
        # complete instead of dropping the subtree.
        self._fallback_backend: LPBackend | None = None
        self._fallback_reasons: dict[str, int] = {}
        #: Reason string once the cancel token fired mid-solve
        #: (``None`` while the search runs uncancelled).
        self._cancelled: str | None = None
        self._lp_solves = 0
        self._lp_pivots = 0
        self._lp_time = 0.0
        self._form: StandardForm = to_standard_form(model)
        #: Bound propagation engine, run on every box before its LP
        #: (``None`` when presolve is off: the unpropagated search).
        self._propagator: BoundPropagator | None = (
            BoundPropagator(self._form) if self.options.use_presolve
            else None
        )
        # One LP session per tree: it owns the equilibrated matrix and
        # factorization caches, nodes drive it via set_bounds, and the
        # cut loop grows it via add_rows.  Created at the top of each
        # solve() so late backend swaps (tests inject failures that way)
        # and re-solves both get a fresh session.
        self._session: LPSession | None = None
        self._integral = self._form.integral_indices
        self._priorities = np.array(
            [variable.priority for variable in model.variables]
        )
        self._tick = itertools.count()
        # Pseudocost state: per-variable average objective degradation.
        num_vars = model.num_variables
        self._pseudo_up = np.zeros(num_vars)
        self._pseudo_down = np.zeros(num_vars)
        self._pseudo_up_count = np.zeros(num_vars, dtype=np.int64)
        self._pseudo_down_count = np.zeros(num_vars, dtype=np.int64)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def solve(
        self,
        warm_start: "dict[str, float] | Sequence[float] | None" = None,
        callback: AnytimeCallback | None = None,
    ) -> MILPSolution:
        """Minimize the model objective; return an anytime-rich solution.

        When a trace context is active (:mod:`repro.obs`), the search
        runs under a ``bnb.solve`` span carrying a solver event
        timeline: node open/prune, cut rounds, incumbent/bound updates,
        basis-pool adoption and ERROR fallbacks.
        """
        with obs.span("bnb.solve") as bnb_span:
            solution = self._solve_tree(warm_start, callback)
            bnb_span.annotate(
                status=solution.status.name,
                nodes=solution.node_count,
                lp_solves=self._lp_solves,
                lp_pivots=self._lp_pivots,
            )
            if math.isfinite(solution.objective):
                bnb_span.annotate(objective=solution.objective)
            if math.isfinite(solution.best_bound):
                bnb_span.annotate(best_bound=solution.best_bound)
        return solution

    def _solve_tree(
        self,
        warm_start: "dict[str, float] | Sequence[float] | None" = None,
        callback: AnytimeCallback | None = None,
    ) -> MILPSolution:
        start = time.monotonic()
        # Drop any previous session; _solve_lp lazily opens a fresh one
        # (after presolve, so presolve-infeasible models never pay the
        # workspace build, and late backend swaps take effect).
        self._session = None
        self._cancelled = None
        events: list[IncumbentEvent] = []
        incumbent_x: np.ndarray | None = None
        incumbent_obj = math.inf
        node_count = 0

        def elapsed() -> float:
            return time.monotonic() - start

        def out_of_budget() -> bool:
            if elapsed() >= self.options.time_limit:
                return True
            stop_check = self.options.stop_check
            if stop_check is not None and stop_check():
                return True
            token = self.options.cancel_token
            if token is not None and token.cancelled:
                # Node-granularity anytime stop: the incumbent found so
                # far survives; only unexplored subtrees are abandoned.
                self._cancelled = token.reason
                return True
            if self._cancelled is not None:
                return True
            limit = self.options.node_limit
            return limit is not None and node_count >= limit

        def record(kind: str, objective: float, bound: float) -> None:
            event = IncumbentEvent(elapsed(), objective, bound, kind)
            events.append(event)
            obs.event(f"bnb.{kind}", objective=objective, bound=bound)
            if callback is not None:
                callback(event)

        # ----- presolve ------------------------------------------------
        if self._propagator is not None:
            pre = presolve(self.model, self._propagator)
            if not pre.feasible:
                return MILPSolution(
                    status=SolveStatus.INFEASIBLE,
                    objective=math.inf,
                    best_bound=math.inf,
                    node_count=0,
                    solve_time=elapsed(),
                    events=events,
                )
            root_lb, root_ub = pre.lb, pre.ub
        else:
            root_lb, root_ub = self.model.bounds_arrays()

        # ----- warm start ----------------------------------------------
        if warm_start is not None:
            candidate = self._coerce_warm_start(warm_start, root_lb, root_ub)
            if candidate is not None:
                incumbent_x = candidate
                incumbent_obj = self.model.objective_value(candidate)
                record("incumbent", incumbent_obj, -math.inf)

        # ----- root relaxation ------------------------------------------
        # Seed from the cross-solver basis pool when one is attached.
        # The fetch is keyed by this form's signature: portfolio members
        # share the same form (one member's root basis spares every
        # other member the cold start), and the serving layer shares one
        # pool across *queries*, where only equal-shaped formulations
        # can seed each other.
        pool = self.options.basis_pool
        seed_basis = (
            pool.fetch(form_signature(self._form))
            if pool is not None and self._warm_lp
            else None
        )
        if seed_basis is not None:
            obs.event("bnb.basis_adopted", source="pool")
        root_result = self._solve_lp(root_lb, root_ub, seed_basis)
        if pool is not None and root_result.status is LPStatus.OPTIMAL:
            pool.publish(root_result.basis)
            obs.event("bnb.basis_published")
        if root_result.status is LPStatus.INFEASIBLE:
            return MILPSolution(
                status=SolveStatus.INFEASIBLE,
                objective=math.inf,
                best_bound=math.inf,
                node_count=1,
                solve_time=elapsed(),
                events=events,
                lp_solves=self._lp_solves,
                lp_pivots=self._lp_pivots,
                lp_time=self._lp_time,
                session_stats=self._session_stats_dict(),
            )
        if root_result.status is LPStatus.UNBOUNDED:
            return MILPSolution(
                status=SolveStatus.UNBOUNDED,
                objective=-math.inf,
                best_bound=-math.inf,
                node_count=1,
                solve_time=elapsed(),
                events=events,
                lp_solves=self._lp_solves,
                lp_pivots=self._lp_pivots,
                lp_time=self._lp_time,
                session_stats=self._session_stats_dict(),
            )
        if root_result.status is LPStatus.ERROR:
            if self._cancelled is not None:
                # Cancelled at the root: an honest anytime answer — the
                # warm-start incumbent if one was seeded, else
                # empty-handed NO_SOLUTION — not a solver fault.
                if incumbent_x is not None:
                    return self._finish(
                        SolveStatus.FEASIBLE, incumbent_x, incumbent_obj,
                        -math.inf, 1, elapsed(), events,
                    )
                return self._finish(
                    SolveStatus.NO_SOLUTION, None, math.inf, -math.inf,
                    1, elapsed(), events,
                )
            raise SolverError(f"root LP failed: {root_result.message}")

        global_bound = root_result.objective
        record("bound", incumbent_obj, global_bound)

        # Incumbent from the root when it is already integral.
        fractional = self._fractional_indices(root_result.x)
        if not fractional.size:
            if incumbent_obj > root_result.objective:
                incumbent_x = root_result.x
                incumbent_obj = root_result.objective
                record("incumbent", incumbent_obj, global_bound)
            return self._finish(
                SolveStatus.OPTIMAL,
                incumbent_x,
                incumbent_obj,
                incumbent_obj,
                1,
                elapsed(),
                events,
            )

        # ----- root cutting planes ----------------------------------------
        if self.options.cuts and not out_of_budget():
            root_result, global_bound, cut_count = self._cut_loop(
                root_result, root_lb, root_ub, global_bound,
                incumbent_obj, record, out_of_budget,
            )
            fractional = self._fractional_indices(root_result.x)
            if not fractional.size:
                if incumbent_obj > root_result.objective:
                    incumbent_x = root_result.x
                    incumbent_obj = root_result.objective
                    record("incumbent", incumbent_obj, global_bound)
                return self._finish(
                    SolveStatus.OPTIMAL,
                    incumbent_x,
                    incumbent_obj,
                    incumbent_obj,
                    1,
                    elapsed(),
                    events,
                )

        # ----- root heuristics -------------------------------------------
        if self.options.heuristics and not out_of_budget():
            for heuristic in (
                self._fix_and_solve,
                self._fix_and_solve_up,
                self._dive,
            ):
                candidate = heuristic(
                    root_result.x, root_lb, root_ub, root_result.basis
                )
                if candidate is None:
                    continue
                objective = self.model.objective_value(candidate)
                if objective < incumbent_obj - 1e-9:
                    incumbent_x = candidate
                    incumbent_obj = objective
                    record("incumbent", incumbent_obj, global_bound)

        # ----- tree search -----------------------------------------------
        root = _Node(None, -1, 0.0, 0.0, 0, root_result.objective)
        open_nodes: list = []
        self._push(open_nodes, root, root_result.x, root_result.basis)
        reached_limit = False
        # Nodes dropped because their LP solve errored: the search remains
        # sound only if the final bound and status account for them.
        lp_error_count = 0
        lp_error_bound = math.inf

        while open_nodes:
            if out_of_budget():
                reached_limit = True
                break
            if relative_gap(incumbent_obj, global_bound) <= self.options.gap_tolerance:
                global_bound = min(global_bound, incumbent_obj)
                break

            node, parent_x, parent_basis = self._pop(open_nodes)
            new_bound = self._best_open_bound(open_nodes, node.lp_bound)
            if new_bound > global_bound + 1e-12:
                global_bound = min(new_bound, incumbent_obj)
                record("bound", incumbent_obj, global_bound)
            if node.lp_bound >= incumbent_obj - 1e-9:
                obs.event("bnb.prune", reason="bound", depth=node.depth)
                continue

            box = self._propagate(*self._node_bounds(node, root_lb, root_ub))
            if box is None:
                obs.event("bnb.prune", reason="propagated", depth=node.depth)
                continue
            lb, ub = box
            node_count += 1
            obs.event(
                "bnb.node", number=node_count, depth=node.depth,
                bound=node.lp_bound,
            )
            result = self._solve_lp(lb, ub, parent_basis)
            if result.status is LPStatus.ERROR:
                # Drop the node but remember that this subtree was never
                # explored: its best possible objective is node.lp_bound,
                # which must cap every bound we report from now on.
                lp_error_count += 1
                lp_error_bound = min(lp_error_bound, node.lp_bound)
                obs.event(
                    "bnb.lp_error", depth=node.depth,
                    message=result.message,
                )
                continue
            if result.status is not LPStatus.OPTIMAL:
                obs.event(
                    "bnb.prune", reason=result.status.value,
                    depth=node.depth,
                )
                continue
            self._update_pseudocost(node, result.objective)
            if result.objective >= incumbent_obj - 1e-9:
                obs.event("bnb.prune", reason="dominated", depth=node.depth)
                continue

            fractional = self._fractional_indices(result.x)
            if not fractional.size:
                incumbent_x = result.x
                incumbent_obj = result.objective
                record("incumbent", incumbent_obj, global_bound)
                continue

            if (
                self.options.heuristics
                and self.options.dive_frequency
                and node_count % self.options.dive_frequency == 0
            ):
                candidate = self._dive(result.x, lb, ub, result.basis)
                if candidate is not None:
                    objective = self.model.objective_value(candidate)
                    if objective < incumbent_obj - 1e-9:
                        incumbent_x = candidate
                        incumbent_obj = objective
                        record("incumbent", incumbent_obj, global_bound)

            branch_var = self._select_branch_variable(result.x, fractional)
            value = result.x[branch_var]
            down = _Node(
                node, branch_var, lb[branch_var], math.floor(value),
                node.depth + 1, result.objective,
            )
            up = _Node(
                node, branch_var, math.ceil(value), ub[branch_var],
                node.depth + 1, result.objective,
            )
            for child in (down, up):
                if child.lb <= child.ub:
                    self._push(open_nodes, child, result.x, result.basis)

        solve_time = elapsed()
        if open_nodes:
            remaining = min(entry[0] for entry in open_nodes)
            global_bound = min(max(global_bound, remaining), incumbent_obj)
        elif not reached_limit and lp_error_count == 0:
            global_bound = incumbent_obj if incumbent_x is not None else global_bound
        # Errored subtrees were never explored; their LP bound caps ours.
        global_bound = min(global_bound, lp_error_bound)

        if incumbent_x is None:
            if open_nodes or reached_limit or lp_error_count:
                status = SolveStatus.NO_SOLUTION
            else:
                status = SolveStatus.INFEASIBLE
            return self._finish(
                status, None, math.inf, global_bound, node_count,
                solve_time, events,
            )

        closed = relative_gap(incumbent_obj, global_bound) <= max(
            self.options.gap_tolerance, 1e-9
        )
        complete = not open_nodes and lp_error_count == 0
        status = SolveStatus.OPTIMAL if (closed or complete) else SolveStatus.FEASIBLE
        if status is SolveStatus.OPTIMAL:
            global_bound = incumbent_obj
        return self._finish(
            status, incumbent_x, incumbent_obj, global_bound, node_count,
            solve_time, events,
        )

    # ------------------------------------------------------------------
    # LP solves
    # ------------------------------------------------------------------

    def _propagate(
        self, lb: np.ndarray, ub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The box an LP should see, or ``None`` when it is provably empty.

        A pruned box costs no LP solve; the caller emits
        ``bnb.prune(reason="propagated")`` where it stands for a node.
        """
        if self._propagator is None:
            return lb, ub
        return self._propagator.propagate(lb, ub)

    def _solve_lp(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        basis: "SimplexBasis | None | object" = None,
        form: StandardForm | None = None,
    ) -> LPResult:
        """One session solve with warm-start threading and accounting.

        ``basis`` is the parent node's optimal basis (ignored when warm
        starting is off or unsupported), or the :data:`_SESSION_BASIS`
        sentinel to keep the session's internally retained basis (cut
        loop); the session itself degrades to a cold solve on any
        basis mismatch.  ``form`` only redirects the HiGHS *fallback*
        solve during the cut loop, where the session already carries the
        appended rows but ``self._form`` has not been swapped yet.
        """
        started = time.monotonic()
        target_form = form if form is not None else self._form
        session = self._session
        if session is None:
            # LP helpers (fix-and-solve repair, tests) may run before
            # solve() has opened the per-tree session.
            session = self._session = self._backend.create_session(self._form)
        # (Re-)attach every call: the cut loop replaces the session when
        # retracting cuts, and the attachment is one attribute write.
        session.cancel_token = self.options.cancel_token
        session.set_bounds(lb, ub)
        if basis is _SESSION_BASIS:
            if not self._warm_lp:
                session.install_basis(None)
        else:
            session.install_basis(basis if self._warm_lp else None)
        transient: str | None = None
        try:
            result = session.solve()
        except CancelledError as error:
            # Absorb mid-pivot cancellation at the node boundary: the
            # caller sees a failed node LP (dropped like any errored
            # node), the incumbent survives, and the next out_of_budget
            # poll ends the search.  No fallback solve — the request is
            # abandoned, not the backend broken.
            self._cancelled = error.reason
            self._lp_time += time.monotonic() - started
            return LPResult(
                LPStatus.ERROR, None, math.inf,
                message=f"cancelled: {error.reason}",
            )
        except SolverError as error:
            # A backend exception mid-node (numerical blow-up, injected
            # fault) must not abort the whole tree when a fallback
            # engine can still answer this node.
            transient = f"{type(error).__name__}: {error}"
            result = LPResult(LPStatus.ERROR, None, math.inf, str(error))
        self._lp_pivots += result.iterations
        self._lp_solves += 1
        if result.status in (
            LPStatus.ERROR,
            LPStatus.UNBOUNDED,
        ) and isinstance(self._backend, RevisedSimplexBackend):
            # ERROR: numerical trouble (includes infeasibility claims the
            # backend could not self-certify — see _certified_infeasible).
            # UNBOUNDED: have HiGHS confirm before the search acts on it.
            # Either way this is a second, counted LP solve, recorded in
            # the session stats so an error-fallback cold solve is
            # distinguishable from a size-routed one in lp_stats.
            if self._fallback_backend is None:
                self._fallback_backend = ScipyHighsBackend()
            reason = (
                "simplex-exception" if transient is not None
                else f"simplex-{result.status.value}"
            )
            self._fallback_reasons[reason] = (
                self._fallback_reasons.get(reason, 0) + 1
            )
            session.stats.fallback_solves += 1
            obs.event("lp.fallback", reason=reason)
            try:
                result = self._fallback_backend.solve(target_form, lb, ub)
            except SolverError as error:
                # Both engines failed this node: report ERROR and let
                # the search drop the node with its bound accounted.
                result = LPResult(
                    LPStatus.ERROR, None, math.inf,
                    message=f"fallback failed: {error}",
                )
            self._lp_pivots += result.iterations
            self._lp_solves += 1
        elif transient is not None and result.status is LPStatus.ERROR:
            result = LPResult(LPStatus.ERROR, None, math.inf, transient)
        self._lp_time += time.monotonic() - started
        return result

    def _session_stats_dict(self) -> dict:
        """The session's stats plus the tree-level routing diagnostics.

        ``backend`` names the engine that served the session;
        ``cold_reason`` says *why* a cold session is cold
        (``auto-size-routed`` vs ``backend-requested``);
        ``fallback_reasons`` breaks the ``fallback_solves`` counter down
        by the simplex status that triggered each HiGHS reroute.
        """
        stats = self._session.stats.as_dict()
        stats["backend"] = self._session.backend_name
        if self._cold_reason is not None:
            stats["cold_reason"] = self._cold_reason
        if self._fallback_reasons:
            stats["fallback_reasons"] = dict(self._fallback_reasons)
        if self._cancelled is not None:
            stats["cancelled"] = self._cancelled
        return stats

    # ------------------------------------------------------------------
    # Root cutting planes
    # ------------------------------------------------------------------

    def _cut_loop(
        self,
        root_result,
        root_lb: np.ndarray,
        root_ub: np.ndarray,
        global_bound: float,
        incumbent_obj: float,
        record,
        out_of_budget,
    ):
        """Separate cuts at the root and re-solve until no progress.

        Returns the final root LP result, the (possibly improved) global
        bound, and the number of cuts added.  Cuts go through the
        session's ``add_rows`` — a warm backend extends its basis with
        the new slack columns, so each re-solve is a short dual-simplex
        run instead of a cold solve of the extended form.  The tightened
        standard form is mirrored onto ``self._form`` (fallback solves,
        pseudocost costs) so all later node LPs benefit.
        """
        generator = CutGenerator(self.model)
        total_cuts = 0
        for cut_round in range(self.options.max_cut_rounds):
            if out_of_budget():
                break
            cuts = generator.separate(
                root_result.x, max_cuts=self.options.max_cuts_per_round
            )
            if not cuts:
                break
            obs.event("bnb.cut_round", round=cut_round, added=len(cuts))
            a_rows, b_rows = cuts_to_rows(cuts, self._form.num_variables)
            candidate_form = extend_form_with_rows(
                self._form, a_rows, b_rows
            )
            self._session.add_rows(a_rows, b_rows, form=candidate_form)
            result = self._solve_lp(
                root_lb, root_ub, basis=_SESSION_BASIS, form=candidate_form
            )
            if result.status is not LPStatus.OPTIMAL:
                # Numerical trouble: retract the cuts by rebuilding the
                # session on the last good relaxation (add_rows has no
                # inverse), and keep that relaxation.  The replacement
                # inherits the accumulated stats — minus the retracted
                # rows, so rows_appended reflects the final relaxation.
                accumulated = self._session.stats
                accumulated.rows_appended -= len(cuts)
                self._session = self._backend.create_session(self._form)
                self._session.stats = accumulated
                obs.event("bnb.cut_retract", dropped=len(cuts))
                break
            self._form = candidate_form
            total_cuts += len(cuts)
            improved = result.objective > root_result.objective + 1e-9
            root_result = result
            if result.objective > global_bound + 1e-12:
                global_bound = result.objective
                record("bound", incumbent_obj, global_bound)
            if not improved:
                break
            if not self._fractional_indices(result.x).size:
                break
        return root_result, global_bound, total_cuts

    # ------------------------------------------------------------------
    # Node bookkeeping
    # ------------------------------------------------------------------

    def _push(
        self,
        heap,
        node: _Node,
        parent_x: np.ndarray,
        parent_basis: SimplexBasis | None,
    ) -> None:
        heapq.heappush(
            heap,
            (node.lp_bound, next(self._tick), node, parent_x, parent_basis),
        )

    def _pop(self, heap) -> tuple[_Node, np.ndarray, "SimplexBasis | None"]:
        if self.options.node_selection == "dfs":
            # Emulate DFS by preferring the deepest most recent node.
            best = max(range(len(heap)), key=lambda i: (heap[i][2].depth, heap[i][1]))
            entry = heap[best]
            heap[best] = heap[-1]
            heap.pop()
            heapq.heapify(heap)
            return entry[2], entry[3], entry[4]
        _, __, node, parent_x, parent_basis = heapq.heappop(heap)
        return node, parent_x, parent_basis

    @staticmethod
    def _best_open_bound(heap, popped_bound: float) -> float:
        if not heap:
            return popped_bound
        return min(popped_bound, heap[0][0])

    @staticmethod
    def _node_bounds(
        node: _Node, root_lb: np.ndarray, root_ub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Materialize a node's bound vectors by walking its ancestry."""
        lb = root_lb.copy()
        ub = root_ub.copy()
        current: _Node | None = node
        seen: set[int] = set()
        while current is not None and current.var_index >= 0:
            index = current.var_index
            # Nearest (deepest) decision on a variable wins.
            if index not in seen:
                seen.add(index)
                lb[index] = max(lb[index], current.lb)
                ub[index] = min(ub[index], current.ub)
            current = current.parent
        return lb, ub

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------

    def _fractional_indices(self, x: np.ndarray) -> np.ndarray:
        if not self._integral.size:
            return np.array([], dtype=np.int64)
        values = x[self._integral]
        distance = np.abs(values - np.round(values))
        mask = distance > self.options.integrality_tol
        return self._integral[mask]

    def _select_branch_variable(
        self, x: np.ndarray, fractional: np.ndarray
    ) -> int:
        # Branch within the highest-priority fractional group: structural
        # decisions (join order) before derived flags (thresholds).
        priorities = self._priorities[fractional]
        top = priorities.max()
        # repro: allow[NUM-001] branching priorities are small integers; exact by construction
        if priorities.min() != top:
            fractional = fractional[priorities == top]
        values = x[fractional]
        frac = np.abs(values - np.round(values))
        if self.options.branching == "pseudocost":
            up = np.where(
                self._pseudo_up_count[fractional] > 0,
                self._pseudo_up[fractional],
                np.abs(self._form.c[fractional]) + 1.0,
            )
            down = np.where(
                self._pseudo_down_count[fractional] > 0,
                self._pseudo_down[fractional],
                np.abs(self._form.c[fractional]) + 1.0,
            )
            ceil_frac = np.ceil(values) - values
            floor_frac = values - np.floor(values)
            score = np.maximum(up * ceil_frac, 1e-8) * np.maximum(
                down * floor_frac, 1e-8
            )
            return int(fractional[int(np.argmax(score))])
        # Most fractional: distance to the nearest integer.
        return int(fractional[int(np.argmax(frac))])

    def _update_pseudocost(self, node: _Node, objective: float) -> None:
        if node.var_index < 0 or node.parent is None:
            return
        degradation = max(0.0, objective - node.lp_bound)
        index = node.var_index
        # A child whose lb was raised is an "up" branch.
        if node.lb > node.parent.lb or node.lb > 0:
            count = self._pseudo_up_count[index]
            self._pseudo_up[index] = (
                self._pseudo_up[index] * count + degradation
            ) / (count + 1)
            self._pseudo_up_count[index] += 1
        else:
            count = self._pseudo_down_count[index]
            self._pseudo_down[index] = (
                self._pseudo_down[index] * count + degradation
            ) / (count + 1)
            self._pseudo_down_count[index] += 1

    # ------------------------------------------------------------------
    # Primal heuristics
    # ------------------------------------------------------------------

    def _fix_and_solve(
        self,
        x: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        basis: SimplexBasis | None = None,
        mode: str = "nearest",
    ) -> np.ndarray | None:
        """Round all integral variables and re-solve for the continuous ones.

        ``mode="up"`` takes ceilings instead of nearest rounding — useful
        for indicator-style flags whose activation rows only force them
        upward (rounding up preserves feasibility of those rows).  The
        re-solve warm-starts from ``basis`` (fixing variables is a bound
        change, so the basis stays dual-feasible).
        """
        if not self._integral.size:
            return None
        fixed_lb = lb.copy()
        fixed_ub = ub.copy()
        values = x[self._integral]
        if mode == "up":
            rounded = np.ceil(values - self.options.integrality_tol)
        else:
            rounded = np.round(values)
        rounded = np.clip(rounded, lb[self._integral], ub[self._integral])
        fixed_lb[self._integral] = rounded
        fixed_ub[self._integral] = rounded
        box = self._propagate(fixed_lb, fixed_ub)
        if box is None:
            return None
        result = self._solve_lp(*box, basis)
        if result.status is LPStatus.OPTIMAL and self.model.is_feasible(result.x):
            return result.x
        return None

    def _fix_and_solve_up(
        self,
        x: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        basis: SimplexBasis | None = None,
    ) -> np.ndarray | None:
        """Ceiling-rounding variant of :meth:`_fix_and_solve`."""
        return self._fix_and_solve(x, lb, ub, basis, mode="up")

    def _dive(
        self,
        x: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        basis: SimplexBasis | None = None,
    ) -> np.ndarray | None:
        """Iteratively fix the most fractional variable and re-solve.

        Each fixing is a bound tightening, so every re-solve in the dive
        warm-starts from the basis of the previous one.
        """
        lb = lb.copy()
        ub = ub.copy()
        current = x
        for _ in range(self.options.max_dive_depth):
            fractional = self._fractional_indices(current)
            if not fractional.size:
                if self.model.is_feasible(current):
                    return current
                return None
            values = current[fractional]
            pick = int(np.argmax(np.abs(values - np.round(values))))
            index = int(fractional[pick])
            target = float(np.round(values[pick]))
            target = min(max(target, lb[index]), ub[index])
            saved_lb, saved_ub = lb[index], ub[index]
            lb[index] = ub[index] = target
            box = self._propagate(lb, ub)
            result = None if box is None else self._solve_lp(*box, basis)
            if result is None or result.status is not LPStatus.OPTIMAL:
                # Flip to the other side once; abort the dive on failure.
                other = float(
                    np.floor(values[pick])
                    if target == np.ceil(values[pick])
                    else np.ceil(values[pick])
                )
                other = min(max(other, saved_lb), saved_ub)
                if other == target:
                    return None
                lb[index] = ub[index] = other
                box = self._propagate(lb, ub)
                if box is None:
                    return None
                result = self._solve_lp(*box, basis)
                if result.status is not LPStatus.OPTIMAL:
                    return None
            lb, ub = box
            current = result.x
            basis = result.basis
        return None

    # ------------------------------------------------------------------
    # Warm starts / wrap-up
    # ------------------------------------------------------------------

    def _coerce_warm_start(
        self,
        warm_start: "dict[str, float] | Sequence[float]",
        lb: np.ndarray,
        ub: np.ndarray,
    ) -> np.ndarray | None:
        """Validate a warm start; repair continuous values via fix-and-solve."""
        if isinstance(warm_start, dict):
            assignment = self.model.assignment_from_names(warm_start)
        else:
            assignment = np.asarray(warm_start, dtype=float)
            if assignment.shape[0] != self.model.num_variables:
                raise SolverError(
                    "warm start length does not match variable count"
                )
        if self.model.is_feasible(assignment):
            return assignment
        # Keep the integral part, let the LP repair the continuous part.
        repaired = self._fix_and_solve(assignment, lb, ub)
        return repaired

    def _finish(
        self,
        status: SolveStatus,
        x: np.ndarray | None,
        objective: float,
        bound: float,
        node_count: int,
        solve_time: float,
        events: list[IncumbentEvent],
    ) -> MILPSolution:
        values: dict[str, float] = {}
        if x is not None:
            values = {
                variable.name: float(x[variable.index])
                for variable in self.model.variables
            }
        return MILPSolution(
            status=status,
            objective=objective,
            best_bound=bound,
            x=x,
            values=values,
            node_count=node_count,
            solve_time=solve_time,
            events=events,
            lp_solves=self._lp_solves,
            lp_pivots=self._lp_pivots,
            lp_time=self._lp_time,
            session_stats=self._session_stats_dict(),
        )


def solve_milp(
    model: Model,
    options: SolverOptions | None = None,
    warm_start: "dict[str, float] | Sequence[float] | None" = None,
    callback: AnytimeCallback | None = None,
) -> MILPSolution:
    """Convenience wrapper: solve ``model`` with branch-and-bound."""
    return BranchAndBoundSolver(model, options).solve(warm_start, callback)
