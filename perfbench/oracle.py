"""Exact oracle for every answer the benchmark receives.

The reference is the Selinger DP optimum over left-deep plans with
cross products, computed through :mod:`repro.api` outside the timed
region.  Three checks apply to each answer:

* the plan joins every query table exactly once (the plan is rebuilt
  over the benchmark's own copy of the query, which validates it);
* its cost, re-evaluated on that copy, matches the reported
  ``true_cost``;
* an exact (``selinger``) answer equals the optimum; an ``OPTIMAL``
  MILP answer lies in ``[optimum, tolerance * optimum]``, the guarantee
  of the threshold approximation (tolerance 3 at ``high`` precision);
  any other answer costs at least the optimum.
"""

from __future__ import annotations

from repro.api import OptimizerSettings, create_optimizer
from repro.exceptions import PlanError
from repro.plans.cost import PlanCostEvaluator
from repro.plans.plan import LeftDeepPlan

#: Relative slack for floating-point cost comparisons.
REL_TOL = 1e-9


class Oracle:
    """DP optima per query (memoized by object identity) and answer checks."""

    def __init__(self, settings: OptimizerSettings) -> None:
        self.settings = settings
        self.tolerance = settings.formulation_config().tolerance
        self._dp = create_optimizer("selinger", settings)
        self._optima: dict[int, tuple[object, float]] = {}

    def optimum(self, query) -> float:
        entry = self._optima.get(id(query))
        if entry is None:
            result = self._dp.optimize(query, time_limit=600.0)
            if result.true_cost is None:
                raise RuntimeError(f"DP oracle found no plan for {query.name}")
            # The query rides along so its id() cannot be recycled.
            entry = self._optima[id(query)] = (query, result.true_cost)
        return entry[1]

    def check(self, query, result) -> str | None:
        """``None`` when ``result`` (a ``PlanResult``) is right, else why not."""
        if result is None or result.plan is None:
            return "no plan"
        try:
            plan = LeftDeepPlan(query, result.plan.first_table, result.plan.steps)
        except PlanError as error:
            return f"plan does not cover the query: {error}"
        cost = PlanCostEvaluator(
            query, self.settings.cost_context(), self.settings.use_cout
        ).cost(plan)
        if result.true_cost is None or abs(cost - result.true_cost) > REL_TOL * cost:
            return f"reported true_cost {result.true_cost} but the plan costs {cost}"
        best = self.optimum(query)
        low = best * (1 - REL_TOL)
        if result.algorithm == "selinger":
            high = best * (1 + REL_TOL)
        elif result.algorithm == "milp" and result.status.name == "OPTIMAL":
            high = best * self.tolerance * (1 + REL_TOL)
        else:
            high = float("inf")
        if not low <= cost <= high:
            return (
                f"{result.algorithm} {result.status.name} plan costs "
                f"{cost / best:.6g}x the DP optimum"
            )
        return None
