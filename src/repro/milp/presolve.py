"""Lightweight presolve: bound propagation before branch-and-bound.

Commercial solvers run extensive presolve; we implement the reductions that
matter for our join-ordering MILPs:

* integral bound rounding (``ceil`` of lower, ``floor`` of upper bounds);
* one call of the activity-based :class:`~repro.milp.propagation.BoundPropagator`
  that branch-and-bound also runs at every node: single-variable rows
  become bounds, integer bounds tighten through the rows, and boxes no
  point can satisfy are reported infeasible.

Presolve never modifies the :class:`~repro.milp.model.Model`; it returns
tightened bound vectors that the solver applies at the root node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.milp.model import Model
from repro.milp.propagation import BoundPropagator
from repro.milp.standard_form import to_standard_form

_TOL = 1e-9


@dataclass
class PresolveResult:
    """Outcome of presolve.

    Attributes
    ----------
    lb, ub:
        Tightened bound vectors.
    feasible:
        ``False`` when presolve proved infeasibility.
    reductions:
        Human-readable log of applied reductions.
    """

    lb: np.ndarray
    ub: np.ndarray
    feasible: bool = True
    reductions: list[str] = field(default_factory=list)

    @property
    def num_fixed(self) -> int:
        """Number of variables fixed to a single value."""
        return int(np.sum(np.isclose(self.lb, self.ub)))


def presolve(
    model: Model, propagator: BoundPropagator | None = None
) -> PresolveResult:
    """Round integral bounds, then propagate them through the rows.

    ``propagator`` is the caller's engine for ``model`` (branch-and-bound
    passes the one it runs at every node); one is built when omitted.
    """
    lb, ub = model.bounds_arrays()
    result = PresolveResult(lb=lb, ub=ub)

    _round_integral_bounds(model, result)
    if not result.feasible:
        return result

    if propagator is None:
        propagator = BoundPropagator(to_standard_form(model))
    box = propagator.propagate(result.lb, result.ub)
    if box is None:
        result.feasible = False
        result.reductions.append("infeasible-propagation")
        return result
    for kind, moved in (
        ("lb", box[0] > result.lb), ("ub", box[1] < result.ub)
    ):
        result.reductions += [
            f"tighten-{kind}:{model.variables[index].name}"
            for index in np.flatnonzero(moved)
        ]
    result.lb, result.ub = box
    return result


def _round_integral_bounds(model: Model, result: PresolveResult) -> None:
    """Round integral variable bounds inwards.

    Infinite bounds are passed through untouched (``math.ceil(-inf)``
    would raise): the LP backends accept ``-inf`` lower bounds natively,
    so presolve must preserve them rather than reject the model.
    """
    for variable in model.variables:
        if not variable.is_integral:
            continue
        index = variable.index
        new_lb = (
            math.ceil(result.lb[index] - _TOL)
            if math.isfinite(result.lb[index])
            else result.lb[index]
        )
        new_ub = (
            math.floor(result.ub[index] + _TOL)
            if math.isfinite(result.ub[index])
            else result.ub[index]
        )
        if new_lb > result.lb[index] + _TOL:
            result.lb[index] = new_lb
            result.reductions.append(f"round-lb:{variable.name}")
        if new_ub < result.ub[index] - _TOL:
            result.ub[index] = new_ub
            result.reductions.append(f"round-ub:{variable.name}")
        if result.lb[index] > result.ub[index] + _TOL:
            result.feasible = False
            result.reductions.append(f"infeasible-bounds:{variable.name}")
            return
