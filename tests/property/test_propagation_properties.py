"""Soundness of node-level bound propagation on join-ordering MILPs.

``SolverOptions(use_presolve=False)`` runs the unpropagated search, the
reference here.  On random small queries under several formulation
configurations, the propagated search must reach the same status and
MILP objective, and the root box propagation returns must contain the
reference's optimal point: propagation may only remove points no
feasible solution uses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FormulationConfig
from repro.core.optimizer import MILPJoinOptimizer
from repro.milp import SolveStatus, SolverOptions, presolve
from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.workloads import QueryGenerator

TOPOLOGIES = ("chain", "star", "cycle", "clique")

HIGH = FormulationConfig.high_precision
#: ``(config, table counts)``.  Operator selection stays at 3 tables:
#: its 4-table reference solves take 3-20 s each.
CONFIGS = [
    pytest.param(HIGH(), (3, 4), id="high-hash"),
    pytest.param(
        FormulationConfig.medium_precision(cost_model="cout"), (3, 4),
        id="medium-cout",
    ),
    pytest.param(HIGH(cost_model="sort_merge"), (3, 4), id="sort-merge"),
    pytest.param(HIGH(rounding="lower"), (3, 4), id="lower-rounding"),
    pytest.param(HIGH(select_operators=True), (3,), id="operators"),
    pytest.param(
        HIGH(cost_model="bnl"), (3, 4), id="bnl",
        marks=pytest.mark.xfail(
            strict=False,
            reason=(
                "CHANGES.md FOUND: bnl product rows' big-M lets a "
                "near-integral flag zero the objective, so the optimum "
                "depends on the search path"
            ),
        ),
    ),
]


@pytest.mark.parametrize("config,sizes", CONFIGS)
@given(data=st.data())
@settings(max_examples=6, deadline=None, derandomize=True)
def test_propagation_keeps_status_objective_and_optimum(config, sizes, data):
    topology = data.draw(st.sampled_from(TOPOLOGIES), label="topology")
    tables = data.draw(st.sampled_from(sizes), label="tables")
    seed = data.draw(st.integers(0, 10_000), label="seed")
    query = QueryGenerator(seed=seed).generate(topology, tables)
    model = MILPJoinOptimizer(config).formulate(query).model

    reference = BranchAndBoundSolver(
        model, SolverOptions(use_presolve=False, time_limit=120.0)
    ).solve()
    propagated = BranchAndBoundSolver(
        model, SolverOptions(time_limit=120.0)
    ).solve()
    assert reference.status is SolveStatus.OPTIMAL
    assert propagated.status is reference.status
    assert math.isclose(
        propagated.objective, reference.objective,
        rel_tol=1e-6, abs_tol=1e-6,
    )

    root = presolve(model)
    assert root.feasible
    x = reference.x
    slack = 1e-6 * (1.0 + np.abs(x))
    assert np.all(root.lb - slack <= x)
    assert np.all(x <= root.ub + slack)
