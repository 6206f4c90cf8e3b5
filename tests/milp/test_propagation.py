"""Unit tests for the activity-based bound propagator."""

import math

import numpy as np
import pytest

from repro import obs
from repro.core.config import FormulationConfig
from repro.core.optimizer import MILPJoinOptimizer
from repro.milp import Model, SolverOptions, VarType, to_standard_form
from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.propagation import BoundPropagator
from repro.obs import Tracer
from repro.workloads import QueryGenerator


def propagate(model, lb=None, ub=None):
    """Propagate ``model``'s own bounds, or the given box."""
    model_lb, model_ub = model.bounds_arrays()
    return BoundPropagator(to_standard_form(model)).propagate(
        model_lb if lb is None else np.asarray(lb, dtype=float),
        model_ub if ub is None else np.asarray(ub, dtype=float),
    )


class TestTightening:
    def test_equality_row_fixes_variables(self):
        m = Model("t")
        x, y, z = (m.add_binary(name) for name in "xyz")
        m.add_eq(x + y + z, 3, "all")
        lb, ub = propagate(m)
        assert list(lb) == list(ub) == [1.0, 1.0, 1.0]

    def test_threshold_row_forces_the_flag(self):
        # lco - M * cto <= log(theta): once the join order pushes lco
        # above the threshold, the flag must be on.
        m = Model("t")
        lco = m.add_continuous("lco", 0, 30)
        cto = m.add_binary("cto")
        m.add_le(lco - 30 * cto, 12.5, "threshold")
        _, ub = m.bounds_arrays()
        lb, _ = propagate(m)
        assert lb[cto.index] == 0.0
        box = np.zeros(2)
        box[lco.index] = 13.0
        lb, _ = propagate(m, lb=box, ub=ub)
        assert lb[cto.index] == 1.0
        # lco's own bounds stay as given: derived continuous bounds
        # never leave the propagator.
        assert lb[lco.index] == 13.0

    def test_integer_bounds_round_inward(self):
        m = Model("t")
        x = m.add_var("x", 0, 10, VarType.INTEGER)
        y = m.add_continuous("y", 0, 4)
        m.add_le(3 * x + y, 8, "cap")
        _, ub = propagate(m)
        assert ub[x.index] == 2.0
        assert ub[y.index] == 4.0

class TestEmptyBoxes:
    def test_conflicting_flags_are_empty(self):
        m = Model("t")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_le(x + y, 1, "pack")
        assert propagate(m) is not None
        assert propagate(m, lb=[1, 1], ub=[1, 1]) is None

    def test_emptiness_found_through_a_chain_of_rows(self):
        m = Model("t")
        a, b, c = (m.add_binary(name) for name in "abc")
        m.add_le(a - b, 0, "a-implies-b")
        m.add_le(b - c, 0, "b-implies-c")
        assert propagate(m, lb=[1, 0, 0], ub=[1, 1, 0]) is None

    def test_join_order_search_prunes_propagated_nodes(self):
        # The threshold flags' big-M rows empty most down-branches once
        # the join order fixes the log-cardinalities: those nodes are
        # pruned before their LP.
        query = QueryGenerator(seed=1).generate("chain", 3)
        model = MILPJoinOptimizer(
            FormulationConfig.high_precision(3)
        ).formulate(query).model
        with obs.tracing(Tracer(sample="all")) as tracer:
            root = obs.start_trace("test")
            with obs.attach(root):
                on = BranchAndBoundSolver(model).solve()
            root.finish()
            spans = tracer.traces()[0].snapshot_spans()
        reasons = [
            attrs.get("reason")
            for span in spans
            for _, name, attrs in span.events
            if name == "bnb.prune"
        ]
        assert "propagated" in reasons
        off = BranchAndBoundSolver(
            model, SolverOptions(use_presolve=False)
        ).solve()
        assert on.status is off.status
        assert on.objective == pytest.approx(off.objective, rel=1e-6)
        assert on.lp_solves < off.lp_solves


class TestSoundness:
    def test_infinite_lower_bounds_pass_through(self):
        m = Model("t")
        x = m.add_continuous("x", -math.inf, math.inf)
        k = m.add_var("k", -math.inf, 5, VarType.INTEGER)
        b = m.add_binary("b")
        m.add_le(x + b, 3, "free")
        m.add_le(k - x, 2, "pair")
        lb, ub = propagate(m)
        assert lb[x.index] == -math.inf and ub[x.index] == math.inf
        assert lb[k.index] == -math.inf and ub[k.index] == 5.0
        assert (lb[b.index], ub[b.index]) == (0.0, 1.0)

    def test_point_within_tolerance_of_a_big_row_survives(self):
        # 1e8-coefficient rows: a point that violates the row by far less
        # than the model's row-relative tolerance is feasible, so neither
        # the emptiness test nor a derived integer bound may exclude it.
        m = Model("t")
        x = m.add_continuous("x", 0, 2)
        z = m.add_continuous("z", 0, 2)
        b = m.add_binary("b")
        m.add_le(1e8 * x - 1e8 * z - 2e8 * b, 0, "big")
        for excess in (0.0, 1e-7, 4e-7, 9e-7):
            point = np.array([1.0 + excess, 1.0, 0.0])
            assert m.is_feasible(point)
            box = propagate(m, lb=point, ub=[point[0], point[1], 1.0])
            assert box is not None
            lb, ub = box
            assert np.all(lb <= point) and np.all(point <= ub)

    def test_propagation_keeps_every_integral_point_of_a_random_box(self):
        rng = np.random.default_rng(7)
        m = Model("t")
        xs = [m.add_var(f"x{i}", 0, 3, VarType.INTEGER) for i in range(4)]
        for row in range(3):
            coefficients = rng.integers(-4, 5, size=4)
            m.add_le(
                sum(int(c) * v for c, v in zip(coefficients, xs)),
                float(rng.integers(0, 8)),
                f"r{row}",
            )
        box = propagate(m)
        points = np.array(np.meshgrid(*[range(4)] * 4)).reshape(4, -1).T
        for point in points.astype(float):
            if m.is_feasible(point):
                assert box is not None
                lb, ub = box
                assert np.all(lb <= point) and np.all(point <= ub)
