"""Activity-based bound propagation over a standard form's rows.

One :class:`BoundPropagator` is built per search tree.  Branch-and-bound
runs it on every box it is about to hand to the LP (root, tree nodes,
dives, fix-and-solve): a box that propagates empty is pruned without an
LP solve, and any other box reaches the LP with its integer bounds
tightened.  :func:`~repro.milp.presolve.presolve` is integral rounding
plus one call of the same engine, so the root and the nodes share one
set of rules and tolerances.

Every row is read as ``a x <= b`` (``==`` rows as a pair).  Its minimum
activity over the box, ``L``, proves the box empty when ``L > b``, and
bounds each of its variables by what the other terms leave over:
``a_j x_j <= b - (L - a_j * end_j)``, where ``end_j`` is the bound of
``x_j`` that the minimum uses.  Integer bounds round inward.

Which bounds leave the propagator:

* integer bounds, always;
* continuous bounds only where a single-variable row implies them (what
  presolve has always exported).  Continuous bounds derived through
  chains of rows stay internal: a bound set at an exact float sum is hit
  from above inside the simplex and reads as infeasible.

Tolerances are scaled to each row's magnitude, since rows mix unit
coefficients with big-M and product coefficients up to ~1e8: row ``i``
gets ``FEAS_TOL * (1 + |b_i| + sum_j |a_ij| * max(|lb_j|, |ub_j|))``
over the form's finite bounds, and every derivation is relaxed by it.
A point in the box that violates each row by at most its tolerance is
therefore never cut off.

The box is held as one vector ``v = [-lb, ub]`` so both bound kinds
tighten by a minimum: the minimum activity uses ``-|a_j| * v[end_j]``
and the bound a row implies on slot ``target_j`` is
``(b + tol - L + |a_j| * v[end_j]) / |a_j|``, for either sign of ``a_j``.
One round is a ``np.bincount`` for the row activities and a
``np.fmin.reduceat`` over the nonzeros grouped by target slot.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.milp.standard_form import StandardForm

#: Row-relative feasibility tolerance (see the module docstring).
FEAS_TOL = 1e-6
#: Distance from an integer within which a derived integer bound rounds
#: to that integer rather than inward (the solver's integrality
#: tolerance, which also absorbs float noise in the activities).
INT_TOL = 1e-6
#: Tolerance of the exact single-variable-row bounds (presolve's own).
SINGLETON_TOL = 1e-9
#: Cap on propagation rounds per call.
MAX_ROUNDS = 30
#: A round that moved no integer bound and no continuous bound by more
#: than this share of the column's width ends the call.
MIN_PROGRESS = 0.05


class BoundPropagator:
    """Propagates variable bounds through the rows of ``form``.

    Only the form's own rows are used: rows appended later (root cuts)
    are valid inequalities, so ignoring them only weakens propagation.
    """

    def __init__(self, form: StandardForm) -> None:
        n = form.num_variables
        self.num_variables = n
        blocks, rhs = [], []
        if form.a_ub is not None:
            blocks.append(form.a_ub)
            rhs.append(form.b_ub)
        if form.a_eq is not None:
            blocks += [form.a_eq, -form.a_eq]
            rhs += [form.b_eq, -form.b_eq]
        if blocks:
            matrix = sparse.vstack(blocks, format="csr")
            b = np.concatenate(rhs).astype(float)
        else:
            matrix = sparse.csr_matrix((0, n))
            b = np.zeros(0)
        matrix.eliminate_zeros()
        counts = np.diff(matrix.indptr)
        coo = matrix.tocoo()
        rows, cols, vals = coo.row, coo.col, coo.data

        integral = np.zeros(n, dtype=bool)
        integral[form.integral_indices] = True
        self._integral_indices = np.flatnonzero(integral)

        #: A constant row ``0 <= b`` with ``b < 0`` empties every box.
        constant = counts == 0
        self.infeasible = bool(
            np.any(b[constant] < -FEAS_TOL * (1.0 + np.abs(b[constant])))
        )

        # Single-variable rows are bounds, whatever the box: fold them
        # into exact bound vectors once and apply them to every box.
        single = counts[rows] == 1
        bound = b[rows[single]] / vals[single]
        upper = vals[single] > 0
        self._single_lb = np.full(n, -np.inf)
        self._single_ub = np.full(n, np.inf)
        np.maximum.at(self._single_lb, cols[single][~upper], bound[~upper])
        np.minimum.at(self._single_ub, cols[single][upper], bound[upper])
        self._single_lb[integral] = np.ceil(
            self._single_lb[integral] - SINGLETON_TOL
        )
        self._single_ub[integral] = np.floor(
            self._single_ub[integral] + SINGLETON_TOL
        )

        # Rows with two or more variables propagate.  Slot ``j`` of the
        # box vector holds ``-lb_j`` and slot ``n + j`` holds ``ub_j``.
        multi = counts[rows] >= 2
        rows, cols, vals = rows[multi], cols[multi], vals[multi]
        used_rows, rows = np.unique(rows, return_inverse=True)
        b = b[used_rows]
        positive = vals > 0
        end = np.where(positive, cols, cols + n)
        target = np.where(positive, cols + n, cols)
        magnitude = np.abs(vals)
        lb0 = np.maximum(form.lb, self._single_lb)
        ub0 = np.minimum(form.ub, self._single_ub)
        reach = np.fmax(np.abs(np.where(np.isfinite(lb0), lb0, 0.0)),
                        np.abs(np.where(np.isfinite(ub0), ub0, 0.0)))
        scale = 1.0 + np.abs(b) + np.bincount(
            rows, weights=magnitude * reach[cols], minlength=b.shape[0]
        )
        self._b_tol = b + FEAS_TOL * scale
        self._num_rows = b.shape[0]

        # Group the nonzeros by target slot, integer targets first, so
        # one reduceat yields every slot's tightest implied bound and one
        # slice of it needs rounding.
        target_integral = integral[target % max(n, 1)]
        order = np.lexsort((target, ~target_integral))
        self._rows = rows[order]
        self._end = end[order]
        self._neg_magnitude = -magnitude[order]
        self._inv_magnitude = 1.0 / magnitude[order]
        target = target[order]
        self._starts = np.flatnonzero(
            np.diff(target, prepend=-1) if target.size else target
        )
        self._targets = target[self._starts]
        #: Partner slot of each target: the other bound of its column.
        self._partners = np.where(
            self._targets < n, self._targets + n, self._targets - n
        )
        self._num_integral_targets = int(
            np.count_nonzero(target_integral[order][self._starts])
        )

    def propagate(
        self, lb: np.ndarray, ub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Tighten the box ``[lb, ub]``; ``None`` when it is provably empty.

        The returned vectors are new arrays: integer bounds fully
        propagated, continuous bounds as given intersected with the
        single-variable-row bounds.  Integer input bounds are expected
        integral (presolve rounds the root; branching keeps them so).
        """
        if self.infeasible:
            return None
        n = self.num_variables
        lb = np.maximum(lb, self._single_lb)
        ub = np.minimum(ub, self._single_ub)
        if np.any(lb > ub + SINGLETON_TOL * (1.0 + np.abs(ub))):
            return None
        if self._targets.size:
            # A row whose minimum activity takes an infinite bound has
            # activity -inf; its implied bounds come out inf, or
            # inf - inf = nan for the infinite term itself, and fmin
            # skips both.
            with np.errstate(invalid="ignore"):
                box = self._tighten(np.concatenate((-lb, ub)))
            if box is None:
                return None
            # Crossed bounds prove the box empty.  Every derivation was
            # relaxed by its row's tolerance, so a feasible box's bounds
            # can touch only through float noise.
            low, high = -box[:n], box[n:]
            if np.any(low - high > 1e-9 * (1.0 + np.abs(low) + np.abs(high))):
                return None
            integral = self._integral_indices
            lb[integral] = low[integral]
            ub[integral] = high[integral]
        return lb, ub

    def _tighten(self, box: np.ndarray) -> np.ndarray | None:
        """Run propagation rounds on the box vector ``[-lb, ub]`` in place."""
        targets, starts = self._targets, self._starts
        split = self._num_integral_targets
        # A round has made progress when some integer bound moved (by at
        # least one) or some continuous bound moved by a share of its
        # column's width at entry; any move of an infinite bound counts.
        width = box[targets] + box[self._partners]
        threshold = np.where(np.isfinite(width), MIN_PROGRESS * width, 0.0)
        threshold[:split] = 0.5
        for _ in range(MAX_ROUNDS):
            terms = self._neg_magnitude * box[self._end]
            activity = np.bincount(
                self._rows, weights=terms, minlength=self._num_rows
            )
            room = self._b_tol - activity
            if room.min() < 0.0:
                return None
            implied = np.fmin.reduceat(
                (room[self._rows] + terms) * self._inv_magnitude, starts
            )
            head = implied[:split]
            np.floor(head + INT_TOL, out=head)
            current = box[targets]
            box[targets] = np.fmin(current, implied)
            if not np.any(current - implied > threshold):
                break
        return box
