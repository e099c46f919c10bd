"""Fixed-weight ReLU network executing the exact knapsack dynamic program.

One cell maps the truncated table column f(., i-1) together with the
current item's (profit, size) to the column f(., i).  The weights are
hard-coded, not learned: integrality of profits lets a pair of opposed
rectifiers detect the profit value exactly, a quadratic block of
selector neurons routes the correct shifted table entry, and a final
rectifier realizes the two-way minimum of the recursion.  Iterating the
cell over the items therefore reproduces the dynamic program exactly,
up to double-precision accumulation of the item sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .knapsack_oracles import DpTable, KnapsackInstance, Solution, Trace, backtrack, optimum_value
from .relu_core import ReluNetwork, _checked, check_arc_budget, network_from_blocks, unfold

__all__ = [
    "DpCell",
    "build_dp_cell",
    "dp_unfolded_input",
    "run_recurrent",
    "solve_exact",
    "unfold_dp",
]


def _cell_arcs(p_star: int) -> int:
    """Arcs of the p_star cell: one per gate, three per selector, p + 1 into
    minimum helper p and two per output, 2*p_star**2 + 4*p_star in all."""
    return 2 * p_star * p_star + 4 * p_star


@dataclass(frozen=True)
class DpCell:
    """One dynamic-program step as a depth-4 network.

    Layers, neurons in order (p, k run over 1..p_star):

    0. f_in(1..p_star), p_in, s_in  (p_star + 2 neurons).
    1. Profit gates gate+(k) = relu(2 p_in - 2k), then
       gate-(k) = relu(2k - 2 p_in)  (2*p_star).
    2. Selectors relu(f_in(p - k) - gate+(k) - gate-(k)) for k < p,
       row-major in p: the strict lower triangle  (p_star*(p_star-1)/2).
    3. Minimum helpers relu(f_in(p) - s_in - sum_k selector(p, k))  (p_star).
    4. Outputs f_out(p) = f_in(p) - helper(p)  (p_star).

    A neuron's arcs follow the order of its terms above.
    :meth:`check_layers` checks every hidden layer of one step.
    """

    net: ReluNetwork
    p_star: int

    def check_layers(self, layers) -> dict:
        """One boolean array per invariant of a step, an entry per checked coordinate.

        ``layers`` is one ``evaluate_layers`` result.  Invariants, in layer
        order: "gates", the pair gate+(k) + gate-(k) is 0 exactly at
        k = p_in and >= 2 elsewhere; "selection", selector (p, k) carries
        f_in(p - k) at k = p_in and 0 elsewhere; "min_helper" and
        "minimum", row p's helper and output against the recursion
        min(f_in(p), f_in(p - p_in) + s_in), where f_in(q <= 0) = 0.
        """
        P = self.p_star
        x, gates, selectors, helpers, out = layers
        f_in, p_in, s_in = x[:P], int(x[P]), x[P + 1]
        sel_p, sel_k = _selector_pairs(P)
        shifted = np.concatenate([np.zeros(min(p_in, P)), f_in])[:P]  # f_in(p - p_in)
        pair = gates[:P] + gates[P:]
        return {
            "gates": np.where(np.arange(1, P + 1) == p_in, pair == 0.0, pair >= 2.0),
            "selection": selectors == np.where(sel_k == p_in, shifted[sel_p - 1], 0.0),
            "min_helper": helpers == np.maximum(0.0, f_in - (shifted + s_in)),
            "minimum": out == np.minimum(f_in, shifted + s_in),
        }


def _selector_pairs(p_star: int):
    """(p, k) of the selectors, 1-based and row-major in p: the pairs k < p."""
    sel_p, sel_k = np.tril_indices(p_star, -1)
    return sel_p + 1, sel_k + 1


@lru_cache(maxsize=8)
def build_dp_cell(p_star: int) -> DpCell:
    """Construct the exact-step cell for profit bound p_star.

    Layer sizes are (2*p_star, p_star*(p_star-1)/2, p_star); for
    p_star = 1 the selector layer is empty and the cell degenerates to
    f_out(1) = min(f_in(1), s_in).  Cells are immutable, so recently
    built bounds are cached.  The cell has 2*p_star**2 + 4*p_star arcs;
    bounds whose cell exceeds the arc budget are refused before building.
    """
    if p_star < 1:
        raise ValueError("p_star must be >= 1")
    num_arcs = _cell_arcs(p_star)
    check_arc_budget(num_arcs, f"the exact cell for p_star = {p_star}")
    rows = np.arange(p_star)  # row p is index p - 1
    p_in, s_in = p_star, p_star + 1
    sel_p, sel_k = _selector_pairs(p_star)
    sel = np.arange(sel_p.size)
    # One (blocks, bias) entry per layer of the DpCell layout.
    layers = [
        ([(0, p_in, np.arange(2 * p_star), np.repeat([2.0, -2.0], p_star))],
         np.concatenate([-2.0 * (rows + 1), 2.0 * (rows + 1)])),
        ([(0, sel_p - sel_k - 1, sel, 1.0), (1, sel_k - 1, sel, -1.0),
          (1, p_star + sel_k - 1, sel, -1.0)],
         np.zeros(sel.size)),
        ([(0, rows, rows, 1.0), (0, s_in, rows, -1.0), (2, sel, sel_p - 1, -1.0)], np.zeros(p_star)),
        ([(0, rows, rows, 1.0), (3, rows, rows, -1.0)], np.zeros(p_star)),
    ]
    return DpCell(_checked(network_from_blocks(p_star + 2, layers), num_arcs), p_star)


def run_recurrent(cell: DpCell, inst: KnapsackInstance, record_hidden: bool = False) -> Trace:
    """Apply the cell once per item, threading the table column through.

    The initial state is (2, ..., 2); the state after i items is column i
    of the returned :class:`DpTable`.  Item profits above p_star are
    fine: no gate closes, so the cell computes min(f_in(p), s_in),
    matching the truncated recursion's convention for p - p_i <= 0.
    """
    states, hidden = cell.net.run(np.full(cell.p_star, 2.0), zip(inst.profits, inst.sizes), record_hidden)
    values = np.zeros((cell.p_star + 1, inst.n + 1))
    values[1:, :] = np.array(states).T
    return Trace(DpTable(cell.p_star, values), hidden)


def solve_exact(inst: KnapsackInstance, p_star: int | None = None) -> Solution:
    """Optimal solution value (and a witness subset) via the network.

    ``p_star`` must upper-bound the optimum; it defaults to the total
    profit, which always does.  The value is the largest p whose final
    state entry is within tolerance of the capacity; the subset is
    recovered by backtracking over the stored state sequence.  A smaller
    ``p_star`` whose own row is feasible is refused.
    """
    if p_star is None:
        p_star = inst.total_profit
    table = run_recurrent(build_dp_cell(p_star), inst).table
    value = optimum_value(table)
    if value == 0:
        return Solution(0, (), 0.0)
    if value == p_star < inst.total_profit:
        raise ValueError(f"p_star = {p_star} does not bound the optimum: row {p_star} is feasible")
    recovered = backtrack(table, inst, value)
    return Solution(value, recovered.items, recovered.total_size)


def unfold_dp(p_star: int, n: int) -> ReluNetwork:
    """Feedforward network executing n dynamic-program steps (depth 4n).

    The cell's p_star outputs feed back onto its state inputs, so the
    unfolded input layout is the initial column (2, ..., 2) followed by
    the item stream p_1, s_1, ..., p_n, s_n; see :func:`dp_unfolded_input`.
    """
    if n < 1:
        raise ValueError("need at least one step")
    check_arc_budget(n * _cell_arcs(p_star), f"{n} unfolded steps of the p_star = {p_star} cell")
    cell = build_dp_cell(p_star)
    return unfold(cell.net, n)


def dp_unfolded_input(inst: KnapsackInstance, p_star: int) -> np.ndarray:
    """Input vector for :func:`unfold_dp`: initial state then the item stream."""
    return np.concatenate([np.full(p_star, 2.0), *zip(inst.profits, inst.sizes)])
