"""Fixed-width ReLU network executing the rounded knapsack recursion.

The cell keeps only P table rows regardless of the instance: once the
running profit total exceeds P, profits are rounded at granularity
d = (running total) / P.  Each step maps (g(., i-1), running total,
p_i, s_i) to (g(., i), new total) in depth 5: one hidden layer derives
the old/new granularities, two hidden layers locate the re-indexed rows
p1 (skip the item) and p2 (take it) on the coarser previous grid, and a
final hidden layer forms the minimum.  Rows satisfy the witness
guarantee: g(p, i) <= 1 implies some subset of the first i items has
profit at least p * d_i and size at most g(p, i), and with
P = ceil(n**2 / eps) the extracted value is at least (1 - eps) times
the optimum.

Exactness note: the granularity neurons store the scaled integer value
max(0, total - P) = P * (d - 1) rather than d - 1 itself, and the
downstream weights absorb the factor P.  The computed function is
identical, but every selector pre-activation becomes an integer, so the
zero-versus->=2 dichotomy the construction relies on holds bit-exactly
in doubles (weights 1/P would round for general P).  The runner
enforces the profit range in which this stays exact,
``exact_profit_budget(P)``, through ``check_exact_range``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil

import numpy as np

from .knapsack_oracles import (
    CAPACITY_TOL,
    FptasTable,
    KnapsackInstance,
    Solution,
    Trace,
    _check_backtrack,
    _witness,
    brute_force,
    check_exact_range,
    coarse_index,
    coarse_index_with_item,
)
from .relu_core import ReluNetwork, _checked, check_arc_budget, network_from_blocks

__all__ = [
    "FptasCell",
    "TradeoffPoint",
    "build_fptas_cell",
    "fptas_backtrack",
    "resolution_for",
    "run_fptas",
    "solve_approx",
    "solve_with_resolution",
    "width_quality_curve",
]


def _cell_arcs(resolution: int) -> int:
    """Arcs of the rounded cell at resolution P: 3 granularity, 5P**2 + 4P - 1
    gate, 3P(P + 1) keep, P(P + 2) minimum and P(P + 3)/2 + 2 output arcs,
    (19P**2 + 21P + 8)/2 in all."""
    P = resolution
    return (19 * P * P + 21 * P + 8) // 2


@dataclass(frozen=True)
class FptasCell:
    """One rounded-recursion step as a depth-5 network.

    Layers, neurons in order; T = P(P + 1)/2 pairs (p, k) lie on each
    side, row-major in p: "upper" p <= k (skip the item), "lower" k <= p
    (take it).

    0. g_in(1..P), total_in, p_in, s_in  (P + 3 neurons).
    1. Scaled granularities gate_old = relu(total_in - P), then
       gate_new = relu(total_in + p_in - P)  (2).
    2. Selector gates (4T), each side's pair vanishing exactly at its
       re-indexed row and >= 2 elsewhere:
       skip+ = relu(2p gate_new - 2k gate_old + 2P(p - k)) and
       skip- = relu(2(k - 1) gate_old - 2p gate_new + 2P(k - 1 - p) + 2)
       over the upper pairs, then take+ = relu(2p gate_new - 2k gate_old
       - 2P p_in + 2P(p - k)) and take- = relu(2(k - 1) gate_old
       - 2p gate_new + 2P p_in + 2P(k - 1 - p) + 2) over the lower pairs.
    3. Keep neurons (2T): relu(2 - g_in(k) - skip+ - skip-) over the
       upper pairs, then relu(g_in(k) - take+ - take-) over the lower.
    4. Minimum helpers relu(h1(p) - s_in - h2(p))  (P), where
       h1(p) = 2 - sum_{k >= p} skip keep(p, k) and
       h2(p) = sum_{k <= p} take keep(p, k).
    5. Outputs g_out(p) = h1(p) - helper(p), then
       total_out = total_in + p_in  (P + 1).

    A neuron's arcs follow the order of its terms above; zero
    coefficients (gate_old at k = 1) have no arc.  :meth:`check_layers`
    checks every hidden layer of one step.
    """

    net: ReluNetwork
    resolution: int  # P

    def check_layers(self, layers) -> dict:
        """One boolean array per invariant of a step, an entry per checked coordinate.

        ``layers`` is one ``evaluate_layers`` result.  Invariants, in layer
        order: "granularity", the two scaled granularities; "skip_gates"
        and "take_gates", each pair is 0 exactly at its side's re-indexed
        row p1 or p2 (:func:`coarse_index`, :func:`coarse_index_with_item`)
        and >= 2 elsewhere; "take_row_bound", p2 <= p; "selected", h1(p)
        then h2(p) against g_in(p1) (2 when p1 > P) and g_in(p2) (0 when
        p2 <= 0); "minimum", g_out(p) = min(h1, s_in + h2); and
        "profit_total".  Layer 4 has no check of its own: the output
        minimum reads it.
        """
        P = self.resolution
        x, grains, gates, keeps, _, out = layers
        g_in, total_in, p_in, s_in = x[:P], int(x[P]), int(x[P + 1]), x[P + 2]
        up_p, up_k, lo_p, lo_k = _row_pairs(P)
        T = up_p.size
        rows = np.arange(1, P + 1)
        d_old, d_new = max(P, total_in), max(P, total_in + p_in)
        p1 = coarse_index(rows, d_old, d_new)
        p2 = coarse_index_with_item(rows, p_in, P, d_old, d_new)
        skip = gates[:T] + gates[T : 2 * T]
        take = gates[2 * T : 3 * T] + gates[3 * T :]
        # In a correct cell at most one keep per row is nonzero: the row sums are exact.
        h1 = 2.0 - np.bincount(up_p - 1, keeps[:T], P)
        h2 = np.bincount(lo_p - 1, keeps[T:], P)
        g = np.concatenate([[0.0], g_in, [2.0]])  # g(p) for p = 0..P + 1
        return {
            "granularity": grains == np.maximum(0, [total_in - P, total_in + p_in - P]),
            "skip_gates": np.where(up_k == p1[up_p - 1], skip == 0.0, skip >= 2.0),
            "take_gates": np.where(lo_k == p2[lo_p - 1], take == 0.0, take >= 2.0),
            "take_row_bound": p2 <= rows,
            "selected": np.concatenate([h1 == g[np.clip(p1, 0, P + 1)], h2 == g[np.clip(p2, 0, P + 1)]]),
            "minimum": out[:P] == np.minimum(h1, s_in + h2),
            "profit_total": out[P:] == total_in + p_in,
        }


def _row_pairs(resolution: int):
    """(p, k) of the upper pairs p <= k, then of the lower pairs k <= p,
    1-based and row-major in p."""
    up_p, up_k = np.triu_indices(resolution)
    lo_p, lo_k = np.tril_indices(resolution)
    return up_p + 1, up_k + 1, lo_p + 1, lo_k + 1


@lru_cache(maxsize=4)
def build_fptas_cell(resolution: int) -> FptasCell:
    """Construct the rounded-step cell at resolution P >= 1.

    Cells are immutable; the few most recent resolutions stay cached
    (sweeps revisit the same handful of resolutions per item count).
    Resolutions over the arc budget are refused before building.
    """
    P = resolution
    if P < 1:
        raise ValueError("resolution must be >= 1")
    num_arcs = _cell_arcs(P)
    check_arc_budget(num_arcs, f"the rounded cell at resolution {P}")
    total_in, p_in, s_in = P, P + 1, P + 2  # g_in(p) is input p - 1
    gate_old, gate_new = 0, 1
    rows = np.arange(P)
    up_p, up_k, lo_p, lo_k = _row_pairs(P)
    T = up_p.size
    pair = np.arange(T)
    skip_plus, skip_minus, take_plus, take_minus = (pair + j * T for j in range(4))
    skip_keep, take_keep = pair, pair + T
    # One (blocks, bias) entry per layer of the FptasCell layout.
    layers = [
        ([(0, total_in, [gate_old, gate_new], 1.0), (0, p_in, gate_new, 1.0)],
         np.full(2, -float(P))),
        ([(1, gate_new, skip_plus, 2.0 * up_p), (1, gate_old, skip_plus, -2.0 * up_k),
          (1, gate_old, skip_minus, 2.0 * (up_k - 1)), (1, gate_new, skip_minus, -2.0 * up_p),
          (1, gate_new, take_plus, 2.0 * lo_p), (1, gate_old, take_plus, -2.0 * lo_k),
          (0, p_in, take_plus, -2.0 * P),
          (1, gate_old, take_minus, 2.0 * (lo_k - 1)), (1, gate_new, take_minus, -2.0 * lo_p),
          (0, p_in, take_minus, 2.0 * P)],
         np.concatenate([2.0 * P * (up_p - up_k), 2.0 * P * (up_k - 1 - up_p) + 2.0,
                         2.0 * P * (lo_p - lo_k), 2.0 * P * (lo_k - 1 - lo_p) + 2.0])),
        ([(0, up_k - 1, skip_keep, -1.0), (2, skip_plus, skip_keep, -1.0),
          (2, skip_minus, skip_keep, -1.0),
          (0, lo_k - 1, take_keep, 1.0), (2, take_plus, take_keep, -1.0),
          (2, take_minus, take_keep, -1.0)],
         np.concatenate([np.full(T, 2.0), np.zeros(T)])),
        # h1(p) defaults to 2 (nothing reachable), h2(p) to 0 (item alone suffices).
        ([(3, skip_keep, up_p - 1, -1.0), (0, s_in, rows, -1.0), (3, take_keep, lo_p - 1, -1.0)],
         np.full(P, 2.0)),
        ([(3, skip_keep, up_p - 1, -1.0), (4, rows, rows, -1.0), (0, [total_in, p_in], P, 1.0)],
         np.append(np.full(P, 2.0), 0.0)),
    ]
    return FptasCell(_checked(network_from_blocks(P + 3, layers), num_arcs), P)


def run_fptas(cell: FptasCell, inst: KnapsackInstance, record_hidden: bool = False) -> Trace:
    """Apply the cell once per item, threading (g states, profit total) into
    the :class:`FptasTable` that ``fptas_reference`` returns.

    The comparison terms are integer-valued by construction, so the
    network selects the same rows as
    :func:`dpnets.knapsack_oracles.fptas_reference`.  With sizes on the
    2**-26 grid the states match it exactly.  Off the grid the output
    minimum h1 - relu(h1 - s_in - h2) can round in the last place, and a
    state may differ from the reference by a few ulps, far within
    ``CAPACITY_TOL``.
    """
    P = cell.resolution
    check_exact_range(inst, P)
    states, hidden = cell.net.run(np.append(np.full(P, 2.0), 0.0), zip(inst.profits, inst.sizes), record_hidden)
    values = np.zeros((P + 1, inst.n + 1))
    values[1:, :] = np.array(states)[:, :P].T
    return Trace(FptasTable(P, values, tuple(int(s[P]) for s in states)), hidden)


def fptas_backtrack(table: FptasTable, inst: KnapsackInstance, target_row: int) -> Solution:
    """Recover a subset witnessing row ``target_row`` of the final column.

    Replays the recursion's index maps: at step i the row moves to p1 if
    the item was skipped and to p2 if it was taken (taken exactly when
    the take branch was strictly better, ties skip).  The subset's
    profit is at least target_row * d_n and its size is within n * tol
    of g(target_row, n).
    """
    _check_backtrack(table, inst, target_row)
    P = table.resolution
    items = []
    p = target_row
    for i in range(inst.n, 0, -1):
        if p <= 0:
            break
        d_old, d_new = table.scaled_granularity(i - 1), table.scaled_granularity(i)
        p1 = coarse_index(p, d_old, d_new)
        p2 = coarse_index_with_item(p, inst.profits[i - 1], P, d_old, d_new)
        h1 = table.values[p1, i - 1] if p1 <= P else 2.0
        h2 = table.values[p2, i - 1] if p2 >= 1 else 0.0
        if inst.sizes[i - 1] + h2 < h1 - CAPACITY_TOL:
            items.append(i - 1)
            p = p2
        else:
            p = p1
    return _witness(inst, items)


def resolution_for(n: int, epsilon) -> int:
    """P = ceil(n**2 / epsilon), computed exactly.

    Floats are read back through their decimal repr (so 0.1 means 1/10,
    not the slightly larger double), strings and Fractions are taken
    verbatim.
    """
    eps = epsilon if isinstance(epsilon, Fraction) else Fraction(str(epsilon))
    if not 0 < eps <= 1:
        raise ValueError("epsilon must lie in ]0, 1]")
    return int(ceil(Fraction(n * n) / eps))


def solve_with_resolution(inst: KnapsackInstance, resolution: int) -> Solution:
    """Best guaranteed profit at a fixed resolution, with a witness subset.

    The value is max{p * d_n : g(p, n) <= 1 + tol} (0 if no row
    qualifies; an entry of exactly 2 never does since 2 means "nothing
    asserted").  The witness is recovered by backtracking, so its actual
    profit may exceed the guaranteed value.
    """
    check_exact_range(inst, resolution)  # before the build: a refused instance costs no cell
    table = run_fptas(build_fptas_cell(resolution), inst).table
    row = table.best_row()
    if row == 0:
        return Solution(0.0, (), 0.0)
    value = row * table.scaled_granularity(inst.n) / resolution
    recovered = fptas_backtrack(table, inst, row)
    return Solution(value, recovered.items, recovered.total_size)


def solve_approx(inst: KnapsackInstance, epsilon) -> Solution:
    """(1 - epsilon)-approximate solution via resolution ceil(n**2 / eps)."""
    return solve_with_resolution(inst, resolution_for(inst.n, epsilon))


@dataclass(frozen=True)
class TradeoffPoint:
    """One row of the width-versus-quality sweep."""

    resolution: int
    width: int
    p_nn: float
    p_opt: int
    ratio: float


def width_quality_curve(inst: KnapsackInstance, resolutions) -> list:
    """Sweep resolutions and report value ratio against brute force.

    The cell width at resolution P is 2*P**2 + 2*P; the achieved ratio
    is never below 1 - n**2 / P, and P >= total profit gives ratio 1.
    """
    opt = brute_force(inst).value
    points = []
    for P in resolutions:
        sol = solve_with_resolution(inst, P)
        width = build_fptas_cell(P).net.width
        points.append(TradeoffPoint(P, width, sol.value, int(opt), sol.value / opt))
    return points

