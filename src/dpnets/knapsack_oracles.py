"""Classical knapsack algorithms used as ground truth.

Profit-indexed dynamic program (truncated at 2, the stand-in for +inf
since the capacity is normalized to 1), brute-force subset enumeration,
the rounded reference recursion behind the approximation scheme, and
subset recovery by backtracking.  Everything here is a plain direct
implementation, deliberately independent of the network constructions
it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTargetError, NumericOverflowError, SizeGuardError

__all__ = [
    "BRUTE_FORCE_MAX_ITEMS",
    "CAPACITY_TOL",
    "DpTable",
    "FptasTable",
    "KnapsackInstance",
    "Solution",
    "Trace",
    "backtrack",
    "brute_force",
    "ceil_div",
    "check_exact_range",
    "coarse_index",
    "coarse_index_with_item",
    "dp_table",
    "exact_profit_budget",
    "fptas_reference",
    "integer_value",
    "json_fields",
    "json_list",
    "number_value",
    "optimum_value",
    "subset_profiles",
]

# Feasibility slack for "total size <= 1" checks.  Sizes are arbitrary
# doubles and a table entry accumulates at most n additions, each exact
# to an ulp; 1e-9 is orders of magnitude above that.
CAPACITY_TOL = 1e-9

BRUTE_FORCE_MAX_ITEMS = 25  # 2**25 subsets

# Profits this large would break the exactness of the integer-valued
# pre-activations inside the constructed networks.
_MAX_PROFIT = 2**51


def json_fields(doc, kind: str, *keys) -> list:
    """``doc[key]`` for each key; ValueError unless ``doc`` is an object holding them all."""
    if not isinstance(doc, dict):
        raise ValueError(f"a {kind} document must be a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"the {kind} document lacks {', '.join(map(repr, missing))}")
    return [doc[key] for key in keys]


def json_list(v, what: str) -> list:
    """``v`` if it is a list, a tuple or an array; ValueError otherwise."""
    if not isinstance(v, (list, tuple, np.ndarray)):
        raise ValueError(f"{what} must be a list, not {v!r}")
    return v


def number_value(v, what: str) -> float:
    """``v`` as a float; ValueError for bools, strings and anything else not a number."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} {v!r} is not a number")
    return float(v)


def integer_value(v, what: str) -> int:
    """``v`` as an int, integral floats included; ValueError for anything else."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{what} {v!r} is not integral")
    return int(v)


@dataclass(frozen=True)
class KnapsackInstance:
    """n items with integer profits >= 1 and sizes in ]0, 1]; capacity is 1.

    Integral float profits are taken as integers; bools, strings and
    fractional profits are refused with ValueError."""

    profits: tuple
    sizes: tuple

    def __post_init__(self):
        object.__setattr__(self, "profits", tuple(integer_value(p, "profit") for p in self.profits))
        object.__setattr__(self, "sizes", tuple(number_value(s, "size") for s in self.sizes))
        if len(self.profits) != len(self.sizes):
            raise ValueError("profits and sizes must have equal length")
        if len(self.profits) < 1:
            raise ValueError("an instance needs at least one item")
        for p in self.profits:
            if not 1 <= p < _MAX_PROFIT:
                raise ValueError(f"profit {p} out of range [1, 2**51)")
        for s in self.sizes:
            if not (0.0 < s <= 1.0):
                raise ValueError(f"size {s} outside ]0, 1]")

    @property
    def n(self) -> int:
        return len(self.profits)

    @property
    def total_profit(self) -> int:
        return sum(self.profits)

    def to_json_dict(self) -> dict:
        return {"profits": list(self.profits), "sizes": list(self.sizes)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "KnapsackInstance":
        profits, sizes = json_fields(doc, "knapsack instance", "profits", "sizes")
        return cls(tuple(json_list(profits, "profits")), tuple(json_list(sizes, "sizes")))


@dataclass(frozen=True)
class Solution:
    """Objective value, chosen item subset (sorted 0-based indices), and its size."""

    value: float
    items: tuple
    total_size: float


def _largest_feasible_row(values: np.ndarray) -> int:
    """Largest p with values[p, -1] <= 1 + CAPACITY_TOL, or 0 if none qualifies."""
    ok = np.flatnonzero(values[1:, -1] <= 1.0 + CAPACITY_TOL)
    return int(ok[-1]) + 1 if ok.size else 0


@dataclass(frozen=True)
class DpTable:
    """Truncated table f(p, i) for p in [p_star], i in 0..n.

    Row 0 holds the convention f(p, 0 or less) = 0 for p <= 0; column 0
    holds the starting value 2 for every p >= 1.  Values never exceed
    2 and are strictly positive for p >= 1 because every size is.
    """

    p_star: int
    values: np.ndarray  # shape (p_star + 1, n + 1)

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def n_items(self) -> int:
        return self.values.shape[1] - 1


@dataclass(frozen=True)
class FptasTable:
    """Rounded table g(p, i) for p in [P] with running profit sums.

    ``p_star_sums[i]`` is the total profit of the first i items; the
    rounding granularity at step i is ``max(1, p_star_sums[i] / P)``,
    kept here in the exactly-representable scaled form
    ``max(P, p_star_sums[i])`` (an integer).
    """

    resolution: int  # P
    values: np.ndarray  # shape (P + 1, n + 1); row 0 unused
    p_star_sums: tuple

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def n_items(self) -> int:
        return self.values.shape[1] - 1

    def scaled_granularity(self, i: int) -> int:
        """P times the rounding granularity after i items (an integer)."""
        return max(self.resolution, self.p_star_sums[i])

    def best_row(self) -> int:
        """Largest p with g(p, n) <= 1 + CAPACITY_TOL, or 0 if none qualifies."""
        return _largest_feasible_row(self.values)


@dataclass(frozen=True)
class Trace:
    """A recurrent run of a knapsack cell: the table its states fill, a
    :class:`DpTable` or an :class:`FptasTable`, as the oracle returns it.

    ``hidden[i]`` (when recorded) holds every layer's activations for
    step i + 1, as returned by ``ReluNetwork.evaluate_layers``.
    """

    table: DpTable | FptasTable
    hidden: list | None = None


# -- exact dynamic program ---------------------------------------------------


def dp_table(inst: KnapsackInstance, p_star: int) -> DpTable:
    """Profit-indexed table: f(p, i) = min size of a subset of the first i
    items with profit at least p, truncated at 2.

    f(p, i) = min(f(p, i-1), f(p - p_i, i-1) + s_i) with f(p, 0) = 2 and
    f(p, i) = 0 for p <= 0.  ``p_star`` need not bound the optimum; item
    profits above it simply shift out of the table.  Runs in O(n * p_star).
    """
    if p_star < 1:
        raise ValueError("p_star must be >= 1")
    n = inst.n
    v = np.empty((p_star + 1, n + 1))
    v[0, :] = 0.0
    v[1:, 0] = 2.0
    for i in range(1, n + 1):
        p_i, s_i = inst.profits[i - 1], inst.sizes[i - 1]
        prev = v[:, i - 1]
        shifted = np.zeros(p_star + 1)
        if p_i <= p_star:
            shifted[p_i:] = prev[: p_star + 1 - p_i]
        v[:, i] = np.minimum(prev, shifted + s_i)
        v[0, i] = 0.0
    return DpTable(p_star, v)


def optimum_value(table: DpTable) -> int:
    """max{p in [p_star] : f(p, n) <= 1 + CAPACITY_TOL}, or 0 if nothing fits."""
    return _largest_feasible_row(table.values)


# -- brute force -------------------------------------------------------------


def subset_profiles(profits, sizes):
    """(profit, size) of every subset of the given items, indexed by bitmask.

    Built by doubling: entry m covers the items in mask m.  Useful for
    vectorized witness searches over prefixes of an instance.
    """
    prof = np.zeros(1, dtype=np.int64)
    size = np.zeros(1)
    for p, s in zip(profits, sizes):
        prof = np.concatenate([prof, prof + p])
        size = np.concatenate([size, size + s])
    return prof, size


def brute_force(inst: KnapsackInstance) -> Solution:
    """Enumerate all subsets; return the max-profit one of size <= 1.

    Ties are broken toward the lexicographically smallest index set.
    Guarded at n <= BRUTE_FORCE_MAX_ITEMS (the enumeration is exponential).
    """
    n = inst.n
    if n > BRUTE_FORCE_MAX_ITEMS:
        raise SizeGuardError(f"brute force refuses n = {n} > {BRUTE_FORCE_MAX_ITEMS}")
    prof, size = subset_profiles(inst.profits, inst.sizes)
    feasible = size <= 1.0 + CAPACITY_TOL
    best_profit = int(prof[feasible].max())
    candidates = np.flatnonzero(feasible & (prof == best_profit))
    return _witness(inst, min(tuple(i for i in range(n) if mask >> i & 1) for mask in candidates.tolist()))


# -- rounded reference recursion ---------------------------------------------


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for integer a and positive integer b."""
    return -((-a) // b)


def coarse_index(p: int, d_old_scaled: int, d_new_scaled: int) -> int:
    """Smallest integer q with q * d_old >= p * d_new (granularities scaled by P)."""
    return ceil_div(p * d_new_scaled, d_old_scaled)


def coarse_index_with_item(
    p: int, profit: int, resolution: int, d_old_scaled: int, d_new_scaled: int
) -> int:
    """Smallest integer q with q * d_old + profit >= p * d_new; may be <= 0."""
    return ceil_div(p * d_new_scaled - profit * resolution, d_old_scaled)


def exact_profit_budget(resolution: int) -> int:
    """Largest sum(profits) + max(profit) the rounded recursion at resolution P
    handles exactly: the gate pre-activations need 2*P*(sum + max + P) < 2**52."""
    return (2**52 - 1) // (2 * resolution) - resolution


def check_exact_range(inst: KnapsackInstance, resolution: int):
    """Refuse a resolution P below 1, or an instance beyond :func:`exact_profit_budget` at P."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    budget = exact_profit_budget(resolution)
    if inst.total_profit + max(inst.profits) > budget:
        raise NumericOverflowError(
            f"profit total {inst.total_profit} plus the largest profit exceeds "
            f"the exact-evaluation budget {budget} at resolution {resolution}"
        )


def fptas_reference(inst: KnapsackInstance, resolution: int) -> FptasTable:
    """Direct implementation of the rounded recursion at resolution P.

    For each step i and row p, let d_old/d_new be the granularities
    before/after item i and let p1 (p2) be the smallest integers with
    p1*d_old >= p*d_new (p2*d_old + p_i >= p*d_new).  Then

        g(p, i) = min(h1, s_i + h2),
        h1 = g(p1, i-1) if p1 <= P else 2,
        h2 = g(p2, i-1) if p2 >= 1 else 0,

    with g(p, 0) = 2.  Granularities are handled as the exact integers
    P * d = max(P, running profit sum), so the index computations never
    touch floating point.
    """
    check_exact_range(inst, resolution)
    P = resolution
    n = inst.n
    g = np.empty((P + 1, n + 1))
    g[:, 0] = 2.0
    g[0, :] = 0.0  # row 0 is never read through p1/p2 indexing; keep it inert
    sums = [0]
    for p_i in inst.profits:
        sums.append(sums[-1] + p_i)
    rows = np.arange(1, P + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p_i, s_i = inst.profits[i - 1], inst.sizes[i - 1]
        d_old = max(P, sums[i - 1])
        d_new = max(P, sums[i])
        p1 = coarse_index(rows, d_old, d_new)
        p2 = coarse_index_with_item(rows, p_i, P, d_old, d_new)
        h1 = np.where(p1 <= P, g[np.minimum(p1, P), i - 1], 2.0)
        h2 = np.where(p2 >= 1, g[np.maximum(p2, 0), i - 1], 0.0)
        g[1:, i] = np.minimum(h1, s_i + h2)
    return FptasTable(P, g, tuple(sums))


# -- subset recovery ----------------------------------------------------------


def _witness(inst: KnapsackInstance, items) -> Solution:
    """The subset ``items`` of ``inst`` as a Solution: its profit, sorted indices and size."""
    items = tuple(sorted(items))
    return Solution(sum(inst.profits[i] for i in items), items, float(sum(inst.sizes[i] for i in items)))


def _check_backtrack(table: DpTable | FptasTable, inst: KnapsackInstance, row: int):
    """Refuse a backtrack from ``row`` unless it is a row of the table, the
    table has one column per item of ``inst`` plus one, and the row is
    feasible in the final column."""
    rows = table.values.shape[0] - 1
    if not 1 <= row <= rows:
        raise ValueError(f"target row {row} outside [1, {rows}]")
    if table.n_items != inst.n:
        raise ValueError(f"the table has {table.n_items} item columns, the instance {inst.n} items")
    if table.values[row, -1] > 1.0 + CAPACITY_TOL:
        raise InfeasibleTargetError(f"row {row} is not feasible in the final column")


def backtrack(table: DpTable, inst: KnapsackInstance, target_p: int) -> Solution:
    """Recover an item subset achieving profit >= target_p from a table.

    Walking i = n..1, item i is included exactly when the take-branch was
    strictly better: f(p, i) < f(p, i-1) - tol.  On ties the item is left
    out, which yields minimal-cardinality witnesses and deterministic
    output.  The subset's total size is at most f(target_p, n) + n * tol.
    """
    _check_backtrack(table, inst, target_p)
    v = table.values
    items = []
    p = target_p
    for i in range(inst.n, 0, -1):
        if p <= 0:
            break
        if v[p, i] < v[p, i - 1] - CAPACITY_TOL:
            items.append(i - 1)
            p = max(p - inst.profits[i - 1], 0)
    return _witness(inst, items)
