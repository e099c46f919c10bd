"""Exact-weight networks for further dynamic programs, with classical oracles.

Each construction pairs a network builder/runner with an independent
classical implementation of the same recursion:

* longest common subsequence -- constant-size cell applied on an m-by-n grid;
* single-source shortest paths -- one relaxation round as a cell of
  parallel minimum trees, applied n-1 times;
* all-pairs shortest paths -- one min-plus matrix squaring as a cell,
  applied ceil(log2(n-1)) times;
* length-indexed constrained shortest paths -- profit-gate selection
  (as in the knapsack cell) combined with minimum trees;
* traveling salesperson -- the subset dynamic program layered by
  cardinality, distances fed as inputs.

Networks cannot hold infinity, so "no path" is represented by the
surrogate BIG = 2 * (n * max|entry| + 1); minimum steps only ever
decrease values, so BIG never contaminates finite results and anything
at or above BIG still means unreachable.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import chain, permutations

import numpy as np

from .errors import NumericOverflowError, SizeGuardError
from .instance_gen import IntSequencePair, WeightedGraph
from .relu_core import (
    MAX_ARCS,
    ReluNetwork,
    _checked,
    _gather,
    _merge,
    _min_arcs,
    _min_tree,
    _rounds,
    _split,
    _take,
    _tree_arcs,
    check_arc_budget,
    min_reduce_many,
    network_from_blocks,
)

__all__ = [
    "IntSequencePair",
    "ORACLE_MAX_VERTICES",
    "WeightedGraph",
    "bellman_ford_distances",
    "build_bellman_ford_cell",
    "build_csp_network",
    "build_lcs_cell",
    "build_min_plus_square_cell",
    "build_tsp_network",
    "enumerate_csp_lengths",
    "floyd_warshall",
    "lcs_length",
    "run_apsp",
    "run_bellman_ford",
    "run_csp",
    "run_lcs",
    "run_tsp",
    "tsp_brute_force",
]

RESOURCE_TOL = 1e-9

# Most vertices the enumerating oracles accept: (n - 1)! tours, about e (n - 1)! paths.
ORACLE_MAX_VERTICES = 10


def _unreachable(n: int, bound: float) -> float:
    """2*(n*bound + 1): above every path total over n vertices whose entries stay within `bound` in size."""
    return 2.0 * (n * bound + 1.0)


def _check_exact_range(values, magnitude: float, what: str):
    """Refuse `what` with NumericOverflowError once `magnitude`, the largest value
    it forms, reaches 2**53 times the finest dyadic quantum of `values`, the
    numbers it starts from: only below that bound is every sum it forms exact."""
    mantissa, exponent = np.frexp(np.ravel(values))
    steps = np.abs(mantissa * 2.0**53).astype(np.int64)
    quantum = np.min(np.ldexp(steps & -steps, exponent - 53), initial=np.inf, where=steps != 0)
    if magnitude >= 2.0**53 * quantum:
        raise NumericOverflowError(f"{what} can form sums up to {float(magnitude)!r}, past 2**53 "
                                   f"times the entries' quantum {float(quantum)!r}")


# -- longest common subsequence ----------------------------------------------


def lcs_length(x, y) -> int:
    """Classical quadratic table for the longest common subsequence length."""
    m, n = len(x), len(y)
    f = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if x[i - 1] == y[j - 1]:
                f[i][j] = f[i - 1][j - 1] + 1
            else:
                f[i][j] = max(f[i - 1][j], f[i][j - 1])
    return f[m][n]


@lru_cache(maxsize=8)
def build_lcs_cell(value_bound: int) -> ReluNetwork:
    """Constant-size cell for one grid point of the subsequence table.

    Inputs (f_diag, f_up, f_left, x, y); output f_diag + 1 when x == y,
    else max(f_up, f_left).  Equality of the integer symbols is detected
    by an opposed rectifier pair with gate weight 2 * (value_bound + 1),
    which dominates every admissible table value, so the match branch is
    shut off exactly on a mismatch.  Valid whenever table values stay in
    [0, value_bound] and neighbors obey f_up, f_left <= f_diag + 1 (true
    for subsequence tables).  Layers (5, 3, 1, 1): depth 3, width 3, size 4.
    """
    if value_bound < 1:
        raise ValueError("value_bound must be >= 1")
    gate = 2.0 * (value_bound + 1)
    # Inputs f_diag, f_up, f_left, x, y are neurons 0..4 of layer 0.  Layer 1 holds
    # eq+ = relu(gate (x - y)), eq- = relu(gate (y - x)) and relu(f_left - f_up), so
    # that best_old = f_up + relu(f_left - f_up) = max(f_up, f_left); layer 2 holds
    # match = relu(f_diag + 1 - best_old - eq+ - eq-); the output is best_old + match.
    layers = [
        ([(0, [3, 4, 4, 3, 2, 1], [0, 0, 1, 1, 2, 2], [gate, -gate, gate, -gate, 1.0, -1.0])], np.zeros(3)),
        ([(0, [0, 1], 0, [1.0, -1.0]), (1, [2, 0, 1], 0, -1.0)], [1.0]),
        ([(0, 1, 0, 1.0), (1, 2, 0, 1.0), (2, 0, 0, 1.0)], [0.0]),
    ]
    return network_from_blocks(5, layers)


def run_lcs(pair: IntSequencePair) -> int:
    """Grid application of the cell over i in [m], j in [n]; boundary rows 0.

    The cell reads each symbol's rank among both sequences' symbols, a
    small integer, so its equality gate is exact for any integers.  The
    points of one anti-diagonal i + j = d read only earlier diagonals, so
    each diagonal is one batched evaluation.  The inputs of every point are
    one array, its symbol columns written once; a diagonal only reads its
    three table values from the flat table.
    """
    m, n = pair.m, pair.n
    cell = build_lcs_cell(max(m, n))
    rank = {s: r for r, s in enumerate(sorted(set(pair.x) | set(pair.y)))}
    x, y = (np.array([rank[s] for s in seq], dtype=np.float64) for seq in (pair.x, pair.y))
    # every point (i, j) of [m] x [n], diagonal by diagonal, i increasing along each
    i, j = np.divmod(np.arange(m * n), n)
    order = np.argsort(i + j, kind="stable")
    i, j = i[order] + 1, j[order] + 1
    cut = np.searchsorted(i + j, np.arange(2, m + n + 2))  # where each diagonal starts, then the point count
    f = np.zeros((m + 1) * (n + 1))  # the table, row i from i (n + 1)
    at = i * (n + 1) + j
    near = at[:, None] - np.array([n + 2, n + 1, 1])  # (i - 1, j - 1), (i - 1, j) and (i, j - 1)
    inputs = np.empty((m * n, 5))
    inputs[:, 3], inputs[:, 4] = x[i - 1], y[j - 1]
    for a, b in zip(cut.tolist(), cut[1:].tolist()):
        inputs[a:b, :3] = f[near[a:b]]
        f[at[a:b]] = cell.evaluate_batch(inputs[a:b])[:, 0]
    return int(round(f[-1]))


# -- single-source shortest paths (Bellman-Ford) ------------------------------


def bellman_ford_distances(graph: WeightedGraph):
    """Distances by the textbook recursion d'(v) = min_u(d(u) + c(u, v)), n - 1 rounds.

    Unreached vertices carry math.inf.  The zero diagonal makes the
    recursion non-increasing (the u = v term keeps the current value).
    """
    n, c = graph.n, graph.lengths
    dist = [math.inf] * n
    dist[graph.source] = 0.0
    for _ in range(n - 1):
        dist = [min(dist[u] + c[u][v] for u in range(n)) for v in range(n)]
    return np.asarray(dist)


def build_bellman_ford_cell(graph: WeightedGraph) -> ReluNetwork:
    """One relaxation round: state f(., i-1) in R^n to f(., i).

    The arc lengths are baked into the cell as biases; vertex v's new
    value is the minimum of n affine shifts, realized by a fused tree of
    pairwise minima.  Depth ceil(log2(n)) + 1, size n * (n - 1),
    width n * floor(n / 2).  The cell has ``_bf_arcs(n)`` arcs, about
    4 n**2; a graph whose cell exceeds ``relu_core.MAX_ARCS``
    (from n = 1452) is refused before anything is built.
    """
    n = graph.n
    num_arcs = _bf_arcs(n)
    check_arc_budget(num_arcs, f"the relaxation cell for n = {n}")
    # group v holds f_prev[u] + c(u, v) for u = 0..n-1
    rows = [(np.zeros(n * n, dtype=np.int64), np.tile(np.arange(n), n), np.arange(n * n), np.ones(n * n))]
    layers = min_reduce_many((rows, graph.lengths.T.ravel() + 0.0), [(n, n, 0)])
    return _checked(network_from_blocks(n, layers), num_arcs)


def run_bellman_ford(graph: WeightedGraph) -> np.ndarray:
    """Network distances from the source after n - 1 relaxation rounds.

    The initial state is 0 at the source and BIG elsewhere; results at
    or above BIG mean "not reachable".

    With M = max|length|, states lie in [-(n - 1) M, BIG], and every sum
    the cell forms stays within BIG + (n + 2) M in size, partial sums
    before a row's lengths (its biases) are added included.  A graph where
    that reaches 2**53 times the finest dyadic quantum of its lengths and
    BIG is refused with NumericOverflowError, off-grid lengths like 0.1 too.
    """
    n = graph.n
    if not np.all(np.diag(graph.lengths) == 0.0):
        raise ValueError("relaxation rounds need a zero diagonal")
    longest = float(np.max(np.abs(graph.lengths)))
    big = _unreachable(n, longest)
    magnitude = big + (n + 2) * longest
    _check_exact_range(np.append(graph.lengths, big), magnitude, f"{n - 1} relaxation rounds")
    state = np.full(n, big)
    state[graph.source] = 0.0
    return build_bellman_ford_cell(graph).run(state, np.zeros((n - 1, 0)))[0][-1]


# -- all-pairs shortest paths via min-plus squaring ----------------------------


def floyd_warshall(lengths) -> np.ndarray:
    """Classical all-pairs table of a matrix read as a :class:`WeightedGraph`'s
    lengths; entries are plain numbers (use BIG, not inf)."""
    d = WeightedGraph(lengths).lengths.copy()
    n = d.shape[0]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i, k] + d[k, j]
                if via < d[i, j]:
                    d[i, j] = via
    return d


def build_min_plus_square_cell(n: int) -> ReluNetwork:
    """One min-plus matrix squaring: d'(u, v) = min_k(d(u, k) + d(k, v)).

    Inputs and outputs are the row-major flattened n x n matrix; the
    n**2 minima over n sums run in parallel.  Depth ceil(log2(n)) + 1,
    size n**2 * (n - 1).  The cell has ``_apsp_arcs(n)`` arcs, about
    5.8 n**3; a size whose count exceeds ``relu_core.MAX_ARCS``
    (from n = 113) is refused before anything is built.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    num_arcs = _apsp_arcs(n)
    check_arc_budget(num_arcs, f"the min-plus squaring cell for n = {n}")
    # group (u, v) holds d(u, k) + d(k, v) for k = 0..n-1, one term when u = k = v
    u, v, k = (a.ravel() for a in np.indices((n, n, n)))
    sums = _merge(np.repeat(np.arange(n**3), 2), np.zeros(2 * n**3, dtype=np.int64),
                  np.column_stack((u * n + k, k * n + v)).ravel(), np.ones(2 * n**3), np.zeros(n**3))
    return _checked(network_from_blocks(n * n, min_reduce_many(sums, [(n * n, n, 0)])), num_arcs)


def run_apsp(graph: WeightedGraph) -> np.ndarray:
    """All-pairs distances by repeated squaring (ceil(log2(n-1)) applications).

    Requires a zero diagonal and no negative cycles (the runner does not
    detect them); missing edges should be encoded as BIG.

    With M = max|entry| and r squarings, every sum the cell forms stays
    within (2**r + 2) M in size; it is refused as in :func:`run_bellman_ford`
    once that reaches 2**53 times the finest dyadic quantum of the entries.
    """
    n = graph.n
    if not np.all(np.diag(graph.lengths) == 0.0):
        raise ValueError("min-plus powers need a zero diagonal")
    state = graph.lengths.flatten()
    if n > 2:
        squarings = math.ceil(math.log2(n - 1))
        _check_exact_range(state, (2**squarings + 2) * np.max(np.abs(state)), f"{squarings} min-plus squarings")
        state = build_min_plus_square_cell(n).run(state, np.zeros((squarings, 0)))[0][-1]
    return state.reshape(n, n)


# -- constrained shortest paths ------------------------------------------------


def enumerate_csp_lengths(graph: WeightedGraph, limit) -> dict:
    """Oracle: per vertex, the least path length whose resource stays within
    `limit` (up to RESOURCE_TOL), by exhaustive DFS over simple paths from the source.

    Cycles never help (lengths >= 1, resources >= 0), so simple paths
    suffice.  Returns {vertex: int length or None}; the source maps to 0.
    Guarded at n <= ORACLE_MAX_VERTICES.
    """
    n, s = graph.n, graph.source
    if n > ORACLE_MAX_VERTICES:
        raise SizeGuardError(f"simple-path enumeration refuses n = {n} > {ORACLE_MAX_VERTICES}")
    if graph.resources is None:
        raise ValueError("graph has no resource matrix")
    c, r = graph.lengths, graph.resources
    best: dict = {v: None for v in range(n)}
    best[s] = 0

    def dfs(v, visited, length, resource):
        for u in range(n):
            if u == s or u in visited:
                continue
            nl = length + c[v][u]
            nr = resource + r[v][u]
            if nr > limit + RESOURCE_TOL:
                continue
            if best[u] is None or nl < best[u]:
                best[u] = nl
            dfs(u, visited | {u}, nl, nr)

    dfs(s, {s}, 0.0, 0.0)
    return {v: (d if d is None else int(round(d))) for v, d in best.items()}


def _offdiag(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    return m[~np.eye(m.shape[0], dtype=bool)]


def _listings(m: int, row: int) -> int:
    """How many hidden rows of the minimum tree over m rows list the terms of `row`:
    the rounds in which value j = row >> (r - 1), the one holding `row`, ends at
    `row` and is paired."""
    return sum((j := row >> (r - 1)) < 2 * pairs and min((j + 1) << (r - 1), m) - 1 == row
               for r, pairs in _rounds(m))


def _bf_arcs(n: int) -> int:
    """Arc count of ``build_bellman_ford_cell`` on n vertices, from its layout:
    for each of the n targets, a minimum tree over n rows of one input each."""
    n = operator.index(n)
    return n * _min_arcs(n)


def _apsp_arcs(n: int) -> int:
    """Arc count of ``build_min_plus_square_cell(n)``, from its layout.

    As in :func:`_bf_arcs`, with rows d(u, k) + d(k, v) of two inputs each
    in each of the n**2 trees.  Rows k and k' share a source only when
    {k, k'} = {u, v}, which cancels both terms in the 2 (n - 1) groups
    whose tree pairs those rows; and the row u = k = v has one term, one
    fewer in each of the 2 (n - 1) hidden rows and the one output listing it.
    """
    n = operator.index(n)
    return n * n * (4 * (n - 1) + _tree_arcs(n) + 2 + (n - 1).bit_count()) - 6 * (n - 1) - 1


def _csp_arcs(n: int, c_star: int, source: int) -> int:
    """Arc count of ``build_csp_network(n, c_star, ., source)``, from its layout.

    With t = n - 1 targets and p = popcount(n): the 2 t**2 c_star gates of
    one arc; per budget c and target, the keeps (two gate arcs each, plus
    the p neurons of f(c - k, u) for u != source) and the minimum tree over
    n + 1 rows that share no source (f(c - 1, v): p terms from c = 2 on;
    hop u: its keeps and r(u, v); BIG_R: none); the c_star t outputs of p
    arcs.  The source's hop, one keep longer, is row source + 1 of the
    groups of targets above the source and row source of those below.
    """
    n, c_star, source = operator.index(n), operator.index(c_star), operator.index(source)
    t, p, m = n - 1, n.bit_count(), n + 1
    first, hops = _listings(m, 0), 2 * (m - 1) - _listings(m, 0) - _listings(m, n)
    c_sum, c_less = c_star * (c_star + 1) // 2, c_star * (c_star - 1) // 2
    tree = c_star * _tree_arcs(m) + (c_star - 1) * p * first + c_sum * hops
    keeps = 2 * c_sum + (t - 1) * (2 + p) * c_less
    source_hop = (t - source) * _listings(m, source + 1) + source * _listings(m, source)
    return 2 * t * t * c_star + t * (keeps + tree) + c_star * source_hop + c_star * t * p


def _tsp_arcs(n: int, limit: int | None = None) -> int:
    """Arc count of ``build_tsp_network(n)``, from its layout.

    With N = n - 1, an entry f(T, v) with |T| = s lists the inputs along
    the path 0, (T - v ascending), v and the neurons of each entry on the
    way: a(s) = a(s - 1) + 1 + popcount(s - 2) terms, a(1) = 1.  Cardinality
    t has C(N, t) t groups of m = t - 1 rows f(T - v, u) + c(u, v), the
    closing group has N rows f(all, u) + c(u, 0).  The terms that two rows
    of a group share cancel in their row ``b - a`` and are dropped.  With
    `limit`, summing stops once the count passes it, and that partial
    count is returned.
    """
    big = operator.index(n) - 1
    ones = [0]  # ones[x] = popcount(0) + ... + popcount(x - 1), as far as needed

    def tree(m: int, k: int) -> int:
        while len(ones) < m:
            ones.append(ones[-1] + (len(ones) - 1).bit_count())
        shared = 0
        for _, la, lb in _min_tree(m):
            # Rows at places i < j of T - v = {s_1 < ... < s_m} share the path steps
            # s_x -> s_x+1 (s_0 = 0) for x outside {i - 1, i, j - 1, j} (all but
            # i - 1 and i when j = m), and the neurons of the entries on the first
            # i - 1 of them.
            i, j = la + 1, lb + 1
            shared += (m - 2 if j == m else m - 3 if j == i + 1 else m - 4) + ones[max(i - 2, 0)]
        # each row b - a: the k terms of both rows less the shared ones, and its tree neurons
        return 2 * k * (m - 1) + _tree_arcs(m) - 2 * shared

    terms = 1
    total = 0
    for t in range(2, big + 1):
        total += math.comb(big, t) * t * tree(t - 1, terms + 1)
        if limit is not None and total > limit:
            return total
        terms += 1 + (t - 2).bit_count()
    return total + tree(big, terms + 1) + terms + 1 + (big - 1).bit_count()


def _edge(n: int, u, v):
    """Input index of the edge (u, v) among the row-major off-diagonal entries."""
    return u * (n - 1) + v - (v > u)


def build_csp_network(n: int, c_star: int, resource_bound: float, source: int = 0) -> ReluNetwork:
    """Network executing f(c, v) = min(f(c-1, v), min_u(f(c - c_uv, u) + r_uv)).

    The inputs are the row-major off-diagonal lengths, then the resources
    in the same order.  Output row c - 1 of the (c_star, n - 1) table holds
    f(c, v), the least resource of a source-to-v path of length at most c,
    for the targets v ascending, the source skipped.  BIG_R =
    2 (n resource_bound + 1) means "no such path", valid while resources
    stay within ``resource_bound``.

    The arc length c_uv is an input, so which earlier table entry the
    recursion reads is decided by integer gates exactly as in the
    knapsack cell -- except that here an unmatched gate must default to
    BIG_R ("no path"), not 0, so the selector is the complement form
    BIG_R - sum(keeps).  Edges from the source use the constant base row
    f(., source) = 0; lengths beyond c_star simply never match a gate.

    Layers: the gate pairs, then per budget c = 1..c_star a keep layer and
    the ceil(log2(n + 1)) rounds of a minimum tree per target, then the
    output.  All budgets come from one set of index arrays: the keeps are
    indexed by (c, hop, k), their reads of f(c - k, u) are closed-form
    (BIG_R minus popcount(n) tree neurons of budget c - k), and so are the
    output rows.  One ``min_reduce_many`` call runs every budget's trees,
    one group per budget on its own layers, so the build makes the same
    number of array calls whatever c_star is.

    The network has ``_csp_arcs(n, c_star, source)`` arcs, about
    2 n**2 c_star**2 (4,892 at n = 5, c_star = 10); a size whose count
    exceeds ``relu_core.MAX_ARCS`` is refused before anything is built.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    if c_star < 1:
        raise ValueError("c_star must be >= 1")
    if not 0 <= resource_bound < math.inf:
        raise ValueError(f"resource_bound must be finite and non-negative, not {resource_bound!r}")
    if not 0 <= source < n:
        raise ValueError("source out of range")
    num_arcs = _csp_arcs(n, c_star, source)
    check_arc_budget(num_arcs, f"the constrained-path network for n = {n}, c_star = {c_star}")
    big_r = _unreachable(n, float(resource_bound))
    gate = 2.0 * big_r
    edges = n * (n - 1)  # inputs: the lengths c(u, v), then the resources r(u, v)
    t = n - 1

    # Gate pair (plus, minus) of the test c(u, v) == k, for the j-th edge into a
    # target (u-major) and k = 1..c_star: neurons 2 (j c_star + k - 1) + {0, 1}.
    eu, ev = np.divmod(np.arange(n * n), n)
    into = (eu != ev) & (ev != source)
    eu, ev = eu[into], ev[into]
    gate_k = gate * np.tile(np.arange(1, c_star + 1), eu.size)
    gates = (
        [(0, np.repeat(_edge(n, eu, ev), 2 * c_star), np.arange(2 * gate_k.size), np.tile([gate, -gate], gate_k.size))],
        np.column_stack((-gate_k, gate_k)).ravel(),
    )

    # All budgets are written at once.  Budget c = 1..c_star owns layer keep(c)
    # = 2 + (c - 1)(rounds + 1), its selector, and layer keep(c) + s + 1, round
    # s + 1 of its minimum tree over n + 1 rows per target.  The output layer
    # comes last.
    pairs = np.array([p for _, p in _rounds(n + 1)])  # per target and round
    rounds = pairs.size
    keep_layer = 2 + (rounds + 1) * np.arange(-1, c_star)  # entry c: budget c's, c >= 1
    bits = np.flatnonzero((n >> np.arange(rounds)) & 1)

    # From c = 1 on, the tree leaves f(c, v) as its last row, the constant BIG_R,
    # minus the neuron of each round s + 1 in which bit s of n is set: pair
    # n >> s + 1 of v's run.  So any row can read f before its tree is written.
    def f_neurons(c, j):
        """Layers and indices of the neurons that f(c, v) subtracts from BIG_R,
        one row per entry, for the j-th target v and c >= 1."""
        return keep_layer[c][:, None] + 1 + bits, pairs[bits] * j[:, None] + (n >> bits + 1)

    # Hop (c, u, v) for each budget c, target v and u != v: c-major, then v-major.
    # Its keeps are keep (c, v, u, k) = relu(BIG_R - f(c - k, u) - plus - minus)
    # for k = 1..kmax, indexed by (c, hop, k); u = source reads the constant 0 up
    # to k = c.  Keep rows list f's neurons, then plus and minus.
    edge = np.argsort(ev, kind="stable")  # each hop's edge
    from_source = eu[edge] == source
    kmax = (np.arange(c_star)[:, None] + from_source).ravel()
    hop = np.repeat(np.arange(kmax.size), kmax)
    keep = np.arange(hop.size)
    k = keep - (np.cumsum(kmax) - kmax)[hop] + 1
    budget, j = np.divmod(hop, edge.size)  # budget c - 1, and the hop's edge
    first = np.searchsorted(budget, np.arange(c_star + 1))  # budget c's keeps start at first[c - 1]
    g = 2 * (c_star * edge[j] + k - 1)
    u, p = eu[edge[j]], bits.size
    sl, si = np.ones((keep.size, p + 2), dtype=np.int64), np.empty((keep.size, p + 2), dtype=np.int64)
    sl[:, :p], si[:, :p] = f_neurons(budget + 1 - k, u - (u > source))
    si[:, p], si[:, p + 1] = g, g + 1
    listed = np.ones(sl.shape, dtype=bool)
    listed[from_source[j], :p] = False
    row = np.broadcast_to(keep[:, None], sl.shape)[listed]
    sl, si, coef = sl[listed], si[listed], np.broadcast_to(np.repeat([1.0, -1.0], [p, 2]), sl.shape)[listed]

    # hop(c, u, v) = BIG_R - (its keeps) + r(u, v)
    end = np.cumsum(kmax + 1) - 1
    terms = end[-1] + 1
    hop_sl, hop_si, hop_coef = np.zeros(terms, dtype=np.int64), np.zeros(terms, dtype=np.int64), np.zeros(terms)
    hop_sl[keep + hop], hop_si[keep + hop], hop_coef[keep + hop] = keep_layer[budget + 1], keep - first[budget], -1.0
    hop_si[end], hop_coef[end] = edges + np.tile(_edge(n, eu[edge], ev[edge]), c_star), 1.0
    hop_rows = [(hop_sl, hop_si, np.repeat(np.arange(kmax.size), kmax + 1), hop_coef)], np.full(kmax.size, big_r)
    keep_bias = np.where(from_source[j], big_r, 0.0)
    del hop, keep, k, budget, j, g, u, listed  # freed before the trees' merge, a large build's peak

    # Run (c - 1) t + j of the minimum: f(c - 1, v), the n - 1 hops into v and
    # BIG_R.  Row c t + j of `table` is f(c, v) for c < c_star, and f(0, v) is
    # the constant BIG_R, so row 0 serves as BIG_R.  Budget c's t runs are one
    # group, its rounds numbered on from keep(c).  Its rows read only earlier
    # layers, so no tree neuron shares a key with another source.
    run = np.arange(c_star * t)
    tl, ti = f_neurons(1 + run // t, run % t)
    table = ([(tl[:-t].ravel(), ti[:-t].ravel(), np.repeat(t + run[:-t], p), np.full(tl[:-t].size, -1.0))],
             np.full(run.size, big_r))
    group = np.column_stack((run, run.size + (n - 1) * run[:, None] + np.arange(n - 1),
                             np.zeros(run.size, dtype=np.int64))).ravel()
    # The last group's output block goes unused: output row (c - 1) t + j is
    # f(c, v), written in closed form.
    hidden = min_reduce_many(_take([table, hop_rows], group), [(t, n + 1, c) for c in keep_layer[1:].tolist()])[:-1]
    keeps = _split(([(sl, si, row, coef)], keep_bias), first)
    out = [(tl.ravel(), ti.ravel(), np.repeat(run, p), np.full(tl.size, -1.0))], np.full(run.size, big_r)
    layers = chain.from_iterable(zip(keeps, *(hidden[s::rounds] for s in range(rounds))))  # budget by budget
    net = network_from_blocks(2 * edges, [gates, *layers, out])
    return _checked(net, num_arcs)


def run_csp(graph: WeightedGraph, c_star: int, limit) -> dict:
    """Per vertex, the least length budget c in [c_star] whose minimal
    resource f(c, v) stays within `limit`; None when no budget works.

    Lengths must be integers >= 1 off the diagonal (the table is indexed
    by length); `limit` must lie below the BIG_R surrogate.

    With R the largest resource, every sum the network forms stays within
    BIG_R + R in size, partial sums included: a keep is BIG_R - f or 0, a
    hop BIG_R - keep + r, and every table value and minimum lies in
    [0, BIG_R + R].  A row ``b - a`` of a minimum tree sums b's terms less
    a's, column by column, and the partial sums of either side stay within
    [-BIG_R, R], since its value lies in [0, BIG_R + R] and its bias is
    BIG_R.  The gate pairs need only their sign.  A graph where BIG_R + R reaches 2**53
    times the finest dyadic quantum of its off-diagonal resources and BIG_R
    is refused with NumericOverflowError, off-grid resources like 0.1 too.
    Below that bound f(c, v) is the exact resource total of a path, as in
    :func:`enumerate_csp_lengths`, and RESOURCE_TOL only widens the limit:
    both count a path whose total is at most ``limit + RESOURCE_TOL``.
    """
    n, lengths = graph.n, graph.lengths
    if graph.resources is None:
        raise ValueError("constrained shortest paths need a resource matrix")
    bad = np.argwhere(((lengths != np.round(lengths)) | (lengths < 1)) & ~np.eye(n, dtype=bool))
    if bad.size:
        u, v = bad[0]
        raise ValueError(f"length {lengths[u, v]} at ({u}, {v}) is not a positive integer")
    resource_bound = float(np.max(graph.resources))
    big_r = _unreachable(n, resource_bound)
    if not 0 <= limit < big_r:
        raise ValueError(f"resource limit must lie in [0, {big_r})")
    resources = _offdiag(graph.resources)
    _check_exact_range(np.append(resources, big_r), big_r + resource_bound, f"a constrained-path table over {n} vertices")
    network = build_csp_network(n, c_star, resource_bound, graph.source)
    out = network.evaluate(np.concatenate([_offdiag(lengths), resources]))
    within = out.reshape(c_star, n - 1) <= limit + RESOURCE_TOL  # row c - 1: f(c, v) per target v
    targets = np.delete(np.arange(n), graph.source).tolist()
    hits = zip(targets, within.any(axis=0).tolist(), within.argmax(axis=0).tolist())
    return {graph.source: 0} | {v: c + 1 if hit else None for v, hit, c in hits}


# -- traveling salesperson -----------------------------------------------------


def tsp_brute_force(dist) -> float:
    """Shortest directed round trip by enumerating all (n-1)! permutations;
    the matrix is read as a :class:`WeightedGraph`'s lengths, as in :func:`run_tsp`."""
    d = WeightedGraph(dist).lengths
    n = d.shape[0]
    if n > ORACLE_MAX_VERTICES:
        raise SizeGuardError(f"permutation enumeration refuses n = {n} > {ORACLE_MAX_VERTICES}")
    best = math.inf
    for order in permutations(range(1, n)):
        length = d[0, order[0]]
        for a, bb in zip(order, order[1:]):
            length += d[a, bb]
        length += d[order[-1], 0]
        best = min(best, length)
    return float(best)


def build_tsp_network(n: int) -> ReluNetwork:
    """All path values f(T, v) computed per cardinality layer, in parallel.

    The inputs are the row-major off-diagonal distances; the one output
    is the optimal tour length.

    f(T, v) is the shortest path from the start vertex through exactly
    the vertex set T, ending at v in T; the recursion minimizes over the
    predecessor.  Tours close with min_u(f(all, u) + c(u, start)).

    Layers: for each cardinality t = 3..n - 1 in turn, the ceil(log2(t -
    1)) rounds of a minimum tree over the t - 1 rows f(T - v, u) + c(u, v)
    of each entry f(T, v); then the ceil(log2(n - 1)) rounds and the
    output of the closing tree over the n - 1 rows f(all, u) + c(u,
    start).  Cardinality 2 needs no layer: f({u, v}, v) is c(start, u) +
    c(u, v).  No f(T, v) is a row of its own, as its terms are closed-form.
    With T - v = {s_1 < ... < s_{t-1}}, they are the inputs along the path
    start, s_1, ..., s_{t-1}, v, each followed by the tree neurons of the
    entry it reaches, f({s_1, ..., s_i}, s_i) and last f(T, v): for an
    entry of cardinality i, the neuron of each round r of its tree in
    which bit r - 1 of i - 2 is set, rounds ascending.  So the rows of
    every cardinality and of the closing tree come from one set of index
    arrays, and one ``min_reduce_many`` call runs every tree, whatever n is.

    The network has ``_tsp_arcs(n)`` arcs, about 2.8x more per added
    vertex (10,380 at n = 8, 760,620 at n = 12); a size whose count
    exceeds ``relu_core.MAX_ARCS`` is refused before anything is built.
    """
    if n < 2:
        raise SizeGuardError("a tour needs at least two vertices")
    num_arcs = _tsp_arcs(n, MAX_ARCS)
    check_arc_budget(num_arcs, f"the tour network for n = {n}")
    big = n - 1
    # A set P of the vertices 1..N (N = n - 1) is the mask with bit N - x set
    # for each x in P.  Masks of one size in decreasing order list their sets
    # in lexicographic order, and rank[mask] is the set's place in that order.
    # Entry f(P, x), for x the member at place k of P (ascending), is number
    # where[P] + k: held[...] is P and vertex[...] is x.
    masks = np.arange(1 << big)
    held, vertex = np.nonzero((masks[:, None] >> (big - 1 - np.arange(big))) & 1)
    vertex += 1
    size = np.bincount(held, minlength=masks.size)
    where = np.cumsum(size) - size
    order = np.argsort((size << big) - masks)  # by size, each size in decreasing order
    per_size = np.bincount(size, minlength=n)
    rank = np.empty_like(masks)
    rank[order] = masks - (np.cumsum(per_size) - per_size)[size[order]]
    # Cardinality s's tree has ceil(log2(s - 1)) rounds, from layer base[s] + 1.
    # Each of its minima is its last row minus the neuron of round b + 1 for
    # each set bit b of s - 2, pair (s - 2) >> (b + 1) of its run; (card, bit)
    # lists those bits from bits[s] on, ascending.
    rounds = np.array([max(s - 2, 0).bit_length() for s in range(n + 1)])
    base = np.cumsum(rounds) - rounds
    card, bit = np.nonzero((np.maximum(np.arange(n) - 2, 0)[:, None] >> np.arange(big.bit_length())) & 1)
    listed = np.bincount(card, minlength=n)
    bits = np.cumsum(listed) - listed

    # E(P, x), the terms that f(P, x) adds to f(P - x, y) for y = max(P - x):
    # the input c(y, x), or c(start, x) when P = {x}, then the neurons that
    # f(P, x)'s minimum subtracts, its run being rank[P] |P| + k.
    s = size[held]
    k = np.arange(held.size) - where[held]
    length = 1 + listed[s]
    e_ptr = np.zeros(held.size + 1, dtype=np.int64)
    np.cumsum(length, out=e_ptr[1:])
    at = np.repeat(np.arange(held.size), length)
    nth = np.arange(at.size) - e_ptr[at]
    neuron = np.flatnonzero(nth)
    at = at[neuron]
    tab = bits[s[at]] + nth[neuron] - 1
    i, b = card[tab], bit[tab]
    e_sl, e_si = np.zeros(nth.size, dtype=np.int32), np.empty(nth.size, dtype=np.int32)
    e_coef = np.full(nth.size, -1.0)
    e_sl[neuron] = base[i] + 1 + b
    e_si[neuron] = ((((i - 2) >> b) + 1) // 2) * (rank[held[at]] * s[at] + k[at]) + ((i - 2) >> (b + 1))
    e_si[e_ptr[:-1]] = _edge(n, np.where(s > 1, vertex[where[held] + s - 1 - (k == s - 1)], 0), vertex)
    e_coef[e_ptr[:-1]] = 1.0
    # F(S), the terms of f(S, max S): E(P, y) for each member y of S, ascending,
    # and P the members of S up to y.  F(S) lists the E terms f_terms[f_ptr[S]:f_ptr[S + 1]].
    prefix = where[held & -(1 << (big - vertex))] + k
    f_ptr = np.zeros(held.size + 1, dtype=np.int64)
    np.cumsum(length[prefix], out=f_ptr[1:])
    f_ptr = f_ptr[np.append(where, held.size)]
    f_terms = _gather(e_ptr, prefix)[1]

    # The rows: for each set T of size 3..N in order, each entry f(T, v), v
    # ascending, lists the rows f(T - v, u) + c(u, v) of the other members u,
    # ascending, u at place q of T - v; then the closing rows f(all, u) + c(u,
    # start).  With R = T - v (all, when closing), a row lists F(R - u), E(R,
    # u), then the input c(u, v).
    sets = order[size[order] >= 3]
    t = size[sets]
    count = t * (t - 1)
    row_set = np.repeat(np.arange(sets.size), count)
    p, q = np.divmod(np.arange(row_set.size) - (np.cumsum(count) - count)[row_set], t[row_set] - 1)
    v = vertex[where[sets[row_set]] + p]
    rest = np.append(sets[row_set] ^ (1 << (big - v)), np.full(big, masks[-1]))
    v, q = np.append(v, np.zeros(big, dtype=np.int64)), np.append(q, np.arange(big))
    e = where[rest] + q
    u = vertex[e]
    # Blocks F(S) are numbered by S, then the entries' blocks E, then each row's
    # last input: one gather lists every row's three blocks.
    final = e_ptr[-1] + np.arange(v.size + 1)
    ptr = np.concatenate((f_ptr[:-1], f_terms.size + e_ptr[:-1], f_terms.size + final))
    blocks = np.column_stack((rest ^ (1 << (big - u)), masks.size + e, masks.size + held.size + np.arange(v.size)))
    place, pos = _gather(ptr, blocks.ravel())
    term = np.concatenate((f_terms, np.arange(final[-1])))[pos]
    del pos
    # int32 indices: a large build's peak is the merge of every tree's terms
    sl, si, coef = (np.concatenate(column, dtype=column[0].dtype)[term] for column in (
        (e_sl, np.zeros(v.size, dtype=np.int32)), (e_si, _edge(n, u, v)), (e_coef, np.ones(v.size))))
    rows = [(sl, si, np.floor_divide(place, 3, dtype=np.int32), coef)], np.zeros(v.size)
    del term, place, sl, si, coef
    groups = [(int(per_size[c]) * c, c - 1, int(base[c])) for c in range(3, n)] + [(1, big, int(base[n]))]
    layers = min_reduce_many(rows, groups)
    del rows  # freed before the network is assembled
    return _checked(network_from_blocks(n * (n - 1), layers), num_arcs)


def run_tsp(dist) -> float:
    """Optimal tour length of a complete directed distance matrix, read as a
    :class:`WeightedGraph`'s lengths (fewer than two vertices raise SizeGuardError).

    With M = max|distance| off the diagonal, every sum the network forms
    stays within 2 n M in size, partial sums included: each f(T, v) and
    the tour is a path of at most n distances, and a row ``b - a`` of the
    minimum tree adds up two such paths' inputs and then, round by round,
    the neurons that turn b and a into minima over paths.  A matrix where
    2 n M reaches 2**53 times the finest dyadic quantum of its distances
    is refused as in :func:`run_bellman_ford`, off-grid ones like 0.1 too.
    """
    d = WeightedGraph(dist).lengths
    n = d.shape[0]
    off = _offdiag(d)
    _check_exact_range(off, 2 * n * np.max(np.abs(off), initial=0.0), f"a tour over {n} vertices")
    return float(build_tsp_network(n).evaluate(off)[0])
