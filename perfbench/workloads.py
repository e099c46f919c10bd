"""The benchmark's four workloads: seeded inputs, the timed operation, its checks.

Every workload generates all of its inputs from the run seed in
``setup``; the timed operation only ever receives generated inputs.
Within a workload every operation does work of one kind and one size
(fixed profit totals, item counts, graph and sequence sizes), so a
run's median comes from one population.  ``check`` compares an output
with an independent computation (table DP, brute force, the rounded
reference recursion, classical graph and sequence algorithms) and
returns ``None`` when it agrees, else a message.

Layer entry points are always looked up as module attributes at call
time (``dp_nn.solve_exact``, ``instance_gen.gen_knapsack``), so the
span wrappers of :mod:`spans` see every call.
"""

from __future__ import annotations

import numpy as np

from dpnets import co_builders, dp_nn, fptas_nn, instance_gen, knapsack_oracles
from dpnets.instance_gen import GRID_QUANTUM, GenConfig, SplitMix64

CAPACITY_TOL = 1e-9
BRUTE_FORCE_MAX_ITEMS = 25


def _bit_reversed(count: int) -> list:
    """0..count-1 (count a power of two) in bit-reversed order.

    Every prefix of length 2**k samples the range evenly, so however many
    operations a run gets through, the totals it visits are spread alike.
    """
    bits = count.bit_length() - 1
    if count != 1 << bits:
        raise ValueError("count must be a power of two")
    return [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(count)]


def gen_with_items(seed: int, total: int, items: int, stream: int = 0):
    """Generated knapsack instance with profit total `total` and exactly `items` items.

    Draws ``gen_knapsack`` with successive seeds until the item count
    matches, so every operation of a workload works on one instance size.
    """
    base = (seed * 0x9E3779B97F4A7C15 + stream * 0xBF58476D1CE4E5B9) & (2**63 - 1)
    for bump in range(100_000):
        inst = instance_gen.gen_knapsack(GenConfig(base + bump, total))
        if inst.n == items:
            return inst
    raise RuntimeError(f"no {items}-item instance with total {total} from seed {seed}")


def dp_cell_closed_form(net, p_star: int):
    """None when `net` has the DP cell's layer sizes and 2*p*^2 + 4*p* arcs."""
    want = (p_star + 2, 2 * p_star, p_star * (p_star - 1) // 2, p_star, p_star)
    if tuple(net.layer_sizes) != want:
        return f"DP cell p*={p_star}: layers {net.layer_sizes}, closed form {want}"
    if net.num_arcs != 2 * p_star * p_star + 4 * p_star:
        return f"DP cell p*={p_star}: {net.num_arcs} arcs, closed form {2 * p_star**2 + 4 * p_star}"
    return None


def fptas_cell_closed_form(net, resolution: int):
    """None when `net` has the rounded cell's layers (P+3; 2, 2P^2+2P, P^2+P, P; P+1)."""
    P = resolution
    want = (P + 3, 2, 2 * P * P + 2 * P, P * P + P, P, P + 1)
    if tuple(net.layer_sizes) != want:
        return f"rounded cell P={P}: layers {net.layer_sizes}, closed form {want}"
    return None


def check_exact(inst, sol):
    """Exact solve against the table DP, brute force (n <= 25) and its witness."""
    want = knapsack_oracles.optimum_value(knapsack_oracles.dp_table(inst, inst.total_profit))
    if sol.value != want:
        return f"value {sol.value} != table optimum {want}"
    if inst.n <= BRUTE_FORCE_MAX_ITEMS:
        brute = knapsack_oracles.brute_force(inst).value
        if sol.value != brute:
            return f"value {sol.value} != brute force {brute}"
    return _check_witness(inst, sol)


def _check_witness(inst, sol):
    if sum(inst.sizes[i] for i in sol.items) > 1.0 + CAPACITY_TOL:
        return f"witness {sol.items} exceeds the capacity"
    if sum(inst.profits[i] for i in sol.items) < sol.value - CAPACITY_TOL:
        return f"witness {sol.items} falls short of the value {sol.value}"
    return None


def check_rounded(inst, resolution: int, sol):
    """Rounded solve against the reference recursion and the width guarantee."""
    ref = knapsack_oracles.fptas_reference(inst, resolution)
    row = ref.best_row()
    want = row * ref.scaled_granularity(inst.n) / resolution if row else 0.0
    if sol.value != want:
        return f"value {sol.value} != reference best row value {want}"
    opt = knapsack_oracles.brute_force(inst).value
    floor = opt * (1.0 - inst.n * inst.n / resolution)
    if not floor - CAPACITY_TOL <= sol.value <= opt + CAPACITY_TOL:
        return f"value {sol.value} outside [{floor}, {opt}]"
    return _check_witness(inst, sol)


class Workload:
    """One kind of operation at one size, run closed-loop.

    ``min_ops`` is the fewest operations a run makes, however short.
    """

    name = ""
    min_ops = 40

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        """Generate the run's inputs and build the cells operations reuse.

        Returns an error message for a cell off its closed form, else None.
        """
        raise NotImplementedError

    def warmup_input(self):
        raise NotImplementedError

    def input(self, j: int):
        raise NotImplementedError

    def run(self, inp):
        """The timed operation."""
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError

    def cell(self):
        """The network whose layer sizes the traced run reports."""
        raise NotImplementedError


class ExactCold(Workload):
    """One-shot exact solves; each of 16 operations in a row has its own profit total.

    Each solve builds and compiles the DP cell for its total, as one
    ``dpnets solve-exact`` call does.  The totals are 16 consecutive
    integers visited in bit-reversed order; twice what the cell cache
    holds, so no operation finds its cell already built.  The band is
    narrow, so the operations stay one population.
    """

    name = "exact-cold"

    def __init__(self, seed, first_total=96, totals=16, items=6, rounds=8):
        super().__init__(seed)
        self.first_total, self.totals, self.items = first_total, totals, items
        self.rounds = rounds

    def setup(self):
        order = _bit_reversed(self.totals)
        # Round r visits every total once, each with an instance of its own.
        self.instances = [
            gen_with_items(self.seed, self.first_total + k, self.items, stream=2 + r)
            for r in range(self.rounds) for k in order
        ]
        self.warmup = gen_with_items(self.seed, self.first_total - 1, self.items, stream=1)
        return None

    def warmup_input(self):
        return self.warmup

    def input(self, j):
        return self.instances[j % len(self.instances)]

    def run(self, inp):
        return dp_nn.solve_exact(inp)

    def check(self, inp, out):
        err = check_exact(inp, out)
        if err is None and inp is self.warmup:
            err = dp_cell_closed_form(dp_nn.build_dp_cell(inp.total_profit).net, inp.total_profit)
        return err

    def cell(self):
        return dp_nn.build_dp_cell(self.instances[0].total_profit).net


class ExactSmall(Workload):
    """Many exact solves of small instances that share one cell built in set-up.

    The pattern of the acceptance criteria and ``verify``: the builder is
    bypassed and time goes into the per-call and per-layer fixed cost of
    ``run_recurrent`` and ``ReluNetwork.evaluate``.
    """

    name = "exact-small"

    def __init__(self, seed, total=12, items=3, pool=256):
        super().__init__(seed)
        self.total, self.items, self.pool = total, items, pool

    def setup(self):
        self.instances = [
            gen_with_items(self.seed * 4096 + k, self.total, self.items) for k in range(self.pool)
        ]
        # The warm-up solves a different total, so it builds a cell of its own.
        self.warmup = gen_with_items(self.seed, self.total + 1, self.items, stream=1)
        shared = dp_nn.build_dp_cell(self.total)
        shared.net.evaluate(np.concatenate([np.full(self.total, 2.0), [1.0, 0.5]]))
        return dp_cell_closed_form(shared.net, self.total)

    def warmup_input(self):
        return self.warmup

    def input(self, j):
        return self.instances[j % len(self.instances)]

    def run(self, inp):
        return dp_nn.solve_exact(inp)

    def check(self, inp, out):
        return check_exact(inp, out)

    def cell(self):
        return dp_nn.build_dp_cell(self.total).net


class FptasWarm(Workload):
    """Rounded solves at one large resolution, on a cell built in set-up.

    Instances of 12 items with profit total 100000, far above P, so every
    step rounds.  Time goes into the sparse products of hidden layers 2
    and 3; builder gains show only in ``setup_s``.
    """

    name = "fptas-warm"

    def __init__(self, seed, resolution=200, total=100_000, items=12, pool=64,
                 warmup_resolution=8):
        super().__init__(seed)
        self.resolution, self.total, self.items, self.pool = resolution, total, items, pool
        self.warmup_resolution = warmup_resolution

    def setup(self):
        self.instances = [
            gen_with_items(self.seed * 4096 + k, self.total, self.items) for k in range(self.pool)
        ]
        self.warmup = gen_with_items(self.seed, self.total, self.items, stream=1)
        P = self.resolution
        shared = fptas_nn.build_fptas_cell(P)
        shared.net.evaluate(np.concatenate([np.full(P, 2.0), [0.0, 1.0, 0.5]]))
        return fptas_cell_closed_form(shared.net, P)

    def warmup_input(self):
        return self.warmup

    def input(self, j):
        return self.instances[j % len(self.instances)]

    def _resolution_for(self, inp):
        # The warm-up uses a small cell of its own, never the shared one.
        return self.warmup_resolution if inp is self.warmup else self.resolution

    def run(self, inp):
        return fptas_nn.solve_with_resolution(inp, self._resolution_for(inp))

    def check(self, inp, out):
        return check_rounded(inp, self._resolution_for(inp), out)

    def cell(self):
        return fptas_nn.build_fptas_cell(self.resolution).net


class CoOneshot(Workload):
    """One fixed pass over the other builders, on fresh seeded inputs.

    Builds and runs, once each: the subsequence cell on two 20-symbol
    sequences (400 tiny evaluations), Bellman-Ford and min-plus
    squaring on a 10-vertex graph, constrained shortest paths on 5
    vertices with lengths up to 10, a tour network on 8 vertices, and
    the DP cell unfolded over 6 items.  The unfolding's cell is built in
    set-up; the warm-up pass unfolds a cell of another total.
    """

    name = "co-oneshot"

    def __init__(self, seed, lcs_len=20, alphabet=4, graph_n=10, csp_n=5, csp_c=10,
                 tsp_n=8, unfold_total=12, unfold_items=6, pool=128):
        super().__init__(seed)
        self.lcs_len, self.alphabet, self.graph_n = lcs_len, alphabet, graph_n
        self.csp_n, self.csp_c, self.tsp_n = csp_n, csp_c, tsp_n
        self.unfold_total, self.unfold_items, self.pool = unfold_total, unfold_items, pool

    def _inputs(self, s, unfold_total):
        rng = SplitMix64(s)
        csp_graph = instance_gen.gen_graph(self.csp_n, 3, s + 1, with_resources=True,
                                           integer_lengths=True)
        limit = rng.randint(0, 6) * 0.5 * float(np.max(csp_graph.resources))
        # Fixed item count: profits uniform on [1, total], sizes on the grid in ]0, 1/2].
        profits = tuple(rng.randint(1, unfold_total) for _ in range(self.unfold_items))
        sizes = tuple(rng.randint(1, 2**25) * GRID_QUANTUM for _ in range(self.unfold_items))
        return {
            "pair": instance_gen.gen_sequences(self.lcs_len, self.lcs_len, self.alphabet, s),
            "graph": instance_gen.gen_graph(self.graph_n, 10.0, s + 2),
            "csp_graph": csp_graph,
            "limit": limit,
            "dist": instance_gen.gen_graph(self.tsp_n, 10.0, s + 3).lengths,
            "knapsack": knapsack_oracles.KnapsackInstance(profits, sizes),
            "unfold_total": unfold_total,
        }

    def setup(self):
        base = self.seed * 1_000_003
        self.instances = [self._inputs(base + 8 * k, self.unfold_total) for k in range(self.pool)]
        self.warmup = self._inputs(base - 8, self.unfold_total + 1)
        shared = dp_nn.build_dp_cell(self.unfold_total)
        shared.net.evaluate(np.concatenate([np.full(self.unfold_total, 2.0), [1.0, 0.5]]))
        return dp_cell_closed_form(shared.net, self.unfold_total)

    def warmup_input(self):
        return self.warmup

    def input(self, j):
        return self.instances[j % len(self.instances)]

    def run(self, inp):
        total = inp["unfold_total"]
        unfolded = dp_nn.unfold_dp(total, inp["knapsack"].n)
        return (
            co_builders.run_lcs(inp["pair"]),
            co_builders.run_bellman_ford(inp["graph"]),
            co_builders.run_apsp(inp["graph"]),
            co_builders.run_csp(inp["csp_graph"], self.csp_c, inp["limit"]),
            co_builders.run_tsp(inp["dist"]),
            unfolded.evaluate(dp_nn.dp_unfolded_input(inp["knapsack"], total)),
        )

    def check(self, inp, out):
        lcs, bf, apsp, csp, tour, column = out
        pair, graph = inp["pair"], inp["graph"]
        if lcs != co_builders.lcs_length(pair.x, pair.y):
            return f"subsequence length {lcs} != {co_builders.lcs_length(pair.x, pair.y)}"
        if not np.array_equal(bf, co_builders.bellman_ford_distances(graph)):
            return "Bellman-Ford distances differ from the textbook recursion"
        if not np.array_equal(apsp, co_builders.floyd_warshall(graph.lengths)):
            return "all-pairs distances differ from Floyd-Warshall"
        want = {
            v: (d if d is not None and d <= self.csp_c else None)
            for v, d in co_builders.enumerate_csp_lengths(inp["csp_graph"], inp["limit"]).items()
        }
        if csp != want:
            return f"constrained lengths {csp} != enumeration {want}"
        if tour != co_builders.tsp_brute_force(inp["dist"]):
            return f"tour {tour} != permutation scan {co_builders.tsp_brute_force(inp['dist'])}"
        table = knapsack_oracles.dp_table(inp["knapsack"], inp["unfold_total"])
        if not np.array_equal(column, table.values[1:, -1]):
            return "unfolded network differs from the final table column"
        return None

    def cell(self):
        return dp_nn.build_dp_cell(self.unfold_total).net


WORKLOADS = {cls.name: cls for cls in (ExactCold, ExactSmall, FptasWarm, CoOneshot)}
