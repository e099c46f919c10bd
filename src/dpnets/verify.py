"""Property suites: activation dichotomies and oracle equivalence.

Each suite returns a :class:`SuiteResult` with check/failure counts so
that the command line can print per-suite summaries and exit nonzero on
any failure.  The probe helpers draw random cell inputs and run each
cell's ``check_layers``; the test suite reuses them.

Probe values live on the 2**-26 grid (like generated instances), where
every sum the networks form is exactly representable, so the zero-
versus-large activation dichotomies and the selected-value identities
can be asserted with equality rather than tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dp_nn, fptas_nn, instance_gen
from .instance_gen import GRID_QUANTUM, GenConfig, SplitMix64
from .knapsack_oracles import KnapsackInstance, brute_force, dp_table, fptas_reference
from .relu_core import ReluNetwork, min_n_gadget, unfold

__all__ = [
    "SuiteResult",
    "capped_instance",
    "grid_values",
    "probe_dp_cell",
    "probe_fptas_cell",
    "run_suite",
    "suite_names",
]


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    messages: list = field(default_factory=list)

    def ok(self, condition: bool, message: str = ""):
        self.checks += 1
        if not condition:
            self.failures += 1
            if message and len(self.messages) < 20:
                self.messages.append(message)

    def ok_all(self, name: str, ok: np.ndarray):
        """One check per entry of ``ok``; a failing entry's message gives ``name`` and its index."""
        self.checks += ok.size
        bad = np.flatnonzero(~ok)
        self.failures += bad.size
        for i in bad[: 20 - len(self.messages)]:
            self.messages.append(f"{name} fails at entry {i}")

    @property
    def passed(self) -> bool:
        return self.failures == 0


def grid_values(rng: SplitMix64, count: int, low_steps: int, high_steps: int) -> np.ndarray:
    """`count` uniform multiples of 2**-26 with step counts in [low, high]."""
    return np.array(
        [rng.randint(low_steps, high_steps) * GRID_QUANTUM for _ in range(count)]
    )


def capped_instance(seed: int, p_star: int, max_items: int) -> KnapsackInstance:
    """Deterministically find a generated instance with at most `max_items` items.

    Only p_star = 1 yields one-item instances, so a cap no instance meets is refused.
    """
    if max_items < 1 or max_items < 2 <= p_star:
        raise ValueError(f"no generated instance for p_star = {p_star} has <= {max_items} items")
    bump = 0
    while True:
        inst = instance_gen.gen_knapsack(GenConfig(seed + bump * 0x9E3779B9, p_star))
        if inst.n <= max_items:
            return inst
        bump += 1


# -- probe helpers -------------------------------------------------------------


def probe_dp_cell(cell: dp_nn.DpCell, rng: SplitMix64, evals: int, result: SuiteResult,
                  counters: dict | None = None):
    """Random-input probes of the exact-step cell through :meth:`DpCell.check_layers`.

    The profit input cycles through 1..p_star + 3, beyond the bound too.
    ``counters`` tallies gate pairs, selectors and minimum rows.
    """
    p_star = cell.p_star
    c = counters if counters is not None else {}
    for key in ("gates", "selection", "minimum"):
        c.setdefault(key, 0)
    for i in range(evals):
        p_in = 1 + i % (p_star + 3)
        f_in = grid_values(rng, p_star, 1, 2**27)  # ]0, 2]
        s_in = rng.randint(1, 2**26) * GRID_QUANTUM  # ]0, 1]
        x = np.concatenate([f_in, [float(p_in), s_in]])
        _tally(cell.check_layers(cell.net.evaluate_layers(x)), result, c)


def probe_fptas_cell(cell: fptas_nn.FptasCell, rng: SplitMix64, evals: int,
                     result: SuiteResult, counters: dict | None = None):
    """Random-input probes of the rounded-step cell through :meth:`FptasCell.check_layers`.

    ``counters`` tallies granularities, skip and take gate pairs, selected
    values and output rows.
    """
    P = cell.resolution
    c = counters if counters is not None else {}
    for key in ("granularity", "skip_gates", "take_gates", "selected", "minimum"):
        c.setdefault(key, 0)
    for _ in range(evals):
        total_in = rng.randint(0, 3 * P)
        p_in = rng.randint(1, 2 * P + 1)
        g_in = grid_values(rng, P, 0, 2**27)  # [0, 2]
        s_in = rng.randint(1, 2**26) * GRID_QUANTUM
        x = np.concatenate([g_in, [float(total_in), float(p_in), s_in]])
        _tally(cell.check_layers(cell.net.evaluate_layers(x)), result, c)


def _tally(checks: dict, result: SuiteResult, counters: dict):
    """Record every entry of a ``check_layers`` result; invariants named in
    ``counters`` also add their entry count there."""
    for name, ok in checks.items():
        result.ok_all(name, ok)
        if name in counters:
            counters[name] += ok.size


def _perturbed(net: ReluNetwork, arc_index: int, delta: float) -> ReluNetwork:
    """Copy of `net` with one arc weight shifted (harness self-test only)."""
    doc = net.to_json_dict()
    doc["arcs"][arc_index][4] += delta
    return ReluNetwork.from_json_dict(doc)


# -- suites --------------------------------------------------------------------


def suite_relu(trials: int, seed: int) -> SuiteResult:
    r = SuiteResult("relu_core")
    rng = SplitMix64(seed)
    for t in range(trials):
        n = rng.randint(1, 9)
        net = min_n_gadget(n)
        xs = grid_values(rng, n, -(2**27), 2**27)
        r.ok(net.evaluate(xs)[0] == float(np.min(xs)), "tree minimum != scan minimum")
        want_depth = 1 if n == 1 else int(np.ceil(np.log2(n))) + 1
        r.ok(net.size == n - 1 and net.depth == want_depth, "minimum gadget shape off")
        # unfolded running minimum over a non-negative stream
        steps = rng.randint(2, 5)
        stream = grid_values(rng, steps + 1, 0, 2**27)
        unfolded = unfold(min_n_gadget(2), steps)
        r.ok(unfolded.evaluate(stream)[0] == float(np.min(stream)), "unfold mismatch")
        doc = net.to_json_dict()
        r.ok(ReluNetwork.from_json_dict(doc) == net, "serialization round trip broke")
    return r


def suite_dp(trials: int, seed: int, inject_fault: bool = False) -> SuiteResult:
    r = SuiteResult("dp_nn")
    rng = SplitMix64(seed)
    cell = dp_nn.build_dp_cell(8)
    if inject_fault:
        cell = dp_nn.DpCell(_perturbed(cell.net, 0, 0.5), cell.p_star)
    probe_dp_cell(cell, rng, max(4, trials), r)
    for t in range(trials):
        p_star = rng.randint(2, 24)
        inst = capped_instance(seed * 1_000_003 + t, p_star, 11)
        table = dp_table(inst, p_star)
        net_table = dp_nn.run_recurrent(dp_nn.build_dp_cell(p_star), inst).table
        r.ok(np.array_equal(net_table.values, table.values), "network states differ from the table")
        sol = dp_nn.solve_exact(inst)
        best = brute_force(inst)
        r.ok(sol.value == best.value, f"value {sol.value} != brute force {best.value}")
        r.ok(sum(inst.sizes[i] for i in sol.items) <= 1.0 + 1e-9, "witness overweight")
        r.ok(sum(inst.profits[i] for i in sol.items) >= sol.value, "witness under target")
    return r


def suite_fptas(trials: int, seed: int) -> SuiteResult:
    r = SuiteResult("fptas_nn")
    rng = SplitMix64(seed)
    probe_fptas_cell(fptas_nn.build_fptas_cell(6), rng, max(4, trials), r)
    for t in range(trials):
        p_star = rng.randint(4, 40)
        inst = capped_instance(seed * 2_000_003 + t, p_star, 9)
        P = rng.randint(2, 20)
        table = fptas_nn.run_fptas(fptas_nn.build_fptas_cell(P), inst).table
        ref = fptas_reference(inst, P)
        r.ok(np.array_equal(table.values, ref.values), "states differ from reference")
        r.ok(table.p_star_sums == ref.p_star_sums, "profit totals differ")
        best = brute_force(inst)
        sol = fptas_nn.solve_approx(inst, "0.5")
        r.ok(sol.value <= best.value, "guaranteed value above the optimum")
        r.ok(sol.value >= 0.5 * best.value - 1e-9, "approximation bound violated")
        in_profit = sum(inst.profits[i] for i in sol.items)
        in_size = sum(inst.sizes[i] for i in sol.items)
        r.ok(in_profit >= sol.value - 1e-9 and in_size <= 1.0 + 1e-9, "witness invalid")
    return r


def suite_co(trials: int, seed: int) -> SuiteResult:
    from . import co_builders
    r = SuiteResult("co_builders")
    rng = SplitMix64(seed)
    for t in range(trials):
        pair = instance_gen.gen_sequences(
            rng.randint(1, 10), rng.randint(1, 10), rng.randint(1, 5), seed * 31 + t
        )
        r.ok(co_builders.run_lcs(pair) == co_builders.lcs_length(pair.x, pair.y),
             "subsequence length mismatch")

        g = instance_gen.gen_graph(rng.randint(2, 7), 10.0, seed * 37 + t)
        r.ok(
            np.array_equal(co_builders.run_bellman_ford(g), co_builders.bellman_ford_distances(g)),
            "relaxation distances mismatch",
        )
        r.ok(
            np.array_equal(co_builders.run_apsp(g), co_builders.floyd_warshall(g.lengths)),
            "all-pairs distances mismatch",
        )

        gc = instance_gen.gen_graph(rng.randint(2, 5), 3, seed * 41 + t,
                                    with_resources=True, integer_lengths=True)
        limit = rng.randint(0, 6) * 0.5 * float(np.max(gc.resources))
        got = co_builders.run_csp(gc, 15, limit)
        want = {v: (d if d is not None and d <= 15 else None)
                for v, d in co_builders.enumerate_csp_lengths(gc, limit).items()}
        r.ok(got == want, f"constrained lengths {got} != {want}")

        nt = rng.randint(3, 7)
        dist = instance_gen.gen_graph(nt, 10.0, seed * 43 + t).lengths
        r.ok(co_builders.run_tsp(dist) == co_builders.tsp_brute_force(dist),
             "tour length mismatch")
    return r


def suite_gen(trials: int, seed: int) -> SuiteResult:
    r = SuiteResult("instance_gen")
    rng = SplitMix64(seed)
    for t in range(trials):
        p_star = rng.randint(1, 60)
        cfg = GenConfig(seed * 53 + t, p_star)
        a = instance_gen.gen_knapsack(cfg)
        b = instance_gen.gen_knapsack(cfg)
        r.ok(a == b, "same seed produced different instances")
        r.ok(sum(a.profits) == p_star, "profit sum != p_star")
        if a.n == 1:
            r.ok(0.0 < a.sizes[0] <= 1.0, "single size out of range")
        else:
            r.ok(1.0 < sum(a.sizes) < 2.0, "size sum outside ]1, 2[")
        r.ok(all(0.0 < s <= 1.0 for s in a.sizes), "item size out of range")
        r.ok(all(round(s / GRID_QUANTUM) * GRID_QUANTUM == s for s in a.sizes),
             "size off the grid")
    return r


_SUITES = {
    "relu": suite_relu,
    "dp": suite_dp,
    "fptas": suite_fptas,
    "co": suite_co,
    "gen": suite_gen,
}


def suite_names():
    return list(_SUITES)


def run_suite(name: str, trials: int, seed: int, inject_fault: bool = False) -> SuiteResult:
    if name == "dp":
        return suite_dp(trials, seed, inject_fault=inject_fault)
    return _SUITES[name](trials, seed)
