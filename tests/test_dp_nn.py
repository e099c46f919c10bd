import time

import numpy as np
import pytest

from dpnets.dp_nn import (
    build_dp_cell,
    dp_unfolded_input,
    run_recurrent,
    solve_exact,
    unfold_dp,
)
from dpnets.errors import SizeGuardError
from dpnets.instance_gen import SplitMix64
from dpnets.knapsack_oracles import (
    KnapsackInstance,
    brute_force,
    dp_table,
    optimum_value,
)
from dpnets.relu_core import MAX_ARCS
from dpnets.verify import SuiteResult, grid_values, probe_dp_cell

from conftest import instance_stream


def _dp_step(column, p_i, s_i):
    """One-step oracle: apply the truncated recursion to a table column."""
    p_star = len(column)
    out = np.empty(p_star)
    for p in range(1, p_star + 1):
        prev = column[p - p_i - 1] if p - p_i >= 1 else 0.0
        out[p - 1] = min(column[p - 1], prev + s_i)
    return out


def test_cell_layer_sizes():
    cell = build_dp_cell(5)
    assert cell.net.layer_sizes == (7, 10, 10, 5, 5)
    s = cell.net.stats()
    assert (s.depth, s.width, s.size) == (4, 10, 25)


def test_cell_degenerate_bound_one():
    cell = build_dp_cell(1)
    assert cell.net.layer_sizes == (3, 2, 0, 1, 1)
    # f_out(1) = min(f_in(1), s_in); 0.25 subtracts exactly, 0.4 does not
    assert cell.net.evaluate([1.7, 3.0, 0.4])[0] == pytest.approx(0.4, abs=1e-15)
    assert cell.net.evaluate([0.25, 3.0, 0.4])[0] == 0.25


def test_cell_one_step_against_oracle():
    # raw 0.3 is off the 2**-26 grid, so the minimum's subtract-back rounds
    # in the last place; the state contract is 1e-9 per entry
    cell = build_dp_cell(3)
    got = cell.net.evaluate([2.0, 2.0, 2.0, 2.0, 0.3])
    want = _dp_step(np.array([2.0, 2.0, 2.0]), 2, 0.3)
    assert np.max(np.abs(got - want)) <= 1e-9
    assert got[2] == 2.0


def test_cell_random_steps_against_oracle():
    rng = SplitMix64(12)
    for p_star in (1, 2, 5, 9):
        cell = build_dp_cell(p_star)
        for _ in range(100):
            col = grid_values(rng, p_star, 1, 2**27)
            col.sort()  # monotone in p, as real table columns are
            p_i = rng.randint(1, p_star + 2)
            s_i = rng.randint(1, 2**26) * 2.0**-26
            got = cell.net.evaluate(np.concatenate([col, [p_i, s_i]]))
            assert np.array_equal(got, _dp_step(col, p_i, s_i))


def test_cell_bound_guard():
    with pytest.raises(ValueError):
        build_dp_cell(0)
    with pytest.raises(ValueError):
        build_dp_cell(2**20 + 1)


def test_run_recurrent_tiny():
    tr = run_recurrent(build_dp_cell(2), KnapsackInstance((1,), (0.5,)))
    assert np.array_equal(tr.table.values[1:, -1], [0.5, 2.0])
    tr2 = run_recurrent(build_dp_cell(2), KnapsackInstance((1, 1), (0.6, 0.6)))
    assert np.max(np.abs(tr2.table.values[1:, -1] - np.array([0.6, 1.2]))) <= 1e-9


def test_run_recurrent_matches_table():
    cells = {}
    for inst in instance_stream(11_000, 200, 1, 40, 12):
        p_star = sum(inst.profits)
        if p_star not in cells:
            cells[p_star] = build_dp_cell(p_star)
        cell = cells[p_star]
        trace = run_recurrent(cell, inst)
        table = dp_table(inst, p_star)
        for i, col in enumerate(trace.table.values[1:].T):
            assert np.max(np.abs(col - table.values[1:, i])) <= 1e-9


def test_profit_above_bound_is_accepted():
    # p_i > p_star closes no gate, so the cell computes min(f, s_in),
    # matching the recursion's convention for p - p_i <= 0
    cell = build_dp_cell(3)
    inst = KnapsackInstance((7,), (0.25,))
    tr = run_recurrent(cell, inst)
    assert np.array_equal(tr.table.values[1:, -1], [0.25, 0.25, 0.25])
    table = dp_table(inst, 3)
    assert np.array_equal(tr.table.values[1:, -1], table.values[1:, 1])


def test_gate_selector_minimum_probes():
    result = SuiteResult("probes")
    probe_dp_cell(build_dp_cell(7), SplitMix64(77), 60, result)
    assert result.passed, result.messages


def test_solve_exact_example():
    inst = KnapsackInstance((2, 3, 4), (0.5, 0.5, 0.5))
    sol = solve_exact(inst, 9)
    assert sol.value == 7
    assert sol.items == (1, 2)
    assert sol.total_size == 1.0


def test_every_single_item_fits():
    # sizes are <= 1, so the optimum is at least the best single profit
    for inst in instance_stream(12_000, 30, 2, 25, 10):
        assert solve_exact(inst).value >= max(inst.profits)


def test_solve_exact_default_bound_matches_brute_force():
    for inst in instance_stream(13_000, 60, 1, 30, 10):
        sol = solve_exact(inst)  # p_star defaults to the total profit
        best = brute_force(inst)
        assert sol.value == best.value
        assert sum(inst.sizes[i] for i in sol.items) <= 1.0 + 1e-9
        assert sum(inst.profits[i] for i in sol.items) >= sol.value


def test_state_range():
    for inst in instance_stream(14_000, 20, 2, 25, 10):
        trace = run_recurrent(build_dp_cell(sum(inst.profits)), inst)
        for col in trace.table.values[1:].T:
            assert np.all(col > 0.0) and np.all(col <= 2.0)


def test_unfold_dp_depth_and_equivalence():
    for inst in instance_stream(15_000, 50, 2, 10, 5):
        p_star = sum(inst.profits)
        net = unfold_dp(p_star, inst.n)
        assert net.depth == 4 * inst.n
        got = net.evaluate(dp_unfolded_input(inst, p_star))
        want = run_recurrent(build_dp_cell(p_star), inst).table.values[1:, -1]
        assert np.array_equal(got, want)


def test_unfold_dp_single_step_matches_cell():
    inst = KnapsackInstance((2,), (0.75,))
    net = unfold_dp(3, 1)
    cell = build_dp_cell(3)
    x = dp_unfolded_input(inst, 3)
    assert np.array_equal(net.evaluate(x), run_recurrent(cell, inst).table.values[1:, -1])
    assert net.stats() == cell.net.stats()


def test_hidden_recording():
    inst = KnapsackInstance((1, 2), (0.5, 0.25))
    trace = run_recurrent(build_dp_cell(3), inst, record_hidden=True)
    assert len(trace.hidden) == 2
    assert len(trace.hidden[0]) == 5  # inputs + three hidden layers + outputs
    assert np.array_equal(trace.hidden[-1][-1], trace.table.values[1:, -1])


def test_gate_dichotomy_on_recorded_runs():
    # the probe properties also hold on activations recorded from real runs
    for inst in instance_stream(16_000, 10, 2, 20, 8):
        cell = build_dp_cell(sum(inst.profits))
        trace = run_recurrent(cell, inst, record_hidden=True)
        for step, layers in enumerate(trace.hidden):
            item = [inst.profits[step], inst.sizes[step]]
            assert np.array_equal(layers[0], np.concatenate([trace.table.values[1:, step], item]))
            for name, ok in cell.check_layers(layers).items():
                assert ok.all(), (name, step)


def test_arc_count_matches_closed_form():
    for p_star in (1, 2, 7, 50):
        assert build_dp_cell(p_star).net.num_arcs == 2 * p_star**2 + 4 * p_star


def test_arc_budget_refuses_before_building():
    # The budget admits p* = 2047 by the closed form; no cell near it is built.
    assert 2 * 2047**2 + 4 * 2047 <= MAX_ARCS < 2 * 2048**2 + 4 * 2048
    assert 30000 * (2 * 12**2 + 4 * 12) > MAX_ARCS
    for refused in (lambda: build_dp_cell(2048), lambda: unfold_dp(12, 30000)):
        start = time.perf_counter()
        with pytest.raises(SizeGuardError):
            refused()
        assert time.perf_counter() - start < 1.0


def test_solve_exact_refuses_p_star_below_optimum():
    inst = KnapsackInstance((5, 6, 7, 8), (0.2, 0.2, 0.2, 0.9))
    with pytest.raises(ValueError, match="does not bound the optimum"):
        solve_exact(inst, 4)
    assert solve_exact(inst).value == brute_force(inst).value == 18
