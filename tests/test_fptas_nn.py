import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpnets import fptas_nn
from dpnets.dp_nn import build_dp_cell, run_recurrent, solve_exact
from dpnets.errors import NumericOverflowError, SizeGuardError
from dpnets.fptas_nn import (
    build_fptas_cell,
    fptas_backtrack,
    resolution_for,
    run_fptas,
    solve_approx,
    solve_with_resolution,
    width_quality_curve,
)
from dpnets.instance_gen import GRID_QUANTUM, SplitMix64
from dpnets.knapsack_oracles import (
    CAPACITY_TOL,
    KnapsackInstance,
    backtrack,
    brute_force,
    dp_table,
    exact_profit_budget,
    fptas_reference,
)
from dpnets.relu_core import MAX_ARCS
from dpnets.verify import SuiteResult, capped_instance, probe_fptas_cell

from conftest import instance_stream


def test_cell_layer_sizes_example():
    cell = build_fptas_cell(3)
    assert cell.net.layer_sizes == (6, 2, 24, 12, 3, 4)
    assert cell.net.depth == 5


@pytest.mark.parametrize("P", range(1, 13))
def test_cell_layer_size_formulas(P):
    cell = build_fptas_cell(P)
    assert cell.net.layer_sizes == (P + 3, 2, 2 * P * P + 2 * P, P * P + P, P, P + 1)


def test_granularity_subnet():
    cell = build_fptas_cell(20)
    # below the threshold both granularities clamp to 1
    layers = cell.net.evaluate_layers(np.concatenate([np.full(20, 2.0), [10, 5, 0.5]]))
    assert tuple((layers[1] + 20) / 20) == (1.0, 1.0)
    # beyond it they scale with the running profit total
    layers = cell.net.evaluate_layers(np.concatenate([np.full(20, 2.0), [30, 10, 0.5]]))
    assert tuple((layers[1] + 20) / 20) == (1.5, 2.0)


def test_profit_total_output():
    cell = build_fptas_cell(4)
    out = cell.net.evaluate(np.concatenate([np.full(4, 2.0), [7, 3, 0.5]]))
    assert out[4] == 10.0


def test_single_big_item():
    inst = KnapsackInstance((10,), (0.4,))
    table = run_fptas(build_fptas_cell(5), inst).table
    ref = fptas_reference(inst, 5)
    assert np.max(np.abs(table.values - ref.values)) <= 1e-9
    assert table.p_star_sums == (0, 10)
    assert np.all(np.abs(table.values[1:, 1] - 0.4) <= 1e-9)


def test_states_match_reference_exactly():
    # generated sizes live on the 2**-26 grid, where the network's
    # arithmetic is exact, so the match is bit-for-bit
    cells = {}
    count = 0
    for k, inst in enumerate(instance_stream(21_000, 200, 2, 60, 10)):
        for P in (5, 10, 25):
            if P not in cells:
                cells[P] = build_fptas_cell(P)
            cell = cells[P]
            table = run_fptas(cell, inst).table
            ref = fptas_reference(inst, P)
            assert np.array_equal(table.values, ref.values)
            assert table.p_star_sums == ref.p_star_sums
            count += 1
    assert count == 600


def test_off_grid_sizes_stay_within_tolerance():
    # off the 2**-26 grid the output minimum rounds in the last place: the rounded
    # tables differ from the reference in 279 of these 300 instances and the exact
    # ones from dp_table in 276 (by up to 4.4e-16), but every state stays within
    # CAPACITY_TOL of its oracle and the exact solve stays optimal
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        inst = KnapsackInstance(tuple(rng.integers(1, 11, n).tolist()), tuple(rng.uniform(1e-3, 1.0, n).tolist()))
        P = int(rng.integers(2, 15))
        rounded, ref = run_fptas(build_fptas_cell(P), inst).table, fptas_reference(inst, P)
        assert np.all(np.abs(rounded.values - ref.values) <= CAPACITY_TOL)
        assert rounded.p_star_sums == ref.p_star_sums
        exact = run_recurrent(build_dp_cell(inst.total_profit), inst).table.values[1:]
        assert np.all(np.abs(exact - dp_table(inst, inst.total_profit).values[1:]) <= CAPACITY_TOL)
        assert solve_exact(inst).value == brute_force(inst).value


def test_degenerates_to_exact_network():
    # while the profit total stays within P, states equal the exact
    # network's states entry for entry
    for inst in instance_stream(22_000, 50, 2, 30, 10):
        P = sum(inst.profits)
        rounded = run_fptas(build_fptas_cell(P), inst).table
        exact = run_recurrent(build_dp_cell(P), inst)
        for i, col in enumerate(exact.table.values[1:].T):
            assert np.array_equal(rounded.values[1:, i], col)


def test_selector_probes():
    result = SuiteResult("probes")
    probe_fptas_cell(build_fptas_cell(6), SplitMix64(55), 40, result)
    assert result.passed, result.messages


def test_invariants_on_recorded_runs():
    # totals beyond P make every later step round
    for k, inst in enumerate(instance_stream(23_000, 30, 2, 40, 8)):
        cell = build_fptas_cell((3, 8, 20)[k % 3])
        trace = run_fptas(cell, inst, record_hidden=True)
        assert len(trace.hidden) == inst.n
        for step, layers in enumerate(trace.hidden):
            assert layers[0][cell.resolution + 1] == inst.profits[step]
            for name, ok in cell.check_layers(layers).items():
                assert ok.all(), (name, step)


def test_resolution_for_exact_ceil():
    assert resolution_for(5, "0.1") == 250
    assert resolution_for(5, 0.1) == 250  # float 0.1 means 1/10, not its double
    assert resolution_for(5, Fraction(1, 4)) == 100
    assert resolution_for(3, 1) == 9
    with pytest.raises(ValueError):
        resolution_for(3, 0)
    with pytest.raises(ValueError):
        resolution_for(3, "1.5")


def test_exact_when_resolution_covers_total():
    for inst in instance_stream(23_000, 40, 2, 25, 10):
        best = brute_force(inst)
        sol = solve_with_resolution(inst, sum(inst.profits))
        assert sol.value == best.value


def test_guarantee_on_random_instances():
    for k, inst in enumerate(instance_stream(24_000, 60, 2, 40, 8)):
        eps = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1)][k % 4]
        best = brute_force(inst)
        sol = solve_approx(inst, eps)
        assert Fraction(sol.value) >= (1 - eps) * best.value
        assert sol.value <= best.value + 1e-9
        got_profit = sum(inst.profits[i] for i in sol.items)
        got_size = sum(inst.sizes[i] for i in sol.items)
        assert got_profit >= sol.value - 1e-9
        assert got_size <= 1.0 + 1e-9


def test_backtrack_witnesses_every_feasible_row():
    for inst in instance_stream(25_000, 30, 4, 40, 8):
        P = 7
        table = run_fptas(build_fptas_cell(P), inst).table
        d_n = table.scaled_granularity(inst.n)
        for p in range(1, P + 1):
            if table.values[p, -1] > 1.0 + 1e-9:
                continue
            sol = fptas_backtrack(table, inst, p)
            profit = sum(inst.profits[i] for i in sol.items)
            size = sum(inst.sizes[i] for i in sol.items)
            assert profit * P >= p * d_n
            assert size <= table.values[p, -1] + inst.n * 1e-9


@pytest.mark.parametrize("n", [2, 4])
def test_backtracks_refuse_a_table_of_another_item_count(n):
    table_inst = KnapsackInstance((1, 2, 3), (0.25, 0.25, 0.25))
    inst = KnapsackInstance((1,) * n, (0.25,) * n)
    with pytest.raises(ValueError, match="3 item columns"):
        fptas_backtrack(run_fptas(build_fptas_cell(6), table_inst).table, inst, 1)
    with pytest.raises(ValueError, match="3 item columns"):
        backtrack(run_recurrent(build_dp_cell(6), table_inst).table, inst, 1)


def test_monotone_quality_sweep_endpoint():
    inst = capped_instance(97, 35, 10)
    best = brute_force(inst).value
    values = [
        solve_with_resolution(inst, P).value
        for P in (3, 6, 12, 25, 50, sum(inst.profits))
    ]
    assert values[-1] == best
    assert all(v <= best + 1e-9 for v in values)


def test_width_quality_curve():
    inst = capped_instance(131, 30, 10)
    n = inst.n
    resolutions = [2, 5, 11, 23, sum(inst.profits)]
    points = width_quality_curve(inst, resolutions)
    for pt in points:
        assert pt.width == 2 * pt.resolution**2 + 2 * pt.resolution
        assert pt.ratio >= 1 - n * n / pt.resolution - 1e-12
        assert 0.0 <= pt.ratio <= 1.0 + 1e-12
    assert points[-1].ratio == 1.0


def test_overflow_guard_fires_before_evaluation():
    cell = build_fptas_cell(4)
    huge = exact_profit_budget(4)  # sum + max just past the budget
    inst = KnapsackInstance((huge,), (0.5,))
    with pytest.raises(NumericOverflowError):
        run_fptas(cell, inst)


def test_solve_checks_the_range_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a cell for an instance past the exact range")

    monkeypatch.setattr(fptas_nn, "build_fptas_cell", refuse)
    inst = KnapsackInstance((exact_profit_budget(600),), (0.5,))
    with pytest.raises(NumericOverflowError):
        solve_with_resolution(inst, 600)


def test_g_range_and_two_means_nothing_asserted():
    for inst in instance_stream(26_000, 20, 5, 50, 8):
        table = run_fptas(build_fptas_cell(6), inst).table
        assert np.all(table.values[1:, :] >= 0.0)
        assert np.all(table.values[1:, :] <= 2.0)


def _arcs(P):
    return (19 * P * P + 21 * P + 8) // 2


def test_arc_count_matches_closed_form():
    for P in (1, 2, 5, 20, 60):
        assert build_fptas_cell(P).net.num_arcs == _arcs(P)


def test_arc_budget_refuses_before_building():
    # The budget admits P = 939 by the closed form; no cell near it is built.
    assert _arcs(939) <= MAX_ARCS < _arcs(940)
    start = time.perf_counter()
    with pytest.raises(SizeGuardError):
        build_fptas_cell(940)
    assert time.perf_counter() - start < 1.0


def test_network_and_reference_share_the_exact_range():
    cell = build_fptas_cell(4)
    at_edge = KnapsackInstance((2**48 - 2,), (0.5,))  # 2P(sum + max + P) == 2**52
    with pytest.raises(NumericOverflowError):
        run_fptas(cell, at_edge)
    with pytest.raises(NumericOverflowError):
        fptas_reference(at_edge, 4)
    inside = KnapsackInstance((2**48 - 3,), (0.5,))
    assert np.array_equal(run_fptas(cell, inside).table.values, fptas_reference(inside, 4).values)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_padding_item_leaves_both_states_unchanged(data):
    # The item (profit 0, size 2) is a no-op step of both cells on grid states,
    # so instances of different lengths can be padded to one length.
    def grid_state(size):
        steps = data.draw(st.lists(st.integers(0, 2**27), min_size=size, max_size=size))
        return np.array(steps) * GRID_QUANTUM  # [0, 2]

    p_star = data.draw(st.integers(1, 29))
    f = grid_state(p_star)
    assert build_dp_cell(p_star).net.evaluate(np.concatenate([f, [0.0, 2.0]])).tobytes() == f.tobytes()

    P = data.draw(st.integers(1, 24))
    g, total = grid_state(P), float(data.draw(st.integers(0, exact_profit_budget(P))))
    out = build_fptas_cell(P).net.evaluate(np.concatenate([g, [total, 0.0, 2.0]]))
    assert out[:P].tobytes() == g.tobytes() and out[P] == total
