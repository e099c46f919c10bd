import numpy as np
import pytest

from dpnets.errors import InfeasibleTargetError, SizeGuardError
from dpnets.instance_gen import SplitMix64
from dpnets.knapsack_oracles import (
    KnapsackInstance,
    backtrack,
    brute_force,
    ceil_div,
    coarse_index,
    coarse_index_with_item,
    dp_table,
    fptas_reference,
    optimum_value,
)

from conftest import instance_stream


def test_instance_validation():
    with pytest.raises(ValueError):
        KnapsackInstance((0,), (0.5,))  # profit below 1
    with pytest.raises(ValueError):
        KnapsackInstance((1.5,), (0.5,))  # non-integral profit
    with pytest.raises(ValueError):
        KnapsackInstance((1,), (0.0,))  # size must be positive
    with pytest.raises(ValueError):
        KnapsackInstance((1,), (1.5,))  # size above capacity
    with pytest.raises(ValueError):
        KnapsackInstance((), ())
    inst = KnapsackInstance.from_json_dict({"profits": [2.0, 3], "sizes": [0.5, 0.25]})
    assert inst.profits == (2, 3)
    with pytest.raises(ValueError):
        KnapsackInstance.from_json_dict({"profits": [2.5], "sizes": [0.5]})


def test_dp_table_single_item():
    t = dp_table(KnapsackInstance((1,), (0.5,)), 1)
    assert t.values[1, 1] == 0.5
    assert t.values[1, 0] == 2.0


def test_dp_table_forced_sums():
    t = dp_table(KnapsackInstance((1, 1), (0.6, 0.6)), 2)
    assert t.values[1, 2] == 0.6
    assert t.values[2, 2] == 0.6 + 0.6


def test_dp_table_rejects_bad_bound():
    with pytest.raises(ValueError):
        dp_table(KnapsackInstance((1,), (0.5,)), 0)


def test_optimum_value_trivial():
    t = dp_table(KnapsackInstance((3,), (1.0,)), 3)
    assert optimum_value(t) == 3
    # a table where nothing fits: profit target never reachable
    t2 = dp_table(KnapsackInstance((1,), (0.5,)), 5)
    assert t2.values[5, 1] == 2.0
    assert optimum_value(dp_table(KnapsackInstance((5, 5), (0.6, 0.6)), 10)) == 5


def test_dp_recursion_locally():
    # f(p, i) = min(f(p, i-1), f(p - p_i, i-1) + s_i), reads 0 for p <= 0
    for inst in instance_stream(1000, 20, 2, 30, 10):
        p_star = sum(inst.profits)
        t = dp_table(inst, p_star)
        v = t.values
        for i in range(1, inst.n + 1):
            p_i, s_i = inst.profits[i - 1], inst.sizes[i - 1]
            for p in range(1, p_star + 1):
                prev = v[p - p_i, i - 1] if p - p_i > 0 else 0.0
                assert v[p, i] == min(v[p, i - 1], prev + s_i)


def test_dp_monotonicity():
    for inst in instance_stream(2000, 20, 2, 30, 10):
        t = dp_table(inst, sum(inst.profits))
        v = t.values[1:, :]
        assert np.all(np.diff(v, axis=0) >= 0)  # non-decreasing in p
        assert np.all(np.diff(v, axis=1) <= 0)  # non-increasing in i
        assert np.all(v > 0.0) and np.all(v <= 2.0)


def test_dp_matches_brute_force():
    for inst in instance_stream(3000, 200, 1, 40, 12):
        value = optimum_value(dp_table(inst, sum(inst.profits)))
        assert value == brute_force(inst).value


def test_brute_force_example():
    sol = brute_force(KnapsackInstance((2, 3, 4), (0.5, 0.5, 0.5)))
    assert sol.value == 7
    assert sol.items == (1, 2)  # items with profits 3 and 4
    assert sol.total_size == 1.0


def test_brute_force_capacity_exact():
    sol = brute_force(KnapsackInstance((3,), (1.0,)))
    assert sol.items == (0,)


def test_brute_force_tie_break():
    sol = brute_force(KnapsackInstance((5, 5), (0.6, 0.6)))
    assert sol.value == 5 and sol.items == (0,)


def test_brute_force_guard():
    inst = KnapsackInstance((1,) * 26, (0.5,) * 26)
    with pytest.raises(SizeGuardError):
        brute_force(inst)


def test_ceil_div():
    assert ceil_div(7, 2) == 4
    assert ceil_div(6, 2) == 3
    assert ceil_div(-7, 2) == -3
    assert ceil_div(0, 5) == 0


def test_coarse_indices_against_scan():
    # the scaled granularities arise as max(P, T) and max(P, T + profit)
    rng = SplitMix64(8)
    for _ in range(300):
        P = rng.randint(1, 30)
        total = rng.randint(0, 3 * P)
        profit = rng.randint(1, 2 * P)
        d_old = max(P, total)
        d_new = max(P, total + profit)
        p = rng.randint(1, P)
        p1 = coarse_index(p, d_old, d_new)
        assert p1 * d_old >= p * d_new and (p1 - 1) * d_old < p * d_new
        assert p1 >= p
        p2 = coarse_index_with_item(p, profit, P, d_old, d_new)
        assert p2 * d_old + profit * P >= p * d_new
        assert (p2 - 1) * d_old + profit * P < p * d_new
        assert p2 <= p


def test_fptas_reference_degenerates_to_dp():
    # while the running profit total stays within P, granularities stay 1
    # and the rounded table equals the exact one restricted to [P]
    for inst in instance_stream(4000, 30, 2, 25, 10):
        P = sum(inst.profits)
        ref = fptas_reference(inst, P)
        exact = dp_table(inst, P)
        assert np.array_equal(ref.values[1:, :], exact.values[1:, :])


def test_fptas_reference_single_big_item():
    inst = KnapsackInstance((10,), (0.4,))
    ref = fptas_reference(inst, 5)
    assert ref.scaled_granularity(1) == 10  # d_1 = 2
    assert np.all(ref.values[1:, 1] == 0.4)


def test_fptas_reference_feasibility_witnesses():
    # every g(p, i) <= 1 is witnessed by a subset of the first i items with
    # profit >= p * d_i and size <= g(p, i)
    from dpnets.knapsack_oracles import subset_profiles

    for inst in instance_stream(5000, 40, 2, 30, 9):
        for P in (5, 10, 25):
            ref = fptas_reference(inst, P)
            prof, size = subset_profiles(inst.profits, inst.sizes)
            for i in range(1, inst.n + 1):
                d_i = ref.scaled_granularity(i)
                sub_p, sub_s = prof[: 2**i], size[: 2**i]
                for p in range(1, P + 1):
                    g = ref.values[p, i]
                    if g <= 1.0:
                        ok = (sub_p * P >= p * d_i) & (sub_s <= g + 1e-9)
                        assert ok.any()


def test_backtrack_single_item():
    inst = KnapsackInstance((1,), (0.5,))
    sol = backtrack(dp_table(inst, 1), inst, 1)
    assert sol.items == (0,)


def test_backtrack_singleton_of_pair():
    inst = KnapsackInstance((1, 1), (0.6, 0.6))
    sol = backtrack(dp_table(inst, 2), inst, 1)
    assert len(sol.items) == 1
    assert sol.total_size == 0.6


def test_backtrack_infeasible_target():
    inst = KnapsackInstance((1, 1), (0.6, 0.6))
    with pytest.raises(InfeasibleTargetError):
        backtrack(dp_table(inst, 2), inst, 2)


def test_backtrack_random_feasible():
    for inst in instance_stream(6000, 60, 2, 30, 10):
        table = dp_table(inst, sum(inst.profits))
        best = optimum_value(table)
        for target in {1, max(1, best // 2), best}:
            if table.values[target, -1] > 1.0 + 1e-9:
                continue
            sol = backtrack(table, inst, target)
            assert sum(inst.profits[i] for i in sol.items) >= target
            assert sum(inst.sizes[i] for i in sol.items) <= table.values[target, -1] + inst.n * 1e-9
