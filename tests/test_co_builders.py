import math

import numpy as np
import pytest

from dpnets import co_builders
from dpnets.co_builders import (
    IntSequencePair,
    WeightedGraph,
    bellman_ford_distances,
    build_bellman_ford_cell,
    build_csp_network,
    build_lcs_cell,
    build_min_plus_square_cell,
    build_tsp_network,
    enumerate_csp_lengths,
    floyd_warshall,
    lcs_length,
    run_apsp,
    run_bellman_ford,
    run_csp,
    run_lcs,
    run_tsp,
    tsp_brute_force,
)
from dpnets.errors import NumericOverflowError, SizeGuardError
from dpnets.instance_gen import gen_graph, gen_sequences
from dpnets.relu_core import ReluNetwork

BUILDS = {
    "build_lcs_cell": lambda: build_lcs_cell(3),
    "build_bellman_ford_cell": lambda: build_bellman_ford_cell(gen_graph(3, 10.0, 1)),
    "build_min_plus_square_cell": lambda: build_min_plus_square_cell(3),
    "build_csp_network": lambda: build_csp_network(3, 2, 1.0),
    "build_tsp_network": lambda: build_tsp_network(4),
}


def test_every_builder_is_listed():
    assert sorted(BUILDS) == sorted(n for n in co_builders.__all__ if n.startswith("build_"))


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_builders_return_a_network(name):
    assert type(BUILDS[name]()) is ReluNetwork


# -- longest common subsequence -------------------------------------------------


def test_lcs_cell_examples():
    cell = build_lcs_cell(8)
    assert cell.evaluate([0, 0, 0, 5, 5])[0] == 1.0  # match on first symbols
    assert cell.evaluate([2, 3, 3, 1, 7])[0] == 3.0  # mismatch takes the max
    assert cell.evaluate([4, 4, 5, 2, 2])[0] == 5.0


def test_lcs_cell_shape():
    cell = build_lcs_cell(10)
    assert cell.layer_sizes == (5, 3, 1, 1)
    s = cell.stats()
    assert (s.depth, s.width, s.size) == (3, 3, 4)


def test_lcs_equality_gate_dichotomy():
    # the gate pair is (0, 0) exactly when the symbols agree
    cell = build_lcs_cell(6)
    for x in range(-3, 4):
        for y in range(-3, 4):
            layers = cell.evaluate_layers([1.0, 1.0, 1.0, float(x), float(y)])
            pair = layers[1][0] + layers[1][1]
            if x == y:
                assert pair == 0.0
            else:
                assert pair >= 2 * (6 + 1)


def test_lcs_grid_example():
    pair = IntSequencePair((1, 2, 3, 2), (2, 1, 3))
    assert run_lcs(pair) == 2
    assert lcs_length(pair.x, pair.y) == 2


def test_lcs_identical_and_disjoint():
    assert run_lcs(IntSequencePair((4, 1, 3, 3, 9), (4, 1, 3, 3, 9))) == 5
    assert run_lcs(IntSequencePair((1, 2, 3), (4, 5, 6, 7))) == 0


@pytest.mark.parametrize("x, y", [(2**53, 2**53 + 1), (2**60, 2**60 + 1)])
def test_lcs_tells_apart_symbols_that_round_alike(x, y):
    # both symbols round to the same double; fed raw, the gate matched them (1 against 0)
    assert run_lcs(IntSequencePair((x,), (y,))) == lcs_length((x,), (y,)) == 0
    assert run_lcs(IntSequencePair((x, y, -x), (y, -x, x))) == lcs_length((x, y, -x), (y, -x, x)) == 2


def test_lcs_unary_alphabet():
    pair = gen_sequences(6, 9, 1, 3)
    assert run_lcs(pair) == 6


def test_lcs_random_against_oracle():
    for t in range(100):
        pair = gen_sequences(1 + t % 12, 1 + (t * 7) % 12, 1 + t % 5, 400 + t)
        assert run_lcs(pair) == lcs_length(pair.x, pair.y)


def test_sequence_validation():
    with pytest.raises(ValueError):
        IntSequencePair((1.5, 2), (1,))
    with pytest.raises(ValueError):
        IntSequencePair((), (1,))
    assert IntSequencePair((1.0, 2), (3,)).x == (1, 2)


# -- single-source shortest paths -------------------------------------------------


def test_bf_cell_shape():
    g = gen_graph(6, 10.0, 5)
    cell = build_bellman_ford_cell(g)
    assert cell.depth == math.ceil(math.log2(6)) + 1
    assert cell.size == 6 * 5
    assert cell.width == 6 * 3


def test_bf_unit_triangle():
    tri = WeightedGraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    got = run_bellman_ford(tri)
    assert np.array_equal(got, bellman_ford_distances(tri))
    assert np.array_equal(got, [0.0, 1.0, 1.0])


def test_bf_all_zero_lengths():
    g = WeightedGraph([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    cell = build_bellman_ford_cell(g)
    state = np.zeros(3)
    assert np.array_equal(cell.evaluate(state), state)


def test_bf_random_against_oracle():
    for t in range(50):
        g = gen_graph(2 + t % 9, 10.0, 500 + t)
        assert np.array_equal(run_bellman_ford(g), bellman_ford_distances(g))


def test_bf_negative_lengths_no_negative_cycle():
    c = [[0.0, 2.0, 6.0], [-1.0, 0.0, 3.0], [1.0, 4.0, 0.0]]
    g = WeightedGraph(c)
    assert np.array_equal(run_bellman_ford(g), bellman_ford_distances(g))


def _triangle(far, near):
    return WeightedGraph([[0, far, near], [1, 0, far], [far, 1, 0]])


def test_bf_refuses_lengths_past_the_exact_range():
    # BIG is past 2**53 here; unchecked, the cell returned [-2, 3, 1] against [0, 4, 3]
    with pytest.raises(NumericOverflowError):
        run_bellman_ford(_triangle(2**51, 3))


def test_bf_exact_at_the_largest_admitted_magnitude():
    far = (2**53 - 3) // 11  # BIG + (n + 2) M = 11 M + 2 on three vertices, below 2**53
    g = _triangle(far, 3)
    assert np.array_equal(run_bellman_ford(g), bellman_ford_distances(g))
    with pytest.raises(NumericOverflowError):
        run_bellman_ford(_triangle(far + 1, 3))


def test_co_runners_refuse_off_grid_lengths():
    g = WeightedGraph([[0, 0.1, 0.3], [0.1, 0, 0.2], [0.2, 0.1, 0]])
    for run in (run_bellman_ford, run_apsp):
        with pytest.raises(NumericOverflowError):
            run(g)
    with pytest.raises(NumericOverflowError):
        run_tsp(g.lengths)


# -- all-pairs shortest paths -----------------------------------------------------


def test_apsp_refuses_lengths_past_the_exact_range():
    # unchecked, row 1 read [0, 0, 5] against [1, 0, 5]
    with pytest.raises(NumericOverflowError):
        run_apsp(_triangle(2**53, 4))


def test_apsp_exact_at_the_largest_admitted_magnitude():
    far = 2**51 - 1  # (2**r + 2) M = 4 M on three vertices, below 2**53
    g = _triangle(far, 4)
    assert np.array_equal(run_apsp(g), floyd_warshall(g.lengths))
    with pytest.raises(NumericOverflowError):
        run_apsp(_triangle(far + 1, 4))


def test_apsp_cell_shape():
    cell = build_min_plus_square_cell(5)
    assert cell.depth == math.ceil(math.log2(5)) + 1
    assert cell.size == 25 * 4


def test_apsp_two_vertices_direct():
    g = WeightedGraph([[0, 3], [4, 0]])
    assert np.array_equal(run_apsp(g), [[0, 3], [4, 0]])


def test_apsp_path_with_big_surrogate():
    big = co_builders._unreachable(3, 1.0)  # above every path total over 3 vertices with lengths up to 1
    c = [[0, 1, big], [big, 0, 1], [big, big, 0]]
    g = WeightedGraph(c)
    d = run_apsp(g)
    assert d[0, 2] == 2.0
    assert np.array_equal(d, floyd_warshall(c))


def test_apsp_random_against_oracle():
    for t in range(50):
        g = gen_graph(2 + t % 7, 10.0, 600 + t)
        assert np.array_equal(run_apsp(g), floyd_warshall(g.lengths))


def test_apsp_squaring_idempotent():
    g = gen_graph(7, 10.0, 77)
    d = run_apsp(g)
    cell = build_min_plus_square_cell(7)
    again = cell.evaluate(d.flatten()).reshape(7, 7)
    assert np.array_equal(again, d)


def test_apsp_requires_zero_diagonal():
    with pytest.raises(ValueError):
        run_apsp(WeightedGraph([[1.0, 2.0], [2.0, 1.0]]))


# -- constrained shortest paths ----------------------------------------------------


def test_csp_single_edge():
    g = WeightedGraph([[0, 2], [2, 0]], [[0, 0.5], [0.5, 0]])
    assert run_csp(g, 5, 1.0) == {0: 0, 1: 2}


def test_csp_two_parallel_routes():
    # direct edge: length 1 but expensive; detour 0->1->2: length 4, cheap
    big_r = 5.0
    c = [[0, 1, 1], [9, 0, 3], [9, 9, 0]]
    r = [[0, 0.25, big_r], [0, 0, 0.25], [0, 0, 0]]
    g = WeightedGraph(c, r)
    # limit excludes the expensive direct edge, so vertex 2 needs length 4
    assert run_csp(g, 10, 1.0)[2] == 4
    # a generous limit takes the short edge
    assert run_csp(g, 10, big_r)[2] == 1


def test_csp_random_against_enumeration():
    for t in range(30):
        n = 2 + t % 5
        g = gen_graph(n, 3, 700 + t, with_resources=True, integer_lengths=True)
        limit = (t % 4) * 0.75
        got = run_csp(g, 15, limit)
        want = {
            v: (d if d is not None and d <= 15 else None)
            for v, d in enumerate_csp_lengths(g, limit).items()
        }
        assert got == want


def test_csp_rejects_non_integer_lengths():
    g = WeightedGraph([[0, 1.5], [1, 0]], [[0, 0.1], [0.1, 0]])
    with pytest.raises(ValueError):
        run_csp(g, 5, 1.0)


def test_csp_checks_the_limit_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("built the network before the limit was checked")

    monkeypatch.setattr(co_builders, "build_csp_network", refuse)
    g = gen_graph(5, 3, 1, with_resources=True, integer_lengths=True)
    big_r = 2 * (5 * float(np.max(g.resources)) + 1)
    for limit in (-1.0, big_r):
        with pytest.raises(ValueError, match="resource limit"):
            run_csp(g, 200, limit)


def test_csp_requires_resources():
    g = WeightedGraph([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        run_csp(g, 5, 1.0)


def _csp_matrices(resource_top):
    """Lengths 1..3 and integer resources below `resource_top` on five vertices, zero diagonals."""
    rng = np.random.default_rng(5)
    lengths = rng.integers(1, 4, (5, 5)).astype(float)
    resources = rng.integers(0, resource_top, (5, 5)).astype(float)
    np.fill_diagonal(lengths, 0.0)
    np.fill_diagonal(resources, 0.0)
    return lengths, resources


def test_csp_refuses_resources_past_the_exact_range():
    # BIG_R is past 2**53 here; unchecked, vertex 3 read unreachable where the enumeration gives 3
    g = WeightedGraph(*_csp_matrices(2**50))
    limit = g.resources[0, 3]
    assert limit == 441_808_375_019_137 and enumerate_csp_lengths(g, limit)[3] == 3
    with pytest.raises(NumericOverflowError):
        run_csp(g, 4, limit)


def test_csp_exact_at_the_largest_admitted_magnitude():
    top = (2**53 - 3) // 11  # BIG_R + R = 11 R + 2 on five vertices, below 2**53
    lengths, resources = _csp_matrices(top)
    resources[1, 2] = top
    g = WeightedGraph(lengths, resources)
    for limit in np.unique(resources):
        want = {v: (d if d is not None and d <= 4 else None) for v, d in enumerate_csp_lengths(g, limit).items()}
        assert run_csp(g, 4, limit) == want
    resources[1, 2] = top + 1
    with pytest.raises(NumericOverflowError):
        run_csp(WeightedGraph(lengths, resources), 4, 0.0)


def test_csp_refuses_off_grid_resources():
    g = WeightedGraph([[0, 1, 2], [1, 0, 1], [1, 1, 0]], [[0, 0.1, 0.3], [0.1, 0, 0.2], [0.2, 0.1, 0]])
    with pytest.raises(NumericOverflowError):
        run_csp(g, 3, 0.3)


def test_csp_build_calls_do_not_grow_with_the_budget(monkeypatch):
    # every budget's keeps, hops and trees come from one set of index arrays
    def counting(calls, name):
        real = getattr(co_builders, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    counts = []
    for c_star in (2, 11):
        calls = dict.fromkeys(("min_reduce_many", "_take"), 0)
        with monkeypatch.context() as patch:
            for name in calls:
                patch.setattr(co_builders, name, counting(calls, name))
            build_csp_network(5, c_star, 2.5)
        counts.append(calls)
    assert counts[0] == counts[1]
    assert counts[0]["min_reduce_many"] == 1


def test_tsp_build_calls_do_not_grow_with_n(monkeypatch):
    # every cardinality's rows, and the closing tree's, come from one set of index arrays
    real = co_builders.min_reduce_many
    counts = []
    for n in (4, 9):
        calls = []

        def call(*args):
            calls.append(args)
            return real(*args)

        with monkeypatch.context() as patch:
            patch.setattr(co_builders, "min_reduce_many", call)
            build_tsp_network(n)
        counts.append(len(calls))
    assert counts == [1, 1]


def test_csp_network_shape():
    n, c_star = 4, 6
    net = build_csp_network(n, c_star, 2.0)
    # one gate layer, then per length budget a selector layer and a
    # ceil(log2(n + 1))-deep minimum tree, then the output layer
    assert net.depth == 1 + c_star * (1 + math.ceil(math.log2(n + 1))) + 1
    assert net.layer_sizes[1] == 2 * (n - 1) * (n - 1) * c_star
    assert net.n_outputs == c_star * (n - 1)


# -- traveling salesperson -----------------------------------------------------------


def test_tsp_triangle():
    d = [[0, 1, 3], [1, 0, 2], [3, 2, 0]]
    assert run_tsp(d) == 6.0


def test_tsp_all_ones():
    d = np.ones((4, 4)) - np.eye(4)
    assert run_tsp(d) == 4.0


def test_tsp_two_cities():
    assert run_tsp([[0, 3], [5, 0]]) == 8.0


def test_tsp_random_asymmetric_against_oracle():
    for t in range(30):
        n = 4 + t % 5
        d = gen_graph(n, 10.0, 800 + t).lengths
        assert run_tsp(d) == tsp_brute_force(d)


def test_tsp_refuses_distances_past_the_exact_range():
    # 2 n M = 6 * 2**52 here; unchecked, the network returned 4.0 against the oracle's 5.0
    with pytest.raises(NumericOverflowError):
        run_tsp(_triangle(2**52, 3).lengths)


def test_tsp_exact_at_the_largest_admitted_magnitude():
    far = (2**53 - 1) // 6  # 2 n M = 6 M on three vertices, below 2**53
    d = [[0, far, far - 1], [far - 2, 0, far], [far, far - 3, 0]]
    assert run_tsp(d) == tsp_brute_force(d) == 3 * far - 6
    with pytest.raises(NumericOverflowError):
        run_tsp(_triangle(far + 1, 3).lengths)


def test_tsp_refuses_off_grid_distances():
    # unchecked, 108 of these 200 matrices gave a tour other than the oracle's
    rng = np.random.default_rng(0)
    for t in range(200):
        d = rng.uniform(0.0, 10.0, (3 + t % 4,) * 2)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(NumericOverflowError):
            run_tsp(d)


def test_tsp_network_depth_formula():
    for n in (3, 5, 8):
        net = build_tsp_network(n)
        want = sum(math.ceil(math.log2(t - 1)) for t in range(3, n)) + math.ceil(
            math.log2(n - 1)
        ) + 1
        assert net.depth == want


def test_tsp_size_guard():
    with pytest.raises(SizeGuardError):
        build_tsp_network(17)
    with pytest.raises(SizeGuardError):
        run_tsp(np.zeros((20, 20)))


def test_enumerating_oracles_refuse_eleven_vertices():
    # zero resources would leave about e * 10! simple paths to walk
    g = WeightedGraph(1 - np.eye(11), np.zeros((11, 11)))
    with pytest.raises(SizeGuardError, match="n = 11 > 10"):
        enumerate_csp_lengths(g, 0.0)
    with pytest.raises(SizeGuardError, match="n = 11 > 10"):
        tsp_brute_force(g.lengths)


@pytest.mark.parametrize(
    "dist, error",
    [([[0.0]], SizeGuardError), ([[0, 1, 2], [1, 0, 3]], ValueError), ([[0, math.inf], [1, 0]], ValueError)],
    ids=["one-vertex", "not-square", "not-finite"],
)
def test_tsp_oracle_refuses_what_the_network_refuses(dist, error):
    with pytest.raises(error):
        run_tsp(dist)
    with pytest.raises(error):
        tsp_brute_force(dist)


@pytest.mark.parametrize("reader", [run_tsp, tsp_brute_force, floyd_warshall],
                         ids=lambda f: f.__name__)
def test_raw_matrices_are_read_as_graphs(reader):
    # read with a float conversion, the first matrix was the distances [[0, 1], [1, 0]]
    for matrix in ([[0, True], ["1", 0]], [[0, None], [1, 0]]):
        with pytest.raises(ValueError, match="is not a number"):
            reader(matrix)


@pytest.mark.parametrize("bad", [True, "1", None], ids=["bool", "string", "none"])
def test_graph_refuses_an_entry_that_is_not_a_number(bad):
    with pytest.raises(ValueError, match="is not a number"):
        WeightedGraph([[0, bad], [1, 0]])
    with pytest.raises(ValueError, match="is not a number"):
        WeightedGraph([[0, 1], [1, 0]], [[0, bad], [1, 0]])


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph([[0, 1], [1, 0]], source=5)
    with pytest.raises(ValueError):
        WeightedGraph([[0, 1, 2], [1, 0, 3]])
    with pytest.raises(ValueError):
        WeightedGraph([[0, 1], [1, 0]], [[0, -1], [1, 0]])
    doc = WeightedGraph([[0, 1], [2, 0]], [[0, 3], [4, 0]], source=1).to_json_dict()
    back = WeightedGraph.from_json_dict(doc)
    assert back.source == 1 and back.lengths[1, 0] == 2.0
