"""The array-built min gadgets, co-builders and unfoldings against the
per-neuron constructions in ``reference_builders``.

Every network must equal its reference arc for arc, in order, and give
the same JSON document, so evaluation sums every row in the same order
and ``dpnets build`` output stays byte-identical.
"""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_builders as ref
from dpnets import co_builders, dp_nn, fptas_nn
from dpnets.instance_gen import SplitMix64
from dpnets.relu_core import ReluNetwork, _merge, _subtracted, min_n_gadget, network_from_blocks, unfold


def assert_same(new, old):
    assert new == old
    assert new.to_json_dict() == old.to_json_dict()


@st.composite
def term_lists(draw):
    """Terms (row, sl, si, coef) of a few rows in any row order, sources repeated and cancelling."""
    n = draw(st.integers(1, 4))
    coef = st.sampled_from([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5])
    terms = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2), st.integers(0, 2), coef), max_size=20))
    return terms, draw(st.lists(st.sampled_from([-0.25, 0.0, 0.5]), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(term_lists())
def test_merge_follows_affine_term_order(case):
    # The merged rows hold the terms, their order and their coefficients that
    # adding up Affine terms in occurrence order gives, cancelled sources included.
    terms, const = case
    affines = [ref.Affine({}, c) for c in const]
    for i, sl, si, c in terms:
        affines[i] = affines[i] + ref.Affine({(sl, si): c})
    [(sl, si, row, coef)], got = _merge(*([t[j] for t in terms] for j in range(4)), const)
    assert (np.diff(row) >= 0).all()
    for i, a in enumerate(affines):
        at = row == i
        assert list(zip(zip(sl[at].tolist(), si[at].tolist()), coef[at].tolist())) == list(a.terms.items())
        assert got[i] == a.const


def test_cancelled_source_keeps_its_place():
    # x - x + y + x: the cancelled x stays first; alone it stays as a zero
    [(sl, _, _, coef)], _ = _merge([0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [1.0, -1.0, 1.0, 1.0], [0.0])
    assert list(zip(sl.tolist(), coef.tolist())) == [(0, 1.0), (1, 1.0)]
    [(_, _, _, coef)], _ = _merge([0, 0], [0, 0], [0, 0], [1.0, -1.0], [0.0])
    assert coef.tolist() == [0.0]


@pytest.mark.parametrize("n", range(1, 17))
def test_min_n_gadget(n):
    assert_same(min_n_gadget(n), ref.min_n_gadget(n))


def tree_arcs(net, layer, index):
    """``(layer, index, weight)`` of each arc into one neuron from a hidden neuron, in order."""
    into = (net._tl == layer) & (net._ti == index) & (net._sl > 0)
    return list(zip(net._sl[into].tolist(), net._si[into].tolist(), net._w[into].tolist()))


def named(subtracted, sign):
    """The neurons of a ``_subtracted`` result as ``(layer, index, weight)`` arcs of one run,
    `sign[e]` the weight of entry e's."""
    entry, layer, _, place = subtracted
    return list(zip(layer.tolist(), place.tolist(), [sign[e] for e in entry.tolist()]))


@pytest.mark.parametrize("m", range(1, 65))
def test_subtracted_names_the_tree_neurons_that_min_n_gadget_has(m):
    net = min_n_gadget(m)
    out = _subtracted(m - 1, m, 0)
    assert tree_arcs(net, net.depth, 0) == named(out, [-1.0])
    for r, la, lb in co_builders._min_tree(m):
        # the row b - a of a round-r pair lists b's neurons, then a's, of rounds below r
        rounds = _subtracted([lb, la], m, 0, r - 1)
        assert tree_arcs(net, r, la >> r) == named(rounds, [-1.0, 1.0])
        for _, layer, pairs, _ in (out, rounds):
            assert pairs.tolist() == [net.layer_sizes[l] for l in layer.tolist()]


def test_lcs_cell():
    for value_bound in range(1, 30):
        assert_same(co_builders.build_lcs_cell(value_bound), ref.build_lcs_cell(value_bound))


@pytest.mark.parametrize("n", range(2, 12))
def test_bellman_ford_cell(n):
    for seed in range(5):
        rng = SplitMix64(100 * n + seed)
        lengths = [[0.0 if u == v else rng.randint(-6, 40) * 0.5 for v in range(n)] for u in range(n)]
        graph = co_builders.WeightedGraph(lengths, source=seed % n)
        assert_same(co_builders.build_bellman_ford_cell(graph), ref.build_bellman_ford_cell(graph))


@pytest.mark.parametrize("n", range(2, 12))
def test_min_plus_square_cell(n):
    assert_same(co_builders.build_min_plus_square_cell(n), ref.build_min_plus_square_cell(n))


@pytest.mark.parametrize("n", range(2, 10))
def test_tsp_network(n):
    assert_same(co_builders.build_tsp_network(n), ref.build_tsp_network(n))


@pytest.mark.parametrize("n", range(2, 9))
def test_csp_network(n):
    for c_star in range(1, 12):
        for source in (0, n // 2, n - 1):
            for bound in (0, 2.5, 3):
                # BIG_R is in the weights: gates 2 BIG_R, keep and hop biases BIG_R
                assert_same(co_builders.build_csp_network(n, c_star, bound, source),
                            ref.build_csp_network(n, c_star, bound, source))


# -- assembly ----------------------------------------------------------------

WIDTH = 3  # neurons in every layer, the inputs included


@st.composite
def assembly_layers(draw):
    """Layers for ``network_from_blocks``: one-block layers whose rows ascend
    and layers whose rows do not, zero weights, layers without arcs,
    scalar-broadcast blocks, blocks of Python lists, blocks of scalars
    alone, and multi-block layers between them, with int32 or int64 index
    columns."""
    weight = st.sampled_from([-1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
    layers = []
    for layer in range(1, draw(st.integers(1, 8)) + 1):
        source = st.integers(0, layer - 1)
        arc = st.tuples(source, st.integers(0, WIDTH - 1), st.integers(0, WIDTH - 1), weight)

        def block(ascending, min_size=0):
            arcs = draw(st.lists(arc, min_size=min_size, max_size=6))
            if ascending:
                arcs.sort(key=lambda a: a[2])
            dtype = draw(st.sampled_from([np.int32, np.int64]))
            return [np.array([a[j] for a in arcs], dtype=dtype) for j in range(3)] + [np.array([a[3] for a in arcs])]

        kind = draw(st.sampled_from(["ascending", "any order", "broadcast", "blocks", "lists", "scalars"]))
        if kind == "lists":
            # as the LCS cell and the rounded cell list them; numpy reads an empty list as float
            blocks = [[x.tolist() for x in block(draw(st.booleans()))] for _ in range(draw(st.integers(1, 2)))]
        elif kind == "scalars":
            # one arc per block (k = 1)
            blocks = draw(st.lists(arc, min_size=1, max_size=3))
        elif kind == "broadcast":
            # one entry a scalar or a one-entry array, broadcast against the others
            blocks = [block(True)]
            j = draw(st.sampled_from([0, 1, 3]))
            value = draw(arc)[j]
            blocks[0][j] = draw(st.sampled_from([value, np.array([value])]))
        elif kind == "blocks":
            blocks = [block(draw(st.booleans())) for _ in range(draw(st.integers(2, 3)))]
        else:
            blocks = [block(kind == "ascending")]
        bias = draw(st.lists(st.sampled_from([0.0, 0.5, -1.0]), min_size=WIDTH, max_size=WIDTH))
        layers.append((blocks, np.array(bias)))
    return layers


def arrays(net):
    return net._sl, net._si, net._tl, net._ti, net._w, *net.biases_by_layer


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(assembly_layers())
def test_assembly_matches_the_per_layer_rule(layers):
    # runs of one-block layers are taken in one step, every other layer on its
    # own: the arcs, their order and every dtype are those of per-layer assembly
    old = ref.network_from_blocks(WIDTH, layers)
    new = network_from_blocks(WIDTH, layers)
    assert new.layer_sizes == old.layer_sizes
    for mine, theirs in zip(arrays(new), arrays(old), strict=True):
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)


# -- unfolding ---------------------------------------------------------------


def same_unfolding(cell, steps):
    """`unfold` against the reference under the identity map: output o onto input o."""
    assert_same(unfold(cell, steps), ref.unfold(cell, steps, {o: o for o in range(cell.n_outputs)}))


@pytest.mark.parametrize("p_star", range(1, 16))
def test_unfold_dp_cell(p_star):
    cell = dp_nn.build_dp_cell(p_star).net
    for steps in (1, 2, 3, 7):
        same_unfolding(cell, steps)


def random_cell(rng):
    """A random layered network with skip arcs, zero weights and repeated arcs,
    and no more outputs than inputs."""
    n_in = rng.randint(1, 4)
    sizes = [n_in] + [rng.randint(0, 4) for _ in range(rng.randint(0, 3))] + [rng.randint(1, min(n_in, 3))]
    arcs = []
    for tl in range(1, len(sizes)):
        for ti in range(sizes[tl]):
            for _ in range(rng.randint(0, 5)):
                sl = rng.randint(0, tl - 1)
                if sizes[sl]:
                    arcs.append((sl, rng.randint(0, sizes[sl] - 1), tl, ti, rng.randint(-3, 3) * 0.5))
    biases = [(l, i, rng.randint(-2, 2) * 0.25) for l in range(1, len(sizes)) for i in range(sizes[l])]
    return ReluNetwork(sizes, arcs, biases)


def shuffled(cell, rng):
    doc = json.loads(json.dumps(cell.to_json_dict()))
    rng.shuffle(doc["arcs"])
    return ReluNetwork.from_json_dict(doc)


def test_unfold_random_cells():
    rng = SplitMix64(61)
    for _ in range(40):
        cell = random_cell(rng)
        steps = rng.randint(1, 4)
        same_unfolding(cell, steps)
        same_unfolding(shuffled(cell, rng), steps)


# no fresh inputs: two outputs onto two inputs
NO_FRESH_INPUTS = ReluNetwork(
    [2, 2, 2],
    [(0, 0, 1, 0, 1.0), (0, 1, 1, 1, -0.5), (1, 1, 2, 0, 2.0), (1, 0, 2, 1, 1.0), (0, 1, 2, 1, 0.25)],
    [(1, 1, 0.5), (2, 0, -1.0)],
)


@pytest.mark.parametrize(
    "cell, steps",
    [
        (min_n_gadget(2), 3),
        (min_n_gadget(1), 3),  # depth 1: the relays are the only hidden layers
        (min_n_gadget(3), 2),
        (NO_FRESH_INPUTS, 3),
    ],
)
def test_unfold_small_cells(cell, steps):
    same_unfolding(cell, steps)


def test_unfold_drops_zero_and_merges_repeated_arcs():
    # A JSON cell in shuffled arc order with an explicit zero weight, one arc
    # repeated and one pair of arcs that cancel: the unfolding drops the zero
    # and the cancelled pair and merges the repeat at its first place.
    doc = {
        "layers": [2, 2, 1],
        "arcs": [
            [1, 1, 2, 0, 1.0],
            [0, 1, 1, 0, 0.0],
            [0, 0, 1, 1, 1.0],
            [0, 1, 1, 1, 0.5],
            [0, 0, 1, 0, 1.0],
            [0, 0, 1, 1, 0.5],
            [1, 0, 2, 0, 3.0],
            [0, 1, 1, 1, -0.5],
        ],
        "biases": [[1, 0, 0.25]],
    }
    cell = ReluNetwork.from_json_dict(doc)
    u = unfold(cell, 2)
    assert_same(u, ref.unfold(cell, 2, {0: 0}))
    assert u.num_arcs == 2 * 4
    assert [a[4] for a in u.arcs[:3]] == [1.0, 1.5, 1.0]


def test_unfold_sorts_the_same_whatever_its_depth(monkeypatch):
    # the unfolding's layers are assembled with a fixed number of array calls
    # however many steps it has
    dp_nn.build_dp_cell(12)  # cached: only the unfolding is counted
    real = np.argsort
    counts = []
    for steps in (2, 40):
        calls = []

        def argsort(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "argsort", argsort)
            dp_nn.unfold_dp(12, steps)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_assembly_concatenates_the_same_whatever_the_layers(monkeypatch):
    # every layer is assembled in one pass: the knapsack cells' multi-block
    # layers and an unfolding's 160 one-block layers cost the same calls
    dp_nn.build_dp_cell(12)  # cached: only the unfolding is counted
    real = np.concatenate
    inside = network_from_blocks.__code__
    counts = []

    def concatenate(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not inside:
            frame = frame.f_back
        counts[-1] += frame is not None
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "concatenate", concatenate)
    for build in (lambda: dp_nn.build_dp_cell.__wrapped__(5), lambda: fptas_nn.build_fptas_cell.__wrapped__(5),
                  lambda: dp_nn.unfold_dp(12, 40)):
        counts.append(0)
        build()
    assert counts[0] > 0
    assert counts == [counts[0]] * 3


def test_empty_list_block_builds_the_empty_array_network():
    # numpy reads an empty list as float64: the block is skipped, as int64 arrays without arcs are
    e = np.zeros(0, dtype=np.int64)
    lists = network_from_blocks(1, [([(0, [], [], [])], np.zeros(1))])
    empty = network_from_blocks(1, [([(e, e, e, np.zeros(0))], np.zeros(1))])
    assert lists.layer_sizes == empty.layer_sizes == (1, 1)
    for mine, theirs in zip(arrays(lists), arrays(empty), strict=True):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    assert lists.to_json_dict() == ref.network_from_blocks(1, [([(0, [], [], [])], np.zeros(1))]).to_json_dict()
