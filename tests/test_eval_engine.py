"""The raw-CSR evaluator against the scipy.sparse evaluator it replaced.

``reference_builders.reference_compiled`` and ``reference_forward`` are
the old evaluator.  The compiled arrays must equal scipy's canonical CSR
array for array, and ``evaluate``, ``evaluate_layers`` and every row of
``evaluate_batch`` must give the same bytes, on every family of
networks the package builds and on JSON networks whose arcs come in any
order or repeat a (neuron, source) pair.
"""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings

import reference_builders as ref
from test_serialization import layered_networks
from dpnets import co_builders, dp_nn, fptas_nn
from dpnets.errors import NumericOverflowError, ShapeMismatchError, SizeGuardError
from dpnets.instance_gen import SplitMix64, gen_graph
from dpnets.relu_core import MAX_ARCS, ReluNetwork, min_n_gadget
from dpnets.verify import grid_values


def grid_inputs(net, seed, count=3):
    """`count` seeded inputs on the 2**-26 grid in [-2, 2]."""
    rng = SplitMix64(seed)
    return [grid_values(rng, net.n_inputs, -(2**27), 2**27) for _ in range(count)]


def assert_compiled_like_scipy(net):
    mats = ref.reference_compiled(net)
    assert len(net._compiled) == len(mats)
    for (n_row, n_col, indptr, indices, data), mat in zip(net._compiled, mats):
        assert (n_row, n_col) == mat.shape
        for got, want in ((indptr, mat.indptr), (indices, mat.indices), (data, mat.data)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    return mats


def assert_engine_matches(net, inputs):
    mats = assert_compiled_like_scipy(net)
    off = ref.reference_offsets(net)
    for x in inputs:
        outs = ref.reference_forward(net, x, mats)
        assert net.evaluate(x).tobytes() == outs[off[-2] :].tobytes()
        layers = net.evaluate_layers(x)
        assert len(layers) == len(net.layer_sizes)
        for l, got in enumerate(layers):
            assert got.tobytes() == outs[off[l] : off[l + 1]].tobytes()


def assert_batch_matches(net, xs):
    out = net.evaluate_batch(xs)
    assert out.shape == (len(xs), net.n_outputs)
    for x, row in zip(xs, out):
        assert row.tobytes() == net.evaluate(x).tobytes()


# -- every family of networks -------------------------------------------------


@pytest.mark.parametrize("p_star", [*range(1, 41), 96])
def test_dp_cells(p_star):
    net = dp_nn.build_dp_cell(p_star).net
    assert_engine_matches(net, grid_inputs(net, p_star))


@pytest.mark.parametrize("resolution", [*range(1, 31), 200])
def test_rounded_cells(resolution):
    net = fptas_nn.build_fptas_cell(resolution).net
    assert_engine_matches(net, grid_inputs(net, resolution, 2 if resolution == 200 else 3))


def test_co_builder_networks():
    nets = [co_builders.build_lcs_cell(b) for b in (1, 7, 20)]
    for n in (2, 3, 5, 8):
        graph = gen_graph(n, 9.0, 31 + n, with_resources=True, integer_lengths=True)
        nets.append(co_builders.build_bellman_ford_cell(graph))
        nets.append(co_builders.build_min_plus_square_cell(n))
        nets.append(co_builders.build_csp_network(n, 6, 2.5))
        nets.append(co_builders.build_tsp_network(n))
    for seed, net in enumerate(nets):
        assert_engine_matches(net, grid_inputs(net, 100 + seed))


def test_unfoldings_and_min_gadgets():
    nets = [min_n_gadget(2), *(min_n_gadget(n) for n in (1, 3, 8, 13))]
    nets += [dp_nn.unfold_dp(p_star, steps) for p_star, steps in ((1, 1), (3, 4), (6, 7))]
    for seed, net in enumerate(nets):
        assert_engine_matches(net, grid_inputs(net, 200 + seed))


def random_json_network(rng, shuffle, repeat):
    """A random layered network as JSON, arcs sorted by layer and neuron.

    Some weights are zero.  With `repeat`, some (neuron, source) pairs
    appear twice; with `shuffle`, the arcs come in random order.
    """
    sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 5))]
    arcs = []
    for tl in range(1, len(sizes)):
        sources = [(sl, si) for sl in range(tl) for si in range(sizes[sl])]
        for ti in range(sizes[tl]):
            for k in range(min(rng.randint(0, 6), len(sources))):
                pick = rng.randint(k, len(sources) - 1)
                sources[k], sources[pick] = sources[pick], sources[k]
                arc = [*sources[k], tl, ti, rng.randint(-8, 8) * 0.25]
                arcs.append(arc)
                if repeat and rng.randint(0, 2) == 0:
                    arcs.append([*arc[:4], rng.randint(-8, 8) * 0.125])
    if shuffle:
        for i in range(len(arcs) - 1, 0, -1):
            j = rng.randint(0, i)
            arcs[i], arcs[j] = arcs[j], arcs[i]
    biases = [[l, i, rng.randint(-4, 4) * 0.5] for l in range(1, len(sizes)) for i in range(sizes[l])]
    return {"layers": sizes, "arcs": arcs, "biases": biases}


@pytest.mark.parametrize("shuffle, repeat", [(False, False), (True, False), (False, True), (True, True)])
def test_json_networks(shuffle, repeat):
    rng = SplitMix64(7 + 2 * shuffle + repeat)
    merged = 0
    for seed in range(40):
        doc = json.loads(json.dumps(random_json_network(rng, shuffle, repeat)))
        net = ReluNetwork.from_json_dict(doc)
        assert_engine_matches(net, grid_inputs(net, seed))
        merged += net.num_arcs - sum(c[4].size for c in net._compiled)
    # repeated pairs come out summed
    assert (merged > 0) == repeat


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(layered_networks())
def test_random_layered_networks_compile_like_scipy(net):
    assert_compiled_like_scipy(net)


REPEATS = (2.0**53, 1.0, -(2.0**53), 1.0)


@pytest.mark.parametrize(
    "repeats, at",
    [((), 0), (REPEATS, 0), (REPEATS, 9), (REPEATS, 21), (REPEATS, 24)],
    ids=["no-repeats", "repeats-at-0", "repeats-at-9", "repeats-at-21", "repeats-at-24"],
)
def test_descending_row(repeats, at):
    # arcs from inputs 23, ..., 0 into the one output, `repeats` more from
    # input 5 at position `at`; scipy sorts rows of more than 16 arcs with
    # an unstable sort, so the repeats are summed in an order of scipy's
    # choosing, and the order shows in the sum
    arcs = [(0, si, 1, 0, float(si + 1)) for si in range(23, -1, -1)]
    net = ReluNetwork([24, 1], arcs[:at] + [(0, 5, 1, 0, w) for w in repeats] + arcs[at:])
    assert net._compiled[0][3].tolist() == list(range(24))
    assert_engine_matches(net, grid_inputs(net, at))


def test_ascending_row_with_repeats():
    # the row in column order, four rounds of repeats after the arc from input 5:
    # scipy sorts only a row that lists a column out of order, so it sums these
    # in the listed order (its unstable sort would give 14)
    arcs = [(0, si, 1, 0, float(si + 1)) for si in range(24)]
    net = ReluNetwork([24, 1], arcs[:6] + [(0, 5, 1, 0, w) for w in 4 * REPEATS] + arcs[6:])
    assert net._compiled[0][4][5] == 9.0
    assert_engine_matches(net, grid_inputs(net, 6))


def test_empty_selector_layer():
    net = dp_nn.build_dp_cell(1).net
    n_row, n_col, indptr, indices, data = net._compiled[1]
    assert (n_row, n_col, indptr.tolist(), indices.size, data.size) == (0, 5, [0], 0, 0)
    assert_compiled_like_scipy(net)


@pytest.mark.parametrize(
    "arcs", [[], [(0, 2**31 - 1, 1, 0, 1.0), (0, 3, 1, 0, 2.0), (0, 3, 1, 0, 0.5)]], ids=["no-arcs", "repeated-pair"]
)
def test_int32_columns_past_budget_refused(arcs):
    # the size guard keeps every compiled index within int32
    with pytest.raises(SizeGuardError, match=str(MAX_ARCS)):
        ReluNetwork([2**31, 1], arcs)


# -- batches ------------------------------------------------------------------


@pytest.mark.parametrize(
    "net",
    [dp_nn.build_dp_cell(12).net, fptas_nn.build_fptas_cell(6).net, co_builders.build_lcs_cell(20)],
    ids=["dp", "rounded", "lcs"],
)
def test_batch_rows_equal_single_evaluations(net):
    assert_batch_matches(net, np.array(grid_inputs(net, 5, 33)))
    assert_batch_matches(net, np.array(grid_inputs(net, 6, 1)))
    assert net.evaluate_batch(np.zeros((0, net.n_inputs))).shape == (0, net.n_outputs)


def test_summation_order():
    # 1 + 2**53 rounds to 2**53 before the bias is added; adding the
    # bias first would give 2**53 + 2 exactly
    net = ReluNetwork([2, 1], [(0, 0, 1, 0, 1.0), (0, 1, 1, 0, 1.0)], [(1, 0, 1.0)])
    x = [1.0, 2.0**53]
    want = ref.reference_forward(net, x)[-1:]
    assert want[0] == 2.0**53
    assert net.evaluate(x).tobytes() == want.tobytes()
    assert net.evaluate_batch([x]).tobytes() == want.tobytes()


def test_batch_shape_errors():
    net = min_n_gadget(2)
    for bad in ([1.0, 2.0], np.zeros((3, 3)), np.zeros((2, 2, 2)), 1.0):
        with pytest.raises(ShapeMismatchError):
            net.evaluate_batch(bad)
    with pytest.raises(ShapeMismatchError):
        net.evaluate(np.zeros((1, 2)))


def test_lcs_cell_is_built_once():
    assert co_builders.build_lcs_cell(20) is co_builders.build_lcs_cell(20)


# -- non-finite values ------------------------------------------------------------


def overflow_cases():
    """(network, input, layer): the first layer with a non-finite pre-activation."""
    # 1e10 * 1e308 overflows the first layer
    overflowing = ReluNetwork([1, 1, 1], [(0, 0, 1, 0, 1e308), (1, 0, 2, 0, 1.0)])
    # a hidden -inf, which the rectifier would turn into 0
    hidden = ReluNetwork(
        [1, 1, 1, 1],
        [(0, 0, 1, 0, 1e300), (1, 0, 2, 0, -1e10), (2, 0, 3, 0, 1.0)],
        [(3, 0, 5.0)],
    )
    # inf - inf in the second layer from two finite hidden values
    nan = ReluNetwork(
        [1, 2, 1],
        [(0, 0, 1, 0, 1e300), (0, 0, 1, 1, 1e300), (1, 0, 2, 0, 1e10), (1, 1, 2, 0, -1e10)],
    )
    return [
        (overflowing, [1e10], 1),
        (hidden, [1.0], 2),
        (nan, [1.0], 2),
        (min_n_gadget(2), [np.nan, 1.0], 1),
        (min_n_gadget(2), [np.inf, 1.0], 1),
    ]


@pytest.mark.parametrize("case", range(5))
def test_non_finite_raised_at_the_same_layer(case):
    net, x, layer = overflow_cases()[case]
    message = f"non-finite activation in layer {layer}"
    with pytest.raises(NumericOverflowError) as old:
        ref.reference_forward(net, x)
    assert str(old.value) == message
    for run in (net.evaluate, net.evaluate_layers):
        with pytest.raises(NumericOverflowError) as new:
            run(x)
        assert str(new.value) == message
    good = np.ones((2, net.n_inputs))
    with pytest.raises(NumericOverflowError) as new:
        net.evaluate_batch(np.vstack([good, [x], good]))
    assert str(new.value) == message


# -- sharing across threads -----------------------------------------------------


def test_two_threads_share_one_network():
    doc = fptas_nn.build_fptas_cell(8).net.to_json_dict()
    net = ReluNetwork.from_json_dict(doc)  # compiled by the threads themselves
    off = ref.reference_offsets(net)
    xs = [np.array(grid_inputs(net, 300 + t, 12)) for t in range(2)]
    want = [np.array([ref.reference_forward(net, x)[off[-2] :] for x in batch]) for batch in xs]
    failures = []

    def work(t):
        try:
            for _ in range(40):
                for x, w in zip(xs[t], want[t]):
                    if net.evaluate(x).tobytes() != w.tobytes():
                        failures.append((t, "evaluate"))
                if net.evaluate_batch(xs[t]).tobytes() != want[t].tobytes():
                    failures.append((t, "evaluate_batch"))
        except Exception as exc:  # pragma: no cover - reported below
            failures.append((t, repr(exc)))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside evaluations
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
