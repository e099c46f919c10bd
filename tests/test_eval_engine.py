"""The raw-CSR evaluator against the scipy.sparse evaluator it replaced.

``reference_builders.reference_compiled`` and ``reference_forward`` are
the old evaluator.  The compiled arrays must equal scipy's canonical CSR
array for array, and ``evaluate``, ``evaluate_layers`` and every row of
``evaluate_batch`` must give the same bytes, on every family of
networks the package builds and on JSON networks whose arcs come in any
order or repeat a (neuron, source) pair.  The magnitude bound must hold
on every construction's pre-activations, and an input on either side of
the overflow gate must give the reference's bytes.  No test here may emit
a ``RuntimeWarning``.
"""

import json
import math
import os
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

import reference_builders as ref
from test_serialization import layered_networks
from dpnets import co_builders, dp_nn, fptas_nn, relu_core
from dpnets.errors import NumericOverflowError, ShapeMismatchError, SizeGuardError
from dpnets.instance_gen import SplitMix64, gen_graph
from dpnets.relu_core import MAX_ARCS, ReluNetwork, min_n_gadget
from dpnets.verify import grid_values

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


def count_calls(monkeypatch, owner, *names):
    """A Counter of the calls made from now on to the functions `names` of module `owner`."""
    calls = Counter()
    for name in names:

        def counted(*args, name=name, function=getattr(owner, name)):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_sorted_and_merged_layers_apart(monkeypatch):
    # layer 1 lists a column out of order; layer 2 lists its columns in order
    # but repeats a pair in a row of 40 arcs, which scipy merges unsorted (as
    # in test_ascending_row_with_repeats); layer 3 lists a column out of order
    # again; the output layer is in order
    row = [[0, si, 2, 0, float(si + 1)] for si in range(24)]
    arcs = [[0, 3, 1, 0, 1.0], [0, 1, 1, 0, -1.0], [0, 0, 1, 1, 2.0]]
    arcs += row[:6] + [[0, 5, 2, 0, w] for w in 4 * REPEATS] + row[6:] + [[1, 0, 2, 0, 1.0], [1, 1, 2, 0, 0.5]]
    arcs += [[2, 0, 3, 0, 1.0], [0, 2, 3, 0, -1.0], [0, 4, 3, 1, 1.0]]
    arcs += [[3, 0, 4, 0, 1.0], [3, 1, 4, 0, -2.0]]
    net = ReluNetwork.from_json_dict(json.loads(json.dumps({"layers": [24, 2, 1, 2, 1], "arcs": arcs})))
    calls = count_calls(monkeypatch, relu_core, "csr_sort_indices", "csr_sum_duplicates")
    assert net._compiled[1][4][5] == 9.0
    # one merge for the run of layers 1 to 3, one sort each for layers 1 and 3
    assert calls == {"csr_sort_indices": 2, "csr_sum_duplicates": 1}
    assert_engine_matches(net, grid_inputs(net, 8))


def test_csp_network_sorts_and_merges_in_one_call_each(monkeypatch):
    net = co_builders.build_csp_network(5, 10, 2.5)
    calls = count_calls(monkeypatch, relu_core, "csr_sort_indices", "csr_sum_duplicates")
    net._compiled
    assert calls == {"csr_sort_indices": 1, "csr_sum_duplicates": 1}
    assert_compiled_like_scipy(net)


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


def test_zero_rows_give_positive_zero():
    # rows whose arcs cancel exactly (x - x) and rows with no arcs, hidden and
    # output, every bias zero (one listed as -0.0): the evaluator skips zero
    # biases, the reference always adds them
    arcs = [(0, 0, 1, 0, 1.0), (0, 1, 1, 0, -1.0), (0, 0, 1, 1, 1.0), (0, 1, 1, 2, 1.0)]
    arcs += [(1, 1, 2, 0, 1.0), (1, 2, 2, 0, -1.0), (0, 0, 2, 2, -1.0), (0, 1, 2, 2, 1.0)]
    net = ReluNetwork([2, 4, 3], arcs, [(1, 0, -0.0)])
    xs = [[v, v] for v in (0.0, -0.0, 1.5, -2.0, 2.0**52 + 1)]
    for x in xs:
        outs = ref.reference_forward(net, x)
        assert net.evaluate(x).tobytes() == outs[-3:].tobytes() == np.zeros(3).tobytes()
        for got, want in zip(net.evaluate_layers(x), (outs[:2], outs[2:6], outs[6:])):
            assert got.tobytes() == want.tobytes()
    assert net.evaluate_batch(xs).tobytes() == np.zeros((len(xs), 3)).tobytes()


def test_finite_values_whose_sum_overflows():
    # both hidden values and both outputs are finite, but the sum of their
    # squares, and for the two largest inputs their sum, is past the double range
    net = ReluNetwork([1, 2, 2], [(0, 0, 1, 0, 1.0), (0, 0, 1, 1, 1.0), (1, 0, 2, 0, 1.0), (1, 1, 2, 1, 1.0)])
    xs = [[1e308], [1e200], [-1e308], [np.finfo(float).max]]
    for x in xs:
        outs = ref.reference_forward(net, x)
        assert np.isfinite(outs).all()
        assert net.evaluate(x).tobytes() == outs[3:].tobytes() == np.array(2 * [max(x[0], 0.0)]).tobytes()
        assert np.concatenate(net.evaluate_layers(x)).tobytes() == outs.tobytes()
    assert_batch_matches(net, np.array(xs))


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


def test_overflow_cases_take_the_checked_path():
    # the per-layer check above runs only where the gate cannot prove the call finite
    for net, x, _ in overflow_cases():
        x = np.asarray(x, dtype=np.float64)
        assert not np.vdot(x, x) < net._overflow_gate


# -- the magnitude bound and the overflow gate ----------------------------------


def bounded_networks():
    """(name, builder): one or more networks of every construction, for the magnitude bound."""
    graph = gen_graph(5, 9.0, 41, with_resources=True, integer_lengths=True)
    nets = [(f"exact-{p}", lambda p=p: dp_nn.build_dp_cell(p).net) for p in (1, 12, 30)]
    nets += [(f"rounded-{r}", lambda r=r: fptas_nn.build_fptas_cell(r).net) for r in (1, 6, 20)]
    return nets + [
        ("lcs", lambda: co_builders.build_lcs_cell(20)),
        ("bellman-ford", lambda: co_builders.build_bellman_ford_cell(graph)),
        ("all-pairs", lambda: co_builders.build_min_plus_square_cell(5)),
        ("csp", lambda: co_builders.build_csp_network(5, 10, 2.5)),
        ("tsp", lambda: co_builders.build_tsp_network(8)),
        ("min-13", lambda: min_n_gadget(13)),
        ("unfold-12-6", lambda: dp_nn.unfold_dp(12, 6)),
    ]


def up_to_the_gate(net, x):
    """`x` scaled by the largest power of two, and by a factor just below the
    largest one, that keeps ``vdot(x, x)`` under the network's gate."""
    x = np.asarray(x, dtype=np.float64)
    s, gate = np.vdot(x, x), net._overflow_gate
    if not s or not gate:
        return []
    e = math.floor((math.log2(gate) - math.log2(s)) / 2)
    while np.vdot(np.ldexp(x, e), np.ldexp(x, e)) >= gate:
        e -= 1
    scaled = [np.ldexp(x, e), x * (math.sqrt(gate) / math.sqrt(s) * (1 - 2.0**-30))]
    assert all(np.vdot(y, y) < gate for y in scaled)
    return scaled


@pytest.mark.parametrize("name, build", bounded_networks(), ids=[name for name, _ in bounded_networks()])
def test_pre_activations_within_the_magnitude_bound(name, build):
    net = build()
    g = net._magnitude_bound
    assert 1.0 <= g
    mats = ref.reference_compiled(net)
    grid = grid_inputs(net, 400 + len(name), 4)
    inputs = grid + [y for x in grid for y in up_to_the_gate(net, x)]
    # every construction but the 42-layer CSP network has an open gate
    assert len(inputs) > len(grid) or name == "csp"
    for x in inputs:
        pre = []
        outs = ref.reference_forward(net, x, mats, pre)
        peak = max(np.max(np.abs(a), initial=0.0) for a in pre)
        assert peak <= max(1.0, np.max(np.abs(x))) * g
        assert net.evaluate(x).tobytes() == outs[-net.n_outputs :].tobytes()


@pytest.mark.parametrize(
    "net",
    [dp_nn.build_dp_cell(12).net, fptas_nn.build_fptas_cell(6).net, co_builders.build_lcs_cell(20)],
    ids=["dp", "rounded", "lcs"],
)
def test_both_sides_of_the_gate(net, monkeypatch):
    x = np.array(grid_inputs(net, 11, 1)[0])
    gate = net._overflow_gate
    scale = math.sqrt(gate) / math.sqrt(np.vdot(x, x))
    below, above = x * (scale * (1 - 2.0**-30)), x * (scale * (1 + 2.0**-30))
    assert np.vdot(below, below) < gate <= np.vdot(above, above)
    off = ref.reference_offsets(net)
    calls = count_calls(monkeypatch, np, "vdot", "isfinite")
    for y, reductions in ((below, 1), (above, 1 + net.depth)):
        outs = ref.reference_forward(net, y)
        calls.clear()
        assert net.evaluate(y).tobytes() == outs[off[-2] :].tobytes()
        assert calls == {"vdot": reductions}  # the inputs' test, then one per layer past the gate
        layers = net.evaluate_layers(y)
        assert b"".join(a.tobytes() for a in layers) == outs.tobytes()
        assert net.evaluate_batch([y, y]).tobytes() == np.vstack([outs[off[-2] :]] * 2).tobytes()
    # with the gate shut, the input under it gives the same bytes through the per-layer check
    bytes_below = [a.tobytes() for a in net.evaluate_layers(below)]
    monkeypatch.setitem(net.__dict__, "_overflow_gate", 0.0)
    assert [a.tobytes() for a in net.evaluate_layers(below)] == bytes_below


def test_one_finiteness_reduction_per_evaluation(monkeypatch):
    cell = dp_nn.build_dp_cell(12).net
    x = np.array(grid_inputs(cell, 12, 1)[0])
    cell.evaluate(x)  # compiles the cell and computes its bound
    calls = count_calls(monkeypatch, np, "vdot", "isfinite")
    for count in range(1, 4):
        cell.evaluate(x)
        assert calls == {"vdot": count}
    calls.clear()
    rows = [(3, 5), (1, 2), (4, 7), (2, 1), (5, 9)]
    states, _ = cell.run(np.full(12, 2.0), rows)
    assert calls == {"vdot": len(rows)}
    assert len(states) == len(rows) + 1


def test_run_refuses_a_row_of_another_length():
    cell = dp_nn.build_dp_cell(3).net
    for row in ((1, 2, 3), (1,)):  # a row of one entry would broadcast into a reused vector
        with pytest.raises(ShapeMismatchError, match=f"expected input of length 5, got shape \\({3 + len(row)},\\)"):
            cell.run(np.full(3, 2.0), [(1, 1), row])


# -- sharing across threads -----------------------------------------------------


def assert_threads_share(net, count):
    """`count` threads evaluate `net` at once, each on inputs of its own, and get the reference bytes."""
    off = ref.reference_offsets(net)
    xs = [np.array(grid_inputs(net, 300 + t % 2, 12)) for t in range(count)]
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

    threads = [threading.Thread(target=work, args=(t,)) for t in range(count)]
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


def test_two_threads_share_one_network(monkeypatch):
    doc = fptas_nn.build_fptas_cell(8).net.to_json_dict()
    assert_threads_share(ReluNetwork.from_json_dict(doc), 2)  # compiled by the threads themselves
    # again where every layer of three arcs or more splits into three row ranges, with
    # three threads: one holds the helpers, the others find them busy and run alone
    monkeypatch.setattr(relu_core, "MIN_PART_ARCS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    net = ReluNetwork.from_json_dict(doc)
    assert_threads_share(net, 3)
    assert [len(split.args[0]) for *_, split in net._steps if split] == [3] * net.depth
