import json
import math

import numpy as np
import pytest

from dpnets.errors import (
    ConstructionError,
    NumericOverflowError,
    ShapeMismatchError,
    SizeGuardError,
)
from dpnets import relu_core
from dpnets.dp_nn import build_dp_cell
from dpnets.fptas_nn import build_fptas_cell
from dpnets.instance_gen import GenConfig, SplitMix64, gen_knapsack
from dpnets.relu_core import (
    MAX_ARCS,
    ReluNetwork,
    _merge,
    _min_arcs,
    min_n_gadget,
    unfold,
)
from dpnets.verify import grid_values
from reference_builders import NetworkBuilder


def test_min2_examples():
    g = min_n_gadget(2)
    assert g.evaluate([3.0, 5.0])[0] == 3.0
    assert g.evaluate([7.0, 7.0])[0] == 7.0
    # works on negatives: the output layer applies no rectifier
    assert g.evaluate([-4.0, -1.0])[0] == -4.0
    # x2 - (x2 - x1) rounds in the last place when x2 - x1 is not
    # representable (0.9 - 0.3 is the classic case); exact on the 2**-26 grid
    assert abs(g.evaluate([0.3, 0.9])[0] - 0.3) < 1e-15


def test_min2_stats():
    s = min_n_gadget(2).stats()
    assert (s.depth, s.width, s.size, s.num_arcs) == (2, 1, 1, 4)


def test_single_hidden_relu_kills_negative():
    net = ReluNetwork([1, 1, 1], [(0, 0, 1, 0, 1.0), (1, 0, 2, 0, 1.0)], [(1, 0, -2.0)])
    assert net.evaluate([1.5])[0] == 0.0
    assert net.evaluate([3.0])[0] == 1.0


def test_pure_affine_stats():
    net = ReluNetwork([2, 1], [(0, 0, 1, 0, 1.0), (0, 1, 1, 0, 1.0)])
    s = net.stats()
    assert (s.depth, s.width, s.size) == (1, 0, 0)
    assert net.evaluate([2.0, 3.0])[0] == 5.0


def test_min_n_identity():
    net = min_n_gadget(1)
    assert net.evaluate([42.5])[0] == 42.5
    assert net.depth == 1


def test_min_n_small():
    assert min_n_gadget(4).evaluate([2.0, 8.0, -1.0, 5.0])[0] == -1.0


@pytest.mark.parametrize("n", range(1, 17))
def test_min_n_shape(n):
    net = min_n_gadget(n)
    assert net.size == n - 1
    want_depth = 1 if n == 1 else math.ceil(math.log2(n)) + 1
    assert net.depth == want_depth
    hidden = net.layer_sizes[1:-1]
    if n > 1:
        assert max(hidden) == n // 2


def test_min_n_against_scan():
    # grid-valued inputs make the pairwise subtractions exact
    rng = SplitMix64(99)
    net = min_n_gadget(7)
    for _ in range(1000):
        xs = grid_values(rng, 7, -(2**27), 2**27)
        assert net.evaluate(xs)[0] == np.min(xs)


def test_min_n_rejects_empty():
    with pytest.raises(ValueError):
        min_n_gadget(0)


def test_min_n_count_matches_build():
    assert [min_n_gadget(n).num_arcs for n in range(1, 70)] == [_min_arcs(n) for n in range(1, 70)]


def test_min_n_refused_above_budget_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("the size guard let a build start")

    monkeypatch.setattr(relu_core, "network_from_blocks", refuse)
    monkeypatch.setattr(relu_core, "min_reduce_many", refuse)
    first = 2_097_159
    assert _min_arcs(first - 1) <= MAX_ARCS < _min_arcs(first)
    with pytest.raises(SizeGuardError):
        min_n_gadget(first)
    with pytest.raises(AssertionError, match="guard let a build start"):
        min_n_gadget(1000)


def test_positive_homogeneity():
    # all biases in the minimum gadgets are zero
    rng = SplitMix64(5)
    net = min_n_gadget(5)
    for alpha in (0.0, 0.5, 1.0, 2.0, 4.0):
        xs = grid_values(rng, 5, 0, 2**27)
        assert net.evaluate(alpha * xs)[0] == alpha * net.evaluate(xs)[0]


def test_determinism():
    rng = SplitMix64(17)
    net = min_n_gadget(6)
    xs = grid_values(rng, 6, -(2**27), 2**27)
    a = net.evaluate(xs)
    b = net.evaluate(xs)
    assert np.array_equal(a, b)


def _lipschitz_bound(net):
    """Per-output bound via L(v) = sum |w| * L(u), inputs at 1 (inf-norm)."""
    lip = [np.ones(net.layer_sizes[0])]
    for l in range(1, len(net.layer_sizes)):
        acc = np.zeros(net.layer_sizes[l])
        for sl, si, tl, ti, w in net.arcs:
            if tl == l:
                acc[ti] += abs(w) * lip[sl][si]
        lip.append(acc)
    return float(max(lip[-1], default=0.0))


def test_piecewise_linearity_spot_check():
    # along any segment the output is continuous piecewise linear; sampled
    # increments must respect the weight-derived Lipschitz bound
    rng = SplitMix64(23)
    net = min_n_gadget(5)
    L = _lipschitz_bound(net)
    x = grid_values(rng, 5, -(2**26), 2**26)
    y = grid_values(rng, 5, -(2**26), 2**26)
    ts = np.linspace(0.0, 1.0, 1001)
    vals = [net.evaluate(x + t * (y - x))[0] for t in ts]
    step = (ts[1] - ts[0]) * np.max(np.abs(y - x))
    for a, b in zip(vals, vals[1:]):
        assert abs(b - a) <= L * step + 1e-12


def test_evaluate_shape_error():
    with pytest.raises(ShapeMismatchError):
        min_n_gadget(2).evaluate([1.0, 2.0, 3.0])


def test_overflow_error():
    big = 1e308
    net = ReluNetwork(
        [1, 1, 1],
        [(0, 0, 1, 0, big), (1, 0, 2, 0, big)],
    )
    with pytest.raises(NumericOverflowError):
        net.evaluate([1e10])


def test_construction_validation():
    with pytest.raises(ConstructionError):
        ReluNetwork([2, 1], [(1, 0, 0, 0, 1.0)])  # arc into the input layer
    with pytest.raises(ConstructionError):
        ReluNetwork([2, 1], [(0, 5, 1, 0, 1.0)])  # nonexistent source
    with pytest.raises(ConstructionError):
        ReluNetwork([2, 1], [(0, 0, 1, 0, math.inf)])  # non-finite weight
    with pytest.raises(ConstructionError):
        ReluNetwork([2], [])  # no output layer


def test_unfold_min2_chain():
    u = unfold(min_n_gadget(2), 2)
    assert u.evaluate([9.0, 4.0, 6.0])[0] == 4.0
    assert u.depth == 4 and u.size == 3


def test_unfold_one_step_is_identity_modulo_layout():
    cell = min_n_gadget(2)
    u = unfold(cell, 1)
    rng = SplitMix64(31)
    for _ in range(50):
        a, b = grid_values(rng, 2, -(2**27), 2**27)
        assert u.evaluate([a, b])[0] == cell.evaluate([a, b])[0]
    assert u.stats() == cell.stats()


def _random_cell(rng, n_in, n_out):
    """Random two-hidden-layer cell with non-negative outputs (outputs relay a
    rectified layer), so its state stays non-negative when it is unfolded."""
    b = NetworkBuilder(n_in)
    refs = b.input_refs()
    b.new_layer()
    mid = []
    for _ in range(3):
        expr = sum(
            (rng.randint(-4, 4) * 0.5 * r for r in refs),
            start=rng.randint(-2, 2) * 0.25,
        )
        mid.append(b.relu(expr))
    b.new_layer()
    outs = []
    for _ in range(n_out):
        expr = sum(
            (rng.randint(-4, 4) * 0.5 * r for r in mid),
            start=rng.randint(-2, 2) * 0.25,
        )
        outs.append(b.relu(expr))
    return b.finish([1.0 * o for o in outs])


def test_unfold_equals_sequential_application():
    rng = SplitMix64(47)
    for trial in range(25):
        n_in, n_out = 3, 2 if trial % 2 else 1
        cell = _random_cell(rng, n_in, n_out)
        steps = 1 + trial % 4
        u = unfold(cell, steps)
        init = grid_values(rng, n_out, 0, 2**26)
        externals = [grid_values(rng, n_in - n_out, -(2**26), 2**26) for _ in range(steps)]
        # sequential reference: output o feeds back onto input o
        out = init
        for t in range(steps):
            x = np.zeros(n_in)
            for i in range(n_out):
                x[i] = out[i]
            for r in range(n_in - n_out):
                x[n_out + r] = externals[t][r]
            out = cell.evaluate(x)
        unfolded_in = np.concatenate([init] + externals)
        got = u.evaluate(unfolded_in)
        assert np.array_equal(got, out)
        assert u.depth == steps * cell.depth


def test_unfold_rejects_bad_feedback():
    # three outputs cannot feed back onto two inputs
    with pytest.raises(ConstructionError, match="cannot feed back"):
        unfold(ReluNetwork([2, 1, 3],
                           [(0, 0, 1, 0, 1.0), (1, 0, 2, 0, 1.0), (1, 0, 2, 1, 1.0), (1, 0, 2, 2, 1.0)]), 2)
    with pytest.raises(ValueError):
        unfold(min_n_gadget(2), 0)


def test_unfold_arc_budget():
    cell = min_n_gadget(2)
    steps = MAX_ARCS // cell.num_arcs
    with pytest.raises(SizeGuardError):
        unfold(cell, steps + 1)


def knapsack_runs():
    """(cell network, initial state, item rows): the exact cell at p* = 1..20 and
    the rounded cell at P = 3, 7, 12, each over generated instances."""
    for p_star in range(1, 21):
        for seed in range(5):
            inst = gen_knapsack(GenConfig(10 * p_star + seed, p_star))
            yield build_dp_cell(p_star).net, np.full(p_star, 2.0), list(zip(inst.profits, inst.sizes))
    for P in (3, 7, 12):
        for total in range(1, 61):
            inst = gen_knapsack(GenConfig(100 * P + total, total))
            yield build_fptas_cell(P).net, np.append(np.full(P, 2.0), 0.0), list(zip(inst.profits, inst.sizes))


def test_unfold_equals_run_on_the_knapsack_cells():
    # One recurrent convention: a cell's outputs feed back onto its first inputs,
    # in the unfolded network as in the stepping loop, bit for bit.
    for net, start, rows in knapsack_runs():
        states, hidden = net.run(start, rows)
        assert hidden is None and len(states) == len(rows) + 1
        got = unfold(net, len(rows)).evaluate(np.concatenate([start, *rows]))
        assert got.tobytes() == states[-1].tobytes()


@pytest.mark.parametrize(
    "cell, start",
    [(build_dp_cell(5).net, np.full(5, 2.0)), (build_fptas_cell(5).net, np.append(np.full(5, 2.0), 0.0))],
    ids=["exact", "rounded"],
)
def test_run_records_one_evaluate_layers_result_per_step(cell, start):
    rows = [(3, 0.25), (1, 0.5), (4, 0.125), (2, 0.75)]
    states, hidden = cell.run(start, rows, record_hidden=True)
    assert len(hidden) == len(rows)
    for before, row, layers, after in zip(states, rows, hidden, states[1:]):
        want = cell.evaluate_layers(np.concatenate([before, row]))
        assert [a.tobytes() for a in layers] == [a.tobytes() for a in want]
        assert layers[-1].tobytes() == after.tobytes()
    plain, none = cell.run(start, rows)
    assert none is None and [s.tobytes() for s in plain] == [s.tobytes() for s in states]


def test_serialization_round_trip():
    nets = [min_n_gadget(2), min_n_gadget(7)]
    b = NetworkBuilder(2)
    x, y = b.input_refs()
    b.new_layer()
    h = b.relu(0.1 * x - 2.0**-26 * y + 0.3)
    nets.append(b.finish([h - 7.7 * x]))
    for net in nets:
        doc = net.to_json_dict()
        text = json.dumps(doc)
        back = ReluNetwork.from_json_dict(json.loads(text))
        assert back == net
        rng = SplitMix64(3)
        xs = grid_values(rng, net.layer_sizes[0], -(2**20), 2**20)
        assert np.array_equal(back.evaluate(xs), net.evaluate(xs))


def test_merge_refuses_keys_past_int64():
    # Sources up to layer 2**22 - 1 and index 2**41 - 2 leave one row just
    # under 2**63 keys and still merge in first-occurrence order; one index
    # more, or the far larger sources below, would overflow the int64 key.
    top, last = 2**22 - 1, 2**41 - 2
    [(sl, si, row, coef)], _ = _merge([0] * 4, [top, 0, top, top], [0, last, last, 0], [1.0, 2.0, 4.0, 0.5], [0.0])
    assert list(zip(sl.tolist(), si.tolist(), coef.tolist())) == [(top, 0, 1.5), (0, last, 2.0), (top, last, 4.0)]
    assert row.tolist() == [0, 0, 0]
    for sl, si in (([top, 0], [0, last + 1]), ([2**30, 0], [0, 2**40])):
        with pytest.raises(SizeGuardError, match="reaches 2\\*\\*63"):
            _merge([0, 0], sl, si, [1.0, 1.0], [0.0])
