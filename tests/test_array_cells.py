"""The array-built knapsack cells against per-neuron reference constructions.

The oracles below build both cells one neuron at a time through
``NetworkBuilder`` and ``Affine`` expressions.  The array builders must
reproduce them arc for arc, in order, so every CSR row sums in the same
order and every answer stays bit-identical.
"""

import numpy as np
import pytest

from dpnets import dp_nn, fptas_nn
from dpnets.errors import ConstructionError
from dpnets.relu_core import ReluNetwork, network_from_blocks
from reference_builders import NetworkBuilder, affine_sum


def reference_dp_net(p_star):
    """The exact cell built neuron by neuron."""
    b = NetworkBuilder(p_star + 2)
    refs = b.input_refs()
    f_in = refs[:p_star]
    p_in = refs[p_star]
    s_in = refs[p_star + 1]

    b.new_layer()
    gate_plus = [b.relu(2.0 * p_in - 2.0 * k) for k in range(1, p_star + 1)]
    gate_minus = [b.relu(2.0 * k - 2.0 * p_in) for k in range(1, p_star + 1)]

    b.new_layer()
    selector = {}
    for p in range(1, p_star + 1):
        for k in range(1, p):
            selector[p, k] = b.relu(f_in[p - k - 1] - gate_plus[k - 1] - gate_minus[k - 1])

    b.new_layer()
    min_helper = []
    for p in range(1, p_star + 1):
        picked = affine_sum((selector[p, k] for k in range(1, p)), coeff=-1.0)
        min_helper.append(b.relu(f_in[p - 1] - s_in + picked))

    return b.finish([f_in[p - 1] - min_helper[p - 1] for p in range(1, p_star + 1)])


def reference_fptas_net(P):
    """The rounded cell built neuron by neuron."""
    b = NetworkBuilder(P + 3)
    refs = b.input_refs()
    g_in = refs[:P]
    total_in = refs[P]
    p_in = refs[P + 1]
    s_in = refs[P + 2]

    b.new_layer()
    gate_old = b.relu(total_in - P)
    gate_new = b.relu(total_in + p_in - P)

    b.new_layer()
    upper = [(p, k) for p in range(1, P + 1) for k in range(p, P + 1)]
    lower = [(p, k) for p in range(1, P + 1) for k in range(1, p + 1)]
    skip_plus, skip_minus, take_plus, take_minus = {}, {}, {}, {}
    for p, k in upper:
        skip_plus[p, k] = b.relu(2.0 * p * gate_new - 2.0 * k * gate_old + 2.0 * P * (p - k))
    for p, k in upper:
        skip_minus[p, k] = b.relu(
            2.0 * (k - 1) * gate_old - 2.0 * p * gate_new + 2.0 * P * (k - 1 - p) + 2.0
        )
    for p, k in lower:
        take_plus[p, k] = b.relu(
            2.0 * p * gate_new - 2.0 * k * gate_old - 2.0 * P * p_in + 2.0 * P * (p - k)
        )
    for p, k in lower:
        take_minus[p, k] = b.relu(
            2.0 * (k - 1) * gate_old
            - 2.0 * p * gate_new
            + 2.0 * P * p_in
            + 2.0 * P * (k - 1 - p)
            + 2.0
        )

    b.new_layer()
    skip_keep, take_keep = {}, {}
    for p, k in upper:
        skip_keep[p, k] = b.relu(2.0 - g_in[k - 1] - skip_plus[p, k] - skip_minus[p, k])
    for p, k in lower:
        take_keep[p, k] = b.relu(g_in[k - 1] - take_plus[p, k] - take_minus[p, k])

    h1, h2 = {}, {}
    for p in range(1, P + 1):
        h1[p] = affine_sum((skip_keep[p, k] for k in range(p, P + 1)), coeff=-1.0, const=2.0)
        h2[p] = affine_sum(take_keep[p, k] for k in range(1, p + 1))

    b.new_layer()
    min_helper = [b.relu(h1[p] - s_in - h2[p]) for p in range(1, P + 1)]

    outputs = [h1[p] - min_helper[p - 1] for p in range(1, P + 1)]
    outputs.append(total_in + p_in)
    return b.finish(outputs)


def _assert_identical(new, old):
    assert new == old
    # __eq__ compares values; the bytes also pin the sign of every zero.
    assert new._w.tobytes() == old._w.tobytes()
    for a, b in zip(new.biases_by_layer, old.biases_by_layer):
        assert a.tobytes() == b.tobytes()
    assert new.to_json_dict() == old.to_json_dict()


@pytest.mark.parametrize("p_star", [*range(1, 51), 96, 111])
def test_dp_cell_matches_reference_in_order(p_star):
    _assert_identical(dp_nn.build_dp_cell.__wrapped__(p_star).net, reference_dp_net(p_star))


@pytest.mark.parametrize("P", [*range(1, 31), 60])
def test_fptas_cell_matches_reference_in_order(P):
    cell = fptas_nn.build_fptas_cell.__wrapped__(P)
    _assert_identical(cell.net, reference_fptas_net(P))


@pytest.mark.parametrize(
    "module, build, size",
    [(dp_nn, dp_nn.build_dp_cell, 7), (fptas_nn, fptas_nn.build_fptas_cell, 5)],
)
def test_closed_form_check_fires(monkeypatch, module, build, size):
    true_count = module._cell_arcs(size)
    monkeypatch.setattr(module, "_cell_arcs", lambda n: true_count + 1)
    with pytest.raises(ConstructionError, match="closed form"):
        build.__wrapped__(size)


def test_blocks_order_arcs_neuron_by_neuron():
    # Neuron 0 = relu(x1 - x0), neuron 1 = relu(2 x0 + 1); output = h0 + 3 h1.
    net = network_from_blocks(2, [
        ([(0, [1, 0], [0, 1], [1.0, 2.0]), (0, 0, [0, 1], [-1.0, 0.0])], np.array([0.0, 1.0])),
        ([(1, [0, 1], 0, [1.0, 3.0])], np.zeros(1)),
    ])
    assert net.layer_sizes == (2, 2, 1)
    assert net.arcs == [
        (0, 1, 1, 0, 1.0), (0, 0, 1, 0, -1.0), (0, 0, 1, 1, 2.0),
        (1, 0, 2, 0, 1.0), (1, 1, 2, 0, 3.0),
    ]
    assert net.evaluate([1.0, 4.0])[0] == 3.0 + 3.0 * 3.0


def test_blocks_keep_network_validation():
    with pytest.raises(ConstructionError, match="nonexistent neuron"):
        network_from_blocks(2, [([(0, 2, 0, 1.0)], np.zeros(1))])
    with pytest.raises(ConstructionError, match="strictly increase"):
        network_from_blocks(2, [([(1, 0, 0, 1.0)], np.zeros(1))])
    with pytest.raises(ConstructionError, match="finite"):
        network_from_blocks(2, [([(0, 0, 0, np.inf)], np.zeros(1))])
    net = network_from_blocks(1, [([(0, 0, 0, 1.0)], np.zeros(1))])
    assert not net._w.flags.writeable and not net.biases_by_layer[0].flags.writeable


def test_blocks_may_leave_a_layer_without_arcs():
    assert network_from_blocks(1, [([], np.zeros(1))]) == ReluNetwork([1, 1], [])
    net = network_from_blocks(1, [([], np.zeros(2)), ([(1, [0, 1], 0, 1.0)], np.zeros(1))])
    assert net == ReluNetwork([1, 2, 1], [(1, 0, 2, 0, 1.0), (1, 1, 2, 0, 1.0)])
