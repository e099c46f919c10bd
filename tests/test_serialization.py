"""Network documents: JSON round trips of every construction, and refusal of malformed documents."""

import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpnets.co_builders import (
    build_bellman_ford_cell,
    build_csp_network,
    build_lcs_cell,
    build_min_plus_square_cell,
    build_tsp_network,
)
from dpnets.dp_nn import build_dp_cell, unfold_dp
from dpnets import relu_core
from dpnets.errors import ConstructionError, SizeGuardError
from dpnets.fptas_nn import build_fptas_cell
from dpnets.instance_gen import gen_graph
from dpnets.relu_core import MAX_ARCS, ReluNetwork, network_from_blocks


def json_text(net):
    return json.dumps(net.to_json_dict())


def assert_round_trip(net):
    text = json_text(net)
    back = ReluNetwork.from_json_dict(json.loads(text))
    assert back == net
    assert json_text(back) == text


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_dp_cell(11).net,
        lambda: build_fptas_cell(12).net,
        lambda: unfold_dp(4, 3),
        lambda: build_lcs_cell(6),
        lambda: build_bellman_ford_cell(gen_graph(5, 3.0, 9)),
        lambda: build_min_plus_square_cell(4),
        lambda: build_csp_network(4, 5, 2.5),
        lambda: build_tsp_network(5),
    ],
    ids=["dp", "fptas", "unfold_dp", "lcs", "bellman_ford", "apsp", "csp", "tsp"],
)
def test_every_construction_round_trips(build):
    assert_round_trip(build())


grid = st.integers(-(2**30), 2**30).map(lambda k: k * 2.0**-26)


@st.composite
def layered_networks(draw):
    """Random layered networks with skip arcs, zero and repeated arcs and grid biases."""
    sizes = [draw(st.integers(1, 4)), *draw(st.lists(st.integers(0, 4), max_size=3)), draw(st.integers(1, 3))]
    filled = [l for l, n in enumerate(sizes) if n]
    weight = st.one_of(st.sampled_from([0.0, -0.0]), grid)
    arcs = []
    for _ in range(draw(st.integers(0, 12))):
        tl = draw(st.sampled_from(filled[1:]))
        sl = draw(st.sampled_from([l for l in filled if l < tl]))
        arc = (sl, draw(st.integers(0, sizes[sl] - 1)), tl, draw(st.integers(0, sizes[tl] - 1)))
        arcs += [(*arc, draw(weight)) for _ in range(draw(st.integers(1, 2)))]
    neurons = [(l, i) for l in range(1, len(sizes)) for i in range(sizes[l])]
    biased = draw(st.lists(st.sampled_from(neurons), unique=True))
    return ReluNetwork(sizes, arcs, [(l, i, draw(grid)) for l, i in biased])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(layered_networks())
def test_random_networks_round_trip(net):
    assert_round_trip(net)


def test_empty_arc_list_loads():
    net = ReluNetwork.from_json_dict({"layers": [1, 1], "arcs": []})
    assert net.num_arcs == 0 and net.evaluate([5.0])[0] == 0.0


ARC = [0, 0, 1, 0, 1.0]


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param({"layers": [1, 1], "arcs": [[0, 0.5, 1, 0, 1.0]]}, id="fractional-neuron-index"),
        pytest.param({"layers": [2, 1], "arcs": [[0.5, 0, 1, 0, 1.0]]}, id="fractional-layer-index"),
        pytest.param({"layers": [2.5, 1], "arcs": [ARC]}, id="fractional-layer-size"),
        pytest.param({"layers": ["1", 1], "arcs": [ARC]}, id="string-layer-size"),
        pytest.param({"layers": [1, 1], "arcs": [[0, "0", 1, 0, 1.0]]}, id="string-index"),
        pytest.param({"layers": [1, 1], "arcs": [[0, 0, 1, 0, "1"]]}, id="string-weight"),
        pytest.param({"layers": [1, 1], "arcs": [[0, 0, 1, 0]]}, id="four-entry-arc"),
        pytest.param({"layers": [1, 1], "arcs": [ARC, [0, 0, 1, 0]]}, id="ragged-arc-list"),
        pytest.param({"layers": [1, 1], "arcs": [[0, 0, 1, 0, 1.0, 2.0]]}, id="six-entry-arc"),
        pytest.param({"layers": [1, 1], "arcs": [ARC], "biases": [[1.5, 0, 1.0]]}, id="fractional-bias-layer"),
        pytest.param({"layers": [1, 1], "arcs": [ARC], "biases": [[1, 0]]}, id="two-entry-bias"),
        pytest.param({"layers": [1, 1], "arcs": [ARC], "biases": [[1, 0, "1"]]}, id="string-bias"),
        pytest.param({"layers": [1, 1], "arcs": [ARC], "biases": [[1, 0, 1.0], [1, 0, 2.0]]}, id="bias-listed-twice"),
        pytest.param({"layers": [1, 1], "arcs": [ARC], "biases": [[2, 0, 1.0]]}, id="bias-of-a-nonexistent-neuron"),
        pytest.param({"layers": [1, 1], "arcs": [ARC], "biases": [[0, 0, 1.0]]}, id="bias-of-an-input-neuron"),
        pytest.param({"layers": [1, 1], "arcs": [ARC], "biases": [[1, 0, math.nan]]}, id="non-finite-bias"),
        pytest.param({"layers": [1, 1], "arcs": [[0, 0, 1, 0, math.inf]]}, id="non-finite-weight"),
        pytest.param({"layers": [1, 1], "arcs": [[0, math.inf, 1, 0, 1.0]]}, id="non-finite-index"),
        pytest.param({"layers": [1, 1], "arcs": [[0, -1, 1, 0, 1.0]]}, id="negative-index"),
        pytest.param({"layers": [1, 1], "arcs": [[], []]}, id="empty-arc-rows"),
        pytest.param({"layers": [1, 1], "arcs": [ARC, None]}, id="null-arc"),
        pytest.param({"layers": [1, 1], "arcs": [[False, 0, True, 0, 1.0]]}, id="boolean-arc-indices"),
        pytest.param({"layers": [1, 1], "arcs": [ARC], "biases": [[True, 0, 2.0]]}, id="boolean-bias-layer"),
    ],
)
def test_malformed_document_is_refused(doc):
    with pytest.raises(ConstructionError):
        ReluNetwork.from_json_dict(doc)


def test_document_past_the_neuron_budget_is_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match=str(MAX_ARCS)):
            ReluNetwork.from_json_dict({"layers": [1, MAX_ARCS + 1], "arcs": []})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_networks_past_the_budget_are_refused(monkeypatch):
    monkeypatch.setattr(relu_core, "MAX_ARCS", 4)
    arcs = [[0, 0, 1, 0, 1.0], [0, 1, 1, 0, 1.0], [0, 0, 1, 1, 1.0], [0, 1, 1, 1, 1.0], [0, 0, 1, 0, 2.0]]
    assert ReluNetwork.from_json_dict({"layers": [2, 2], "arcs": arcs[:4]}).num_arcs == 4
    for doc in ({"layers": [2, 2], "arcs": arcs}, {"layers": [2, 3], "arcs": []}):
        with pytest.raises(SizeGuardError):
            ReluNetwork.from_json_dict(doc)
    assert network_from_blocks(2, [([(0, [0, 1], [0, 1], 1.0)], [0.0, 0.0])]).num_arcs == 2
    with pytest.raises(SizeGuardError):
        network_from_blocks(2, [([(0, [0, 1, 0, 1, 0], [0, 0, 1, 1, 0], 1.0)], [0.0, 0.0])])
