"""Instance, graph and sequence documents: valid ones round-trip, malformed ones raise ValueError."""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpnets.cli import main
from dpnets.co_builders import IntSequencePair, WeightedGraph
from dpnets.errors import ConstructionError
from dpnets.knapsack_oracles import KnapsackInstance
from dpnets.relu_core import ReluNetwork

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

grid = st.integers(-(2**30), 2**30).map(lambda k: k * 2.0**-26)
unit_size = st.integers(1, 2**26).map(lambda k: k * 2.0**-26)


@st.composite
def knapsack_docs(draw):
    n = draw(st.integers(1, 6))
    profits = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    return {"profits": profits, "sizes": draw(st.lists(unit_size, min_size=n, max_size=n))}


@st.composite
def graph_docs(draw):
    n = draw(st.integers(2, 5))
    doc = {"n": n, "lengths": draw(st.lists(st.lists(grid, min_size=n, max_size=n), min_size=n, max_size=n)),
           "source": draw(st.integers(0, n - 1))}
    if draw(st.booleans()):
        resource = grid.map(abs)
        doc["resources"] = draw(st.lists(st.lists(resource, min_size=n, max_size=n), min_size=n, max_size=n))
    return doc


@st.composite
def sequence_docs(draw):
    return {"x": draw(st.lists(st.integers(1, 9), min_size=1, max_size=6)),
            "y": draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))}


KINDS = {
    # strategy, class, required keys, keys whose entries must be integers
    "knapsack": (knapsack_docs(), KnapsackInstance, ("profits", "sizes"), {"profits"}),
    "graph": (graph_docs(), WeightedGraph, ("lengths",), {"n", "source"}),
    "sequences": (sequence_docs(), IntSequencePair, ("x", "y"), {"x", "y"}),
}
kinds = st.sampled_from(sorted(KINDS))


def leaves(doc, path=()):
    """Path of every number in a document."""
    if isinstance(doc, dict):
        return [p for key, value in doc.items() for p in leaves(value, path + (key,))]
    if isinstance(doc, list):
        return [p for i, value in enumerate(doc) for p in leaves(value, path + (i,))]
    return [path]


def replaced(doc, path, value):
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@PROPERTY
@given(st.data(), kinds)
def test_valid_documents_round_trip(data, kind):
    strategy, cls, _, _ = KINDS[kind]
    doc = data.draw(strategy)
    back = cls.from_json_dict(json.loads(json.dumps(doc)))
    assert back.to_json_dict() == doc


@PROPERTY
@given(st.data(), kinds)
def test_a_bool_string_or_nan_value_is_refused(data, kind):
    strategy, cls, _, _ = KINDS[kind]
    doc = data.draw(strategy)
    path = data.draw(st.sampled_from(leaves(doc)))
    bad = data.draw(st.sampled_from([True, False, str(value_at(doc, path)), math.nan]))
    with pytest.raises(ValueError):
        cls.from_json_dict(replaced(doc, path, bad))


@PROPERTY
@given(st.data(), kinds)
def test_a_fraction_where_an_integer_belongs_is_refused(data, kind):
    strategy, cls, _, integral = KINDS[kind]
    doc = data.draw(strategy)
    path = data.draw(st.sampled_from([p for p in leaves(doc) if p[0] in integral]))
    with pytest.raises(ValueError, match="not integral"):
        cls.from_json_dict(replaced(doc, path, value_at(doc, path) + 0.5))


@PROPERTY
@given(st.data(), kinds)
def test_a_missing_required_key_is_refused(data, kind):
    strategy, cls, required, _ = KINDS[kind]
    doc = data.draw(strategy)
    key = data.draw(st.sampled_from(required))
    with pytest.raises(ValueError, match="lacks"):
        cls.from_json_dict({k: v for k, v in doc.items() if k != key})


@pytest.mark.parametrize("cls", [KnapsackInstance, WeightedGraph, IntSequencePair])
@pytest.mark.parametrize("doc", [[1, 2], "x", None, 3])
def test_a_document_that_is_not_an_object_is_refused(cls, doc):
    with pytest.raises(ValueError, match="JSON object"):
        cls.from_json_dict(doc)


@pytest.mark.parametrize(
    "doc",
    [{"profits": 2, "sizes": [0.5]}, {"profits": [2], "sizes": None}, {"profits": [2], "sizes": "0.5"}],
    ids=["number", "null", "string"],
)
def test_a_list_field_that_is_not_a_list_is_refused(doc):
    with pytest.raises(ValueError, match="must be a list"):
        KnapsackInstance.from_json_dict(doc)


def test_graph_size_must_match_its_matrix():
    with pytest.raises(ValueError, match="does not match"):
        WeightedGraph.from_json_dict({"n": 3, "lengths": [[0, 1], [1, 0]]})


@pytest.mark.parametrize("doc", [[1, 1], "{}", {"arcs": []}, {"layers": [1, 1]}],
                         ids=["list", "string", "no-layers", "no-arcs"])
def test_network_document_without_layers_or_arcs_is_refused(doc):
    with pytest.raises(ConstructionError, match="'layers' and 'arcs'"):
        ReluNetwork.from_json_dict(doc)


@pytest.mark.parametrize(
    "command, doc",
    [
        (["solve-exact"], {"profits": [1, 2], "sizes": [True, "0.25"]}),
        (["solve-exact"], {"profits": [1, 2]}),
        (["build", "bf"], {"lengths": [[0, 1], [1, 0]], "source": 0.5}),
        (["build", "bf"], {"lengths": [[0, 1], [1, 0]], "source": "0"}),
        (["build", "bf"], {"lengths": [[0, True], [False, 0]]}),
        (["build", "bf"], {"lengths": [[0, "1"], ["1", 0]]}),
    ],
    ids=["bool-and-string-sizes", "no-sizes", "fractional-source", "string-source", "bool-lengths",
         "string-lengths"],
)
def test_cli_refuses_malformed_documents(command, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([*command, "--instance", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and out == ""
