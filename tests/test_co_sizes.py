"""Arc counts of the co networks, from their layouts.

``_bf_arcs``, ``_apsp_arcs``, ``_csp_arcs`` and ``_tsp_arcs`` predict a
build's arc count with integer arithmetic alone.  The builders check the
prediction against the arc budget before building anything, and against
the built count after.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpnets import co_builders
from dpnets.co_builders import (
    WeightedGraph,
    _apsp_arcs,
    _bf_arcs,
    _csp_arcs,
    _tsp_arcs,
    build_bellman_ford_cell,
    build_csp_network,
    build_min_plus_square_cell,
    build_tsp_network,
)
from dpnets.errors import SizeGuardError
from dpnets.relu_core import MAX_ARCS


@st.composite
def csp_sizes(draw):
    n = draw(st.integers(2, 6))
    return n, draw(st.integers(1, 12)), draw(st.integers(0, n - 1)), draw(st.sampled_from([0, 2.5]))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(csp_sizes())
def test_csp_count_matches_build(size):
    n, c_star, source, bound = size
    assert _csp_arcs(n, c_star, source) == build_csp_network(n, c_star, bound, source).num_arcs


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 9))
def test_tsp_count_matches_build(n):
    assert _tsp_arcs(n) == build_tsp_network(n).num_arcs


@pytest.mark.parametrize("n", range(2, 20))
def test_bellman_ford_and_apsp_counts_match_build(n):
    assert _bf_arcs(n) == build_bellman_ford_cell(WeightedGraph(np.zeros((n, n)))).num_arcs
    assert _apsp_arcs(n) == build_min_plus_square_cell(n).num_arcs


@pytest.mark.parametrize("n, bf, apsp", [(2, 8, 21), (10, 330, 5_145), (300, 355_500, 160_558_205)])
def test_bellman_ford_and_apsp_counts(n, bf, apsp):
    assert (_bf_arcs(n), _apsp_arcs(n)) == (bf, apsp)


@pytest.mark.parametrize(
    "n, c_star, source, arcs",
    [
        (4, 5, 0, 747),
        (4, 5, 3, 762),
        (5, 10, 0, 4_892),
        (5, 10, 3, 4_912),
        (5, 10, 4, 4_852),
        (6, 20, 0, 28_940),
        (8, 30, 0, 112_973),
        (10, 40, 0, 378_162),
    ],
)
def test_csp_counts(n, c_star, source, arcs):
    assert _csp_arcs(n, c_star, source) == arcs


@pytest.mark.parametrize("n, arcs", [(8, 10_380), (10, 98_194), (11, 278_320), (12, 760_620)])
def test_tsp_counts(n, arcs):
    assert _tsp_arcs(n) == arcs


def test_tsp_partial_count_passes_the_limit():
    assert _tsp_arcs(15) > _tsp_arcs(15, MAX_ARCS) > MAX_ARCS
    assert _tsp_arcs(10**6, MAX_ARCS) > MAX_ARCS  # stops after a few cardinalities


@pytest.fixture
def no_build(monkeypatch):
    """Fail any call that would start laying out or assembling a network."""

    def refuse(*args):
        raise AssertionError("the size guard let a build start")

    monkeypatch.setattr(co_builders, "network_from_blocks", refuse)
    monkeypatch.setattr(co_builders, "min_reduce_many", refuse)
    monkeypatch.setattr(co_builders, "_merge", refuse)
    monkeypatch.setattr(co_builders, "_gather", refuse)


@pytest.mark.parametrize("n", [5, 10])
def test_csp_refused_above_budget_before_building(n, no_build):
    c_star = 1
    while _csp_arcs(n, c_star, 0) <= MAX_ARCS:
        c_star += 1
    with pytest.raises(SizeGuardError):
        build_csp_network(n, c_star, 1.0)
    with pytest.raises(AssertionError, match="guard let a build start"):
        build_csp_network(n, c_star - 1, 1.0)


def test_csp_refused_far_above_budget_before_building(no_build):
    # the counts go by round, not by pair of the 2**40 + 1-row tree
    with pytest.raises(SizeGuardError):
        build_csp_network(2**40, 1, 1.0)


def test_tsp_refused_above_budget_before_building(no_build):
    n = 2
    while _tsp_arcs(n) <= MAX_ARCS:
        n += 1
    assert n == 15
    with pytest.raises(SizeGuardError):
        build_tsp_network(n)
    with pytest.raises(AssertionError, match="guard let a build start"):
        build_tsp_network(n - 1)


@pytest.mark.parametrize("count, first", [(_bf_arcs, 1452), (_apsp_arcs, 113)])
def test_first_size_over_budget(count, first):
    assert count(first - 1) <= MAX_ARCS < count(first)


def test_bellman_ford_refused_above_budget_before_building(no_build):
    with pytest.raises(SizeGuardError):
        build_bellman_ford_cell(WeightedGraph(np.zeros((1452, 1452))))
    with pytest.raises(AssertionError, match="guard let a build start"):
        build_bellman_ford_cell(WeightedGraph(np.zeros((100, 100))))


def test_apsp_refused_above_budget_before_building(no_build):
    with pytest.raises(SizeGuardError):
        build_min_plus_square_cell(113)
    with pytest.raises(AssertionError, match="guard let a build start"):
        build_min_plus_square_cell(60)


def test_cli_refuses_apsp_above_budget(capped_cli):
    # the 160M-arc build, were the guard gone
    run = capped_cli(["build", "apsp", "--n", "300"])
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.startswith("error: ") and str(MAX_ARCS) in run.stderr


def test_cli_refuses_csp_far_above_budget(capped_cli):
    run = capped_cli(["build", "csp", "--n", str(2**40), "--c-star", "1"])
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.startswith("error: ") and str(MAX_ARCS) in run.stderr
