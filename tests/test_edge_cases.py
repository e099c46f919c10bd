"""Refusals and corner cases that no other test reaches, one parametrized case each."""

import re

import pytest

from dpnets import co_builders, dp_nn, fptas_nn
from dpnets.errors import ConstructionError, SizeGuardError
from dpnets.instance_gen import WeightedGraph
from dpnets.knapsack_oracles import KnapsackInstance, backtrack, dp_table, fptas_reference
from dpnets.relu_core import ReluNetwork
from dpnets.verify import SuiteResult

ITEMS = KnapsackInstance((2, 3), (0.5, 0.5))
PAIR = [[0, 1], [1, 0]]


def _failed_check():
    r = SuiteResult("suite")
    r.ok(False, "boom")
    return r.checks, r.failures, r.messages, r.passed


# name: (call, error type or None for a value, message or value)
CASES = {
    "lcs cell of bound 0": (lambda: co_builders.build_lcs_cell(0), ValueError, "value_bound must be >= 1"),
    "squaring cell of one vertex": (lambda: co_builders.build_min_plus_square_cell(1), ValueError,
                                    "need at least two vertices"),
    "tour network of one vertex": (lambda: co_builders.build_tsp_network(1), SizeGuardError,
                                   "a tour needs at least two vertices"),
    "relaxation on a non-zero diagonal": (lambda: co_builders.run_bellman_ford(WeightedGraph([[1, 2], [2, 0]])),
                                          ValueError, "relaxation rounds need a zero diagonal"),
    "path enumeration without resources": (lambda: co_builders.enumerate_csp_lengths(WeightedGraph(PAIR), 1.0),
                                           ValueError, "graph has no resource matrix"),
    "constrained paths over one vertex": (lambda: co_builders.build_csp_network(1, 2, 1.0), ValueError,
                                          "need at least two vertices"),
    "constrained paths with c* = 0": (lambda: co_builders.build_csp_network(3, 0, 1.0), ValueError,
                                      "c_star must be >= 1"),
    "constrained paths with a negative bound": (lambda: co_builders.build_csp_network(3, 2, -1.0), ValueError,
                                                "non-negative"),
    "constrained paths from a missing source": (lambda: co_builders.build_csp_network(3, 2, 1.0, 3), ValueError,
                                                "source out of range"),
    "resource matrix of another shape": (lambda: WeightedGraph(PAIR, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
                                         ValueError, "resource matrix shape mismatch"),
    "knapsack of unequal lengths": (lambda: KnapsackInstance((1, 2), (0.5,)), ValueError,
                                    "profits and sizes must have equal length"),
    "rounded cell at P = 0": (lambda: fptas_nn.build_fptas_cell(0), ValueError, "resolution must be >= 1"),
    "rounded reference at P = 0": (lambda: fptas_reference(ITEMS, 0), ValueError, "resolution must be >= 1"),
    "unfolding of no step": (lambda: dp_nn.unfold_dp(5, 0), ValueError, "need at least one step"),
    "backtrack from row 0": (lambda: backtrack(dp_table(ITEMS, 5), ITEMS, 0), ValueError,
                             "target row 0 outside [1, 5]"),
    "network without inputs": (lambda: ReluNetwork([0, 1], []), ConstructionError,
                               "input and output layers must be non-empty"),
    "arc into a missing layer": (lambda: ReluNetwork([2, 1], [(0, 0, 5, 0, 1.0)]), ConstructionError,
                                 "arc layer out of range"),
    "rounded solve with no feasible row": (
        lambda: fptas_nn.solve_with_resolution(KnapsackInstance((5, 5), (0.6, 0.6)), 1).value, None, 0.0),
    "a failed suite check": (_failed_check, None, (1, 1, ["boom"], False)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_rarely_reached_path(case):
    call, error, want = CASES[case]
    if error is None:
        assert call() == want
    else:
        with pytest.raises(error, match=re.escape(want)):
            call()
