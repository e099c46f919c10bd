"""Hard-coded ReLU networks that execute dynamic programs.

The package builds feedforward/recurrent rectifier networks whose fixed
weights provably carry out classical dynamic programs -- the exact and
the rounded (approximation-scheme) knapsack recursions, longest common
subsequence, single-source and all-pairs shortest paths, length-indexed
constrained shortest paths, and the subset-DP traveling-salesperson
recursion -- and ships the classical oracles and property suites that
verify every construction.

The names of :mod:`dpnets.co_builders` (``dpnets.run_tsp`` and so on) load
that module on first use, so the knapsack path never compiles it.
"""

import importlib.util

from .dp_nn import DpCell, build_dp_cell, run_recurrent, solve_exact, unfold_dp
from .errors import (ConstructionError, InfeasibleTargetError, NetworkError, NumericOverflowError,
                     ShapeMismatchError, SizeGuardError)
from .fptas_nn import (
    FptasCell,
    build_fptas_cell,
    run_fptas,
    solve_approx,
    solve_with_resolution,
    width_quality_curve,
)
from .instance_gen import GenConfig, IntSequencePair, SplitMix64, WeightedGraph, gen_graph, gen_knapsack, gen_sequences
from .knapsack_oracles import (
    CAPACITY_TOL,
    DpTable,
    FptasTable,
    KnapsackInstance,
    Solution,
    backtrack,
    brute_force,
    dp_table,
    fptas_reference,
    optimum_value,
)
from .relu_core import NetworkStats, ReluNetwork, min_n_gadget, unfold

__version__ = "0.1.0"


def __getattr__(name):
    # `from . import verify` asks here before it imports the submodule, so a
    # submodule name must fail without loading co_builders.
    if importlib.util.find_spec(f"{__name__}.{name}") is None:
        co_builders = importlib.import_module(f"{__name__}.co_builders")
        if name in co_builders.__all__:
            return getattr(co_builders, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
