"""Hard-coded ReLU networks that execute dynamic programs.

The package builds feedforward/recurrent rectifier networks whose fixed
weights provably carry out classical dynamic programs -- the exact and
the rounded (approximation-scheme) knapsack recursions, longest common
subsequence, single-source and all-pairs shortest paths, length-indexed
constrained shortest paths, and the subset-DP traveling-salesperson
recursion -- and ships the classical oracles and property suites that
verify every construction.
"""

from .co_builders import (
    IntSequencePair,
    WeightedGraph,
    bellman_ford_distances,
    build_bellman_ford_cell,
    build_csp_network,
    build_lcs_cell,
    build_min_plus_square_cell,
    build_tsp_network,
    enumerate_csp_lengths,
    floyd_warshall,
    lcs_length,
    run_apsp,
    run_bellman_ford,
    run_csp,
    run_lcs,
    run_tsp,
    tsp_brute_force,
)
from .dp_nn import DpCell, build_dp_cell, run_recurrent, solve_exact, unfold_dp
from .errors import (
    ConstructionError,
    InfeasibleTargetError,
    NetworkError,
    NumericOverflowError,
    ShapeMismatchError,
    SizeGuardError,
)
from .fptas_nn import (
    FptasCell,
    build_fptas_cell,
    run_fptas,
    solve_approx,
    solve_with_resolution,
    width_quality_curve,
)
from .instance_gen import GenConfig, SplitMix64, gen_graph, gen_knapsack, gen_sequences
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
from .relu_core import (
    NetworkStats,
    ReluNetwork,
    min2_gadget,
    min_n_gadget,
    unfold,
)

__version__ = "0.1.0"
