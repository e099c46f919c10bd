"""Each cell's check_layers must catch a fault in any of its layers."""

import numpy as np
import pytest

from dpnets.dp_nn import DpCell, build_dp_cell
from dpnets.fptas_nn import FptasCell, build_fptas_cell
from dpnets.instance_gen import SplitMix64
from dpnets.verify import SuiteResult, _perturbed, probe_dp_cell, probe_fptas_cell

# layer: (source neuron, target neuron, the invariant that reads the layer),
# neurons as (layer, index).  The exact cell is p* = 6, the rounded one P = 5.
DP_FAULTS = {
    1: ((0, 6), (1, 0), "gates"),  # p_in -> gate+(1)
    2: ((0, 0), (2, 0), "selection"),  # f_in(1) -> selector (2, 1)
    3: ((0, 0), (3, 0), "min_helper"),  # f_in(1) -> helper(1)
    4: ((0, 0), (4, 0), "minimum"),  # f_in(1) -> f_out(1)
}
FPTAS_FAULTS = {
    1: ((0, 5), (1, 0), "granularity"),  # total_in -> gate_old
    2: ((0, 6), (2, 31), "take_gates"),  # p_in -> take+(2, 1), which is 0 at p2 = 1 without rounding
    3: ((0, 0), (3, 0), "selected"),  # g_in(1) -> skip keep (1, 1)
    # layer 4 (the minimum helpers) has no check of its own: the output minimum reads it
    4: ((3, 0), (4, 0), "minimum"),  # skip keep (1, 1) -> helper(1)
    5: ((4, 0), (5, 0), "minimum"),  # helper(1) -> g_out(1)
}


def arc_index(net, source, target):
    hit = (net._sl == source[0]) & (net._si == source[1]) & (net._tl == target[0]) & (net._ti == target[1])
    (index,) = np.flatnonzero(hit)
    return int(index)


def first_failure(cell, probe):
    result = SuiteResult("mutant")
    probe(cell, SplitMix64(9), 40, result)
    assert not result.passed
    return result.messages[0]


@pytest.mark.parametrize("layer", sorted(DP_FAULTS))
def test_exact_cell_fault_is_named(layer):
    source, target, invariant = DP_FAULTS[layer]
    assert target[0] == layer
    cell = build_dp_cell(6)
    mutant = DpCell(_perturbed(cell.net, arc_index(cell.net, source, target), 0.5), 6)
    assert first_failure(mutant, probe_dp_cell).startswith(invariant + " ")


@pytest.mark.parametrize("layer", sorted(FPTAS_FAULTS))
def test_rounded_cell_fault_is_named(layer):
    source, target, invariant = FPTAS_FAULTS[layer]
    assert target[0] == layer
    cell = build_fptas_cell(5)
    net = _perturbed(cell.net, arc_index(cell.net, source, target), 0.5)
    mutant = FptasCell(net, 5)
    assert first_failure(mutant, probe_fptas_cell).startswith(invariant + " ")


def test_every_layer_is_faulted():
    assert sorted(DP_FAULTS) == list(range(1, build_dp_cell(6).net.depth + 1))
    assert sorted(FPTAS_FAULTS) == list(range(1, build_fptas_cell(5).net.depth + 1))
