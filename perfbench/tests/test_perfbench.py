"""Fast tests of the benchmark itself: toy-sized workloads and its checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
import worker
from dpnets import dp_nn, verify
from dpnets.knapsack_oracles import Solution

BENCH = Path(__file__).resolve().parents[1]

TOY = {
    "exact-cold": lambda: workloads.ExactCold(3, first_total=20, totals=16, items=3, rounds=2),
    "exact-small": lambda: workloads.ExactSmall(3, total=6, items=2, pool=8),
    "fptas-warm": lambda: workloads.FptasWarm(3, resolution=6, total=60, items=3, pool=4,
                                              warmup_resolution=3),
    "co-oneshot": lambda: workloads.CoOneshot(3, lcs_len=4, graph_n=4, csp_n=3, csp_c=4,
                                              tsp_n=4, unfold_total=4, unfold_items=3,
                                              pool=4),
}


@pytest.mark.parametrize("name", sorted(TOY))
def test_workload_runs_to_its_end_without_failures(name):
    wl = TOY[name]()
    result = worker.measure(wl, seconds=0.0)
    assert result["setup_errors"] == []
    assert result["errors"] == []
    assert result["failed"] == 0
    assert result["attempted"] == len(result["op_ns"]) >= wl.min_ops
    assert result["setup_s"] > 0 and all(ns > 0 for ns in result["op_ns"])


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_run_reports_every_layer_metric(name):
    wl = TOY[name]()
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = worker.measure(wl, seconds=0.0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert result["failed"] == 0
    samples = spans.layer_samples(tracer.spans, 0.1, wl.cell())
    metrics = spans.reduce_samples(samples)
    assert list(metrics) == list(spans.PER_LAYER)
    assert metrics["relu_core.evaluate_calls"]["value"] > 0
    assert 0.5 < metrics["trace.span_coverage"]["value"] <= 1.0
    if name in ("exact-cold", "exact-small"):
        assert metrics["dp_nn.build_ms"]["value"] > 0
        assert metrics["knapsack_oracles.backtrack_us"]["value"] > 0
    if name == "exact-small":
        assert metrics["relu_core.evaluate_calls"]["value"] == wl.items
        assert metrics["relu_core.layer2.neurons"]["value"] == wl.total * (wl.total - 1) // 2
    if name == "fptas-warm":
        assert metrics["fptas_nn.build_ms"]["value"] > 0
        assert metrics["relu_core.layer2.neurons"]["value"] == 2 * 6 * 6 + 2 * 6
    if name == "co-oneshot":
        for b in spans.CO_BUILDERS:
            assert metrics[f"co_builders.{b}.build_ms"]["value"] > 0
        assert metrics["relu_core.unfold_ms"]["value"] > 0
    # The wrappers are gone again.
    assert not hasattr(dp_nn.solve_exact, "__wrapped__")


def test_altered_answer_counts_as_failed():
    wl = TOY["exact-small"]()
    honest = wl.run

    def off_by_one(inp):
        sol = honest(inp)
        return Solution(sol.value + 1, sol.items, sol.total_size)

    wl.run = off_by_one
    result = worker.measure(wl, seconds=0.0)
    assert result["setup_errors"]  # the warm-up answer is checked too
    assert result["failed"] == result["attempted"] > 0


def _perturbed_output_arc(cell):
    """The cell with the arc f_in(p*) -> f_out(p*) halved: row p* turns feasible."""
    p, depth = cell.p_star, cell.net.depth
    index = cell.net.arcs.index((0, p - 1, depth, p - 1, 1.0))
    return dp_nn.DpCell(verify._perturbed(cell.net, index, -0.5), p)


def test_perturbed_network_counts_as_failed(monkeypatch):
    honest = dp_nn.build_dp_cell
    monkeypatch.setattr(dp_nn, "build_dp_cell", lambda p: _perturbed_output_arc(honest(p)))
    result = worker.measure(TOY["exact-cold"](), seconds=0.0)
    assert result["setup_errors"]
    assert result["failed"] == result["attempted"] > 0


def test_closed_forms_reject_a_wrong_size():
    assert workloads.dp_cell_closed_form(dp_nn.build_dp_cell(5).net, 5) is None
    assert workloads.dp_cell_closed_form(dp_nn.build_dp_cell(5).net, 6) is not None
    from dpnets import fptas_nn

    assert workloads.fptas_cell_closed_form(fptas_nn.build_fptas_cell(4).net, 4) is None
    assert workloads.fptas_cell_closed_form(fptas_nn.build_fptas_cell(4).net, 5) is not None


def test_command_knows_every_workload():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS) == set(TOY)
    assert [m["name"] for m in declared["per_layer"]] == list(spans.PER_LAYER)


def test_gated_timing_is_the_fastest_operation():
    results = [{"setup_s": 0.5, "peak_rss_mb": 50.0, "op_ns": [3_000_000, 2_000_000]},
               {"setup_s": 0.7, "peak_rss_mb": 52.0, "op_ns": [4_000_000, 2_500_000]}]
    metrics = run.end_to_end(results)
    assert metrics["solve_min_ms"] == {"value": 2.0, "unit": "ms"}
    assert metrics["setup_s"]["value"] == 0.6
    assert run.ungated_times(results)["solve_p50_ms"] == 2.75


def test_bit_reversed_order_is_a_permutation():
    order = workloads._bit_reversed(16)
    assert sorted(order) == list(range(16))
    assert order[:4] == [0, 8, 4, 12]


def _checkout(tmp_path, with_package):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    if with_package:
        shutil.copytree(BENCH.parent / "src" / "dpnets", tmp_path / "src" / "dpnets",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run_bench(root, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_one_result_line(tmp_path):
    root = _checkout(tmp_path, with_package=True)
    proc = _run_bench(root, "--workload", "exact-small", "--seed", "5", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_package(tmp_path):
    root = _checkout(tmp_path, with_package=False)
    proc = _run_bench(root, "--workload", "exact-small", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
