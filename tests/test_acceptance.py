"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion timings.  Tolerances are pinned here; generated instances
live on the 2**-26 size grid, which is what makes the "exact" criteria
attainable in double precision.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from dpnets import co_builders
from dpnets.cli import main as cli_main
from dpnets.dp_nn import build_dp_cell, dp_unfolded_input, run_recurrent, unfold_dp
from dpnets.fptas_nn import build_fptas_cell, resolution_for, run_fptas
from dpnets.instance_gen import GenConfig, SplitMix64, gen_graph, gen_knapsack, gen_sequences
from dpnets.knapsack_oracles import (
    brute_force,
    dp_table,
    optimum_value,
    subset_profiles,
)
from dpnets.verify import SuiteResult, capped_instance, probe_dp_cell, probe_fptas_cell

from conftest import instance_stream

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
STATE_TOL = 1e-9


def _report(num, ok, detail, started):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({time.perf_counter() - started:.1f}s): {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exact_solver_matches_oracles():
    started = time.perf_counter()
    cells = {}
    instances = instance_stream(100_000, 500, 1, 40, 12)
    worst = 0.0
    mismatches = 0
    for inst in instances:
        p_star = sum(inst.profits)
        if p_star not in cells:
            cells[p_star] = build_dp_cell(p_star)
        cell = cells[p_star]
        trace = run_recurrent(cell, inst)
        table = dp_table(inst, p_star)
        for i, col in enumerate(trace.table.values[1:].T):
            worst = max(worst, float(np.max(np.abs(col - table.values[1:, i]))))
        value = optimum_value(table)
        net_value = optimum_value(trace.table)
        if not (net_value == value == brute_force(inst).value):
            mismatches += 1
    ok = worst <= STATE_TOL and mismatches == 0
    _report(
        1, ok,
        f"{len(instances)} instances; max state deviation {worst:.2e} (tol 1e-9); "
        f"{mismatches} optimum mismatches vs brute force",
        started,
    )


def test_criterion_2_activation_dichotomies():
    started = time.perf_counter()
    result = SuiteResult("probes")
    dp_counts, fp_counts = {}, {}
    probe_dp_cell(build_dp_cell(12), SplitMix64(2_001), 900, result, dp_counts)
    probe_fptas_cell(build_fptas_cell(8), SplitMix64(2_002), 5_200, result, fp_counts)
    counts = {**{f"dp_{k}": v for k, v in dp_counts.items()},
              **{f"fptas_{k}": v for k, v in fp_counts.items()}}
    enough = all(v >= 10_000 for v in counts.values())
    ok = result.passed and enough
    _report(
        2, ok,
        f"probe counts {counts}; failures {result.failures} "
        f"{result.messages[:3] if result.messages else ''}",
        started,
    )


def test_criterion_3_feasibility_witnesses():
    started = time.perf_counter()
    cells = {}
    checked = 0
    missing = 0
    for k, inst in enumerate(instance_stream(300_000, 100, 2, 50, 10)):
        P = (5, 10, 25)[k % 3]
        if P not in cells:
            cells[P] = build_fptas_cell(P)
        cell = cells[P]
        table = run_fptas(cell, inst).table
        prof, size = subset_profiles(inst.profits, inst.sizes)
        for i in range(1, inst.n + 1):
            d_i = table.scaled_granularity(i)
            sub_p, sub_s = prof[: 2**i], size[: 2**i]
            for p in range(1, P + 1):
                g = table.values[p, i]
                if g <= 1.0:
                    checked += 1
                    witnessed = bool(((sub_p * P >= p * d_i) & (sub_s <= g + STATE_TOL)).any())
                    missing += not witnessed
    ok = missing == 0 and checked > 0
    _report(3, ok, f"100 instances; {checked} feasible entries, {missing} without witness", started)


def test_criterion_4_approximation_guarantee():
    started = time.perf_counter()
    epsilons = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    cells = {}
    pairs = 0
    violations = 0
    for k, inst in enumerate(instance_stream(400_000, 75, 6, 40, 6)):
        opt = brute_force(inst).value
        for eps in epsilons:
            P = resolution_for(inst.n, eps)
            if P not in cells:
                cells[P] = build_fptas_cell(P)
            cell = cells[P]
            table = run_fptas(cell, inst).table
            row = table.best_row()
            p_nn = Fraction(row * table.scaled_granularity(inst.n), P)
            pairs += 1
            if p_nn < (1 - eps) * opt:
                violations += 1

    # benchmark rows must additionally clear ratio >= 1 - n^2 / P
    csv_path = "/tmp/dpnets_acceptance_bench.csv"
    code = cli_main([
        "bench", "--seed", "41000", "--trials", "8", "--p-star", "25",
        "--epsilons", "0.25,0.5,1.0", "--max-items", "6", "--out", csv_path,
    ])
    rows = open(csv_path).read().strip().split("\n")[1:]
    bench_ok = code == 0
    for line in rows:
        seed, _eps, P, _w, _pnn, _popt, ratio = line.split(",")
        n = capped_instance(int(seed), 25, 6).n
        bench_ok &= float(ratio) >= 1 - n * n / int(P) - 1e-12
    ok = violations == 0 and pairs >= 300 and bench_ok and len(rows) == 24
    _report(
        4, ok,
        f"{pairs} (instance, eps) pairs, {violations} guarantee violations; "
        f"{len(rows)} benchmark rows clear 1 - n^2/P: {bench_ok}",
        started,
    )


def test_criterion_5_architecture_counts():
    started = time.perf_counter()
    ok = True
    for p_star in range(1, 51):
        net = build_dp_cell(p_star).net
        ok &= net.layer_sizes == (
            p_star + 2, 2 * p_star, p_star * (p_star - 1) // 2, p_star, p_star
        )
        ok &= net.depth == 4
    for P in range(1, 31):
        net = build_fptas_cell(P).net
        ok &= net.layer_sizes == (P + 3, 2, 2 * P * P + 2 * P, P * P + P, P, P + 1)
        ok &= net.depth == 5
    _report(5, ok, "layer sizes exact for p* in [1, 50] and P in [1, 30]", started)


def test_criterion_6_unfold_equivalence():
    started = time.perf_counter()
    mismatches = 0
    depth_ok = True
    for inst in instance_stream(600_000, 100, 2, 10, 5):
        p_star = sum(inst.profits)
        net = unfold_dp(p_star, inst.n)
        depth_ok &= net.depth == 4 * inst.n
        got = net.evaluate(dp_unfolded_input(inst, p_star))
        want = run_recurrent(build_dp_cell(p_star), inst).table.values[1:, -1]
        mismatches += not np.array_equal(got, want)
    ok = mismatches == 0 and depth_ok
    _report(6, ok, f"100 instances, {mismatches} mismatches (exact); depth = 4n: {depth_ok}", started)


def test_criterion_7_further_constructions_match_oracles():
    started = time.perf_counter()
    bad = []

    for t in range(100):
        pair = gen_sequences(1 + t % 12, 1 + (3 * t) % 12, 1 + t % 6, 700_000 + t)
        if co_builders.run_lcs(pair) != co_builders.lcs_length(pair.x, pair.y):
            bad.append(("lcs", t))

    for t in range(50):
        g = gen_graph(2 + t % 9, 10.0, 710_000 + t)
        diff = np.max(np.abs(co_builders.run_bellman_ford(g) - co_builders.bellman_ford_distances(g)))
        if diff > STATE_TOL:
            bad.append(("bellman-ford", t))

    for t in range(50):
        g = gen_graph(2 + t % 7, 10.0, 720_000 + t)
        diff = np.max(np.abs(co_builders.run_apsp(g) - co_builders.floyd_warshall(g.lengths)))
        if diff > STATE_TOL:
            bad.append(("apsp", t))

    for t in range(30):
        g = gen_graph(2 + t % 5, 3, 730_000 + t, with_resources=True, integer_lengths=True)
        limit = (t % 5) * 0.5 * float(np.max(g.resources))
        got = co_builders.run_csp(g, 15, limit)
        want = {
            v: (d if d is not None and d <= 15 else None)
            for v, d in co_builders.enumerate_csp_lengths(g, limit).items()
        }
        if got != want:
            bad.append(("csp", t))

    for t in range(30):
        d = gen_graph(4 + t % 5, 10.0, 740_000 + t).lengths
        if abs(co_builders.run_tsp(d) - co_builders.tsp_brute_force(d)) > STATE_TOL:
            bad.append(("tsp", t))

    _report(7, not bad, f"lcs 100, bf 50, apsp 50, csp 30, tsp 30; mismatches: {bad}", started)


def test_criterion_8_rounded_equals_exact_when_within_resolution():
    started = time.perf_counter()
    mismatches = 0
    for inst in instance_stream(800_000, 50, 2, 30, 10):
        P = sum(inst.profits)
        rounded = run_fptas(build_fptas_cell(P), inst).table
        exact = run_recurrent(build_dp_cell(P), inst)
        for i, col in enumerate(exact.table.values[1:].T):
            mismatches += not np.array_equal(rounded.values[1:, i], col)
    _report(8, mismatches == 0, f"50 instances, {mismatches} entry mismatches (exact)", started)


def test_criterion_9_reproducibility():
    started = time.perf_counter()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "dpnets.cli", "gen", "knapsack",
           "--p-star", "33", "--seed", "90001"]
    a = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    byte_identical = a == b and bool(a)

    bad_sums = 0
    for k in range(10_000):
        inst = gen_knapsack(GenConfig(910_000 + k, 2 + k % 59))
        if sum(inst.profits) != 2 + k % 59 or not (1.0 < sum(inst.sizes) < 2.0):
            bad_sums += 1
    ok = byte_identical and bad_sums == 0
    _report(
        9, ok,
        f"byte-identical across processes: {byte_identical}; "
        f"10^4 draws, {bad_sums} invariant violations",
        started,
    )
