import json
import math
import os
import subprocess
import sys

import pytest

from dpnets import co_builders, dp_nn, fptas_nn, instance_gen
from dpnets.cli import main
from dpnets.relu_core import MAX_ARCS
from dpnets.verify import capped_instance

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"profits": [2, 3, 4], "sizes": [0.5, 0.5, 0.5]}))
    return str(path)


def test_solve_exact_report(instance_file, capsys):
    code, out, _ = run_cli(["solve-exact", "--instance", instance_file, "--verify"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 7
    assert report["items"] == [1, 2]
    assert report["oracle_match"] is True
    assert report["network"]["depth"] == 4
    assert 0 <= report["wall_time_s"]


def test_solve_exact_missing_file(capsys):
    with pytest.raises(SystemExit):
        main(["solve-exact", "--instance", "/nonexistent/file.json"])


def test_solve_exact_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"profits": [1,, 2]}')
    with pytest.raises(SystemExit) as exc:
        main(["solve-exact", "--instance", str(path)])
    assert "bad.json:1" in str(exc.value)


def test_solve_exact_non_integral_profit(tmp_path, capsys):
    path = tmp_path / "frac.json"
    path.write_text(json.dumps({"profits": [1.5], "sizes": [0.5]}))
    code, _, err = run_cli(["solve-exact", "--instance", str(path)], capsys)
    assert code == 1
    assert "not integral" in err


def test_solve_fptas_exact_when_p_covers(instance_file, capsys):
    code, out, _ = run_cli(
        ["solve-fptas", "--instance", instance_file, "--capital-p", "9", "--verify"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 7.0
    assert report["ratio"] == 1.0
    assert report["cell_width"] == 2 * 81 + 18


def test_solve_fptas_epsilon_guarantee(instance_file, capsys):
    code, out, _ = run_cli(
        ["solve-fptas", "--instance", instance_file, "--epsilon", "0.5", "--verify"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["guarantee"] == 0.5
    assert report["guarantee_ok"] is True
    assert report["resolution"] == 18  # ceil(3**2 / (1/2))


def test_build_dp_stats_line(capsys, tmp_path):
    out_file = tmp_path / "net.json"
    code, out, _ = run_cli(["build", "dp", "--p-star", "5", "--out", str(out_file)], capsys)
    assert code == 0
    assert out.strip() == "depth=4 width=10 size=25"
    doc = json.loads(out_file.read_text())
    assert doc["layers"] == [7, 10, 10, 5, 5]


def test_build_fptas_depth(capsys):
    code, out, _ = run_cli(["build", "fptas", "--capital-p", "3"], capsys)
    assert code == 0
    assert out.strip().startswith("depth=5")


def test_build_tsp_guard(capped_cli):
    run = capped_cli(["build", "tsp", "--n", "20"])
    assert run.returncode == 1
    assert str(MAX_ARCS) in run.stderr


GRAPH_PARAMETERS = {
    "resource-bound-inf": (lambda: co_builders.build_csp_network(3, 2, math.inf),
                           ["build", "csp", "--n", "3", "--c-star", "2", "--resource-bound", "inf"], "resource_bound"),
    "resource-bound-nan": (lambda: co_builders.build_csp_network(3, 2, math.nan),
                           ["build", "csp", "--n", "3", "--c-star", "2", "--resource-bound", "nan"], "resource_bound"),
    "max-len-nan": (lambda: instance_gen.gen_graph(3, math.nan, 1),
                    ["gen", "graph", "--n", "3", "--seed", "1", "--max-len", "nan"], "max_len"),
    "max-len-inf": (lambda: instance_gen.gen_graph(3, math.inf, 1),
                    ["gen", "graph", "--n", "3", "--seed", "1", "--max-len", "inf"], "max_len"),
    "integer-max-len-below-1": (lambda: instance_gen.gen_graph(3, 0.5, 1, integer_lengths=True),
                                ["gen", "graph", "--n", "3", "--seed", "1", "--max-len", "0.5", "--integer-lengths"],
                                "max_len"),
}


@pytest.mark.parametrize("case", list(GRAPH_PARAMETERS))
def test_graph_parameters_refused_before_anything_is_built(case, capsys, monkeypatch):
    # unchecked, an infinite bound built every layer before "arc weights must be finite"
    def refuse(*args, **kwargs):
        raise AssertionError("started building before the parameter was checked")

    monkeypatch.setattr(co_builders, "check_arc_budget", refuse)
    monkeypatch.setattr(instance_gen, "SplitMix64", refuse)
    call, args, name = GRAPH_PARAMETERS[case]
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()
    code, out, err = run_cli(args, capsys)
    assert code == 1 and not out
    assert err.startswith(f"error: {name} must be") and err.count("\n") == 1


def test_gen_deterministic_and_valid(capsys):
    code, out1, _ = run_cli(["gen", "knapsack", "--p-star", "20", "--seed", "7"], capsys)
    assert code == 0
    code, out2, _ = run_cli(["gen", "knapsack", "--p-star", "20", "--seed", "7"], capsys)
    assert out1 == out2
    doc = json.loads(out1)
    assert sum(doc["profits"]) == 20


def test_gen_byte_identical_across_processes():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "dpnets.cli", "gen", "knapsack", "--p-star", "25", "--seed", "99"]
    a = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
    assert a == b and a


def test_bench_csv_shape(capsys, tmp_path):
    out_file = tmp_path / "bench.csv"
    code, out, _ = run_cli(
        ["bench", "--seed", "5", "--trials", "2", "--p-star", "20",
         "--epsilons", "0.5,1.0", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "seed,epsilon,P,width,p_nn,p_opt,ratio"
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        cols = line.split(",")
        assert len(cols) == 7
        eps_num, eps_den = (cols[1].split("/") + ["1"])[:2]
        bound = 1.0 - float(eps_num) / float(eps_den)
        assert float(cols[6]) >= bound - 1e-12


@pytest.mark.parametrize("command", [["solve-exact"], ["solve-fptas", "--capital-p", "2"]])
def test_verify_refuses_instances_past_brute_force(command, tmp_path, capsys, monkeypatch):
    # the refusal comes before any network is built or run
    def refuse(*args):
        raise AssertionError("solved before the oracle refused")

    monkeypatch.setattr(dp_nn, "solve_exact", refuse)
    monkeypatch.setattr(fptas_nn, "solve_with_resolution", refuse)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"profits": [1] * 26, "sizes": [0.5] * 26}))
    code, out, err = run_cli([*command, "--instance", str(path), "--verify"], capsys)
    assert code == 1 and not out
    assert err == "error: brute force refuses n = 26 > 25\n"


def test_bench_guard(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--max-items", "30"])


@pytest.mark.parametrize("command", [["verify", "--kind", "co"], ["bench"]], ids=lambda c: c[0])
def test_a_run_of_no_trials_is_refused(command, tmp_path, capsys):
    # unchecked, verify reported "0/0 checks passed" and bench wrote a header-only CSV, both exiting 0
    out_file = tmp_path / "out.csv"
    for trials in ("0", "-1"):
        extra = ["--out", str(out_file)] if command == ["bench"] else []
        with pytest.raises(SystemExit) as exc:
            main([*command, "--trials", trials, *extra])
        assert exc.value.code == f"error: --trials must be at least 1, not {trials}"
    assert capsys.readouterr().out == "" and not out_file.exists()


def test_bench_refuses_unreachable_item_cap(capsys):
    code, out, err = run_cli(["bench", "--max-items", "1", "--trials", "1", "--p-star", "30"], capsys)
    assert code == 1
    assert err.startswith("error:") and not out
    assert capped_instance(5, 1, 1).n == 1


def test_solve_exact_refuses_p_star_below_optimum(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"profits": [5, 6, 7, 8], "sizes": [0.2, 0.2, 0.2, 0.9]}))
    code, out, err = run_cli(["solve-exact", "--instance", str(path), "--p-star", "4"], capsys)
    assert code == 1
    assert err.startswith("error:") and not out


def test_solve_fptas_refuses_resolution_over_budget(instance_file, capsys):
    code, out, err = run_cli(["solve-fptas", "--instance", instance_file, "--capital-p", "4000"], capsys)
    assert code == 1
    assert err.startswith("error:") and not out


def test_verify_passes(capsys):
    code, out, _ = run_cli(["verify", "--trials", "4", "--seed", "3"], capsys)
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["passed"] is True
    assert set(summary["suites"]) == {"relu", "dp", "fptas", "co", "gen"}


def test_verify_inject_fault_fails(capsys):
    code, out, _ = run_cli(
        ["verify", "--kind", "dp", "--trials", "4", "--seed", "3", "--inject-fault"],
        capsys,
    )
    assert code == 1
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["passed"] is False


def test_reports_identical_for_identical_seeds(instance_file, capsys):
    code, out1, _ = run_cli(["solve-exact", "--instance", instance_file], capsys)
    code, out2, _ = run_cli(["solve-exact", "--instance", instance_file], capsys)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert r1 == r2
