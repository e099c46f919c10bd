"""Batch command line: solve, build, generate, benchmark, verify.

Subcommands emit machine-readable output: JSON reports on stdout, CSV
for benchmark sweeps.  Exit status is nonzero on any validation failure
or failed assertion.  All randomness flows through the pinned generator
in :mod:`dpnets.instance_gen`; identical seeds give identical reports
(modulo the wall-time field).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import dp_nn, fptas_nn, instance_gen, verify
from .errors import NetworkError
from .knapsack_oracles import BRUTE_FORCE_MAX_ITEMS, KnapsackInstance, brute_force

__all__ = ["entry_point", "main"]


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SystemExit(f"error: no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _load_instance(path: str) -> KnapsackInstance:
    return KnapsackInstance.from_json_dict(_load_json(path))


def _digest(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _emit(report: dict, out: str | None):
    """Print the report as indented JSON, and write it to ``out`` as well when given."""
    text = json.dumps(report, indent=2) + "\n"
    _write_text(text, None)
    if out:
        _write_text(text, out)


def _write_text(text: str, out: str | None):
    """Write ``text`` to the file ``out``, or to stdout when there is none."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


# -- solve ----------------------------------------------------------------------


def cmd_solve_exact(args) -> int:
    inst = _load_instance(args.instance)
    best = brute_force(inst) if args.verify else None  # refuses a large instance before the solve
    start = time.perf_counter()
    p_star = args.p_star if args.p_star is not None else inst.total_profit
    sol = dp_nn.solve_exact(inst, p_star)
    elapsed = time.perf_counter() - start
    cell = dp_nn.build_dp_cell(p_star)
    report = {
        "command": "solve-exact",
        "instance_digest": _digest(inst.to_json_dict()),
        "p_star": p_star,
        "network": dataclasses.asdict(cell.net.stats()),
        "value": int(sol.value),
        "items": list(sol.items),
        "total_size": sol.total_size,
        "wall_time_s": elapsed,
    }
    code = 0
    if args.verify:
        report["oracle_value"] = int(best.value)
        report["oracle_match"] = best.value == sol.value
        if not report["oracle_match"]:
            code = 1
    _emit(report, args.out)
    return code


def cmd_solve_fptas(args) -> int:
    inst = _load_instance(args.instance)
    if args.capital_p is not None:
        P = args.capital_p
        eps = None
    else:
        eps = Fraction(args.epsilon)
        P = fptas_nn.resolution_for(inst.n, eps)
    best = brute_force(inst) if args.verify else None
    start = time.perf_counter()
    sol = fptas_nn.solve_with_resolution(inst, P)
    elapsed = time.perf_counter() - start
    report = {
        "command": "solve-fptas",
        "instance_digest": _digest(inst.to_json_dict()),
        "resolution": P,
        "cell_width": fptas_nn.build_fptas_cell(P).net.width,
        "value": sol.value,
        "items": list(sol.items),
        "total_size": sol.total_size,
        "wall_time_s": elapsed,
    }
    if eps is not None:
        report["epsilon"] = str(eps)
        report["guarantee"] = float(1 - eps)
    code = 0
    if args.verify:
        ratio = sol.value / best.value
        report["oracle_value"] = int(best.value)
        report["ratio"] = ratio
        if eps is not None:
            report["guarantee_ok"] = bool(ratio >= float(1 - eps) - 1e-12)
            if not report["guarantee_ok"]:
                code = 1
    _emit(report, args.out)
    return code


# -- build ----------------------------------------------------------------------


def cmd_build(args) -> int:
    from . import co_builders
    kind = args.kind
    if kind == "dp":
        net = dp_nn.build_dp_cell(_require(args.p_star, "--p-star")).net
    elif kind == "fptas":
        net = fptas_nn.build_fptas_cell(_require(args.capital_p, "--capital-p")).net
    elif kind == "lcs":
        net = co_builders.build_lcs_cell(_require(args.value_bound, "--value-bound"))
    elif kind == "bf":
        graph = instance_gen.WeightedGraph.from_json_dict(_load_json(_require(args.instance, "--instance")))
        net = co_builders.build_bellman_ford_cell(graph)
    elif kind == "apsp":
        net = co_builders.build_min_plus_square_cell(_require(args.n, "--n"))
    elif kind == "csp":
        net = co_builders.build_csp_network(_require(args.n, "--n"), _require(args.c_star, "--c-star"),
                                            args.resource_bound)
    elif kind == "tsp":
        net = co_builders.build_tsp_network(_require(args.n, "--n"))
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown kind {kind}")
    s = net.stats()
    print(f"depth={s.depth} width={s.width} size={s.size}")
    if args.out:
        _write_text(json.dumps(net.to_json_dict()) + "\n", args.out)
    return 0


def _require(value, flag):
    if value is None:
        raise SystemExit(f"error: {flag} is required for this kind")
    return value


# -- generate --------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.kind == "knapsack":
        inst = instance_gen.gen_knapsack(
            instance_gen.GenConfig(args.seed, _require(args.p_star, "--p-star"))
        )
        doc = inst.to_json_dict()
    elif args.kind == "graph":
        graph = instance_gen.gen_graph(
            _require(args.n, "--n"), args.max_len, args.seed,
            with_resources=args.resources, integer_lengths=args.integer_lengths,
        )
        doc = graph.to_json_dict()
    else:
        pair = instance_gen.gen_sequences(
            _require(args.m, "--m"), _require(args.n, "--n"), args.alphabet, args.seed
        )
        doc = pair.to_json_dict()
    _write_text(json.dumps(doc) + "\n", args.out)
    return 0


# -- benchmark --------------------------------------------------------------------


def cmd_bench(args) -> int:
    if args.trials < 1:  # no trials would check nothing and still report success
        raise SystemExit(f"error: --trials must be at least 1, not {args.trials}")
    if args.max_items > BRUTE_FORCE_MAX_ITEMS:
        raise SystemExit(f"error: --max-items above {BRUTE_FORCE_MAX_ITEMS} would defeat the oracle")
    epsilons = [Fraction(e) for e in args.epsilons.split(",")]
    lines = ["seed,epsilon,P,width,p_nn,p_opt,ratio"]
    violations = 0
    for k in range(args.trials):
        seed = args.seed + k
        inst = verify.capped_instance(seed, args.p_star, args.max_items)
        resolutions = [fptas_nn.resolution_for(inst.n, eps) for eps in epsilons]
        for eps, pt in zip(epsilons, fptas_nn.width_quality_curve(inst, resolutions)):
            if pt.ratio < float(1 - eps) - 1e-12:
                violations += 1
                print(f"error: ratio {pt.ratio} below guarantee {float(1 - eps)} "
                      f"(seed {seed}, eps {eps})", file=sys.stderr)
            lines.append(
                f"{seed},{eps},{pt.resolution},{pt.width},{pt.p_nn!r},{pt.p_opt},{pt.ratio!r}"
            )
    _write_text("\n".join(lines) + "\n", args.out)
    return 1 if violations else 0


# -- verify ------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.trials < 1:  # no trials would check nothing and still report success
        raise SystemExit(f"error: --trials must be at least 1, not {args.trials}")
    names = verify.suite_names() if args.kind == "all" else [args.kind]
    summary = {"suites": {}, "passed": True}
    for name in names:
        res = verify.run_suite(name, args.trials, args.seed, inject_fault=args.inject_fault)
        print(f"{res.name}: {res.checks - res.failures}/{res.checks} checks passed")
        for msg in res.messages[:5]:
            print(f"  failure: {msg}", file=sys.stderr)
        summary["suites"][name] = {"checks": res.checks, "failures": res.failures}
        summary["passed"] = summary["passed"] and res.passed
    print(json.dumps(summary))
    return 0 if summary["passed"] else 1


# -- entry -------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpnets",
        description="Construct, run, and verify hard-coded dynamic-programming networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-exact", help="optimal knapsack value via the exact network")
    p.add_argument("--instance", required=True, help='instance JSON {"profits": [...], "sizes": [...]}')
    p.add_argument("--p-star", type=int, default=None, help="profit bound (default: total profit)")
    p.add_argument("--verify", action="store_true", help="cross-check against brute force")
    p.add_argument("--out", default=None, help="also write the report to this file")
    p.set_defaults(fn=cmd_solve_exact)

    p = sub.add_parser("solve-fptas", help="approximate knapsack value via the rounded network")
    p.add_argument("--instance", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilon", help="quality target in ]0, 1], e.g. 0.25 or 1/4")
    group.add_argument("--capital-p", type=int, help="explicit table resolution P")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_solve_fptas)

    p = sub.add_parser("build", help="construct a network and print its stats")
    p.add_argument("kind", choices=["dp", "fptas", "lcs", "bf", "apsp", "csp", "tsp"])
    p.add_argument("--p-star", type=int, default=None)
    p.add_argument("--capital-p", type=int, default=None)
    p.add_argument("--value-bound", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--c-star", type=int, default=None)
    p.add_argument("--resource-bound", type=float, default=10.0)
    p.add_argument("--instance", default=None, help="graph JSON (for kind bf)")
    p.add_argument("--out", default=None, help="write the network JSON here")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("gen", help="emit a random instance as JSON")
    p.add_argument("kind", choices=["knapsack", "graph", "sequences"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p-star", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--max-len", type=float, default=10.0)
    p.add_argument("--alphabet", type=int, default=5)
    p.add_argument("--resources", action="store_true")
    p.add_argument("--integer-lengths", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="width-versus-quality sweep as CSV")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--p-star", type=int, default=30)
    p.add_argument("--epsilons", default="0.1,0.25,0.5,1.0")
    p.add_argument("--max-items", type=int, default=12)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("verify", help="run the oracle-equivalence property suites")
    p.add_argument("--kind", choices=["all"] + verify.suite_names(), default="all")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb one weight to confirm the harness catches it")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError, NetworkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
