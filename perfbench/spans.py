"""Spans around calls into each layer's public functions, and the per-layer metrics.

The tracer replaces module attributes with timing wrappers (and puts the
originals back on ``uninstall``); nothing in the package is edited.  A
span records its name, the operation it belongs to, the span that
called it, start and end, and for networks the arc count and whether
the network is new.  Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
import weakref
from collections import Counter

# (module, attribute, span name, kind).  An attribute is wrapped where the
# caller looks it up: solve_exact finds ``backtrack`` and ``unfold`` in
# dp_nn's namespace.  "build" spans record the network they return,
# "eval" spans the network they run.  Modules are imported on install, so
# the parent process can reduce samples without loading the package.
TARGETS = [
    ("relu_core", "ReluNetwork.evaluate", "relu_core.evaluate", "eval"),
    ("dp_nn", "unfold", "relu_core.unfold", "build"),
    ("dp_nn", "build_dp_cell", "dp_nn.build_dp_cell", "build"),
    ("dp_nn", "run_recurrent", "dp_nn.run_recurrent", "call"),
    ("dp_nn", "solve_exact", "dp_nn.solve_exact", "call"),
    ("dp_nn", "unfold_dp", "dp_nn.unfold_dp", "call"),
    ("dp_nn", "backtrack", "knapsack_oracles.backtrack", "call"),
    ("fptas_nn", "build_fptas_cell", "fptas_nn.build_fptas_cell", "build"),
    ("fptas_nn", "run_fptas", "fptas_nn.run_fptas", "call"),
    ("fptas_nn", "fptas_backtrack", "fptas_nn.fptas_backtrack", "call"),
    ("fptas_nn", "solve_with_resolution", "fptas_nn.solve_with_resolution", "call"),
    ("co_builders", "build_lcs_cell", "co_builders.lcs.build", "build"),
    ("co_builders", "run_lcs", "co_builders.lcs.run", "call"),
    ("co_builders", "build_bellman_ford_cell", "co_builders.bellman_ford.build", "build"),
    ("co_builders", "run_bellman_ford", "co_builders.bellman_ford.run", "call"),
    ("co_builders", "build_min_plus_square_cell", "co_builders.apsp.build", "build"),
    ("co_builders", "run_apsp", "co_builders.apsp.run", "call"),
    ("co_builders", "build_csp_network", "co_builders.csp.build", "build"),
    ("co_builders", "run_csp", "co_builders.csp.run", "call"),
    ("co_builders", "build_tsp_network", "co_builders.tsp.build", "build"),
    ("co_builders", "run_tsp", "co_builders.tsp.run", "call"),
    ("instance_gen", "gen_knapsack", "instance_gen.gen", "call"),
    ("instance_gen", "gen_graph", "instance_gen.gen", "call"),
    ("instance_gen", "gen_sequences", "instance_gen.gen", "call"),
]

CO_BUILDERS = ("lcs", "bellman_ford", "apsp", "csp", "tsp")
MAX_LAYER = 5

# name -> (unit, better); the order of BENCHMARK.json's per_layer list.
PER_LAYER = {
    "import_s": ("s", "lower"),
    "instance_gen.gen_ms": ("ms", "lower"),
    "dp_nn.build_ms": ("ms", "lower"),
    "dp_nn.build_us_per_arc": ("us", "lower"),
    "relu_core.compile_ms": ("ms", "lower"),
    "relu_core.eval_us": ("us", "lower"),
    "relu_core.eval_ns_per_arc": ("ns", "lower"),
    "relu_core.evaluate_calls": ("count", "lower"),
    "dp_nn.run_ms": ("ms", "lower"),
    "dp_nn.solve_other_us": ("us", "lower"),
    "knapsack_oracles.backtrack_us": ("us", "lower"),
    "fptas_nn.backtrack_us": ("us", "lower"),
    "fptas_nn.build_ms": ("ms", "lower"),
    "fptas_nn.build_us_per_arc": ("us", "lower"),
    "fptas_nn.run_ms": ("ms", "lower"),
    **{f"co_builders.{b}.{part}_ms": ("ms", "lower") for b in CO_BUILDERS for part in ("build", "run")},
    "relu_core.unfold_ms": ("ms", "lower"),
    **{f"relu_core.layer{l}.neurons": ("count", "lower") for l in range(MAX_LAYER + 1)},
    **{f"relu_core.layer{l}.arcs": ("count", "lower") for l in range(1, MAX_LAYER + 1)},
    "trace.op_ms": ("ms", "lower"),
    "trace.span_coverage": ("ratio", "higher"),
}


def _network_of(obj):
    """The network of a builder's result: a ReluNetwork or a cell holding one in ``net``."""
    return obj if hasattr(obj, "num_arcs") else obj.net


class Tracer:
    """Records spans while installed; ``op`` names the phase or operation."""

    def __init__(self):
        self.op = "setup"
        # (op, id, parent, name, start_ns, end_ns, net_serial, arcs, first).  Tuples of
        # atomic values drop out of the collector's view after one collection,
        # so a growing span list does not slow the collections between operations.
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._nets_seen = 0
        self._serials = {}  # id(network) -> serial, dropped when the network is collected
        self._evaluated = set()
        self._saved = []

    def install(self):
        for module, path, name, kind in TARGETS:
            owner = importlib.import_module(f"dpnets.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if not hasattr(owner, attr):
                print(f"spans: dpnets.{module}.{path} not found; {name} is not traced",
                      file=sys.stderr)
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _serial(self, net):
        key = id(net)
        serial = self._serials.get(key)
        if serial is None:
            self._nets_seen += 1
            serial = self._serials[key] = self._nets_seen
            weakref.finalize(net, self._serials.pop, key, None)
            return serial, True
        return serial, False

    def _wrap(self, fn, name, kind):
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
            serial = arcs = first = None
            if kind == "eval":
                net = args[0]
                serial, _ = tracer._serial(net)
                first = serial not in tracer._evaluated
                tracer._evaluated.add(serial)
                arcs = net.num_arcs
            elif kind == "build":
                net = _network_of(result)
                serial, first = tracer._serial(net)
                arcs = net.num_arcs
            tracer.spans.append((tracer.op, span_id, parent, name, start, end, serial, arcs, first))
            return result

        traced.__wrapped__ = fn
        return traced

    def open_op(self, op):
        """Start the span of one timed operation; returns its id."""
        self.op = op
        self._next_id += 1
        self._stack.append(self._next_id)
        return self._next_id, time.perf_counter_ns()

    def close_op(self, span_id, start):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((self.op, span_id, None, "op", start, end, None, None, None))
        self.op = "check"

    def write(self, path):
        """One JSON array per span, in completion order."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["op", "id", "parent", "name", "start_ns", "end_ns",
                                 "net", "arcs", "new"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_samples(spans, import_s: float, cell) -> dict:
    """Per-layer samples of one process, to be pooled and reduced by median.

    Timed operations have integer op ids.  Builds of new networks count
    in set-up as well as in operations (the shared cells are built in
    set-up); the warm-up and the checks are left out.
    """
    def dur(s):
        return s[5] - s[4]

    timed = [s for s in spans if isinstance(s[0], int)]
    children = Counter()
    for s in spans:
        if s[2] is not None:
            children[s[2]] += dur(s)

    def self_time(s):
        return dur(s) - children[s[1]]

    def named(name, pool=timed):
        return [s for s in pool if s[3] == name]

    out = {"import_s": [import_s]}
    out["instance_gen.gen_ms"] = [
        sum(dur(s) for s in spans if s[0] == "setup" and s[3] == "instance_gen.gen") / 1e6
    ]
    built = [s for s in spans if s[0] == "setup" or isinstance(s[0], int)]
    for key, name in (("dp_nn", "dp_nn.build_dp_cell"), ("fptas_nn", "fptas_nn.build_fptas_cell")):
        new = [s for s in named(name, built) if s[8]]
        out[f"{key}.build_ms"] = [dur(s) / 1e6 for s in new]
        out[f"{key}.build_us_per_arc"] = [dur(s) / 1e3 / s[7] for s in new if s[7]]

    evals = named("relu_core.evaluate", spans)
    timed_nets = {s[6] for s in evals if isinstance(s[0], int)}
    first, later = {}, {}
    for s in evals:
        if s[6] not in timed_nets:
            continue
        if s[8]:
            first[s[6]] = dur(s)
        else:
            later[s[6]] = min(later.get(s[6], dur(s)), dur(s))
    out["relu_core.compile_ms"] = [(first[n] - later[n]) / 1e6 for n in first if n in later]
    steady = [s for s in evals if isinstance(s[0], int) and not s[8]]
    out["relu_core.eval_us"] = [dur(s) / 1e3 for s in steady]
    out["relu_core.eval_ns_per_arc"] = [dur(s) / s[7] for s in steady if s[7]]
    per_op = Counter(s[0] for s in evals if isinstance(s[0], int))
    ops = named("op")
    out["relu_core.evaluate_calls"] = [per_op[s[0]] for s in ops]

    out["dp_nn.run_ms"] = [dur(s) / 1e6 for s in named("dp_nn.run_recurrent")]
    out["dp_nn.solve_other_us"] = [self_time(s) / 1e3 for s in named("dp_nn.solve_exact")]
    out["knapsack_oracles.backtrack_us"] = [dur(s) / 1e3 for s in named("knapsack_oracles.backtrack")]
    out["fptas_nn.backtrack_us"] = [dur(s) / 1e3 for s in named("fptas_nn.fptas_backtrack")]
    out["fptas_nn.run_ms"] = [dur(s) / 1e6 for s in named("fptas_nn.run_fptas")]
    for b in CO_BUILDERS:
        builds = named(f"co_builders.{b}.build")
        build_of = {s[2]: dur(s) for s in builds}
        out[f"co_builders.{b}.build_ms"] = [dur(s) / 1e6 for s in builds]
        out[f"co_builders.{b}.run_ms"] = [
            (dur(s) - build_of.get(s[1], 0)) / 1e6 for s in named(f"co_builders.{b}.run")
        ]
    out["relu_core.unfold_ms"] = [dur(s) / 1e6 for s in named("relu_core.unfold")]

    sizes = list(cell.layer_sizes)
    arcs_into = [0] * len(sizes)
    for arc in cell.arcs:
        arcs_into[arc[2]] += 1
    for l in range(MAX_LAYER + 1):
        out[f"relu_core.layer{l}.neurons"] = [sizes[l] if l < len(sizes) else 0]
        if l:
            out[f"relu_core.layer{l}.arcs"] = [arcs_into[l] if l < len(sizes) else 0]

    out["trace.op_ms"] = [dur(s) / 1e6 for s in ops]
    out["trace.span_coverage"] = [children[s[1]] / dur(s) for s in ops if dur(s)]
    return out


def reduce_samples(pooled: dict) -> dict:
    """Median of each metric's pooled samples; 0 where the workload never reaches the layer."""
    return {
        name: {"value": statistics.median(pooled[name]) if pooled.get(name) else 0,
               "unit": unit}
        for name, (unit, _) in PER_LAYER.items()
    }
