"""Row-parallel layer steps: the same bytes as the serial step, and the helper threads' lifecycle.

A layer of at least ``2 * MIN_PART_ARCS`` arcs runs as row ranges on
helper threads (``dpnets.row_split``).  Here MIN_PART_ARCS and the
usable CPU count are patched so that every layer of three arcs or more
splits into three ranges, and every result must equal the serial path's
and the scipy reference's, byte for byte, errors included.  The lifecycle
cases run in fresh child processes, where no earlier test has started a
helper.
"""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import reference_builders as ref
from conftest import SRC
from test_eval_engine import grid_inputs, random_json_network
from dpnets import co_builders, dp_nn, fptas_nn, relu_core, row_split
from dpnets.errors import NumericOverflowError
from dpnets.instance_gen import SplitMix64
from dpnets.relu_core import ReluNetwork

THREE_CPUS = "relu_core.MIN_PART_ARCS = 1; os.sched_getaffinity = lambda pid: {0, 1, 2}"


@pytest.fixture
def split_in_three(monkeypatch):
    """From now on, networks compiled split every layer of three arcs or more into three row ranges."""
    monkeypatch.setattr(relu_core, "MIN_PART_ARCS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


def fresh(net):
    """A copy of `net` compiled from now on: the builders cache their cells, compiled or not."""
    return ReluNetwork.from_json_dict(net.to_json_dict())


def ranges(net):
    """Each layer's row ranges, None where it runs serially."""
    return [split and split.args[0] for *_, split in net._steps]


def json_networks():
    rng = SplitMix64(29)
    return [
        (f"json-{shuffle:d}{repeat:d}-{k}", lambda doc=random_json_network(rng, shuffle, repeat): doc)
        for shuffle in (False, True)
        for repeat in (False, True)
        for k in range(4)
    ]


NETWORKS = [
    ("exact-30", lambda: dp_nn.build_dp_cell(30).net.to_json_dict()),
    ("rounded-20", lambda: fptas_nn.build_fptas_cell(20).net.to_json_dict()),
    ("csp-5-10", lambda: co_builders.build_csp_network(5, 10, 2.5).to_json_dict()),
    ("tsp-8", lambda: co_builders.build_tsp_network(8).to_json_dict()),
    *json_networks(),
]


def results(net, xs):
    """Every evaluation entry point's bytes on the inputs `xs`."""
    out = [net.evaluate(x).tobytes() for x in xs]
    out.append(net.evaluate_batch(xs).tobytes())
    out += [b"".join(a.tobytes() for a in net.evaluate_layers(x)) for x in xs]
    if net.n_outputs <= net.n_inputs:
        states, hidden = net.run(xs[0][: net.n_outputs], xs[:, net.n_outputs :], record_hidden=True)
        out += [s.tobytes() for s in states] + [b"".join(a.tobytes() for a in h) for h in hidden]
        out += [s.tobytes() for s in net.run(xs[0][: net.n_outputs], xs[:, net.n_outputs :])[0]]
    return out


@pytest.mark.parametrize("name, doc", NETWORKS, ids=[name for name, _ in NETWORKS])
def test_split_steps_give_the_serial_bytes(name, doc, monkeypatch):
    doc = json.loads(json.dumps(doc()))
    serial = ReluNetwork.from_json_dict(doc)
    assert not any(ranges(serial))
    xs = np.array(grid_inputs(serial, len(name), 4))
    want = results(serial, xs)
    monkeypatch.setattr(relu_core, "MIN_PART_ARCS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    split = ReluNetwork.from_json_dict(doc)
    # a layer of two arcs splits in two, one of three or more in three
    assert [len(r) if r else 1 for r in ranges(split)] == [min(3, max(1, c[4].size)) for c in split._compiled]
    assert results(split, xs) == want
    off = ref.reference_offsets(split)
    for x in xs:
        assert split.evaluate(x).tobytes() == ref.reference_forward(split, x)[off[-2] :].tobytes()


def test_every_range_runs_the_serial_kernel_on_its_rows(split_in_three, monkeypatch):
    net = fresh(fptas_nn.build_fptas_cell(20).net)
    calls = []
    kernel = row_split.csr_matvec

    def counted(n_row, n_col, indptr, *rest):
        calls.append((n_row, int(indptr[0]), int(indptr[n_row])))
        return kernel(n_row, n_col, indptr, *rest)

    monkeypatch.setattr(row_split, "csr_matvec", counted)
    net.evaluate(np.array(grid_inputs(net, 3, 1)[0]))
    want = []
    for (n_row, _, indptr, _, data), parts in zip(net._compiled, ranges(net)):
        # the ranges cover the layer's rows in order and share its arcs about equally
        assert parts[0][0] == 0 and parts[-1][1] == n_row
        assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
        shares = [indptr[r1] - indptr[r0] for r0, r1 in parts]
        assert max(shares) - min(shares) <= 2 * np.diff(indptr).max()
        want += [(r1 - r0, int(indptr[r0]), int(indptr[r1])) for r0, r1 in parts]
    assert sorted(calls) == sorted(want)


def overflow_cases():
    """(network, input) whose evaluation meets a non-finite value, some in a helper's rows."""
    # six hidden neurons in three ranges; the last overflows, or the fourth gives
    # a -inf that the rectifier would hide
    wide, hidden = (
        ReluNetwork([1, 6, 1], [(0, 0, 1, i, w if i == at else 1.0) for i in range(6)]
                    + [(1, i, 2, 0, 1.0) for i in range(6)])
        for at, w in ((5, 1e308), (3, -1e308))
    )
    cell = fresh(fptas_nn.build_fptas_cell(20).net)
    n = cell.n_inputs
    return [
        (wide, [1e10]),
        (hidden, [1e10]),
        (cell, [np.nan] + [1.0] * (n - 1)),
        (cell, [1.0] * (n - 1) + [np.inf]),
        (cell, [-1e308] * n),
    ]


@pytest.mark.parametrize("case", range(5))
def test_overflow_in_any_range_raises_the_serial_error(case, split_in_three):
    net, x = overflow_cases()[case]
    with pytest.raises(NumericOverflowError) as old:
        ref.reference_forward(net, x)
    message = str(old.value)
    layer = int(message.rsplit(" ", 1)[1])
    assert len(ranges(net)[layer - 1]) == 3
    good = np.ones((2, net.n_inputs))
    for run, arg in ((net.evaluate, x), (net.evaluate_layers, x), (net.evaluate_batch, np.vstack([good, [x], good]))):
        with pytest.raises(NumericOverflowError) as new:
            run(arg)
        assert str(new.value) == message
    # the helpers are free again, and a finite input gives the serial bytes
    ok = np.array(grid_inputs(net, 1, 1)[0])
    assert net.evaluate(ok).tobytes() == ref.reference_forward(net, ok)[-net.n_outputs :].tobytes()


def test_busy_helpers_leave_the_layer_to_the_caller(split_in_three):
    net = fresh(fptas_nn.build_fptas_cell(20).net)
    x = np.array(grid_inputs(net, 5, 1)[0])
    want = net.evaluate(x).tobytes()
    got = []
    with row_split._idle:  # as when another thread's split step holds the helpers
        thread = threading.Thread(target=lambda: got.append(net.evaluate(x).tobytes()))
        thread.start()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert got == [want]


# -- the helper threads, in fresh processes -------------------------------------------


def run_child(code, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=timeout, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


REPORT = (
    "def report(**extra):\n"
    "    print(json.dumps({'threads': threading.active_count(),\n"
    "                      'helpers': sum(t.name == 'dpnets-rows' for t in threading.enumerate()),\n"
    "                      'row_split': 'dpnets.row_split' in sys.modules, **extra}))\n"
)


def test_workloads_below_the_threshold_start_no_helper():
    # the sizes of the exact solves, one shared small cell and a cell per total up
    # to 111, and of the pass over the other builders
    got = run_child(
        "import json, sys, threading\n"
        "import numpy as np\n"
        "from dpnets import co_builders, dp_nn, instance_gen\n"
        "from dpnets.instance_gen import GenConfig, gen_graph, gen_sequences\n"
        + REPORT
        + "for total in (12, 96, 111):\n"
        "    dp_nn.solve_exact(instance_gen.gen_knapsack(GenConfig(total, total)))\n"
        "co_builders.run_lcs(gen_sequences(20, 20, 4, 1))\n"
        "graph = gen_graph(10, 10.0, 2)\n"
        "co_builders.run_bellman_ford(graph)\n"
        "co_builders.run_apsp(graph)\n"
        "co_builders.run_csp(gen_graph(5, 3, 3, with_resources=True, integer_lengths=True), 10, 4.0)\n"
        "co_builders.run_tsp(gen_graph(8, 10.0, 4).lengths)\n"
        "unfolded = dp_nn.unfold_dp(12, 6)\n"
        "unfolded.evaluate(np.ones(unfolded.n_inputs))\n"
        "report()\n"
    )
    assert got == {"threads": 1, "helpers": 0, "row_split": False}


def test_split_evaluations_start_fewer_helpers_than_cpus():
    got = run_child(
        "import json, os, sys, threading\n"
        "import numpy as np\n"
        "from dpnets import fptas_nn\n"
        + REPORT
        + "net = fptas_nn.build_fptas_cell(200).net\n"
        "x = np.concatenate([np.full(200, 2.0), [0.0, 1.0, 0.5]])\n"
        "for _ in range(3):\n"
        "    net.evaluate(x); net.evaluate_batch([x, x])\n"
        "report(cpus=len(os.sched_getaffinity(0)), parts=[len(s[-1].args[0]) for s in net._steps if s[-1]])\n"
    )
    cpus, parts = got.pop("cpus"), got.pop("parts")
    # at P = 200, hidden layers 2 and 3 split wherever there is more than one CPU
    assert len(parts) == (2 if cpus > 1 else 0) and max(parts, default=1) <= cpus
    assert got == {"threads": max(parts, default=1), "helpers": max(parts, default=1) - 1, "row_split": cpus > 1}
    # three CPUs: two helpers, however many layers split
    got = run_child(
        "import json, os, sys, threading\n"
        "import numpy as np\n"
        "from dpnets import fptas_nn, relu_core\n"
        + REPORT + THREE_CPUS + "\n"
        "for p in (2, 9, 20):\n"
        "    net = fptas_nn.build_fptas_cell(p).net\n"
        "    net.evaluate(np.ones(net.n_inputs)); net.evaluate_batch(np.ones((3, net.n_inputs)))\n"
        "report()\n"
    )
    assert got == {"threads": 3, "helpers": 2, "row_split": True}


def test_forked_child_starts_its_own_helpers():
    got = run_child(
        "import json, os, sys, threading, time, warnings\n"
        "import numpy as np\n"
        "from dpnets import fptas_nn, relu_core\n"
        + THREE_CPUS + "\n"
        "warnings.simplefilter('ignore', DeprecationWarning)  # fork() in a process with threads\n"
        "net = fptas_nn.build_fptas_cell(12).net\n"
        "x = np.linspace(0.0, 2.0, net.n_inputs)\n"
        "want = net.evaluate(x).tobytes()\n"
        "helpers = threading.active_count() - 1\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    ok = all(net.evaluate(x).tobytes() == want for _ in range(20))\n"
        "    os._exit(0 if ok and threading.active_count() == 3 else 1)\n"
        "deadline = time.monotonic() + 30\n"
        "while time.monotonic() < deadline:\n"
        "    done, status = os.waitpid(pid, os.WNOHANG)\n"
        "    if done:\n"
        "        break\n"
        "    time.sleep(0.01)\n"
        "else:\n"
        "    os.kill(pid, 9)\n"
        "    os.waitpid(pid, 0)\n"
        "    status = 'timed out'\n"
        "print(json.dumps({'helpers': helpers, 'status': status,\n"
        "                  'parent': net.evaluate(x).tobytes() == want}))\n"
    )
    assert got == {"helpers": 2, "status": 0, "parent": True}
