"""Start-up: what a fresh process imports.

`relu_core` loads scipy's CSR kernels without importing ``scipy.sparse``:
a fresh process loads ``scipy.sparse._sparsetools`` from its file; one that
has already imported ``scipy.sparse``, or cannot load the file, takes the
normal import.  Both paths must bind the same C functions and give the same
bytes.  The knapsack path leaves ``co_builders`` unloaded until one of its
names is used.  Each case runs in a fresh child process, where nothing
imported earlier decides the path.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import SRC

# Digests of what each path computes: each network's compiled arrays, its
# `evaluate` bytes on seeded grid inputs and its `evaluate_batch` bytes.
DIGESTS = """
import hashlib, json, sys
import numpy as np
from dpnets import co_builders, dp_nn, fptas_nn, relu_core
from dpnets.instance_gen import SplitMix64
from dpnets.verify import grid_values

def digest(net, seed):
    h = hashlib.sha256()
    for n_row, n_col, *arrays in net._compiled:
        h.update(f"{n_row},{n_col}".encode())
        for a in arrays:
            h.update(a.dtype.str.encode() + a.tobytes())
    rng = SplitMix64(seed)
    xs = np.array([grid_values(rng, net.n_inputs, -(2**27), 2**27) for _ in range(4)])
    for x in xs:
        h.update(net.evaluate(x).tobytes())
    h.update(net.evaluate_batch(xs).tobytes())
    return h.hexdigest()

nets = {
    "dp_cell_30": dp_nn.build_dp_cell(30).net,
    "fptas_cell_20": fptas_nn.build_fptas_cell(20).net,
    "csp_5_10": co_builders.build_csp_network(5, 10, 2.5),
    "tsp_8": co_builders.build_tsp_network(8),
}
report = {"digests": {k: digest(net, i) for i, (k, net) in enumerate(nets.items())},
          "scipy_sparse_before": "scipy.sparse" in sys.modules}
import scipy.sparse
names = ("csr_matvec", "csr_matvecs", "csr_sort_indices", "csr_sum_duplicates")
report["same_kernels"] = all(getattr(scipy.sparse._sparsetools, f) is getattr(relu_core, f) for f in names)
print(json.dumps(report))
"""

# What runs before `dpnets` is imported, for each way of loading the kernels.
PRELUDES = {
    "direct": "",
    "scipy_sparse_preloaded": "import scipy.sparse",
    "unknown_extension_suffix": "import importlib.machinery; importlib.machinery.EXTENSION_SUFFIXES[:] = ['.none.so']",
    "scipy_not_found": (
        "import importlib.util; find = importlib.util.find_spec; "
        "importlib.util.find_spec = lambda name, package=None: None if name == 'scipy' else find(name, package)"
    ),
}


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=True).stdout


def child_report(prelude):
    return json.loads(run_python(["-c", prelude + "\n" + DIGESTS]))


def test_fresh_import_leaves_scipy_sparse_out():
    out = run_python(["-c", (
        "import importlib.util, json, os, sys\n"
        "import dpnets, dpnets.cli\n"
        "from dpnets import relu_core\n"
        "sparse = os.path.join(importlib.util.find_spec('scipy').submodule_search_locations[0], 'sparse')\n"
        "print(json.dumps({'scipy_modules': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "    'dir': os.path.dirname(relu_core._kernels.__file__) == sparse,\n"
        "    'file': os.path.basename(relu_core._kernels.__file__),\n"
        "    'bound': relu_core.csr_matvec.__self__ is relu_core._kernels}))\n"
    )])
    got = json.loads(out)
    assert got["scipy_modules"] == []
    assert got["dir"] and got["file"].startswith("_sparsetools.") and got["bound"]


def test_direct_and_fallback_paths_are_byte_equal():
    direct = child_report(PRELUDES["direct"])
    assert direct["scipy_sparse_before"] is False
    assert direct["same_kernels"] is True
    for name, prelude in PRELUDES.items():
        if name != "direct":
            fallback = child_report(prelude)
            assert fallback["scipy_sparse_before"] is True, name
            assert fallback == {**direct, "scipy_sparse_before": True}, name


def test_verify_passes_on_both_paths():
    """The oracle suites as a fresh process runs them, and with the fallback taken: one report."""
    reports = []
    for preload in (False, True):
        out = run_python(["-c", ("import scipy.sparse\n" if preload else "") + (
            "import sys\n"
            "from dpnets.cli import main\n"
            f"assert ('scipy.sparse' in sys.modules) is {preload}\n"
            "sys.exit(main(['verify', '--trials', '5', '--seed', '2024']))\n"
        )])
        summary = json.loads(out.strip().split("\n")[-1])
        assert summary["passed"] is True
        assert all(s["failures"] == 0 for s in summary["suites"].values())
        reports.append(out)
    assert reports[0] == reports[1]


def test_fresh_import_starts_no_thread():
    # the row-parallel helpers and their module wait for the first layer wide enough to split
    out = run_python(["-c", (
        "import json, sys, threading\n"
        "import dpnets, dpnets.cli\n"
        "print(json.dumps({'threads': threading.active_count(),\n"
        "    'modules': [m for m in ('dpnets.row_split', 'concurrent.futures') if m in sys.modules]}))\n"
    )])
    assert json.loads(out) == {"threads": 1, "modules": []}


@pytest.mark.parametrize("statement", ["import dpnets", "import dpnets.cli", "from dpnets import verify"])
def test_knapsack_imports_leave_co_builders_out(statement):
    out = run_python(["-c", f"{statement}\nimport sys\nprint('dpnets.co_builders' in sys.modules)"])
    assert out.strip() == "False"


def test_co_names_resolve_on_first_use():
    out = run_python(["-c", (
        "import json, sys\n"
        "import dpnets\n"
        "first = dpnets.run_tsp\n"
        "loaded = 'dpnets.co_builders' in sys.modules\n"
        "from dpnets import co_builders\n"
        "print(json.dumps({'loaded': loaded, 'first': first is co_builders.run_tsp,\n"
        "    'differ': [n for n in co_builders.__all__ if getattr(dpnets, n) is not getattr(co_builders, n)],\n"
        "    'unknown': hasattr(dpnets, 'no_such_name')}))\n"
    )])
    assert json.loads(out) == {"loaded": True, "first": True, "differ": [], "unknown": False}
