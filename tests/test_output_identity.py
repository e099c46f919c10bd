"""Golden sha256 digests of the command line's output and of co-network evaluations.

The constructions promise the same networks, arc for arc and bias for
bias, whichever way they are written, and ``verify`` promises the same
report for the same seed.  Each digest below pins one output byte for
byte: a change to an arc, its place in a neuron's list, a bias (sign of
zero included) or a check count changes it.  Update a digest only with a
change that is meant to change that output.
"""

import hashlib
import json

import numpy as np
import pytest

from dpnets import co_builders, dp_nn, instance_gen
from dpnets.cli import main
from dpnets.relu_core import min_n_gadget


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# kind and options -> digests of (stdout, the --out network JSON)
BUILDS = {
    "lcs --value-bound 12": (
        "6643e5e9338755dd8902e09fc7004b8d85484f83c3421482933b90f2c8ead3f9",
        "ce49b47239341fd79c3e722123891c325e0061bcef2335d241cb122a88394686",
    ),
    "bf --instance GRAPH": (
        "e80a9d214186b3758a5bc440e0009b6f00caef63705bd845e0af573359cbeca4",
        "375bba85b191866e5db2d234f37a4190595b3f602ab2cfe6c66cc8e834749156",
    ),
    "apsp --n 7": (
        "7550daa9e6f171d7eea2185433280fdbea8331f867bb8d20e984957cb5bc3bcc",
        "911bcca1a0e8082d7a12fd2496b130e929f17aec6598767c71a641b3f1687eb2",
    ),
    "csp --n 5 --c-star 10 --resource-bound 2.5": (
        "77ff53a1076bb599984359e84d2d0678490232b682392ac3632db796e12d77d6",
        "8d8fb213c83afeae3aeb795365cb7d38fd1a3e8bea5d91ec3a669e9e7f09b0d1",
    ),
    "csp --n 4 --c-star 6": (
        "43d002f811c159d2e5f9978a2e05a8ddc9fa196f81e4800a1f589b8273d76457",
        "1a5b4e4d343ba3f5cd83d720e27ae01128a79419d0f9f820bf99535a5fbd1c01",
    ),
    "tsp --n 7": (
        "cd9ce4b96bdb5002358244d6d288fc2b5d7d73ca61db3c8733c6efff49a16da4",
        "d721bd16a9dc32b5677b07a8ea797ecb3968460ba09661e67200036765a13cfd",
    ),
    "dp --p-star 20": (
        "04f20d2af64f359e1c9dacffc200e9e3b7745d228666dd61ef9be0baaf6f6764",
        "8bf9762b7f63f0e599820cf1b8e8e76f15f14ffb363383904b0e30e358554c12",
    ),
    "fptas --capital-p 30": (
        "f66d32e0df54df93afa73eadaf524120ed5e2c2c20989178d4762b25fbe7fe4c",
        "f55d3231de8a705035b286266eb37201aae86213955f37575e1b1f47b52aace7",
    ),
}


@pytest.mark.parametrize("build", BUILDS)
def test_build_output(build, tmp_path, capsys):
    graph = tmp_path / "graph.json"
    assert main(["gen", "graph", "--n", "8", "--seed", "3", "--out", str(graph)]) == 0
    out = tmp_path / "net.json"
    args = build.replace("GRAPH", str(graph)).split()
    assert main(["build", *args, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert (sha(stdout.encode()), sha(out.read_bytes())) == BUILDS[build]


def test_tsp_with_ten_vertices():
    # the first tour with a power-of-two cardinality tree (8 rows) and a 4-round closing tree
    net = co_builders.build_tsp_network(10)
    assert sha(json.dumps(net.to_json_dict()).encode()) == (
        "a3d9e7ba0ed3fb45efa9c85d610afc9a97abe3478e83e501df45657de3a5cd03"
    )


def test_csp_with_a_nonzero_source():
    net = co_builders.build_csp_network(5, 6, 2.5, 3)
    assert sha(json.dumps(net.to_json_dict()).encode()) == (
        "4339dc52eff54a0f2a3a0df01d0b1222b7944bfbc05e20a221a7be30d94b21d9"
    )


@pytest.mark.parametrize(
    "flags, code, digest",
    [
        ([], 0, "17eebc169b794da0ad451ee6f9c8e08abffc7191189beee3fc29f3b295438046"),
        (["--inject-fault"], 1, "9c202082d83c144c599fb18107d9c12acbcff47510a109717871d529a2ea6c42"),
    ],
)
def test_verify_output(flags, code, digest, capsys):
    assert main(["verify", "--trials", "25", "--seed", "2024", *flags]) == code
    assert sha(capsys.readouterr().out.encode()) == digest


# solve command and options -> digest of its report without ``wall_time_s``, key order kept
SOLVES = {
    "solve-exact": "ba45161f6159e722c80e22ce109a5cf0a8c13052ee8830ac8a6f08ba5cca4099",
    "solve-exact --verify": "b9c70223afb9f5643db0e67f390b96138f260d714a7c5284ada33d92112bbf2f",
    "solve-exact --p-star 30": "0a7008d9a7033e84913411d371dd8a83139e5ad89aaa26254cc79b1e94e128e1",
    "solve-fptas --epsilon 1/2 --verify": "60cb78529cd82a19580fb26ce81928d53534ddbe22362e0493485ccea772e77f",
    "solve-fptas --capital-p 12 --verify": "863eb25e10794e0e816b2228c2a25aced42dd18d3ed85ff2d3f507b014c16ae8",
}


@pytest.mark.parametrize("solve", SOLVES)
def test_solve_report(solve, tmp_path, capsys):
    instance = tmp_path / "knapsack.json"
    assert main(["gen", "knapsack", "--seed", "11", "--p-star", "40", "--out", str(instance)]) == 0
    command, *flags = solve.split()
    capsys.readouterr()
    assert main([command, "--instance", str(instance), *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["wall_time_s"]
    assert sha(json.dumps(report).encode()) == SOLVES[solve]


NETWORKS = {
    "lcs": lambda: co_builders.build_lcs_cell(9),
    "bf": lambda: co_builders.build_bellman_ford_cell(instance_gen.gen_graph(8, 10.0, 3)),
    "apsp": lambda: co_builders.build_min_plus_square_cell(9),
    "csp": lambda: co_builders.build_csp_network(5, 10, 2.5),
    "csp source 3": lambda: co_builders.build_csp_network(5, 7, 3.0, 3),
    "tsp": lambda: co_builders.build_tsp_network(8),
    "tsp 10": lambda: co_builders.build_tsp_network(10),
    "min13": lambda: min_n_gadget(13),
    "unfold": lambda: dp_nn.unfold_dp(12, 40),
}

EVALUATIONS = {
    "lcs": "9b385bc2b2f80d04475c8cb5e388b7a0f0ad21183be51e7d0358c27b324592e9",
    "bf": "8415eb5289eea62592c36e0c9079cd5d8d511b92aab8dabfb2295a3c33147183",
    "apsp": "7c5ad03b91617ac3684685d63b1e045c1de62a47b2d633aa84524dcf57bf3d5e",
    "csp": "4cc7741c6b70267cf523ea11c91b935993905dae3ba84aee8a29c08c57a90c40",
    "csp source 3": "386cb1893351a128e6f32af71132883028dfd4535a614e99aa77bb466d3321e7",
    "tsp": "436bc3926b9e2b1c99b54e18581f54fe69ac6ccf70f1f894d2143205a433c32e",
    "tsp 10": "32242173595a9523f87e7136e5185ba4ff6fbe482d485405b2afeba941a5dca2",
    "min13": "09379ec0bd801fda0d70eee2b8caa08e39ee5b028f34d2c11c3a82e03453d52d",
    "unfold": "59c14f14917d1c031253a7739325fd5646af91528e81035b265cc32453c3c962",
}


def evaluation_digests(net):
    """Digests of 16 one-by-one evaluations and of one batch of the same inputs (quarter-grid values)."""
    xs = np.round(np.random.default_rng(5).uniform(-5, 5, (16, net.n_inputs)) * 4) / 4
    return sha(b"".join(net.evaluate(x).tobytes() for x in xs)), sha(net.evaluate_batch(xs).tobytes())


@pytest.mark.parametrize("name", NETWORKS)
def test_evaluation_bytes(name):
    assert evaluation_digests(NETWORKS[name]()) == (EVALUATIONS[name],) * 2
