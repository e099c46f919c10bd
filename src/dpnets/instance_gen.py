"""Deterministic random instances, and the graph and sequence-pair types they come in.

All randomness flows through SplitMix64, a tiny 64-bit generator with a
fixed published algorithm, so that identical seeds reproduce instances
bit-for-bit on any platform and in any language.  Real-valued draws are
quantized to the grid 2**-26 (about 1.5e-8, comfortably above the 1e-9
feasibility slack): on that grid every subset sum and path length that
the constructions ever form is exactly representable in double
precision, which lets the test suites compare networks against oracles
with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError
from .knapsack_oracles import KnapsackInstance, integer_value, json_fields, json_list, number_value

__all__ = [
    "GRID_QUANTUM",
    "GenConfig",
    "IntSequencePair",
    "SplitMix64",
    "WeightedGraph",
    "gen_graph",
    "gen_knapsack",
    "gen_sequences",
]

GRID_QUANTUM = 2.0**-26
_GRID_STEPS = 2**26
_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: state += 0x9E3779B97F4A7C15; output = xor-shift mix.

    Constants and shifts follow the reference implementation
    (Steele/Lea/Vigna); the first outputs for seed 0 are frozen in the
    test suite as a cross-implementation regression anchor.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive; unbiased via rejection."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_uint64()
            if u < limit:
                return lo + u % span

    def shuffle(self, xs: list):
        """In-place Fisher-Yates shuffle."""
        for i in range(len(xs) - 1, 0, -1):
            j = self.randint(0, i)
            xs[i], xs[j] = xs[j], xs[i]


def _quantize(x: float) -> float:
    """Snap to the 2**-26 grid (round half to even, like the float itself)."""
    return round(x * _GRID_STEPS) * GRID_QUANTUM


def _quantize_unit(x: float) -> float:
    """Snap to the grid and clamp into ]0, 1]."""
    k = round(x * _GRID_STEPS)
    return min(max(k, 1), _GRID_STEPS) * GRID_QUANTUM


@dataclass(frozen=True)
class GenConfig:
    """Knapsack generator configuration; the seed fully determines the output."""

    seed: int
    p_star: int

    def __post_init__(self):
        if self.p_star < 1:
            raise ValueError("p_star must be >= 1")


def gen_knapsack(cfg: GenConfig) -> KnapsackInstance:
    """Random instance whose profits sum to exactly cfg.p_star.

    Profits are drawn sequentially, each uniform on [1, remaining], until
    the sum reaches p_star, then shuffled; this mixes very profitable and
    marginal items.  Sizes are uniform [0, 1] draws rescaled so their sum
    hits a uniform target in ]1, 2[ (so not everything fits, while 2
    stands in for +inf), quantized to the 2**-26 grid.  Draws where a
    rescaled size leaves ]0, 1] are rejected and redrawn wholesale.

    A single-item instance can never have a size sum above 1, so profit
    sequences of length 1 are redrawn; for p_star = 1 (where a single
    item is the only possibility) the lone size is simply uniform ]0, 1]
    and the sum rule is vacuous.
    """
    rng = SplitMix64(cfg.seed)
    while True:
        profits = []
        remaining = cfg.p_star
        while remaining > 0:
            p = rng.randint(1, remaining)
            profits.append(p)
            remaining -= p
        if cfg.p_star == 1 or len(profits) >= 2:
            break
    rng.shuffle(profits)
    n = len(profits)

    if n == 1:
        return KnapsackInstance((profits[0],), (_quantize_unit(rng.uniform()),))

    while True:
        target = 1.0 + rng.uniform()
        if target <= 1.0:
            continue
        raw = [rng.uniform() for _ in range(n)]
        total = sum(raw)
        if total == 0.0:
            continue
        scale = target / total
        sizes = [u * scale for u in raw]
        if any(s > 1.0 or s <= 0.0 for s in sizes):
            continue
        sizes = [_quantize_unit(s) for s in sizes]
        if 1.0 < sum(sizes) < 2.0:
            return KnapsackInstance(tuple(profits), tuple(sizes))


def _float_matrix(rows, what: str) -> np.ndarray:
    """A read-only float copy of a matrix; ValueError on an entry that is not a number."""
    if not (isinstance(rows, np.ndarray) and rows.dtype.kind in "iuf"):
        rows = [[number_value(v, what) for v in json_list(row, f"a {what} row")]
                for row in json_list(rows, f"the {what} matrix")]
    matrix = np.array(rows, dtype=np.float64)
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class WeightedGraph:
    """Dense digraph: length matrix, optional resource matrix, source vertex.

    Each matrix is a numeric array or a list of rows of numbers; bools,
    strings and None are refused with ValueError, and fewer than two
    vertices with SizeGuardError (a ValueError)."""

    lengths: np.ndarray
    resources: np.ndarray | None = None
    source: int = 0

    def __post_init__(self):
        lengths = _float_matrix(self.lengths, "length")
        if lengths.ndim != 2 or lengths.shape[0] != lengths.shape[1]:
            raise ValueError("length matrix must be square")
        if lengths.shape[0] < 2:
            raise SizeGuardError("need at least two vertices")
        if not np.all(np.isfinite(lengths)):
            raise ValueError("lengths must be finite")
        object.__setattr__(self, "lengths", lengths)
        if self.resources is not None:
            res = _float_matrix(self.resources, "resource")
            if res.shape != lengths.shape:
                raise ValueError("resource matrix shape mismatch")
            if not np.all(np.isfinite(res)) or (res < 0).any():
                raise ValueError("resources must be finite and non-negative")
            object.__setattr__(self, "resources", res)
        object.__setattr__(self, "source", integer_value(self.source, "source"))
        if not 0 <= self.source < lengths.shape[0]:
            raise ValueError("source out of range")

    @property
    def n(self) -> int:
        return self.lengths.shape[0]

    def to_json_dict(self) -> dict:
        doc = {"n": self.n, "lengths": self.lengths.tolist(), "source": self.source}
        if self.resources is not None:
            doc["resources"] = self.resources.tolist()
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "WeightedGraph":
        (lengths,) = json_fields(doc, "graph", "lengths")
        graph = cls(lengths, doc.get("resources"), doc.get("source", 0))
        if "n" in doc and integer_value(doc["n"], "n") != graph.n:
            raise ValueError(f"the graph document's n = {doc['n']} does not match its {graph.n} rows")
        return graph


@dataclass(frozen=True)
class IntSequencePair:
    """Two finite integer sequences (the equality gates require integrality)."""

    x: tuple
    y: tuple

    def __post_init__(self):
        for name in ("x", "y"):
            entries = tuple(integer_value(v, f"{name} entry") for v in getattr(self, name))
            object.__setattr__(self, name, entries)
        if not self.x or not self.y:
            raise ValueError("sequences must be non-empty")

    @property
    def m(self) -> int:
        return len(self.x)

    @property
    def n(self) -> int:
        return len(self.y)

    def to_json_dict(self) -> dict:
        return {"x": list(self.x), "y": list(self.y)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "IntSequencePair":
        x, y = json_fields(doc, "sequence pair", "x", "y")
        return cls(tuple(json_list(x, "x")), tuple(json_list(y, "y")))


def gen_graph(
    n: int,
    max_len: float,
    seed: int,
    with_resources: bool = False,
    integer_lengths: bool = False,
) -> WeightedGraph:
    """Dense digraph with zero diagonal and uniform arc data.

    Lengths are uniform on [0, max_len] snapped to the 2**-26 grid, or
    uniform integers in [1, max_len] when `integer_lengths` is set (the
    form the length-indexed shortest-path construction requires).
    Resources, when requested, are grid-quantized uniform [0, max_len].
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    if not 0 < max_len < np.inf:
        raise ValueError(f"max_len must be finite and positive, not {max_len!r}")
    if integer_lengths and max_len < 1:
        raise ValueError(f"max_len must be at least 1 for integer lengths, not {max_len!r}")
    rng = SplitMix64(seed)

    def matrix(draw):  # row-major draws off the diagonal
        return np.array([[draw() if u != v else 0.0 for v in range(n)] for u in range(n)])

    def grid_draw():
        return _quantize(rng.uniform() * max_len)

    lengths = matrix((lambda: float(rng.randint(1, int(max_len)))) if integer_lengths else grid_draw)
    return WeightedGraph(lengths, matrix(grid_draw) if with_resources else None, source=0)


def gen_sequences(m: int, n: int, alphabet: int, seed: int) -> IntSequencePair:
    """Two integer sequences with entries uniform on [1, alphabet]."""
    if m < 1 or n < 1:
        raise ValueError("sequence lengths must be >= 1")
    if alphabet < 1:
        raise ValueError("alphabet must be >= 1")
    rng = SplitMix64(seed)
    x = tuple(rng.randint(1, alphabet) for _ in range(m))
    y = tuple(rng.randint(1, alphabet) for _ in range(n))
    return IntSequencePair(x, y)
