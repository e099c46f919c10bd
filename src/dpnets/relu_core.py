"""Layered ReLU networks with forward skip connections.

The network model: a finite DAG whose neurons are grouped into layers
0..k such that every arc strictly increases the layer index.  Layer 0
holds the inputs, layer k the outputs.  A hidden neuron outputs
``max(0, bias + sum(w * o(pred)))``; an output neuron emits the raw
affine value.  Depth is k, width is the largest hidden layer, size is
the total hidden neuron count.

Networks are immutable once built and evaluation is pure and
deterministic, so instances can be shared freely across threads and
many inputs can be evaluated in parallel without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import ConstructionError, NumericOverflowError, ShapeMismatchError, SizeGuardError

__all__ = [
    "MAX_ARCS",
    "Affine",
    "NetworkBuilder",
    "NetworkStats",
    "ReluNetwork",
    "affine_sum",
    "check_arc_budget",
    "max_pair",
    "min2_gadget",
    "min_n_gadget",
    "min_pair",
    "min_reduce_many",
    "network_from_blocks",
    "unfold",
]

# Arc budget of the knapsack cells and of unfolding.  Building a knapsack
# cell and evaluating it once peaks at about 90 bytes per arc (the 8.4M
# arcs at p* = 2047 took 716 MB).  Unfolding, still built neuron by
# neuron, needs about 150 bytes per arc (measured at 1.0M arcs), about
# 1.3 GB at the budget.
MAX_ARCS = 2**23


def check_arc_budget(num_arcs: int, what: str) -> None:
    """Refuse a construction whose arc count, known before building, exceeds MAX_ARCS."""
    if num_arcs > MAX_ARCS:
        raise SizeGuardError(f"{what} would have {num_arcs} arcs, above the budget of {MAX_ARCS}")


@dataclass(frozen=True)
class NetworkStats:
    """Depth / width / size of a layered network plus its arc count."""

    depth: int
    width: int
    size: int
    num_arcs: int


class ReluNetwork:
    """Immutable sparse-arc representation of a layered ReLU network.

    Arcs are stored as an explicit list (constructions here are sparse
    relative to dense layers); the evaluator compiles one CSR matrix per
    layer over the concatenated outputs of all earlier layers.  All
    arithmetic is IEEE double precision.  The hard-coded constructions
    in this package only ever combine small integers, halves and
    input-derived values, so their evaluation is exact whenever every
    intermediate integer-valued pre-activation stays below 2**53; the
    individual builders validate their own magnitude bounds.
    """

    def __init__(self, layer_sizes, arcs, biases=()):
        """Build a network from explicit arcs.

        Parameters
        ----------
        layer_sizes:
            Neuron counts n_0..n_k per layer, k >= 1.
        arcs:
            Iterable of ``(src_layer, src_index, dst_layer, dst_index,
            weight)`` tuples.  Source layer must be strictly smaller
            than the destination layer.
        biases:
            Iterable of ``(layer, index, bias)``; neurons not listed
            get bias 0.  Input neurons carry no bias.
        """
        arcs = list(arcs)
        n = len(arcs)
        sl = np.fromiter((a[0] for a in arcs), dtype=np.int64, count=n)
        si = np.fromiter((a[1] for a in arcs), dtype=np.int64, count=n)
        tl = np.fromiter((a[2] for a in arcs), dtype=np.int64, count=n)
        ti = np.fromiter((a[3] for a in arcs), dtype=np.int64, count=n)
        w = np.fromiter((a[4] for a in arcs), dtype=np.float64, count=n)
        sizes = tuple(int(s) for s in layer_sizes)
        bias_arrays = [np.zeros(sz) for sz in sizes[1:]]
        for layer, idx, b in biases:
            if not 1 <= layer < len(sizes) or not 0 <= idx < sizes[layer]:
                raise ConstructionError(f"bias for nonexistent neuron ({layer}, {idx})")
            bias_arrays[layer - 1][idx] = b
        self._init_from_arrays(sizes, sl, si, tl, ti, w, bias_arrays)

    @classmethod
    def _from_arrays(cls, layer_sizes, sl, si, tl, ti, w, bias_arrays):
        net = cls.__new__(cls)
        net._init_from_arrays(tuple(layer_sizes), sl, si, tl, ti, w, bias_arrays)
        return net

    def _init_from_arrays(self, sizes, sl, si, tl, ti, w, bias_arrays):
        if len(sizes) < 2:
            raise ConstructionError("a network needs an input and an output layer")
        if any(s < 0 for s in sizes):
            raise ConstructionError("negative layer size")
        if sizes[0] < 1 or sizes[-1] < 1:
            raise ConstructionError("input and output layers must be non-empty")
        k = len(sizes) - 1
        sz = np.asarray(sizes, dtype=np.int64)
        if sl.size:
            if (sl >= tl).any():
                raise ConstructionError("arcs must strictly increase the layer index")
            if (sl < 0).any() or (tl > k).any():
                raise ConstructionError("arc layer out of range")
            if (si < 0).any() or (si >= sz[sl]).any() or (ti < 0).any() or (ti >= sz[tl]).any():
                raise ConstructionError("arc endpoint references a nonexistent neuron")
        if not np.all(np.isfinite(w)):
            raise ConstructionError("arc weights must be finite")
        if len(bias_arrays) != k:
            raise ConstructionError("need one bias array per non-input layer")
        for l, b in enumerate(bias_arrays, start=1):
            if b.shape != (sizes[l],):
                raise ConstructionError("bias array shape mismatch")
            if not np.all(np.isfinite(b)):
                raise ConstructionError("biases must be finite")
            b.setflags(write=False)
        for arr in (sl, si, tl, ti, w):
            arr.setflags(write=False)
        self.layer_sizes = sizes
        self._sl, self._si, self._tl, self._ti, self._w = sl, si, tl, ti, w
        self._bias_arrays = tuple(bias_arrays)

    # -- structure ---------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def width(self) -> int:
        hidden = self.layer_sizes[1:-1]
        return max(hidden) if hidden else 0

    @property
    def size(self) -> int:
        return sum(self.layer_sizes[1:-1])

    @property
    def num_arcs(self) -> int:
        return int(self._w.size)

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    def stats(self) -> NetworkStats:
        return NetworkStats(self.depth, self.width, self.size, self.num_arcs)

    @property
    def arcs(self):
        """Arcs as a list of (src_layer, src_index, dst_layer, dst_index, weight)."""
        return list(
            zip(
                self._sl.tolist(),
                self._si.tolist(),
                self._tl.tolist(),
                self._ti.tolist(),
                self._w.tolist(),
            )
        )

    @property
    def biases_by_layer(self):
        return self._bias_arrays

    def __eq__(self, other):
        if not isinstance(other, ReluNetwork):
            return NotImplemented
        return (
            self.layer_sizes == other.layer_sizes
            and np.array_equal(self._sl, other._sl)
            and np.array_equal(self._si, other._si)
            and np.array_equal(self._tl, other._tl)
            and np.array_equal(self._ti, other._ti)
            and np.array_equal(self._w, other._w)
            and all(np.array_equal(a, b) for a, b in zip(self._bias_arrays, other._bias_arrays))
        )

    def __repr__(self):
        return f"ReluNetwork(layers={self.layer_sizes}, arcs={self.num_arcs})"

    # -- evaluation --------------------------------------------------------

    @cached_property
    def _offsets(self):
        return np.concatenate(([0], np.cumsum(self.layer_sizes)))

    @cached_property
    def _compiled(self):
        """Per-layer CSR matrix over the concatenated outputs of layers < l."""
        off = self._offsets
        cols_global = off[self._sl] + self._si
        compiled = []
        for l in range(1, len(self.layer_sizes)):
            mask = self._tl == l
            mat = sparse.csr_matrix(
                (self._w[mask], (self._ti[mask], cols_global[mask])),
                shape=(self.layer_sizes[l], int(off[l])),
            )
            compiled.append(mat)
        return compiled

    def _forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.layer_sizes[0],):
            raise ShapeMismatchError(
                f"expected input of length {self.layer_sizes[0]}, got shape {x.shape}"
            )
        off = self._offsets
        outs = np.empty(int(off[-1]))
        outs[: self.layer_sizes[0]] = x
        k = self.depth
        for l, mat in enumerate(self._compiled, start=1):
            a = mat.dot(outs[: int(off[l])]) + self._bias_arrays[l - 1]
            if not np.all(np.isfinite(a)):
                raise NumericOverflowError(f"non-finite activation in layer {l}")
            if l < k:
                np.maximum(a, 0.0, out=a)
            outs[int(off[l]) : int(off[l + 1])] = a
        return outs

    def evaluate(self, x) -> np.ndarray:
        """Run the network on `x` and return the raw output activations."""
        outs = self._forward(x)
        return outs[int(self._offsets[-2]) :].copy()

    def evaluate_layers(self, x):
        """Like :meth:`evaluate` but return every layer's outputs (inputs first)."""
        outs = self._forward(x)
        off = self._offsets
        return [outs[int(off[l]) : int(off[l + 1])].copy() for l in range(len(self.layer_sizes))]

    def _layer_arcs(self, layer: int):
        """Arrays (src_layer, src_index, dst_index, weight) of arcs into `layer`."""
        mask = self._tl == layer
        return self._sl[mask], self._si[mask], self._ti[mask], self._w[mask]

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON document: {"layers": [...], "arcs": [[sl,si,tl,ti,w],...], "biases": [[l,i,b],...]}.

        Zero biases are omitted; round-tripping is bit-exact for every
        weight representable in double precision.
        """
        arcs = [
            [int(a), int(b), int(c), int(d), float(e)]
            for a, b, c, d, e in zip(self._sl, self._si, self._tl, self._ti, self._w)
        ]
        biases = []
        for l, arr in enumerate(self._bias_arrays, start=1):
            for i in np.flatnonzero(arr != 0.0):
                biases.append([l, int(i), float(arr[i])])
        return {"layers": list(self.layer_sizes), "arcs": arcs, "biases": biases}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ReluNetwork":
        return cls(doc["layers"], [tuple(a) for a in doc["arcs"]],
                   [tuple(b) for b in doc.get("biases", [])])


def network_from_blocks(n_inputs: int, layers) -> ReluNetwork:
    """Assemble a network from numpy arc blocks, layer by layer.

    ``layers`` holds one ``(blocks, bias)`` pair per non-input layer,
    the output layer last; the bias array fixes the layer's size.  A
    block is ``(src_layer, src_index, dst_index, weight)``, scalars
    broadcasting against arrays.  Arcs come neuron by neuron; arcs into
    one neuron keep the order in which the blocks list them, which is
    the term order :class:`NetworkBuilder` gives the same affine
    expressions.  Zero weights are dropped, as the builder drops them.
    """
    sizes = [n_inputs]
    arcs = []
    biases = []
    for layer, (blocks, bias) in enumerate(layers, start=1):
        parts = [np.broadcast_arrays(*map(np.atleast_1d, block)) for block in blocks]
        sl, si, ti = (np.concatenate([p[j] for p in parts], dtype=np.int64) for j in range(3))
        w = np.concatenate([p[3] for p in parts], dtype=np.float64)
        order = np.argsort(ti, kind="stable")
        order = order[w[order] != 0.0]
        arcs.append((sl[order], si[order], np.full(order.size, layer), ti[order], w[order]))
        sizes.append(len(bias))
        biases.append(np.asarray(bias, dtype=np.float64))
    # Merge column by column, freeing each column's pieces as it goes.
    columns = [list(column) for column in zip(*arcs)]
    del arcs
    sl, si, tl, ti, w = (np.concatenate(columns.pop(0)) for _ in range(5))
    return ReluNetwork._from_arrays(sizes, sl, si, tl, ti, w, biases)


class Affine:
    """An affine combination ``sum(coef * o(layer, index)) + const`` of neuron outputs.

    Used by :class:`NetworkBuilder` to describe pre-activations;
    supports +, -, and scalar multiplication.
    """

    __slots__ = ("terms", "const")

    def __init__(self, terms=None, const=0.0):
        self.terms = dict(terms) if terms else {}
        self.const = float(const)

    @classmethod
    def ref(cls, layer: int, index: int) -> "Affine":
        return cls({(layer, index): 1.0})

    @classmethod
    def constant(cls, value: float) -> "Affine":
        return cls({}, value)

    def __add__(self, other):
        if isinstance(other, Affine):
            t = dict(self.terms)
            for r, c in other.terms.items():
                t[r] = t.get(r, 0.0) + c
            return Affine(t, self.const + other.const)
        return Affine(self.terms, self.const + float(other))

    __radd__ = __add__

    def __neg__(self):
        return Affine({r: -c for r, c in self.terms.items()}, -self.const)

    def __sub__(self, other):
        if isinstance(other, Affine):
            return self + (-other)
        return Affine(self.terms, self.const - float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, scalar):
        s = float(scalar)
        return Affine({r: c * s for r, c in self.terms.items()}, self.const * s)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Affine({self.terms}, {self.const})"


def affine_sum(exprs, coeff=1.0, const=0.0) -> Affine:
    """Sum many affine expressions in one pass (avoids quadratic dict copying)."""
    terms: dict = {}
    total = float(const)
    for e in exprs:
        total += coeff * e.const
        for r, c in e.terms.items():
            terms[r] = terms.get(r, 0.0) + coeff * c
    return Affine(terms, total)


class NetworkBuilder:
    """Incremental construction of a :class:`ReluNetwork`.

    Usage: take input refs, open hidden layers with :meth:`new_layer`,
    add rectified neurons with :meth:`relu` (the argument is the
    pre-activation as an :class:`Affine` over earlier neurons), and
    close with :meth:`finish`, whose affine expressions become the raw
    output layer.  Skip connections fall out naturally: an expression
    may reference neurons from any earlier layer.
    """

    def __init__(self, n_inputs: int):
        if n_inputs < 1:
            raise ConstructionError("need at least one input")
        self._sizes = [n_inputs]
        self._sl, self._si, self._tl, self._ti, self._w = [], [], [], [], []
        self._biases = []  # one list per non-input layer
        self._done = False

    def input_refs(self):
        return [Affine.ref(0, i) for i in range(self._sizes[0])]

    def new_layer(self):
        self._sizes.append(0)
        self._biases.append([])

    def _materialize(self, layer: int, expr: Affine) -> int:
        idx = self._sizes[layer]
        self._sizes[layer] = idx + 1
        for (sl, si), coef in expr.terms.items():
            if coef == 0.0:
                continue
            if sl >= layer:
                raise ConstructionError("expression references a non-earlier layer")
            self._sl.append(sl)
            self._si.append(si)
            self._tl.append(layer)
            self._ti.append(idx)
            self._w.append(coef)
        self._biases[layer - 1].append(expr.const)
        return idx

    def relu(self, expr: Affine) -> Affine:
        """Add one rectified neuron to the current hidden layer; return its ref."""
        if self._done:
            raise ConstructionError("builder already finished")
        if len(self._sizes) < 2:
            raise ConstructionError("call new_layer() before adding neurons")
        layer = len(self._sizes) - 1
        idx = self._materialize(layer, expr)
        return Affine.ref(layer, idx)

    def finish(self, output_exprs) -> ReluNetwork:
        """Append the raw-activation output layer and build the network."""
        if self._done:
            raise ConstructionError("builder already finished")
        self._done = True
        self._sizes.append(0)
        self._biases.append([])
        layer = len(self._sizes) - 1
        for e in output_exprs:
            self._materialize(layer, e)
        n = len(self._w)
        return ReluNetwork._from_arrays(
            self._sizes,
            np.fromiter(self._sl, dtype=np.int64, count=n),
            np.fromiter(self._si, dtype=np.int64, count=n),
            np.fromiter(self._tl, dtype=np.int64, count=n),
            np.fromiter(self._ti, dtype=np.int64, count=n),
            np.fromiter(self._w, dtype=np.float64, count=n),
            [np.asarray(b, dtype=np.float64) for b in self._biases],
        )


# -- minimum gadgets -------------------------------------------------------


def min_pair(builder: NetworkBuilder, a: Affine, b: Affine) -> Affine:
    """min(a, b) = b - max(0, b - a); adds one neuron to the current layer."""
    h = builder.relu(b - a)
    return b - h


def max_pair(builder: NetworkBuilder, a: Affine, b: Affine) -> Affine:
    """max(a, b) = a + max(0, b - a); adds one neuron to the current layer."""
    h = builder.relu(b - a)
    return a + h


def min_reduce_many(builder: NetworkBuilder, groups) -> list:
    """Reduce each group of affine values to its minimum, in lockstep.

    All groups advance one pairwise-reduction round per hidden layer, so
    the builder gains ceil(log2(max group size)) layers and each group of
    g values costs g - 1 neurons.  The affine outputs of one round feed
    the next round's rectifiers directly (no relay neurons), which is what
    keeps the depth logarithmic.
    """
    groups = [list(g) for g in groups]
    while any(len(g) > 1 for g in groups):
        builder.new_layer()
        for g in groups:
            if len(g) == 1:
                continue
            nxt = [min_pair(builder, g[i], g[i + 1]) for i in range(0, len(g) - 1, 2)]
            if len(g) % 2:
                nxt.append(g[-1])
            g[:] = nxt
    return [g[0] for g in groups]


def min2_gadget() -> ReluNetwork:
    """The two-input minimum network: y = x2 - max(0, x2 - x1) = min(x1, x2).

    Depth 2, width 1, size 1; all biases zero, so the output scales
    linearly under non-negative input scaling.
    """
    return min_n_gadget(2)


def min_n_gadget(n: int) -> ReluNetwork:
    """Exact minimum of n reals as a balanced tree of pairwise minima.

    Adjacent affine maps are fused, so the hidden-layer count is
    ceil(log2(n)) and the total hidden size is n - 1.  n = 1 yields the
    identity network (depth 1).
    """
    if n < 1:
        raise ValueError("minimum of zero values is undefined")
    b = NetworkBuilder(n)
    vals = b.input_refs()
    out = min_reduce_many(b, [vals])[0]
    return b.finish([out])


# -- recurrent unfolding ---------------------------------------------------


def unfold(cell: ReluNetwork, steps: int, feedback: dict) -> ReluNetwork:
    """Unroll `steps` sequential applications of `cell` into one network.

    `feedback` maps output indices to input indices (injectively); those
    inputs receive the previous step's outputs, the remaining inputs are
    fresh per-step external inputs.  The unfolded input layout is::

        [initial values of the fed-back inputs, in increasing input order]
        + [step-1 externals, in increasing input order]
        + [step-2 externals] + ...

    and the unfolded outputs are the final step's cell outputs.

    Between steps, the fed-back outputs are materialized as rectified
    relay neurons so that every step contributes exactly `cell.depth`
    layers (unfolded depth = steps * cell depth).  The relays require the
    fed-back values to be non-negative at intermediate steps; every state
    vector in this package (truncated table values in ]0, 2], running
    profit sums) satisfies that.
    The result has at most ``steps * cell.num_arcs`` arcs (exactly that
    many when every output is fed back), checked against the budget first.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    check_arc_budget(steps * cell.num_arcs, f"unfolding {steps} steps")
    n_in, n_out = cell.n_inputs, cell.n_outputs
    pairs = sorted(feedback.items())
    out_idx = [o for o, _ in pairs]
    in_idx = [i for _, i in pairs]
    if len(set(in_idx)) != len(in_idx):
        raise ConstructionError("feedback must map outputs to distinct inputs")
    if any(not 0 <= o < n_out for o in out_idx) or any(not 0 <= i < n_in for i in in_idx):
        raise ConstructionError("feedback index out of range")
    fed_inputs = sorted(in_idx)
    fed_set = set(fed_inputs)
    ext_inputs = [i for i in range(n_in) if i not in fed_set]

    b = NetworkBuilder(len(fed_inputs) + steps * len(ext_inputs))
    refs = b.input_refs()
    state = {inp: refs[pos] for pos, inp in enumerate(fed_inputs)}
    k = cell.depth
    layer_arcs = [cell._layer_arcs(l) for l in range(1, k + 1)]
    biases = cell.biases_by_layer

    for t in range(steps):
        base = len(fed_inputs) + t * len(ext_inputs)
        in_expr = [None] * n_in
        for i in fed_inputs:
            in_expr[i] = state[i]
        for r, i in enumerate(ext_inputs):
            in_expr[i] = refs[base + r]
        layer_out = [in_expr]
        final_exprs = None
        for l in range(1, k + 1):
            n_l = cell.layer_sizes[l]
            acc_terms = [dict() for _ in range(n_l)]
            acc_const = list(biases[l - 1])
            sl, si, ti, w = layer_arcs[l - 1]
            for a in range(sl.size):
                src = layer_out[int(sl[a])][int(si[a])]
                c = float(w[a])
                d = acc_terms[int(ti[a])]
                for r, coef in src.terms.items():
                    d[r] = d.get(r, 0.0) + c * coef
                acc_const[int(ti[a])] += c * src.const
            exprs = [Affine(tm, ct) for tm, ct in zip(acc_terms, acc_const)]
            if l < k:
                b.new_layer()
                layer_out.append([b.relu(e) for e in exprs])
            else:
                final_exprs = exprs
        if t < steps - 1:
            b.new_layer()
            for o, i in pairs:
                state[i] = b.relu(final_exprs[o])
        else:
            return b.finish(final_exprs)
    raise AssertionError("unreachable")
