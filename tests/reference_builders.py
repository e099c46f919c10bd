"""Per-neuron reference constructions for the array-built networks.

``Affine`` expressions and the incremental ``NetworkBuilder`` describe
every network one neuron at a time, as the package once did.  The
min-gadget, co-builder and unfolding constructions below build the same
networks as ``relu_core`` and ``co_builders`` do from arrays, and the
tests require the two to agree arc for arc, in order.

``reference_compiled`` and ``reference_forward`` are the evaluator as it
was before it ran raw CSR arrays: one ``scipy.sparse.csr_matrix`` per
layer, built from COO, and ``mat.dot(v) + bias`` layer by layer.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import sparse

from dpnets.co_builders import WeightedGraph
from dpnets.errors import ConstructionError, NumericOverflowError, ShapeMismatchError, SizeGuardError
from dpnets.relu_core import ReluNetwork, check_arc_budget


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


# -- the further dynamic programs ------------------------------------------


def build_lcs_cell(value_bound: int) -> ReluNetwork:
    if value_bound < 1:
        raise ValueError("value_bound must be >= 1")
    gate = 2.0 * (value_bound + 1)
    b = NetworkBuilder(5)
    f_diag, f_up, f_left, x, y = b.input_refs()
    b.new_layer()
    eq_plus = b.relu(gate * x - gate * y)
    eq_minus = b.relu(gate * y - gate * x)
    best_old = max_pair(b, f_up, f_left)
    b.new_layer()
    match = b.relu(f_diag + 1.0 - best_old - eq_plus - eq_minus)
    return b.finish([best_old + match])


def build_bellman_ford_cell(graph: WeightedGraph) -> ReluNetwork:
    n = graph.n
    b = NetworkBuilder(n)
    f_prev = b.input_refs()
    groups = [[f_prev[u] + float(graph.lengths[u][v]) for u in range(n)] for v in range(n)]
    outs = min_reduce_many(b, groups)
    return b.finish(outs)


def build_min_plus_square_cell(n: int) -> ReluNetwork:
    if n < 2:
        raise ValueError("need at least two vertices")
    b = NetworkBuilder(n * n)
    d = b.input_refs()
    groups = [
        [d[u * n + k] + d[k * n + v] for k in range(n)]
        for u in range(n)
        for v in range(n)
    ]
    outs = min_reduce_many(b, groups)
    return b.finish(outs)


def build_csp_network(n: int, c_star: int, resource_bound: float, source: int = 0) -> ReluNetwork:
    if n < 2:
        raise ValueError("need at least two vertices")
    if c_star < 1:
        raise ValueError("c_star must be >= 1")
    if resource_bound < 0:
        raise ValueError("resource_bound must be non-negative")
    if not 0 <= source < n:
        raise ValueError("source out of range")
    if n * n * c_star * c_star > 10**8:
        raise SizeGuardError("state space too large")
    big_r = 2.0 * (n * float(resource_bound) + 1.0)
    gate = 2.0 * big_r
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    pair_pos = {uv: i for i, uv in enumerate(pairs)}

    b = NetworkBuilder(2 * len(pairs))
    refs = b.input_refs()

    def c_ref(u, v):
        return refs[pair_pos[u, v]]

    def r_ref(u, v):
        return refs[len(pairs) + pair_pos[u, v]]

    targets = [v for v in range(n) if v != source]
    b.new_layer()
    gates = {}
    for u, v in pairs:
        if v == source:
            continue
        for k in range(1, c_star + 1):
            gates[u, v, k] = (
                b.relu(gate * c_ref(u, v) - gate * k),
                b.relu(gate * k - gate * c_ref(u, v)),
            )

    f: dict = {}

    def table(c, v):
        if v == source:
            return Affine.constant(0.0)
        if c <= 0:
            return Affine.constant(big_r)
        return f[c, v]

    for c in range(1, c_star + 1):
        b.new_layer()
        hop = {}
        for v in targets:
            for u in range(n):
                if u == v:
                    continue
                kmax = min(c if u == source else c - 1, c_star)
                keeps = []
                for k in range(1, kmax + 1):
                    plus, minus = gates[u, v, k]
                    keeps.append(b.relu(big_r - table(c - k, u) - plus - minus))
                hop[u, v] = affine_sum(keeps, coeff=-1.0, const=big_r)
        groups = [
            [table(c - 1, v)]
            + [hop[u, v] + r_ref(u, v) for u in range(n) if u != v]
            + [Affine.constant(big_r)]
            for v in targets
        ]
        for v, expr in zip(targets, min_reduce_many(b, groups)):
            f[c, v] = expr

    outputs = [f[c, v] for c in range(1, c_star + 1) for v in targets]
    return b.finish(outputs)


def build_tsp_network(n: int) -> ReluNetwork:
    if n < 2:
        raise SizeGuardError("a tour needs at least two vertices")
    if n > 16:
        raise SizeGuardError(f"subset table for n = {n} > 16 is too large")
    b = NetworkBuilder(n * (n - 1))
    refs = b.input_refs()

    def c(u, v):
        return refs[u * (n - 1) + (v - 1 if v > u else v)]

    f = {}
    for v in range(1, n):
        f[1 << (v - 1), v] = c(0, v)
    for t in range(2, n):
        entries = []
        groups = []
        for combo in combinations(range(1, n), t):
            mask = 0
            for v in combo:
                mask |= 1 << (v - 1)
            for v in combo:
                prev = mask ^ (1 << (v - 1))
                entries.append((mask, v))
                groups.append([f[prev, u] + c(u, v) for u in combo if u != v])
        for key, expr in zip(entries, min_reduce_many(b, groups)):
            f[key] = expr
    full = (1 << (n - 1)) - 1
    closing = [f[full, u] + c(u, 0) for u in range(1, n)]
    tour = min_reduce_many(b, [closing])[0]
    return b.finish([tour])


# -- recurrent unfolding ---------------------------------------------------


def _layer_arcs(cell: ReluNetwork, layer: int):
    """Arrays (src_layer, src_index, dst_index, weight) of arcs into `layer`."""
    mask = cell._tl == layer
    return cell._sl[mask], cell._si[mask], cell._ti[mask], cell._w[mask]


def unfold(cell: ReluNetwork, steps: int, feedback: dict) -> ReluNetwork:
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
    layer_arcs = [_layer_arcs(cell, l) for l in range(1, k + 1)]
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


# -- assembly from blocks ------------------------------------------------------


def network_from_blocks(n_inputs: int, layers) -> ReluNetwork:
    """``relu_core.network_from_blocks`` as it assembled every layer on its own:
    the layer's blocks broadcast and concatenated, stably sorted by row, zero
    weights dropped, and the layers concatenated column by column."""
    sizes = [n_inputs]
    arcs = []
    biases = []
    for layer, (blocks, bias) in enumerate(layers, start=1):
        columns = [[np.zeros(0, dtype=np.int64)] for _ in range(4)]  # an empty piece: a layer may have no arc
        for block in blocks:
            block = [np.asarray(x) for x in block]
            k = max((x.size for x in block if x.ndim and x.size != 1), default=1)
            if not k:  # no arc, whatever dtype numpy reads the block as
                continue
            for column, x in zip(columns, block):
                column.append(x if x.shape == (k,) else np.broadcast_to(x, (k,)))
        sl, si, ti = (np.concatenate(column, dtype=np.int64) for column in columns[:3])
        w = np.concatenate(columns[3], dtype=np.float64)
        order = np.argsort(ti, kind="stable")
        order = order[w[order] != 0.0]
        arcs.append((sl[order], si[order], np.full(order.size, layer), ti[order], w[order]))
        sizes.append(len(bias))
        biases.append(np.asarray(bias, dtype=np.float64))
    sl, si, tl, ti, w = (np.concatenate(column) for column in zip(*arcs))
    return ReluNetwork._from_arrays(sizes, sl, si, tl, ti, w, biases)


# -- evaluation through scipy.sparse -----------------------------------------


def reference_offsets(net: ReluNetwork):
    return np.concatenate(([0], np.cumsum(net.layer_sizes)))


def reference_compiled(net: ReluNetwork):
    """Per-layer CSR matrix over the concatenated outputs of layers < l."""
    off = reference_offsets(net)
    cols_global = off[net._sl] + net._si
    compiled = []
    for l in range(1, len(net.layer_sizes)):
        mask = net._tl == l
        mat = sparse.csr_matrix(
            (net._w[mask], (net._ti[mask], cols_global[mask])),
            shape=(net.layer_sizes[l], int(off[l])),
        )
        compiled.append(mat)
    return compiled


def reference_forward(net: ReluNetwork, x, compiled=None, pre=None):
    """Every neuron's output, inputs first; pass `compiled` to reuse one compile.

    Pass a list as `pre` to receive each non-input layer's pre-activations,
    before the rectifier."""
    compiled = reference_compiled(net) if compiled is None else compiled
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.layer_sizes[0],):
        raise ShapeMismatchError(
            f"expected input of length {net.layer_sizes[0]}, got shape {x.shape}"
        )
    off = reference_offsets(net)
    outs = np.empty(int(off[-1]))
    outs[: net.layer_sizes[0]] = x
    k = net.depth
    for l, mat in enumerate(compiled, start=1):
        a = mat.dot(outs[: int(off[l])]) + net.biases_by_layer[l - 1]
        if pre is not None:
            pre.append(a.copy())
        if not np.all(np.isfinite(a)):
            raise NumericOverflowError(f"non-finite activation in layer {l}")
        if l < k:
            np.maximum(a, 0.0, out=a)
        outs[int(off[l]) : int(off[l + 1])] = a
    return outs
