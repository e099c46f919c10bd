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

import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import accumulate, chain, groupby
from math import isfinite, sqrt

import numpy as np

from .errors import ConstructionError, NumericOverflowError, ShapeMismatchError, SizeGuardError


def _sparsetools():
    """scipy's ``scipy.sparse._sparsetools``, loaded from its file without importing ``scipy.sparse``.

    That import takes about 0.25 s (through ``numpy.f2py`` and ``numpy.testing``).  If the extension is
    already imported, or its file is missing or fails to load, the normal import runs.
    """
    name = "scipy.sparse._sparsetools"
    scipy = None if name in sys.modules else importlib.util.find_spec("scipy")
    for suffix in EXTENSION_SUFFIXES if scipy else ():
        path = os.path.join(scipy.submodule_search_locations[0], "sparse", "_sparsetools" + suffix)
        spec = importlib.util.spec_from_file_location(name, path)
        try:
            module = importlib.util.module_from_spec(spec)  # a single-phase extension files itself in sys.modules
            spec.loader.exec_module(module)
        except ImportError:  # no such file, or it fails to load
            continue
        # A later `import scipy.sparse` then binds it on the package from CPython's cache of the
        # initialised extension: the same C functions, no second initialisation.
        sys.modules.pop(name, None)
        return module
    return importlib.import_module(name)


_kernels = _sparsetools()
csr_matvec, csr_matvecs = _kernels.csr_matvec, _kernels.csr_matvecs
csr_sort_indices, csr_sum_duplicates = _kernels.csr_sort_indices, _kernels.csr_sum_duplicates

__all__ = [
    "MAX_ARCS",
    "MIN_PART_ARCS",
    "NetworkStats",
    "ReluNetwork",
    "check_arc_budget",
    "min_n_gadget",
    "min_reduce_many",
    "network_from_blocks",
    "unfold",
]

# Arc budget of every network, and its bound on neurons.  Peak memory over the
# imported package, per arc: 55 bytes to build the p* = 1024 knapsack cell
# (2.1M arcs) and evaluate it once, 49 for unfold_dp(30, 520) (1.0M arcs),
# 87 for build_csp_network(5, 200, 3.0) (1.7M arcs); 0.4-0.7 GB at the
# budget.  The budget keeps every neuron index below 2**31, which is what
# lets every network store its arcs, and compile its CSR indices, as int32.
MAX_ARCS = 2**23

# Arcs per row range of a split layer step (see _row_parts): a layer of A arcs
# runs as min(usable CPUs, A // MIN_PART_ARCS) row ranges at once, serially
# below two.  Swept on a 2-core host over 2**14..2**17, one evaluate of the
# rounded cells P = 100..240 and the exact cells p* = 150..400
# (BENCH_row_parallel_layers.json): a split pays a hand-off of 10-35 µs
# and the wake of an idle core, so 2**14, which adds splits of 33k-58k arcs,
# slowed every cell it changed, while 2**15 gave the fastest P = 200 and 240
# evaluates (at P = 200, 2**16 leaves layer 3's 120,600 arcs serial).  A cell
# whose only split layer has 65k-135k arcs (P = 115..160, p* = 210..300) ran
# up to 25% slower on the median evaluate.
MIN_PART_ARCS = 2**15

# Pre-activations proven below this need no finiteness check (see ReluNetwork._overflow_gate).
_OVERFLOW_LIMIT = 2.0**500


def check_arc_budget(num_arcs: int, what: str) -> None:
    """Refuse a construction whose arc count, known before building, exceeds MAX_ARCS.

    `num_arcs` may also be a partial count that already exceeds it.
    """
    if num_arcs > MAX_ARCS:
        raise SizeGuardError(f"{what} would have more than the budget of {MAX_ARCS} arcs ({num_arcs} counted)")


def _checked(net: ReluNetwork, num_arcs: int) -> ReluNetwork:
    """`net`, after checking that it has the `num_arcs` arcs its closed form counts."""
    if net.num_arcs != num_arcs:
        raise ConstructionError(f"built {net.num_arcs} arcs, closed form says {num_arcs}")
    return net


def _check_size(sizes: tuple, num_arcs: int) -> None:
    """Refuse a network of more than MAX_ARCS neurons or arcs (no construction has more neurons than arcs)."""
    neurons = sum(sizes)
    check_arc_budget(max(neurons, num_arcs), f"a network of {neurons} neurons and {num_arcs} arcs")


@dataclass(frozen=True)
class NetworkStats:
    """Depth / width / size of a layered network plus its arc count."""

    depth: int
    width: int
    size: int
    num_arcs: int


class ReluNetwork:
    """Immutable sparse-arc representation of a layered ReLU network.

    Arcs are stored as flat arrays, the four indices int32 and the weight
    float64; a network of more than ``MAX_ARCS`` neurons or arcs, past
    which an index could leave int32, is refused with
    :class:`SizeGuardError`.  On first use the evaluator compiles each
    layer's arcs into the raw int32 arrays of a CSR matrix over the
    concatenated outputs of all earlier layers (see :attr:`_compiled`).
    Every evaluation then steps through the layers into one output buffer
    per call, so one network can be evaluated from several threads at
    once.  Each layer step is the sparse product by scipy's private
    kernels (``csr_matvec``, and ``csr_matvecs`` for
    :meth:`evaluate_batch`; see :func:`_sparsetools`), the bias where it
    is nonzero and the rectifier on hidden layers.  A layer of at least
    ``2 * MIN_PART_ARCS`` arcs is split into row ranges run at once by the
    calling thread and by helper threads (:mod:`dpnets.row_split`); every
    range runs the same kernel on its own rows, so every byte is the
    serial step's.  Overflow is tested once per call, on the inputs,
    against a magnitude bound computed once per network
    (:attr:`_magnitude_bound`); only inputs it cannot clear have every
    layer checked for non-finite values.  All arithmetic is IEEE double
    precision.
    The constructions in this package only combine small integers, halves
    and input-derived values, so they evaluate exactly while every
    integer-valued pre-activation stays below 2**53; each builder
    validates its own magnitude bounds.
    """

    def __init__(self, layer_sizes, arcs, biases=()):
        """Build a network from explicit arcs.

        Parameters
        ----------
        layer_sizes:
            Neuron counts n_0..n_k per layer, k >= 1.
        arcs:
            Sequence of ``(src_layer, src_index, dst_layer, dst_index,
            weight)`` rows.  Source layer must be strictly smaller
            than the destination layer.
        biases:
            Sequence of ``(layer, index, bias)`` rows; neurons not listed
            get bias 0, and none may be listed twice.  Input neurons
            carry no bias.

        Anything else (a string, a row of another length, a negative or
        fractional size or index) raises :class:`ConstructionError`, and
        more than ``MAX_ARCS`` neurons or arcs raise
        :class:`SizeGuardError` before anything sized by the layers is
        allocated.
        """
        sizes = tuple(_whole(_numbers(layer_sizes, (), "layer sizes must be a list of numbers")).tolist())
        ends, w = _rows(arcs, 5, "each arc must be 5 numbers")
        _check_size(sizes, w.size)
        sl, si, tl, ti = _whole(ends)
        at, value = _rows(biases, 3, "each bias must be 3 numbers")
        layer, idx = _whole(at)
        sz = np.asarray(sizes, dtype=np.int64)
        real = (layer >= 1) & (layer < sz.size)
        real[real] = idx[real] < sz[layer[real]]
        if not real.all():
            raise ConstructionError(f"bias for nonexistent neuron ({layer[~real][0]}, {idx[~real][0]})")
        start = np.cumsum(sz[1:]) - sz[1:]  # where each non-input layer starts in one bias vector
        flat = start[layer - 1] + idx
        bias = np.zeros(sz[1:].sum())
        if np.bincount(flat, minlength=bias.size).max(initial=0) > 1:
            raise ConstructionError("a neuron's bias is listed twice")
        bias[flat] = value
        self._init_from_arrays(sizes, sl, si, tl, ti, w, np.split(bias, start[1:]))

    @classmethod
    def _from_arrays(cls, layer_sizes, sl, si, tl, ti, w, bias_arrays):
        sizes = tuple(layer_sizes)
        _check_size(sizes, w.size)
        net = cls.__new__(cls)
        net._init_from_arrays(sizes, sl, si, tl, ti, w, bias_arrays)
        return net

    def _init_from_arrays(self, sizes, sl, si, tl, ti, w, bias_arrays):
        if len(sizes) < 2:
            raise ConstructionError("a network needs an input and an output layer")
        if sizes[0] < 1 or sizes[-1] < 1:
            raise ConstructionError("input and output layers must be non-empty")
        sz = np.asarray(sizes, dtype=np.int32)
        if (sl >= tl).any():
            raise ConstructionError("arcs must strictly increase the layer index")
        if (sl < 0).any() or (tl >= sz.size).any():
            raise ConstructionError("arc layer out of range")
        # take: fancy indexing by an int32 index is several times slower
        if (si < 0).any() or (si >= sz.take(sl)).any() or (ti < 0).any() or (ti >= sz.take(tl)).any():
            raise ConstructionError("arc endpoint references a nonexistent neuron")
        if not np.all(np.isfinite(w)):
            raise ConstructionError("arc weights must be finite")
        if [b.shape for b in bias_arrays] != [(s,) for s in sizes[1:]]:
            raise ConstructionError("need one bias array per non-input layer, of the layer's size")
        if not np.isfinite(np.concatenate(bias_arrays)).all():
            raise ConstructionError("biases must be finite")
        sl, si, tl, ti = map(partial(np.asarray, dtype=np.int32), (sl, si, tl, ti))  # each below a guarded size
        for arr in (sl, si, tl, ti, w, *bias_arrays):
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
        return list(zip(*(a.tolist() for a in (self._sl, self._si, self._tl, self._ti, self._w))))

    @property
    def biases_by_layer(self):
        return self._bias_arrays

    def __eq__(self, other):
        if not isinstance(other, ReluNetwork):
            return NotImplemented
        mine, theirs = ((n._sl, n._si, n._tl, n._ti, n._w, *n._bias_arrays) for n in (self, other))
        return self.layer_sizes == other.layer_sizes and all(map(np.array_equal, mine, theirs))

    def __repr__(self):
        return f"ReluNetwork(layers={self.layer_sizes}, arcs={self.num_arcs})"

    # -- evaluation --------------------------------------------------------

    @cached_property
    def _bounds(self):
        """Where each layer starts in the concatenated outputs, then the total."""
        return tuple(accumulate(self.layer_sizes, initial=0))

    @cached_property
    def _compiled(self):
        """Per layer l, ``(n_row, n_col, indptr, indices, data)``: its arcs as a
        CSR matrix over the concatenated outputs of layers < l.

        The arrays are exactly those ``scipy.sparse.csr_matrix`` builds
        from the arcs as COO, dtypes included: the size guard keeps every
        index within int32, the stored arcs' dtype.  Built arcs come grouped
        by neuron, so rows are sorted only for shuffled documents, and a
        network whose rows all list their columns strictly increasing is
        sliced into layers as stored.

        Otherwise each run of consecutive layers that list a column out of
        order or twice runs, on one copy of its weights, the kernels behind
        scipy's ``sum_duplicates``, each once for the whole run:
        ``csr_sort_indices`` on the rows of every stretch of layers that list
        a column out of order (the kernel reads absolute row pointers, and
        sorts each row on its own), then ``csr_sum_duplicates``, which sums a
        repeated (neuron, source) pair in scipy's order and is the identity
        on a row without repeats.  A layer that lists its columns in order
        but repeats a pair is summed unsorted, as scipy sums it: its sort is
        unstable above 16 entries.  The exact knapsack cell has no such run,
        and of the other built networks only the rounded cell and
        ``unfold`` have more than one.
        """
        off = self._bounds
        start = np.asarray(off, dtype=np.int32)
        row = (start - off[1]).take(self._tl)
        row += self._ti
        col = start.take(self._sl)
        col += self._si
        w = self._w
        if (row[1:] < row[:-1]).any():
            order = np.argsort(row, kind="stable")
            row, col, w = row[order], col[order], w[order]
        ptr = np.zeros(off[-1] - off[1] + 1, dtype=np.int32)
        np.cumsum(np.bincount(row, minlength=ptr.size - 1), out=ptr[1:])
        same = row[1:] == row[:-1]
        del row
        # arc i + 1 repeats or undercuts the column of arc i in the same row
        unsorted = same & (col[1:] <= col[:-1])
        rows = [b - off[1] for b in off[1:]]  # each layer's first row, then the row count
        kind = [0] * (len(rows) - 1)  # per layer: 0 in order, 1 repeats a pair, 2 lists a column out of order
        if unsorted.any():
            code = np.zeros(col.size, dtype=np.int8)  # arcs i and i + 1 as `kind` rates them, 0 for the last arc
            np.add(unsorted, same & (col[1:] < col[:-1]), out=code[:-1], dtype=np.int8)
            first = ptr[rows]  # each layer's first arc, then the arc count
            # reduceat gives a layer without arcs the code of one arc of another; np.where rates it 0
            top = np.maximum.reduceat(code, np.minimum(first[:-1], col.size - 1))
            kind = np.where(first[1:] > first[:-1], top, 0).tolist()
        compiled, l = [], 0
        for dirty, run in groupby(kind, bool):
            run = list(run)
            # layers l + 1 to l + len(run): row pointers p, from the layers' first row, into j and x
            at = [r - rows[l] for r in rows[l : l + len(run) + 1]]  # where each layer's rows start in p
            p, j, x = ptr[rows[l] : rows[l] + at[-1] + 1], col, w
            if dirty:
                a, b = p[0], p[-1]
                p, j, x = p - a, col[a:b], w[a:b].copy()
                s = 0
                for rating, stretch in groupby(run):
                    e = s + len(list(stretch))
                    if rating == 2:
                        csr_sort_indices(at[e] - at[s], p[at[s] :], j, x)
                    s = e
                csr_sum_duplicates(at[-1], off[l + len(run)], p, j, x)
            arcs = p[at].tolist()
            for q0, q1, a, b, n_col in zip(at, at[1:], arcs, arcs[1:], off[l + 1 :]):
                compiled.append((q1 - q0, n_col, p[q0 : q1 + 1] - a, j[a:b], x[a:b]))
            l += len(run)
        return compiled

    @cached_property
    def _steps(self):
        """Per layer l, one step of :meth:`_forward`: ``(l, rows, n_row, n_col,
        indptr, indices, data, bias, rectify, split)``, with `rows` the slice
        of the concatenated outputs that the layer writes, its
        :attr:`_compiled` arrays, its bias array or None where every entry is
        zero, whether it is hidden (rectified), and its row-parallel step
        where it has the arcs to split (see :func:`_row_parts`), else None."""
        off, k = self._bounds, self.depth
        return tuple(
            (l, slice(off[l], off[l + 1]), *compiled, bias if bias.any() else None, l < k, _row_parts(*compiled))
            for l, compiled, bias in zip(range(1, k + 1), self._compiled, self._bias_arrays)
        )

    @cached_property
    def _magnitude_bound(self) -> float:
        """G: every |pre-activation| is at most max(1, max|x|) G on input x.

        With R a bound on every row sum of |weight| and B one on every
        |bias|, G_0 = 1, G_l = R max_{j<l} G_j + B and G = max_l G_l; by
        induction, since the rectifier raises no magnitude, layer l's
        outputs stay within max(1, max|x|) G_l.  A row sums |weight| over at
        most all A arcs (summing a repeated pair only lowers it), so by
        Cauchy-Schwarz R = sqrt(A S), with S the sum of every squared
        weight; B = sqrt(sum of every squared bias).  Two reductions per
        network, whatever its depth, neither by BLAS (vdot wakes its threads
        past 10,000 entries) nor by einsum (its first call takes a heap step).
        """
        bias = np.concatenate(self._bias_arrays)
        with np.errstate(over="ignore"):  # an infinite sum makes G infinite: every layer is checked
            r, b = sqrt(self.num_arcs * float(np.square(self._w).sum())), sqrt(np.square(bias).sum())
        return reduce(lambda top, _: max(top, r * top + b), range(self.depth), 1.0)

    @cached_property
    def _overflow_gate(self) -> float:
        """The bound on ``vdot(x, x)`` below which no value of :meth:`_forward`
        can leave the double range: ``(2**500 / G)**2`` for G below 2**500,
        else 0.0, which no input passes.

        Under the gate max|x| < 2**500 / G, so every |pre-activation| is below
        2**500.  Rounding raises a row's sum by at most A 2**-53 of its terms'
        magnitude, compounded over at most ``MAX_ARCS`` layers: a factor below
        1.01, far from the 2**524 left to the overflow.  With no infinity no
        NaN can arise either: it needs inf - inf or 0 * inf.
        """
        g = self._magnitude_bound
        q = _OVERFLOW_LIMIT / g
        return q * q if g < _OVERFLOW_LIMIT else 0.0

    def _forward(self, x):
        """Every neuron's output, inputs first: a vector for one input, a
        (neurons, B) array for the B rows of a 2-D `x`.

        Each layer step is ``W @ outs`` by ``csr_matvec`` (``csr_matvecs``
        for a batch), summed in scipy's order from the +0.0 of the zeroed
        buffer, then the bias where some entry is nonzero (adding zero to a
        sum that is never -0.0 changes no byte), then the rectifier on
        hidden layers.  The overflow test runs once per call, on the
        inputs: ``vdot(x, x)`` below :attr:`_overflow_gate` proves every
        value finite.  Otherwise (a NaN or infinite input, a huge one, or a
        network whose bound reaches 2**500) each layer is checked before the
        rectifier can hide a -inf, by one reduction, the sum of squares,
        which is finite only if every entry is; only a sum that is not
        finite pays for the entry-by-entry test.  A layer with a split plan
        runs the same step range by range (:func:`dpnets.row_split.step`),
        each range checked before its rectifier, and raises the same error.
        """
        batch = x.ndim == 2
        n = self._bounds[-1]
        outs = np.zeros((n, x.shape[0]) if batch else n)
        outs[: self.n_inputs] = x.T
        check = not np.vdot(x, x) < self._overflow_gate  # a NaN sum fails the test
        for l, rows, n_row, n_col, indptr, indices, data, bias, rectify, split in self._steps:
            a = outs[rows]
            if split is not None:
                if split(n_col, indptr, indices, data, outs, a, bias, check, rectify):
                    raise NumericOverflowError(f"non-finite activation in layer {l}")
                continue
            if batch:
                csr_matvecs(n_row, n_col, x.shape[0], indptr, indices, data, outs, a)
            else:
                csr_matvec(n_row, n_col, indptr, indices, data, outs, a)
            if bias is not None:
                a += bias[:, None] if batch else bias
            if check and not isfinite(np.vdot(a, a)) and not np.isfinite(a).all():
                raise NumericOverflowError(f"non-finite activation in layer {l}")
            if rectify:
                np.maximum(a, 0.0, out=a)
        return outs

    def _input(self, x, ndim: int):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != ndim or x.shape[-1] != self.n_inputs:
            want = f"input of length {self.n_inputs}" if ndim == 1 else f"inputs of shape (B, {self.n_inputs})"
            raise ShapeMismatchError(f"expected {want}, got shape {x.shape}")
        return x

    def evaluate(self, x) -> np.ndarray:
        """Run the network on `x` and return the raw output activations."""
        return self._forward(self._input(x, 1))[self._bounds[-2] :].copy()

    def evaluate_batch(self, xs) -> np.ndarray:
        """Run the network on each row of `xs` (shape (B, n_inputs)); return (B, n_outputs).

        Row i equals ``evaluate(xs[i])`` bit for bit.
        """
        return self._forward(self._input(xs, 2))[self._bounds[-2] :].T.copy()

    def evaluate_layers(self, x):
        """Like :meth:`evaluate` but return every layer's outputs (inputs first)."""
        outs = self._forward(self._input(x, 1))
        off = self._bounds
        return [outs[off[l] : off[l + 1]].copy() for l in range(len(self.layer_sizes))]

    def run(self, state, inputs, record_hidden: bool = False):
        """Step the network as a recurrent cell: its outputs are its state and
        feed back onto its first ``n_outputs`` inputs, and each row of
        `inputs` fills the rest of one step's inputs.

        Returns ``(states, hidden)``: ``states[i]`` is the state after i
        steps (``states[0]`` is `state`); with `record_hidden`, ``hidden[i]``
        is step i + 1's :meth:`evaluate_layers` result, else ``hidden`` is None.

        Every step writes its state and row into one input vector, reused
        from step to step (each evaluation copies its inputs).  A state or
        row of another length is joined into a new vector as it comes, so
        :meth:`evaluate` refuses the same shapes with the same errors.
        """
        states = [state]
        hidden = [] if record_hidden else None
        n = self.n_outputs
        v = np.empty(self.n_inputs)
        for row in inputs:
            if len(states[-1]) == n and len(row) == v.size - n:
                v[:n], v[n:] = states[-1], row
                x = v
            else:
                x = np.concatenate([states[-1], row])
            if record_hidden:
                hidden.append(self.evaluate_layers(x))
                states.append(hidden[-1][-1])
            else:
                states.append(self.evaluate(x))
        return states, hidden

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON document: {"layers": [...], "arcs": [[sl,si,tl,ti,w],...], "biases": [[l,i,b],...]}.

        Zero biases are omitted; round-tripping is bit-exact for every
        weight representable in double precision.
        """
        biases = []
        for l, arr in enumerate(self._bias_arrays, start=1):
            idx = np.flatnonzero(arr)
            biases += ([l, i, b] for i, b in zip(idx.tolist(), arr[idx].tolist()))
        arcs = zip(*(a.tolist() for a in (self._sl, self._si, self._tl, self._ti, self._w)))
        return {"layers": list(self.layer_sizes), "arcs": list(map(list, arcs)), "biases": biases}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ReluNetwork":
        """The network of a :meth:`to_json_dict` document; a malformed one raises ConstructionError."""
        if not isinstance(doc, dict) or "layers" not in doc or "arcs" not in doc:
            raise ConstructionError("a network document is a JSON object with 'layers' and 'arcs'")
        return cls(doc["layers"], doc["arcs"], doc.get("biases", ()))


def _row_parts(n_row, n_col, indptr, indices, data):
    """The row-parallel step of a layer (:func:`dpnets.row_split.step`), or None.

    A layer of A arcs gets ``min(usable CPUs, A // MIN_PART_ARCS)`` row
    ranges when that is 2 or more, cut where the row pointers pass equal
    shares of its arcs (one ``searchsorted``); the module is imported here.
    """
    parts = data.size // MIN_PART_ARCS
    if parts > 1:  # macOS and Windows have no sched_getaffinity
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
        parts = min(parts, len(cpus))
    if parts < 2:
        return None
    from . import row_split

    cut = [0, *np.searchsorted(indptr, np.arange(1, parts) * data.size // parts).tolist(), n_row]
    return partial(row_split.step, tuple(zip(cut, cut[1:])))


def _numbers(values, row_shape: tuple, message: str) -> np.ndarray:
    """`values` as a float array of rows shaped `row_shape`, else ConstructionError(message).

    A boolean among numbers is refused too: numpy would read it as 0 or 1.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged rows
        raise ConstructionError(message) from None
    if arr.shape == (0,):
        arr = arr.reshape(0, *row_shape)
    if arr.ndim != 1 + len(row_shape) or arr.shape[1:] != row_shape or arr.dtype.kind not in "iuf":
        raise ConstructionError(message)
    if not isinstance(values, np.ndarray):
        types = set(map(type, chain.from_iterable(values) if row_shape else values))
        if bool in types or np.bool_ in types:
            raise ConstructionError(message)
    return arr.astype(np.float64, copy=False)


def _rows(values, width: int, message: str):
    """`values` as rows of `width` numbers, else ConstructionError(message), as in :func:`_numbers`:
    the first width - 1 columns as one (width - 1, rows) array, and the last as float64.

    Rows given as a list of lists or tuples whose first width - 1 entries
    are plain ints and whose last is an int or a float, as a JSON document
    has them, are read without ``np.asarray``: the rows' types and lengths
    and the entries' types are checked with one scan each, and each part
    is read with one ``np.fromiter``, the first columns as int64.  Anything
    else goes through :func:`_numbers`, and so does an int past the int64
    range, which ``np.asarray`` reads as an object.
    """
    if type(values) is list and set(map(type, values)) <= {list, tuple} and set(map(len, values)) <= {width}:
        first = list(chain.from_iterable(values))
        last = first[width - 1 :: width]
        del first[width - 1 :: width]
        kinds = set(map(type, last))
        if set(map(type, first)) <= {int} and kinds <= {int, float}:
            try:
                first, last = np.fromiter(first, np.int64, len(first)), np.fromiter(last, np.float64, len(last))
            except OverflowError:
                pass
            else:
                if int not in kinds or not (np.abs(last) >= 2.0**63).any():
                    return first.reshape(-1, width - 1).T, last
    arr = _numbers(values, (width,), message).T
    return arr[:-1], np.ascontiguousarray(arr[-1])


def _whole(values: np.ndarray) -> np.ndarray:
    """Int or float sizes or indices as int64; negatives, fractions and values past 2**53 are refused."""
    whole = (values >= 0) & (values <= 2**53)
    if values.dtype.kind == "f":
        whole &= np.floor(values) == values
    if not whole.all():
        raise ConstructionError("layer sizes and indices must be whole numbers")
    return values.astype(np.int64, order="C")


def _int32_column(pieces, message: str) -> np.ndarray:
    """The index `pieces` as one int32 array, else ConstructionError(message): any
    other column is checked as int64 before it is narrowed, so no index wraps
    (a negative one is refused there too: its sign bit survives the OR)."""
    if np.result_type(*pieces) == np.int32:
        return np.concatenate(pieces)
    wide = np.concatenate(pieces, dtype=np.int64)
    if not 0 <= np.bitwise_or.reduce(wide) < 2**31:
        raise ConstructionError(message)
    return wide.astype(np.int32)


def network_from_blocks(n_inputs: int, layers) -> ReluNetwork:
    """Assemble a network from numpy arc blocks.

    ``layers`` holds one ``(blocks, bias)`` pair per non-input layer,
    the output layer last; the bias array fixes the layer's size.  A
    block is ``(src_layer, src_index, dst_index, weight)``, scalars
    broadcasting against arrays, and a layer may have no block.  Arcs
    come neuron by neuron, and arcs into one neuron keep the order in
    which the blocks list them.  Zero weights are dropped.

    Every layer is taken in one pass: each column is concatenated once
    over every block of every layer, and the layer column is one
    ``np.repeat``.  One comparison finds the layers whose rows do not
    ascend (the minimum tree, the co builders and :func:`unfold` write
    rows that do); only those are sorted, each on its own and stably by
    row.  One mask drops the zero weights.  So a tree or an unfolding
    costs a fixed number of array calls whatever its depth, and the
    result is the same as sorting every layer on its own, arc for arc.
    """
    layers = list(layers)
    columns = [[np.zeros(0, dtype=np.int32)] for _ in range(4)]  # an empty piece: a network may have no block
    counts = []
    for blocks, _ in layers:
        counts.append(0)
        for block in blocks:
            shape = (np.broadcast(*block).size,)
            if not shape[0]:  # no arc: numpy reads an empty list as float64, which the index columns refuse
                continue
            for column, x in zip(columns, block):
                column.append(x if getattr(x, "shape", None) == shape else np.broadcast_to(x, shape))
            counts[-1] += shape[0]
    sl = _int32_column(columns[0], "arc layer out of range")
    si = _int32_column(columns[1], "arc endpoint references a nonexistent neuron")
    ti = _int32_column(columns[2], "arc endpoint references a nonexistent neuron")
    tl = np.repeat(np.arange(1, len(layers) + 1, dtype=np.int32), counts)
    arcs = [sl, si, tl, ti, np.concatenate(columns[3], dtype=np.float64)]
    down = (ti[1:] < ti[:-1]) & (tl[1:] == tl[:-1])  # arc i + 1 undercuts arc i's row in one layer
    if down.any():
        dirty = np.zeros(len(layers) + 1, dtype=bool)
        dirty[tl[1:][down]] = True
        ends = list(accumulate(counts, initial=0))  # where each layer's arcs start, then the arc count
        for layer in np.flatnonzero(dirty).tolist():
            a, b = ends[layer - 1], ends[layer]
            order = a + np.argsort(ti[a:b], kind="stable")
            for x in arcs:
                x[a:b] = x[order]
    del sl, si, tl, ti
    keep = arcs[4] != 0.0
    if not keep.all():  # drop the zero weights column by column, freeing each column as it goes
        arcs = [arcs.pop(0)[keep] for _ in range(5)]
    sizes = [n_inputs] + [len(bias) for _, bias in layers]
    biases = [np.asarray(bias, dtype=np.float64) for _, bias in layers]
    return ReluNetwork._from_arrays(sizes, *arcs, biases)


# -- one-block layers -------------------------------------------------------
#
# The minimum tree, the co builders and unfold write each layer as one
# block, ``([(sl, si, row, coef)], const)``: terms grouped by row, rows in
# increasing order, each source neuron listed once per row.


def _gather(ptr, idx):
    """The terms of rows `idx` (row `i` owns terms ``ptr[i]:ptr[i + 1]``), row by row.

    Returns each term's place in `idx` and its index.
    """
    first = ptr[idx]
    count = ptr[idx + 1] - first
    at = np.repeat(np.arange(idx.size), count)
    return at, np.arange(at.size) + (first - (np.cumsum(count) - count))[at]


def _merge(row, sl, si, coef, const):
    """A one-block layer ``([(sl, si, row, coef)], const)`` from terms listed in any row order.

    The terms come out grouped by row, rows in increasing order, and each
    source neuron ``(sl, si)`` once per row, at the place where it first
    occurred, its coefficients summed in the order they occurred.  A
    source whose coefficients cancel keeps its place; only
    :func:`network_from_blocks` drops the zero weight.

    The first sort runs on one int64 key per term, ``row * span + sl *
    (max_si + 1) + si`` with ``span = (max_sl + 1) * (max_si + 1)``; a
    call whose ``(max_row + 1) * span`` reaches 2**63 would overflow it and
    is refused with :class:`SizeGuardError`.  The second is a stable sort
    of the rows of the terms that stay, listed in the order they occurred.
    Integer arrays keep their width (the tour passes int32), and anything
    else is read as int64.
    """
    row, sl, si = (a if a.dtype.kind in "iu" else a.astype(np.int64) for a in map(np.asarray, (row, sl, si)))
    coef = np.asarray(coef, dtype=np.float64)
    rows, width = int(row.max(initial=0)) + 1, int(si.max(initial=0)) + 1
    span = (int(sl.max(initial=0)) + 1) * width
    if rows * span >= 2**63:
        raise SizeGuardError(f"merging terms into {rows} rows of {span} keys each reaches 2**63")
    key = np.multiply(row, span, dtype=np.int64)
    key += np.multiply(sl, width, dtype=np.int64)
    key += si
    order = np.argsort(key, kind="stable")  # repeats stay in occurrence order
    key = key[order]
    first = np.ones(order.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    del key
    start, repeat = np.flatnonzero(first), np.flatnonzero(~first)
    total = coef.copy()
    # unbuffered, in index order: each source's repeats add in the order they occurred
    np.add.at(total, order[start[np.searchsorted(start, repeat) - 1]], coef[order[repeat]])
    first[:] = False
    first[order[start]] = True  # now by place in the input: the terms that stay
    del order, start, repeat
    keep = np.flatnonzero(first)
    keep = keep[np.argsort(row[keep], kind="stable")]
    return [(sl[keep], si[keep], row[keep], total[keep])], np.asarray(const, dtype=np.float64)


def _take(parts, idx):
    """Rows `idx` of the one-block layers `parts`, stacked in turn, as one one-block layer.

    A row may be taken more than once.
    """
    blocks = [block for (block,), _ in parts]
    offset = np.cumsum([0] + [const.size for _, const in parts])
    row = np.concatenate([block[2] + o for block, o in zip(blocks, offset)])
    sl, si, coef = (np.concatenate([block[j] for block in blocks]) for j in (0, 1, 3))
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    at, term = _gather(np.searchsorted(row, np.arange(offset[-1] + 1)), idx)
    return [(sl[term], si[term], at, coef[term])], np.concatenate([const for _, const in parts])[idx]


def _split(part, starts):
    """The one-block layer `part` cut before each row of `starts` (0 first, its row
    count last): one one-block layer per piece, its rows numbered from 0."""
    [(sl, si, row, coef)], const = part
    cut = np.searchsorted(row, starts)
    return [([(sl[a:b], si[a:b], row[a:b] - r0, coef[a:b])], const[r0:r1])
            for a, b, r0, r1 in zip(cut, cut[1:], starts, starts[1:])]


# -- minimum gadgets -------------------------------------------------------


def _rounds(m: int):
    """``(r, pairs)`` for each round r of the minimum tree over m values.

    Round r pairs values 2i and 2i + 1 of the previous round, a and b, and
    an odd last value carries over.  After r rounds, value j covers the
    values ``j * 2**r`` up to ``(j + 1) * 2**r - 1`` (cut at m).
    """
    r = 1
    while (m - 1) >> (r - 1):
        yield r, (((m - 1) >> (r - 1)) + 1) // 2
        r += 1


def _subtracted(last, m, base, below=None):
    """The tree neurons that the values ending at rows `last` of their runs subtract.

    A value ending at row L of a run of m rows is row L minus, for each set
    bit s of L (below `below`, if given), the neuron of round s + 1, where
    it was a right operand b: pair ``L >> s + 1`` of the run's ``((m - 1 >>
    s) + 1) // 2``, on layer ``base + 1 + s``.  Returns each neuron's entry,
    layer, pair count and place, entries in order, rounds ascending; its
    index is ``pairs * run + place``.  `m` and `base` are both scalars or
    both one per entry, and `below` either.
    """
    last = np.atleast_1d(last)
    bits = last if below is None else last & (1 << below) - 1
    e, s = np.nonzero(bits[:, None] >> np.arange(int(bits.max(initial=0)).bit_length()) & 1)
    if np.ndim(m):
        m, base = m[e], base[e]
    return e, base + 1 + s, ((m - 1 >> s) + 1) // 2, last[e] >> s + 1


def _tree_arcs(m: int) -> int:
    """N(m): arcs from earlier tree neurons into the hidden rows of one minimum tree over m rows.

    The hidden row of a round-r pair lists r - 1 neurons of its left operand
    and one per set low bit of the last row of its right operand: r - 1 but
    in a round's last pair, whose right operand may be cut at m.
    """
    return sum((2 * pairs - 1) * (r - 1) + ((min(2 * pairs << (r - 1), m) - 1) & ((1 << (r - 1)) - 1)).bit_count()
               for r, pairs in _rounds(m))


def _min_arcs(m: int) -> int:
    """Arc count of ``min_n_gadget(m)``, a minimum tree over m rows of one input
    each: two inputs into each of its m - 1 hidden rows, N(m) neuron arcs, and
    an output with one input and popcount(m - 1) neurons."""
    return 2 * (m - 1) + _tree_arcs(m) + 1 + (m - 1).bit_count()


def min_reduce_many(rows, groups) -> list:
    """Reduce each run of consecutive rows of a one-block layer to its minimum, in lockstep.

    `groups` lists ``(runs, m, base)`` for consecutive stretches of the
    rows, in order: `runs` runs of m rows each, whose hidden rounds are
    numbered from layer ``base + 1``.  All runs of a group advance one
    pairwise round of :func:`_rounds` per hidden layer: a and b become
    ``b - relu(b - a)``.  So each run costs m - 1 neurons over
    ceil(log2(m)) hidden layers.  The affine outputs of one round feed
    the next round's rectifiers directly (no relay neurons), which is what
    keeps the depth logarithmic.  Returns every layer written: each
    group's hidden rounds in order, group after group, then a one-block
    layer with one row per run of the last group, ready to be the next
    layer or the output layer as it is.  The minima of earlier groups get
    no row of their own: a later row reads one by naming its neurons
    (:func:`_subtracted`), so one call can run groups that feed each other.
    A group with m = 1 has no round; as the last group its output rows are
    its rows.

    Each hidden row ``b - a`` lists b's terms and neurons, then -a's, and a
    run's output row those of its last value.  One :func:`_merge` call
    writes every row, merging the sources that a shares with b by its order
    rule, and one :func:`_split` cuts them into layers.
    """
    [(layer, index, row, weight)], const = rows
    # One entry per layer written, group after group: its round r, pair count,
    # the group's runs, m and base, and where the group starts in `rows`.  The
    # last group's output is one round more, of one pair.
    plan, head = [], 0
    for runs, m, base in groups:
        plan += [(r, pairs, runs, m, base, head) for r, pairs in _rounds(m)]
        head += runs * m
    plan.append(((m - 1).bit_length() + 1, 1, runs, m, base, head - runs * m))
    r, pairs, runs, m, base, head = np.array(plan, dtype=np.int64).T
    # The plan: pair i of round r combines the values a and b that end at rows
    # (2i + 1) 2**(r - 1) - 1 and (2i + 2) 2**(r - 1) - 1 (cut at m - 1) of a run.
    first = np.cumsum(pairs) - pairs  # each layer's first pair
    at = np.repeat(np.arange(pairs.size), pairs)  # each pair's layer
    i, rnd = np.arange(at.size) - first[at], r[at]
    a_last = ((2 * i + 1) << (rnd - 1)) - 1
    last = np.concatenate((np.minimum(a_last + (1 << (rnd - 1)), m[at] - 1), a_last))
    # Every row of the result, layer after layer, run after run: its run and pair.
    per = pairs * runs
    offsets = np.zeros(per.size + 1, dtype=np.int64)  # where each layer's rows start
    np.cumsum(per, out=offsets[1:])
    row_layer = np.repeat(np.arange(per.size), per)
    run, place = np.divmod(np.arange(offsets[-1]) - offsets[row_layer], pairs[row_layer])
    pair = first[row_layer] + place
    start = head[row_layer] + m[row_layer] * run  # each row's run in `rows`
    hidden = offsets[-2]  # rows of the output layer have no a
    # The rows b, then a, of every result row: their terms, then their neurons.
    # Plan entries of a sit past b's.
    entry = np.concatenate((pair, pair[:hidden] + i.size))
    both = np.concatenate((start, start[:hidden])) + last[entry]
    ptr = np.searchsorted(row, np.arange(const.size + 1))
    t_at, term = _gather(ptr, both)
    twice = np.concatenate((at, at))  # each plan entry's layer
    p, n_layer, n_pairs, n_place = _subtracted(last, m[twice], base[twice], r[twice] - 1)
    n_at, e = _gather(np.searchsorted(p, np.arange(last.size + 1)), entry)
    # The merge's terms: b's terms, b's neurons, a's terms and a's neurons, in turn.
    tb, nb = np.searchsorted(t_at, pair.size), np.searchsorted(n_at, pair.size)
    cut = list(accumulate((0, int(tb), int(nb), t_at.size - int(tb), n_at.size - int(nb))))
    b_terms, b_neurons, a_terms, a_neurons = map(slice, cut, cut[1:])
    merged = [np.empty(cut[-1], dtype=d) for d in (np.int32, layer.dtype, index.dtype, weight.dtype)]
    merged[0][b_terms], merged[0][a_terms] = t_at[:tb], t_at[tb:] - pair.size
    for out, a in zip(merged[1:], (layer, index, weight)):
        # mode "clip" writes to `out` directly; "raise" would buffer the copy
        np.take(a, term[:tb], out=out[b_terms], mode="clip")
        np.take(a, term[tb:], out=out[a_terms], mode="clip")
    np.negative(merged[3][a_terms], out=merged[3][a_terms])
    n_at[nb:] -= pair.size
    neurons = (n_at, n_layer[e], n_pairs[e] * run[n_at] + n_place[e])
    for out, a in zip(merged, neurons):
        out[b_neurons], out[a_neurons] = a[:nb], a[nb:]
    merged[3][b_neurons], merged[3][a_neurons] = -1.0, 1.0
    gb = both[: pair.size]
    bias = np.concatenate((const[gb[:hidden]] - const[both[pair.size :]], const[gb[hidden:]]))
    del run, place, pair, row_layer, start, entry, both, t_at, term, n_at, e, neurons  # freed before the merge
    return _split(_merge(*merged, bias), offsets)


def min_n_gadget(n: int) -> ReluNetwork:
    """Exact minimum of n reals as a balanced tree of pairwise minima.

    Adjacent affine maps are fused, so the hidden-layer count is
    ceil(log2(n)) and the total hidden size is n - 1.  n = 1 yields the
    identity network (depth 1).  The network has ``_min_arcs(n)`` arcs,
    about 3 n; an n whose count exceeds ``MAX_ARCS`` (from about 2.1M) is
    refused before anything is built.
    """
    if n < 1:
        raise ValueError("minimum of zero values is undefined")
    num_arcs = _min_arcs(n)
    check_arc_budget(num_arcs, f"the minimum of {n} values")
    idx = np.arange(n)
    layers = min_reduce_many(([(np.zeros(n, dtype=np.int64), idx, idx, np.ones(n))], np.zeros(n)), [(1, n, 0)])
    return _checked(network_from_blocks(n, layers), num_arcs)


# -- recurrent unfolding ---------------------------------------------------


def unfold(cell: ReluNetwork, steps: int) -> ReluNetwork:
    """Unroll `steps` applications of the recurrent `cell` into one network.

    As in :meth:`ReluNetwork.run`, the cell's outputs are its state and
    feed back onto its first ``n_outputs`` inputs; the other inputs are
    fresh at every step.  The unfolded input layout is::

        [initial state] + [step-1 fresh inputs] + [step-2 fresh inputs] + ...

    and the unfolded outputs are the final state.  A cell with more
    outputs than inputs is refused with :class:`ConstructionError`.

    Between steps the cell's output layer is rectified into relay
    neurons, so every step contributes exactly `cell.depth` layers
    (unfolded depth = steps * cell depth).  The relays require the state
    to be non-negative at intermediate steps; every state vector in this
    package (truncated table values in ]0, 2], running profit sums)
    satisfies that.  The result has at most ``steps * cell.num_arcs``
    arcs (exactly that many when the cell repeats no arc and has no zero
    weight), checked against the budget first, with its neurons.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n_in, n_out = cell.n_inputs, cell.n_outputs
    if n_out > n_in:
        raise ConstructionError(f"a cell's {n_out} outputs cannot feed back onto its {n_in} inputs")
    k, fresh = cell.depth, n_in - n_out
    neurons = n_out + steps * (fresh + sum(cell.layer_sizes[1:]))
    check_arc_budget(max(steps * cell.num_arcs, neurons), f"unfolding {steps} steps")
    # Each step's layers are the cell's, merged once (arcs the cell repeats
    # between two neurons merge here).  At step t, a source neuron i of
    # layer l >= 1 is neuron i of layer l + t k; state input i is neuron i
    # of layer t k (the previous step's relays, or the initial state at
    # t = 0); fresh input i is input i + t (n_in - n_out).  A cell layer's
    # sources are written for every step at once, one row per step, in int32.
    each = np.arange(steps, dtype=np.int32)[:, None]
    rows = []
    for l, bias in enumerate(cell.biases_by_layer, start=1):
        into = cell._tl == l
        [(sl, si, row, coef)], const = _merge(cell._ti[into], cell._sl[into], cell._si[into], cell._w[into], bias)
        is_fresh = (sl == 0) & (si >= n_out)
        sl, si = sl + np.where(is_fresh, 0, each * k), si + np.where(is_fresh, each * fresh, 0)
        rows.append((sl, si, row, coef, const))
    layers = [([(sl[t], si[t], row, coef)], const) for t in range(steps) for sl, si, row, coef, const in rows]
    return network_from_blocks(n_out + steps * fresh, layers)
