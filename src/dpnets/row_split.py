"""Row-parallel layer steps: the rows of one wide layer split across threads.

:class:`~dpnets.relu_core.ReluNetwork` imports this module only when it
compiles a layer with enough arcs to split (see
``relu_core.MIN_PART_ARCS``).  The rows of a layer are independent, and
scipy's CSR kernels release the interpreter lock, so a layer step runs
as row ranges at once: the calling thread takes range 0 and persistent
helper threads the rest.  Each range runs the serial step on its own rows
only: ``csr_matvec`` (``csr_matvecs`` for a batch) on the row pointers
from its first row on, which index the layer's own columns and weights,
then the bias slice, the finiteness check and the rectifier.  Every row is
summed by the same kernel in the same order, so every byte is the one the
serial step writes.

Helpers start at the first split step, one per range past the first, so
never more than the usable CPUs less one.  Each has a pair of locks: the
caller releases ``go`` once it has set the helper's job, and the helper
releases ``done`` once the job is finished.  One caller at a time uses
the helpers; a caller that finds them busy runs its layer serially, so
threads sharing a network never wait on each other.  A forked child
forgets its parent's helpers and starts its own when it needs them.
"""

from __future__ import annotations

import os
import threading
from math import isfinite

import numpy as np

from .relu_core import csr_matvec, csr_matvecs

__all__ = ["step"]


def _rows(r0, r1, n_col, indptr, indices, data, outs, a, bias, check, rectify) -> bool:
    """Rows r0:r1 of one layer step into `a`, the layer's slice of `outs`; True if one is not finite.

    The check runs before the rectifier, which could hide a -inf.
    """
    y = a[r0:r1]
    if y.ndim == 2:
        csr_matvecs(r1 - r0, n_col, y.shape[1], indptr[r0:], indices, data, outs, y)
    else:
        csr_matvec(r1 - r0, n_col, indptr[r0:], indices, data, outs, y)
    if bias is not None:
        y += bias[r0:r1, None] if y.ndim == 2 else bias[r0:r1]
    if check and not isfinite(np.vdot(y, y)) and not np.isfinite(y).all():
        return True
    if rectify:
        np.maximum(y, 0.0, out=y)
    return False


class _Helper(threading.Thread):
    """A daemon thread that runs one row range per hand-off."""

    def __init__(self):
        super().__init__(name="dpnets-rows", daemon=True)
        self.go, self.done = threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.job = self.result = None
        self.start()

    def run(self):
        while True:
            self.go.acquire()
            try:
                self.result = _rows(*self.job)
            except Exception as exc:  # raised again by the caller
                self.result = exc
            self.job = None  # holds no buffer between steps
            self.done.release()


_helpers: list = []
_idle = threading.Lock()  # held by the one caller using the helpers


def _forget_helpers():
    """In a forked child: the parent's helper threads do not exist here."""
    global _helpers, _idle
    _helpers, _idle = [], threading.Lock()


if hasattr(os, "register_at_fork"):  # Windows has no fork
    os.register_at_fork(after_in_child=_forget_helpers)


def step(ranges, *layer) -> bool:
    """One layer step split into the row `ranges` (r0, r1), in order; True if a value is not finite.

    `layer` is ``(n_col, indptr, indices, data, outs, a, bias, check,
    rectify)`` as :func:`_rows` takes it.  With the helpers busy, the
    whole layer runs on the calling thread.
    """
    if not _idle.acquire(blocking=False):
        return _rows(0, ranges[-1][1], *layer)
    try:
        while len(_helpers) < len(ranges) - 1:
            _helpers.append(_Helper())
        used = _helpers[: len(ranges) - 1]
        for helper, (r0, r1) in zip(used, ranges[1:]):
            helper.job = (r0, r1, *layer)
            helper.go.release()
        try:
            bad = _rows(*ranges[0], *layer)
        finally:
            for helper in used:
                helper.done.acquire()
        results = [helper.result for helper in used]
    finally:
        _idle.release()
    for result in results:
        if isinstance(result, Exception):
            raise result
    return bad or any(results)
