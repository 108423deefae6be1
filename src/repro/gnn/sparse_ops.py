"""Gradient-aware sparse message-passing operators.

These wrap the scipy CSR kernels of :class:`~repro.graph.sparse.SparseAdjacency`
in :class:`~repro.nn.Tensor` operations so the GNN layers can aggregate in
O(E) while still training with the reverse-mode autograd engine:

* :func:`spmm` — ``A @ X`` with a constant sparse ``A`` (GCN / GIN / SAGE /
  APPNP aggregation; the backward pass is ``A.T @ grad``).
* :func:`spmm_edge_weighted` — ``out[i] = Σ_e w_e · x[col_e]`` where the
  per-edge weights ``w`` are themselves a tensor (GAT attention aggregation;
  gradients flow to both the weights and the node features).
* :func:`segment_softmax` — softmax of per-edge scores within each CSR row,
  the sparse replacement of the dense masked-softmax attention.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.graph.sparse import SparseAdjacency, segment_reduce
from repro.nn import Tensor

__all__ = ["spmm", "spmm_edge_weighted", "segment_softmax", "segment_sum",
           "segment_sum_batch", "segment_mean_batch", "segment_max_batch",
           "segment_expand_batch", "segment_matmul", "gather_rows", "gather_cols"]


def spmm(adjacency: SparseAdjacency, x: Tensor) -> Tensor:
    """Sparse-dense product ``A @ x`` with gradients flowing through ``x``."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    data = adjacency.matmul(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(adjacency.rmatmul(grad), owned=True)

    return Tensor._make(data, (x,), backward)


def spmm_edge_weighted(structure: SparseAdjacency, edge_weights: Tensor,
                       x: Tensor) -> Tensor:
    """Aggregate ``x`` rows along edges with learned per-edge weights.

    ``structure`` supplies the CSR pattern; ``edge_weights`` is an ``(E, 1)``
    tensor aligned with its stored entries.  Returns the ``(n, d)`` tensor
    ``out[i] = Σ_{e: row(e)=i} w_e · x[col(e)]`` — the attention-weighted sum
    without ever materialising an ``(n, n)`` attention matrix.
    """
    weights = edge_weights.data.ravel()
    data = structure.csr(weights) @ x.data

    def backward(grad: np.ndarray) -> None:
        if edge_weights.requires_grad:
            edge_weights._accumulate(
                (grad[structure.rows] * x.data[structure.indices]).sum(
                    axis=1, keepdims=True), owned=True)
        if x.requires_grad:
            x._accumulate(structure.csr_transposed(weights) @ grad, owned=True)

    return Tensor._make(data, (edge_weights, x), backward)


def gather_rows(t: Tensor, structure: SparseAdjacency) -> Tensor:
    """Per-edge gather ``t[rows]`` whose backward is the per-row CSR fold.

    Bit-identical to the generic fancy-index backward: the row selector sums
    each row's edges sequentially in ascending order, as ``np.add.at`` does.
    """
    def backward(grad: np.ndarray) -> None:
        t._accumulate(structure.reduce_rows(grad), owned=True)

    return Tensor._make(t.data[structure.rows], (t,), backward)


def gather_cols(t: Tensor, structure: SparseAdjacency) -> Tensor:
    """Per-edge gather ``t[cols]`` whose backward is the per-column CSR fold
    of the memoized transpose plan (within a column, edges keep ascending row
    order and are summed sequentially — as the generic scatter-add does)."""
    def backward(grad: np.ndarray) -> None:
        t._accumulate(structure.reduce_cols(grad), owned=True)

    return Tensor._make(t.data[structure.indices], (t,), backward)


def segment_sum(values: Tensor, structure: SparseAdjacency) -> Tensor:
    """Sum per-edge values into per-row totals, with gradient support."""
    rows = structure.rows
    data = structure.reduce_rows(values.data)

    def backward(grad: np.ndarray) -> None:
        values._accumulate(grad[rows], owned=True)

    return Tensor._make(data, (values,), backward)


def segment_softmax(scores: Tensor, structure: SparseAdjacency) -> Tensor:
    """Row-wise softmax of per-edge scores.

    Matches the dense ``softmax(scores + neg_inf_mask, axis=1)`` exactly on the
    stored edges: the per-row maximum shift is treated as a constant (as the
    dense :func:`repro.nn.functional.softmax` does), masked-out slots simply do
    not exist here, and rows are assumed non-empty (attention structures always
    include self loops).
    """
    rows = structure.rows
    shift = structure.reduce_rows(scores.data, np.maximum)[rows]
    exp = (scores - Tensor(shift)).exp()
    denom = segment_sum(exp, structure)

    def expand(t: Tensor) -> Tensor:
        # t[rows] with a row-selector backward: ``rows`` is sorted by CSR row,
        # so the sequential CSR fold sums each row's edges in the order the
        # generic fancy-index scatter-add does, hence bit-identically.
        def backward(grad: np.ndarray) -> None:
            t._accumulate(structure.reduce_rows(grad), owned=True)

        return Tensor._make(t.data[rows], (t,), backward)

    return exp / expand(denom)


# --------------------------------------------------------------------------
# Segmented readouts over a block-diagonal batch.
#
# ``offsets`` is the ``(B + 1,)`` node-offset vector of a
# :class:`~repro.graph.sparse.BatchedAdjacency`: sample ``b`` owns rows
# ``offsets[b]:offsets[b+1]`` of the stacked ``(N, d)`` node matrix.  Each op
# reduces those row segments to a ``(B, d)`` per-graph output, replacing the
# per-sample ``pooled.sum/mean/max(axis=0)`` readouts of the looped path.


@lru_cache(maxsize=256)
def _segment_index_cached(offsets_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.frombuffer(offsets_bytes, dtype=np.int64)
    counts = np.diff(offsets)
    return counts, np.repeat(np.arange(len(counts), dtype=np.int64), counts)


def _segment_index(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, batch)`` of an offsets vector, cached across calls.

    The segment ops run every training step on the handful of offset vectors
    of the fixed minibatch stacks, so the ``diff``/``repeat`` pair is keyed by
    the raw offset bytes and computed once per distinct vector.
    """
    return _segment_index_cached(
        np.ascontiguousarray(offsets, dtype=np.int64).tobytes())


def segment_expand_batch(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Broadcast per-segment rows to nodes: ``out[i] = x[batch(i)]``.

    The gradient of the repeat is the per-segment sum, the sequential CSR fold
    of :func:`segment_reduce` — the same in-order accumulation, hence
    bit-identical results, as the generic fancy-index scatter-add it replaces.
    """
    _, batch = _segment_index(offsets)
    data = x.data[batch]

    def backward(grad: np.ndarray) -> None:
        x._accumulate(segment_reduce(grad, offsets), owned=True)

    return Tensor._make(data, (x,), backward)


def segment_sum_batch(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Per-segment row sum: ``out[b] = Σ_{i in segment b} x[i]``."""
    _, batch = _segment_index(offsets)
    data = segment_reduce(x.data, offsets)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad[batch], owned=True)

    return Tensor._make(data, (x,), backward)


def segment_mean_batch(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Per-segment row mean — the batched ``pooled.mean(axis=0)``."""
    counts, batch = _segment_index(offsets)
    if np.all(counts == 1):
        # Every segment is a single row (e.g. after a collapse-to-one pool):
        # the mean is the row itself (sum of one row times 1.0), so the op
        # reduces to a bit-identical pass-through.
        def backward(grad: np.ndarray) -> None:
            x._accumulate(grad)

        return Tensor._make(x.data * 1.0, (x,), backward)
    inv = 1.0 / counts.astype(np.float64)
    data = segment_reduce(x.data, offsets) * inv[:, None]

    def backward(grad: np.ndarray) -> None:
        x._accumulate((grad * inv[:, None])[batch], owned=True)

    return Tensor._make(data, (x,), backward)


def segment_max_batch(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Per-segment row max with the same tie-splitting subgradient as
    :meth:`Tensor.max` (gradient shared evenly between tied entries)."""
    _, batch = _segment_index(offsets)
    data = segment_reduce(x.data, offsets, np.maximum)

    def backward(grad: np.ndarray) -> None:
        mask = (x.data == data[batch]).astype(np.float64)
        ties = segment_reduce(mask, offsets)
        x._accumulate(mask * (grad / ties)[batch], owned=True)

    return Tensor._make(data, (x,), backward)


def segment_matmul(a: Tensor, b: Tensor, offsets: np.ndarray) -> Tensor:
    """Per-segment ``a_bᵀ @ b_b``, stacked: the batched DiffPool contraction.

    ``a`` is ``(N, k)`` and ``b`` is ``(N, d)``; the output is ``(B·k, d)``
    with block ``b`` at rows ``b·k:(b+1)·k``.  Each block is computed with its
    own dgemm call over exactly the rows the per-sample path would use, so the
    result is bit-identical to the looped ``assignment.T @ embedded``.
    """
    k = a.data.shape[1]
    d = b.data.shape[1]
    num_graphs = len(offsets) - 1
    counts, _ = _segment_index(offsets)
    uniform = num_graphs > 0 and counts.min() == counts.max()
    if uniform:
        # Uniform segments (pool layers past the first): batched dgemm over
        # the reshaped stacks — same per-block operands, no Python loop.
        n = int(counts[0])
        data = np.matmul(a.data.reshape(num_graphs, n, k).transpose(0, 2, 1),
                         b.data.reshape(num_graphs, n, d)).reshape(num_graphs * k, d)
    else:
        data = np.empty((num_graphs * k, d), dtype=np.float64)
        for g in range(num_graphs):
            lo, hi = offsets[g], offsets[g + 1]
            data[g * k:(g + 1) * k] = a.data[lo:hi].T @ b.data[lo:hi]

    def backward(grad: np.ndarray) -> None:
        grad3 = grad.reshape(num_graphs, k, d)
        if a.requires_grad:
            if uniform:
                n = int(counts[0])
                grad_a = np.matmul(b.data.reshape(num_graphs, n, d),
                                   grad3.transpose(0, 2, 1)).reshape(-1, k)
            else:
                grad_a = np.empty_like(a.data)
                for g in range(num_graphs):
                    lo, hi = offsets[g], offsets[g + 1]
                    grad_a[lo:hi] = b.data[lo:hi] @ grad3[g].T
            a._accumulate(grad_a, owned=True)
        if b.requires_grad:
            if uniform:
                n = int(counts[0])
                grad_b = np.matmul(a.data.reshape(num_graphs, n, k),
                                   grad3).reshape(-1, d)
            else:
                grad_b = np.empty_like(b.data)
                for g in range(num_graphs):
                    lo, hi = offsets[g], offsets[g + 1]
                    grad_b[lo:hi] = a.data[lo:hi] @ grad3[g]
            b._accumulate(grad_b, owned=True)

    return Tensor._make(data, (a, b), backward)
