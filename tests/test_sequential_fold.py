"""Every ``add`` kernel of sparse message passing is the sequential fold.

Each row (or column, or segment) must be summed ``((0 + t0) + t1) + ...`` in
stored-entry order — exactly what an ``np.add.at`` scatter computes — so the
sparse kernels are bit-identical to the generic fancy-index scatter-add of
the autograd engine.  A pairwise or blocked summation (e.g. ``np.add.reduceat``)
differs in the last ulp on most rows and fails these ``assert_array_equal``
checks.
"""

import numpy as np
import pytest

from repro.graph.sparse import SparseAdjacency, segment_reduce
from repro.gnn.sparse_ops import (gather_cols, gather_rows, segment_expand_batch,
                                  spmm_edge_weighted)
from repro.nn import Tensor

SEEDS = [0, 1, 2]


def _adjacency(rng, n=60, max_degree=30):
    """Random CSR with degrees 0..max_degree and values spread over 6 decades."""
    rows, cols = [], []
    for i in range(n):
        degree = 0 if i % 7 == 3 else int(rng.integers(1, max_degree + 1))
        picked = rng.choice(n, size=degree, replace=False)
        rows.extend([i] * degree)
        cols.extend(picked.tolist())
    vals = rng.standard_normal(len(rows)) * 10.0 ** rng.uniform(-3, 3, len(rows))
    return SparseAdjacency.from_coo(rows, cols, vals, n)


def _spread(rng, shape):
    """Normal draws whose rows span 6 decades, so summation order shows."""
    magnitude = rng.uniform(-3, 3, shape[:1] + (1,) * (len(shape) - 1))
    return rng.standard_normal(shape) * 10.0 ** magnitude


def _scatter(index, values, num_rows):
    out = np.zeros((num_rows,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


@pytest.fixture(params=SEEDS)
def case(request):
    rng = np.random.default_rng(request.param)
    sp = _adjacency(rng)
    return rng, sp


class TestAdjacencyKernels:
    def test_has_empty_rows(self, case):
        _, sp = case
        assert (np.diff(sp.indptr) == 0).any()

    @pytest.mark.parametrize("width", [None, 1, 5])
    def test_matmul(self, case, width):
        rng, sp = case
        x = _spread(rng, (sp.num_nodes,) if width is None else (sp.num_nodes, width))
        scale = sp.data if width is None else sp.data[:, None]
        np.testing.assert_array_equal(
            sp.matmul(x), _scatter(sp.rows, scale * x[sp.indices], sp.num_nodes))

    @pytest.mark.parametrize("width", [None, 1, 5])
    def test_rmatmul(self, case, width):
        rng, sp = case
        g = _spread(rng, (sp.num_nodes,) if width is None else (sp.num_nodes, width))
        scale = sp.data if width is None else sp.data[:, None]
        # Row-major entry order visits each column's entries by ascending row.
        np.testing.assert_array_equal(
            sp.rmatmul(g), _scatter(sp.indices, scale * g[sp.rows], sp.num_nodes))

    def test_reduce_rows(self, case):
        rng, sp = case
        contrib = _spread(rng, (sp.nnz, 4))
        np.testing.assert_array_equal(sp.reduce_rows(contrib),
                                      _scatter(sp.rows, contrib, sp.num_nodes))

    def test_reduce_cols(self, case):
        rng, sp = case
        contrib = _spread(rng, (sp.nnz, 4))
        np.testing.assert_array_equal(sp.reduce_cols(contrib),
                                      _scatter(sp.indices, contrib, sp.num_nodes))

    @pytest.mark.parametrize("width", [None, 3])
    def test_segment_reduce_with_empty_rows(self, case, width):
        rng, sp = case
        contrib = _spread(rng, (sp.nnz,) if width is None else (sp.nnz, width))
        np.testing.assert_array_equal(segment_reduce(contrib, sp.indptr),
                                      _scatter(sp.rows, contrib, sp.num_nodes))

    def test_segment_reduce_of_nothing(self):
        indptr = np.zeros(4, dtype=np.int64)
        np.testing.assert_array_equal(segment_reduce(np.zeros((0, 2)), indptr),
                                      np.zeros((3, 2)))


class TestGradientKernels:
    def test_spmm_edge_weighted(self, case):
        rng, sp = case
        rows, cols = sp.rows, sp.indices
        w = Tensor(_spread(rng, (sp.nnz, 1)), requires_grad=True)
        x = Tensor(_spread(rng, (sp.num_nodes, 4)), requires_grad=True)
        out = spmm_edge_weighted(sp, w, x)
        np.testing.assert_array_equal(
            out.data, _scatter(rows, w.data * x.data[cols], sp.num_nodes))
        grad = _spread(rng, out.data.shape)
        (out * Tensor(grad)).sum().backward()
        np.testing.assert_array_equal(
            x.grad, _scatter(cols, w.data * grad[rows], sp.num_nodes))
        np.testing.assert_array_equal(
            w.grad, (grad[rows] * x.data[cols]).sum(axis=1, keepdims=True))

    @pytest.mark.parametrize("gather, index", [(gather_rows, "rows"),
                                               (gather_cols, "indices")])
    def test_gather_backward(self, case, gather, index):
        rng, sp = case
        t = Tensor(_spread(rng, (sp.num_nodes, 1)), requires_grad=True)
        out = gather(t, sp)
        grad = _spread(rng, out.data.shape)
        (out * Tensor(grad)).sum().backward()
        np.testing.assert_array_equal(
            t.grad, _scatter(getattr(sp, index), grad, sp.num_nodes))

    def test_segment_expand_batch_backward(self, case):
        rng, sp = case
        offsets = sp.indptr          # a segment vector with empty segments
        x = Tensor(_spread(rng, (sp.num_nodes, 3)), requires_grad=True)
        out = segment_expand_batch(x, offsets)
        grad = _spread(rng, out.data.shape)
        (out * Tensor(grad)).sum().backward()
        batch = np.repeat(np.arange(sp.num_nodes), np.diff(offsets))
        np.testing.assert_array_equal(x.grad, _scatter(batch, grad, sp.num_nodes))
