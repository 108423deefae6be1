"""Regression tests for gradient-buffer ownership and fused kernel plans.

The autograd engine lets backward functions that allocate a fresh gradient
buffer hand it over with ``_accumulate(..., owned=True)`` instead of being
defensively copied.  These tests pin the aliasing contracts that adoption
must not break: shared buffers (``__add__``), views of a node's gradient
(``reshape``/``concat``/broadcasting ``sum``), and tensors consumed multiple
times in one graph.
"""

import numpy as np
import pytest

from repro.graph.sparse import SparseAdjacency
from repro.gnn.sparse_ops import (_segment_index, segment_mean_batch,
                                  segment_sum_batch)
from repro.nn import Tensor, concat


class TestOwnedGradAliasing:
    def test_add_shares_buffer_without_corruption(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        ((x + y) * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        np.testing.assert_array_equal(y.grad, [2.0, 2.0])
        # __add__ forwards one shared buffer to both parents — the stored
        # gradients must be private copies, not two references to it.
        assert x.grad is not y.grad
        x.grad[0] = 99.0
        assert y.grad[0] == 2.0

    def test_tensor_used_twice_accumulates_both_paths(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        (x * x).sum().backward()            # both mul parents are x itself
        np.testing.assert_array_equal(x.grad, [4.0, 6.0])

    def test_concat_diamond_keeps_grads_independent(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        s = concat([x, x], axis=0)
        (s * s).sum().backward()
        # d/dx of sum(concat(x, x)^2) accumulates 2x from each copy.
        np.testing.assert_array_equal(x.grad, [4.0, -8.0])

    def test_reshape_view_grad_is_private(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        y = x.reshape(2, 2)
        z = y * 3.0
        z.sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(4, 3.0))
        np.testing.assert_array_equal(y.grad, np.full((2, 2), 3.0))
        x.grad[0] = 0.0                     # must not write through to y.grad
        assert y.grad[0, 0] == 3.0

    def test_broadcast_sum_grad_is_private(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        out = x.sum(axis=0, keepdims=True)  # backward broadcasts its grad
        two = out * 2.0
        two.sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((3, 2), 2.0))
        assert x.grad.flags.writeable
        x.grad[0, 0] = -1.0                 # in-place edits stay local
        np.testing.assert_array_equal(out.grad, np.full((1, 2), 2.0))

    def test_getitem_with_repeated_indices(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])

    def test_segment_ops_on_shared_input(self):
        offsets = np.array([0, 2, 3], dtype=np.int64)
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        total = segment_sum_batch(x, offsets) + segment_mean_batch(x, offsets)
        total.sum().backward()
        expected = np.array([[1.5, 1.5], [1.5, 1.5], [2.0, 2.0]])
        np.testing.assert_array_equal(x.grad, expected)


class TestSegmentIndexCache:
    def test_matches_diff_and_repeat(self):
        for offsets in ([0, 3], [0, 1, 4, 4, 9], [0, 2, 2, 5]):
            offsets = np.asarray(offsets, dtype=np.int64)
            counts, batch = _segment_index(offsets)
            np.testing.assert_array_equal(counts, np.diff(offsets))
            np.testing.assert_array_equal(
                batch, np.repeat(np.arange(len(offsets) - 1), np.diff(offsets)))

    def test_equal_content_shares_cache_entry(self):
        a = np.array([0, 2, 5], dtype=np.int64)
        b = np.array([0, 2, 5], dtype=np.int64)
        assert _segment_index(a)[1] is _segment_index(b)[1]


class TestRmatmulPlan:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_fused_gather_is_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.random((12, 12)) * (rng.random((12, 12)) < 0.3)
        sp = SparseAdjacency.from_dense(dense)
        g = rng.standard_normal((12, 4))
        perm, _ = sp._transpose_plan()
        contrib = (g[sp.rows] * sp.data[:, None])[perm]
        expected = np.zeros_like(g)
        np.add.at(expected, sp.indices[perm], contrib)
        np.testing.assert_array_equal(sp.rmatmul(g), expected)
        np.testing.assert_allclose(sp.rmatmul(g), dense.T @ g, atol=1e-12)

    def test_plan_is_memoized(self):
        sp = SparseAdjacency.from_dense(np.eye(4))
        assert sp.csr_transposed() is sp.csr_transposed()

    def test_empty_columns_fall_back(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = 2.0                   # column 0 and 2 empty
        sp = SparseAdjacency.from_dense(dense)
        np.testing.assert_array_equal(sp.rmatmul(np.ones(3)), dense.T @ np.ones(3))
