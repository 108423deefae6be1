"""Local dynamic account transaction encoding module (Section IV-B)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.branch import _StackedBranch
from repro.data.dataset import AccountSubgraph
from repro.gnn.layers import GCNLayer
from repro.gnn.pooling import DiffPool
from repro.gnn.recurrent import GRUCell
from repro.gnn.sparse_ops import segment_mean_batch
from repro.graph.sparse import SparseAdjacency
from repro.nn import Linear, Module, Parameter, Tensor
from repro.nn.functional import relu, softmax

__all__ = ["LDGConfig", "LDGBranch"]


@dataclass
class LDGConfig:
    """Hyperparameters of the LDG branch.

    ``num_slices`` is the paper's ``T`` (10 by default); ``pooling_layers`` is
    the DiffPool depth studied in Figure 9(b) (2 by default, with pooling rates
    0.1 then collapse-to-one).

    ``batch_size`` is the number of subgraphs per optimizer step and per
    scoring pass; each chunk's time slices are stacked block-diagonally per
    slice index and forwarded as ``num_slices`` batched sparse passes.  1, the
    default, is per-sample SGD.
    """

    hidden_dim: int = 32
    num_slices: int = 5
    pooling_layers: int = 2
    first_pool_clusters: int = 10
    epochs: int = 20
    batch_size: int = 1
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


class _LDGNetwork(Module):
    """GCN per slice + GRU over slices + DiffPool + attention read-out (Eq. 14-23)."""

    def __init__(self, in_dim: int, config: LDGConfig, rng: np.random.Generator):
        super().__init__()
        self.in_dim = in_dim
        self.input_proj = Linear(in_dim, config.hidden_dim, rng=rng)
        self.gcn = GCNLayer(config.hidden_dim, config.hidden_dim, rng=rng)
        self.gru = GRUCell(config.hidden_dim, config.hidden_dim, rng=rng)
        self.pools = self._build_pools(config, rng)
        # Adaptive time-slice weights of the read-out (Eq. 22), learned end-to-end.
        self.slice_logits = Parameter(np.zeros(config.num_slices))
        self.head = Linear(config.hidden_dim, 1, rng=rng)

    @staticmethod
    def _build_pools(config: LDGConfig, rng: np.random.Generator) -> list[DiffPool]:
        """A shrinking sequence of DiffPool layers ending in a single cluster.

        The paper pools twice: first to ``N * 0.1`` clusters, then to one.  With
        soft assignments the first stage can use a fixed cluster budget
        (``first_pool_clusters``) regardless of the subgraph size.
        """
        pools = []
        clusters = config.first_pool_clusters
        for layer in range(config.pooling_layers):
            is_last = layer == config.pooling_layers - 1
            pools.append(DiffPool(config.hidden_dim, 1 if is_last else clusters, rng=rng))
            clusters = max(1, clusters // 2)
        return pools

    def slice_representations(self, features: np.ndarray, slices) -> list[Tensor]:
        """Batched ``h^pool_t``: one ``(B, hidden)`` tensor per time slice.

        ``features`` is the per-sample node-feature matrices stacked
        vertically; ``slices`` is a length-``T`` sequence of
        :class:`~repro.graph.sparse.BatchedAdjacency` — slice ``t`` of every
        sample stacked block-diagonally (all ``T`` share the batch's node
        offsets, since slicing partitions edges, not nodes).  GCN and GRU are
        block-/row-local so they run unchanged on the stack; DiffPool and the
        final mean read-out reduce per segment.
        """
        projected = relu(self.input_proj(Tensor(features)))
        hidden = projected
        pooled_per_slice: list[Tensor] = []
        for adjacency in slices:
            topo = self.gcn(hidden, adjacency)            # Eq. 14
            hidden = self.gru(topo, hidden)               # Eq. 15-18
            pooled, pooled_adj = hidden, adjacency
            for pool in self.pools:
                pooled, pooled_adj, _assign = pool.forward_batched(pooled, pooled_adj)
            pooled_per_slice.append(
                segment_mean_batch(pooled, pooled_adj.node_offsets))
        return pooled_per_slice

    def forward(self, features: np.ndarray, slices) -> Tensor:
        """``(B, 1)`` logits for a block-diagonal minibatch."""
        pooled_per_slice = self.slice_representations(features, slices)
        weights = softmax(self.slice_logits.reshape(1, -1), axis=1)
        representation = None
        for t, pooled in enumerate(pooled_per_slice):
            weighted = pooled * weights[0, t].reshape(1, 1)
            representation = weighted if representation is None else representation + weighted
        return self.head(relu(representation))            # Eq. 23


class LDGBranch(_StackedBranch):
    """Train/evaluate the local dynamic graph encoder on subgraph samples."""

    _config_cls = LDGConfig

    def _build_network(self, in_dim: int, rng: np.random.Generator) -> _LDGNetwork:
        return _LDGNetwork(in_dim, self.config, rng)

    def _prepare(self, sample: AccountSubgraph):
        features = self._standardize(sample)
        # Cached CSR slices: built once per sample, no dense per-slice matrices.
        slices = sample.time_slices(self.config.num_slices, weighted=False,
                                    sparse=True)
        return features, slices

    def _prepare_batch(self, samples: list[AccountSubgraph]):
        """Stack a minibatch: features vertically, slice ``t`` across samples.

        Each stacked slice seeds its GCN normalisation from the per-sample
        memoized ones, so repeated epochs never re-derive them.
        """
        prepared = [self._prepare(s) for s in samples]
        features = np.vstack([p[0] for p in prepared])
        slices = [SparseAdjacency.block_diagonal(
            [p[1][t] for p in prepared], derived=("gcn_normalized",),
            compose_plans=True)
            for t in range(self.config.num_slices)]
        return features, slices

    def fit(self, samples: list[AccountSubgraph], labels: np.ndarray) -> "LDGBranch":
        return self._fit(samples, labels)

    def predict_scores(self, samples: list[AccountSubgraph]) -> np.ndarray:
        """Raw (uncalibrated) predicted values — the "local predicted value"."""
        return self._predict_scores(samples)

    def slice_weights(self) -> np.ndarray:
        """The learned adaptive time-slice weights ``alpha_t`` (Eq. 22)."""
        self._require_fitted()
        logits = self._network.slice_logits.data
        exp = np.exp(logits - logits.max())
        return exp / exp.sum()
