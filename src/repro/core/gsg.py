"""Global static account transaction encoding module (Section IV-A)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.augmentation import AugmentationConfig, adaptive_augmentation
from repro.core.branch import _StackedBranch
from repro.data.dataset import AccountSubgraph
from repro.gnn.hierarchical import HierarchicalAttentionEncoder
from repro.graph.sparse import BatchedAdjacency, SparseAdjacency
from repro.nn import Adam, Linear, Module, Tensor, nt_xent_loss
from repro.nn.functional import leaky_relu

__all__ = ["GSGConfig", "GSGBranch"]


@dataclass
class GSGConfig:
    """Hyperparameters of the GSG branch.

    Defaults mirror Section V-A4 at laptop scale: a 2-layer GAT encoder, max
    pooling read-out, and the two augmented views with
    ``(P_e, P_f) = (0.3, 0.1)`` and ``(0.4, 0.0)``.

    ``batch_size`` is the number of subgraphs per optimizer step and per
    scoring pass; each chunk is forwarded as one block-diagonal sparse pass
    (loss averaged over its samples).  1, the default, is per-sample SGD.
    """

    hidden_dim: int = 32
    num_layers: int = 2
    num_heads: int = 1
    epochs: int = 20
    batch_size: int = 1
    learning_rate: float = 0.01
    contrastive_weight: float = 0.1
    use_contrastive: bool = True
    contrastive_batch: int = 8
    view1: AugmentationConfig = field(default_factory=lambda: AugmentationConfig(0.3, 0.1))
    view2: AugmentationConfig = field(default_factory=lambda: AugmentationConfig(0.4, 0.0))
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


class _GSGNetwork(Module):
    """Feature alignment (Eq. 6) + hierarchical attention encoder + prediction head."""

    def __init__(self, in_dim: int, edge_dim: int, config: GSGConfig,
                 rng: np.random.Generator):
        super().__init__()
        self.in_dim = in_dim
        self.align = Linear(in_dim + edge_dim, config.hidden_dim, rng=rng)
        self.encoder = HierarchicalAttentionEncoder(
            config.hidden_dim, config.hidden_dim, num_layers=config.num_layers,
            num_heads=config.num_heads, rng=rng)
        self.head = Linear(config.hidden_dim, 1, rng=rng)

    def embed(self, features: np.ndarray, edge_features: np.ndarray,
              adjacency: BatchedAdjacency) -> Tensor:
        """``(B, hidden)`` embeddings of a block-diagonal minibatch.

        ``features`` / ``edge_features`` are the per-sample matrices stacked
        vertically in batch order; the alignment layer and GAT stack are
        row-/block-local, so one stacked pass equals the per-sample loop.
        """
        aligned = leaky_relu(self.align(Tensor(np.hstack([features, edge_features]))))
        return self.encoder.forward_batched(aligned, adjacency)

    def forward(self, features: np.ndarray, edge_features: np.ndarray,
                adjacency: BatchedAdjacency) -> Tensor:
        """``(B, 1)`` logits of a block-diagonal minibatch."""
        return self.head(self.embed(features, edge_features, adjacency))


def _stack(inputs: list[tuple], **block_options) -> tuple:
    """Stack ``(features, edge_features, adjacency)`` triples block-diagonally."""
    features, edge_features, adjacencies = zip(*inputs)
    return (np.vstack(features), np.vstack(edge_features),
            SparseAdjacency.block_diagonal(adjacencies, **block_options))


class GSGBranch(_StackedBranch):
    """Train/evaluate the global static graph encoder on subgraph samples.

    The branch is a binary scorer: :meth:`fit` trains on one-vs-rest labels and
    :meth:`predict_scores` returns raw (uncalibrated) scores — the "global
    predicted value" fed to the joint calibration module.
    """

    _config_cls = GSGConfig

    # ------------------------------------------------------------------ helpers
    def _build_network(self, in_dim: int, rng: np.random.Generator) -> _GSGNetwork:
        return _GSGNetwork(in_dim, 2, self.config, rng)

    def _prepare(self, sample: AccountSubgraph):
        features = self._standardize(sample)
        edge_features = np.log1p(np.abs(sample.node_edge_features()))
        # The sample's cached CSR adjacency: its memoized attention structure
        # and normalisations are shared across every epoch and both
        # contrastive views' un-augmented uses.
        adjacency = sample.adjacency_sparse()
        return features, edge_features, adjacency

    def _prepare_batch(self, samples: list[AccountSubgraph]):
        """Stack a minibatch into one block-diagonal sparse pass.

        The stacked adjacency's attention structure is seeded from the
        per-sample memoized structures (block-local derived forms compose),
        so repeated epochs over the same samples never re-derive it.
        """
        return _stack([self._prepare(s) for s in samples],
                      derived=("attention_structure",), compose_plans=True)

    # ----------------------------------------------------------------- training
    def fit(self, samples: list[AccountSubgraph], labels: np.ndarray) -> "GSGBranch":
        return self._fit(samples, labels)

    def _end_epoch(self, samples: list[AccountSubgraph], rng: np.random.Generator,
                   optimizer: Adam) -> None:
        """One contrastive-regularisation step on a random minibatch of subgraphs."""
        cfg = self.config
        batch_size = min(cfg.contrastive_batch, len(samples))
        if not (cfg.use_contrastive and cfg.contrastive_weight > 0.0) or batch_size < 2:
            return
        batch_idx = rng.choice(len(samples), size=batch_size, replace=False)
        view1, view2 = [], []
        for idx in batch_idx:
            sample = samples[idx]
            features, edge_features, adjacency = self._prepare(sample)
            # RNG order is part of the training contract: view 1 then view 2,
            # in sample order, regardless of how the forwards are grouped.
            adj1, feat1 = adaptive_augmentation(adjacency, features, cfg.view1, rng)
            adj2, feat2 = adaptive_augmentation(adjacency, features, cfg.view2, rng)
            view1.append((feat1, edge_features, adj1))
            view2.append((feat2, edge_features, adj2))
        optimizer.zero_grad()
        z1 = self._embed_views(view1)
        z2 = self._embed_views(view2)
        loss = nt_xent_loss(z1, z2) * cfg.contrastive_weight
        loss.backward()
        optimizer.step()

    def _embed_views(self, views: list[tuple]) -> Tensor:
        """Embed ``(features, edge_features, adjacency)`` views in one stacked pass.

        The augmented adjacencies are fresh, so there are no per-sample memos
        to seed the stack with.
        """
        return self._network.embed(*_stack(views))

    # ---------------------------------------------------------------- inference
    def predict_scores(self, samples: list[AccountSubgraph]) -> np.ndarray:
        """Raw (uncalibrated) predicted values, one per sample."""
        return self._predict_scores(samples)

    def embed(self, sample: AccountSubgraph) -> np.ndarray:
        """The subgraph embedding (useful for inspection and tests)."""
        self._require_fitted()
        return self._network.embed(*self._prepare_batch([sample])).data.ravel()
