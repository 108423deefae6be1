"""GSG/LDG branches with the stacked minibatch kernel replaced by per-sample forwards.

``src/`` forwards every chunk of samples — a single sample included — as one
block-diagonal stack.  This module keeps the per-sample network math
(:func:`gsg_embed`, :func:`gsg_forward`, :func:`ldg_slice_representations`,
:func:`ldg_forward`) that the branches ran on one subgraph at a time before
the stack became their only kernel.

The looped subclasses keep the production ``fit`` — the same chunk schedule,
RNG draws and optimizer steps — and override only how a chunk is prepared and
forwarded: each sample runs through the network on its own and the logits are
concatenated.  Fit and predict therefore agree with the block-diagonal kernel
to ``<= 1e-9`` (floating-point summation order is the only difference), which
``tests/test_batched_training.py`` and ``benchmarks/perf_train.py`` assert.

:func:`legacy_per_sample_fit` is the released ``batch_size == 1`` training
loop, verbatim: one optimizer step per subgraph, a fresh shuffle of the
sample order every epoch.  At ``batch_size=1`` the looped subclasses must
reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core import GSGBranch, LDGBranch
from repro.nn import Adam, Tensor, concat
from repro.nn.functional import leaky_relu, relu, softmax
from repro.nn.losses import binary_cross_entropy_with_logits

__all__ = ["LoopedGSGBranch", "LoopedLDGBranch", "gsg_embed", "gsg_forward",
           "ldg_slice_representations", "ldg_forward", "legacy_per_sample_fit"]


def gsg_embed(network, features: np.ndarray, edge_features: np.ndarray,
              adjacency) -> Tensor:
    """``(1, hidden)`` embedding of one subgraph through a ``_GSGNetwork``."""
    aligned = leaky_relu(network.align(Tensor(np.hstack([features, edge_features]))))
    return network.encoder(aligned, adjacency)


def gsg_forward(network, features: np.ndarray, edge_features: np.ndarray,
                adjacency) -> Tensor:
    """``(1, 1)`` logit of one subgraph through a ``_GSGNetwork``."""
    return network.head(gsg_embed(network, features, edge_features, adjacency))


def ldg_slice_representations(network, features: np.ndarray, slices) -> list[Tensor]:
    """Per-slice pooled evolutionary features ``h^pool_t`` of one subgraph."""
    projected = relu(network.input_proj(Tensor(features)))
    hidden = projected
    pooled_per_slice: list[Tensor] = []
    for adjacency in slices:
        topo = network.gcn(hidden, adjacency)            # Eq. 14
        hidden = network.gru(topo, hidden)               # Eq. 15-18
        pooled, pooled_adj = hidden, adjacency
        for pool in network.pools:
            pooled, pooled_adj, _assign = pool(pooled, pooled_adj)   # Eq. 19-21
        pooled_per_slice.append(pooled.mean(axis=0, keepdims=True))
    return pooled_per_slice


def ldg_forward(network, features: np.ndarray, slices) -> Tensor:
    """``(1, 1)`` logit of one subgraph through an ``_LDGNetwork``."""
    pooled_per_slice = ldg_slice_representations(network, features, slices)
    weights = softmax(network.slice_logits.reshape(1, -1), axis=1)
    representation = None
    for t, pooled in enumerate(pooled_per_slice):
        weighted = pooled * weights[0, t].reshape(1, 1)
        representation = weighted if representation is None else representation + weighted
    return network.head(relu(representation))            # Eq. 23


class _LoopedMinibatches:
    def _prepare_batch(self, samples):
        return [self._prepare(sample) for sample in samples]

    def _batch_logits(self, prepared):
        return concat([self._sample_forward(*inputs).reshape(1) for inputs in prepared],
                      axis=0)


class LoopedGSGBranch(_LoopedMinibatches, GSGBranch):
    def _sample_forward(self, features, edge_features, adjacency):
        return gsg_forward(self._network, features, edge_features, adjacency)

    def _embed_views(self, views):
        # The contrastive views are embedded one at a time as well.
        return concat([gsg_embed(self._network, *view) for view in views], axis=0)


class LoopedLDGBranch(_LoopedMinibatches, LDGBranch):
    def _sample_forward(self, features, slices):
        return ldg_forward(self._network, features, slices)


def legacy_per_sample_fit(branch, samples, labels):
    """Train a looped ``branch`` with the released ``batch_size == 1`` loop."""
    cfg = branch.config
    rng = np.random.default_rng(cfg.seed)
    branch._fit_feature_stats(samples)
    in_dim = samples[0].node_features.shape[1]
    branch._network = branch._build_network(in_dim, rng)
    optimizer = Adam(branch._network.parameters(), lr=cfg.learning_rate)
    labels = np.asarray(labels, dtype=float)
    indices = np.arange(len(samples))
    for _epoch in range(cfg.epochs):
        rng.shuffle(indices)
        for idx in indices:
            optimizer.zero_grad()
            logit = branch._sample_forward(*branch._prepare(samples[idx]))
            loss = binary_cross_entropy_with_logits(logit.reshape(1), [labels[idx]])
            loss.backward()
            optimizer.step()
        branch._end_epoch(samples, rng, optimizer)    # GSG's contrastive step
    return branch
