"""The fit / predict / persistence skeleton shared by the GSG and LDG branches.

Both branches train and score through one kernel at every batch size: a chunk
of samples is stacked block-diagonally (:meth:`_StackedBranch._prepare_batch`)
and forwarded by the branch network in one pass.  A chunk of one sample is a
block of one, so there is no separate per-sample path.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import AccountSubgraph
from repro.nn import Adam, Module, Tensor
from repro.nn.losses import binary_cross_entropy_with_logits


class _StackedBranch:
    """Binary scorer over account subgraphs, trained on block-diagonal stacks.

    Subclasses set ``_config_cls`` (the default config) and provide
    ``_build_network(in_dim, rng)`` — a module whose ``forward(*stack)``
    returns ``(B, 1)`` logits and which records its input width as
    ``in_dim`` — and ``_prepare_batch(samples)``, which stacks a chunk of
    samples into that module's inputs.  ``_end_epoch`` is a per-epoch hook
    (GSG's contrastive step).  Each subclass defines its own ``fit`` and
    ``predict_scores`` over :meth:`_fit` / :meth:`_predict_scores`, because
    ``perfbench/tracing.py`` times them through the class ``__dict__``.
    """

    def __init__(self, config=None):
        self.config = config or self._config_cls()
        self._network: Module | None = None
        self._feature_stats: tuple[np.ndarray, np.ndarray] | None = None

    def _end_epoch(self, samples: list[AccountSubgraph], rng: np.random.Generator,
                   optimizer: Adam) -> None:
        """Runs after every training epoch; no-op by default."""

    def _require_fitted(self) -> None:
        if self._network is None:
            raise RuntimeError(f"{type(self).__name__} has not been fitted")

    def _standardize(self, sample: AccountSubgraph) -> np.ndarray:
        mean, std = self._feature_stats
        return (sample.node_features - mean) / std

    def _fit_feature_stats(self, samples: list[AccountSubgraph]) -> None:
        stacked = np.vstack([s.node_features for s in samples])
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        std[std < 1e-12] = 1.0
        self._feature_stats = (mean, std)

    def _batch_logits(self, stack) -> Tensor:
        """``(B,)`` logits of one :meth:`_prepare_batch` stack."""
        return self._network(*stack).reshape(-1)

    # ----------------------------------------------------------------- training
    def _fit(self, samples: list[AccountSubgraph], labels: np.ndarray):
        if len(samples) != len(labels):
            raise ValueError("samples and labels must have the same length")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self._fit_feature_stats(samples)
        self._network = self._build_network(samples[0].node_features.shape[1], rng)
        optimizer = Adam(self._network.parameters(), lr=cfg.learning_rate)
        labels = np.asarray(labels, dtype=float)
        indices = np.arange(len(samples))
        if cfg.batch_size > 1:
            # Minibatch compositions are fixed by one seeded shuffle.  A chunk
            # of one sample has no composition to draw, so batch 1 skips the
            # draw and visits samples in per-sample SGD order.
            rng.shuffle(indices)
        chunks = [indices[start:start + cfg.batch_size]
                  for start in range(0, len(indices), cfg.batch_size)]
        # Epochs re-shuffle only the visit order, so each chunk's stack — with
        # its composed derived forms and transpose plans — is built once per
        # fit and reused every epoch.
        stacks = [self._prepare_batch([samples[i] for i in chunk])
                  for chunk in chunks]
        order = np.arange(len(chunks))
        for _epoch in range(cfg.epochs):
            rng.shuffle(order)
            for j in order:
                optimizer.zero_grad()
                logits = self._batch_logits(stacks[j])
                loss = binary_cross_entropy_with_logits(logits, labels[chunks[j]])
                loss.backward()
                optimizer.step()
            self._end_epoch(samples, rng, optimizer)
        return self

    # ---------------------------------------------------------------- inference
    def _predict_scores(self, samples: list[AccountSubgraph]) -> np.ndarray:
        self._require_fitted()
        size = self.config.batch_size
        logits = [self._batch_logits(self._prepare_batch(samples[start:start + size])).data
                  for start in range(0, len(samples), size)]
        return np.concatenate(logits) if logits else np.zeros(0)

    def predict_proba(self, samples: list[AccountSubgraph]) -> np.ndarray:
        """Sigmoid of the raw scores (used when the branch runs standalone)."""
        scores = self.predict_scores(samples)
        return 1.0 / (1.0 + np.exp(-np.clip(scores, -30, 30)))

    # ------------------------------------------------------------- persistence
    def get_state(self) -> dict:
        """Serializable fitted state: feature scaler stats + network weights.

        The branch hyperparameters are *not* part of the state — restore into a
        branch constructed with the same config.
        """
        self._require_fitted()
        mean, std = self._feature_stats
        return {
            "in_dim": int(self._network.in_dim),
            "feature_mean": np.asarray(mean),
            "feature_std": np.asarray(std),
            "params": self._network.state_dict(),
        }

    def set_state(self, state: dict):
        """Restore a fitted branch from :meth:`get_state` output."""
        self._feature_stats = (np.asarray(state["feature_mean"], dtype=float),
                               np.asarray(state["feature_std"], dtype=float))
        self._network = self._build_network(int(state["in_dim"]),
                                            np.random.default_rng(self.config.seed))
        self._network.load_state_dict([np.asarray(p, dtype=float) for p in state["params"]])
        return self
