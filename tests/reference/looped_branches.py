"""GSG/LDG branches with the stacked minibatch kernel replaced by per-sample forwards.

The subclasses keep the production ``fit`` — the same fixed-composition
minibatch schedule, RNG draws and optimizer steps — and override only how a
minibatch is prepared and forwarded: each sample runs through the network on
its own and the logits are concatenated.  Fit and predict therefore agree
with the block-diagonal kernel to ``<= 1e-9`` (floating-point summation order
is the only difference), which ``tests/test_batched_training.py`` and
``benchmarks/perf_train.py`` assert.
"""

from __future__ import annotations

from repro.core import GSGBranch, LDGBranch
from repro.nn import concat

__all__ = ["LoopedGSGBranch", "LoopedLDGBranch"]


class _LoopedMinibatches:
    def _prepare_batch(self, samples):
        return [self._prepare(sample) for sample in samples]

    def _batch_logits(self, prepared):
        return concat([self._network(*inputs).reshape(1) for inputs in prepared],
                      axis=0)


class LoopedGSGBranch(_LoopedMinibatches, GSGBranch):
    def _embed_views(self, views):
        # The contrastive views are embedded one at a time as well.
        return concat([self._network.embed(*view) for view in views], axis=0)


class LoopedLDGBranch(_LoopedMinibatches, LDGBranch):
    pass
