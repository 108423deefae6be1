"""Flat classification trees: preorder node arrays plus class labels.

The classification heads (AdaBoost stumps, random-forest members) hold their
fitted trees as :class:`FlatClassifierTree` — grown directly by the histogram
engine (:mod:`repro.ensemble.engine`) or loaded verbatim from a PR-3-era
preorder state — and predict all rows in one batched descent.
"""

from __future__ import annotations

import numpy as np

from repro.ensemble.engine import FlatTree

__all__ = ["FlatClassifierTree"]


class FlatClassifierTree:
    """A fitted classification tree held purely as flat arrays plus labels.

    Its ``get_state`` format is the PR-3 preorder contract (node arrays +
    ``classes``), so states written by the original recursive trees load
    unchanged.
    """

    __slots__ = ("_flat", "classes_")

    def __init__(self, flat: FlatTree, classes):
        self._flat = flat
        self.classes_ = np.asarray(classes)

    @classmethod
    def from_state(cls, state: dict) -> "FlatClassifierTree":
        return cls(FlatTree.from_state(state), state["classes"])

    def get_state(self) -> dict:
        state = dict(self._flat.get_state())
        state["classes"] = np.asarray(self.classes_)
        return state

    @property
    def flat(self) -> FlatTree:
        return self._flat

    def predict_proba(self, X) -> np.ndarray:
        return self._flat.predict_values(X)

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
