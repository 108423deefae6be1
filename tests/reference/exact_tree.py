"""Exact-splitter CART trees: the reference the histogram engine is checked against.

A regressor (the weak learner of the exact boosting references) and a
classifier.  Both use the *exact* splitter — every distinct threshold of
every feature scored on the raw rows — and grow a recursive ``_Node`` tree.
Fitted trees are also flattened into preorder arrays
(:class:`~repro.ensemble.engine.FlatTree`), so ``predict`` runs the
production batched descent while ``predict_recursive`` /
``predict_proba_recursive`` walk the ``_Node`` tree row by row; the two are
pinned bit-identical by ``tests/test_ensemble_property.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ensemble.engine import FlatTree

__all__ = ["DecisionTreeRegressor", "DecisionTreeClassifier"]


@dataclass
class _Node:
    """A tree node: either a split (feature, threshold, children) or a leaf (value)."""

    value: np.ndarray | float | None = None
    feature: int | None = None
    threshold: float | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class _BaseTree:
    """Shared recursive splitting machinery."""

    def __init__(self, max_depth: int = 3, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features: int | None = None,
                 rng: np.random.Generator | None = None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng or np.random.default_rng(0)
        self._root: _Node | None = None
        self._flat: FlatTree | None = None

    # Subclasses provide impurity and leaf-value computation.
    def _impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def _leaf_value(self, y: np.ndarray):
        raise NotImplementedError

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D array")
        if len(X) != len(y):
            raise ValueError("X and y must have the same number of rows")
        self._n_features = X.shape[1]
        self._flat = None                       # invalidate before regrowing
        self._root = self._grow(X, y, depth=0)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        if (depth >= self.max_depth or len(y) < self.min_samples_split
                or self._impurity(y) <= 1e-12):
            return _Node(value=self._leaf_value(y))
        feature, threshold = self._best_split(X, y)
        if feature is None:
            return _Node(value=self._leaf_value(y))
        mask = X[:, feature] <= threshold
        left = self._grow(X[mask], y[mask], depth + 1)
        right = self._grow(X[~mask], y[~mask], depth + 1)
        return _Node(feature=feature, threshold=threshold, left=left, right=right)

    def _candidate_features(self) -> np.ndarray:
        if self.max_features is None or self.max_features >= self._n_features:
            return np.arange(self._n_features)
        return self.rng.choice(self._n_features, size=self.max_features, replace=False)

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int | None, float | None]:
        best_gain, best_feature, best_threshold = 0.0, None, None
        parent_impurity = self._impurity(y)
        n = len(y)
        for feature in self._candidate_features():
            values = X[:, feature]
            # Candidate thresholds: midpoints between distinct sorted values
            # (capped to keep fitting fast on large calibration sets).
            unique = np.unique(values)
            if len(unique) <= 1:
                continue
            if len(unique) > 32:
                unique = np.quantile(values, np.linspace(0.02, 0.98, 32))
                unique = np.unique(unique)
            thresholds = (unique[:-1] + unique[1:]) / 2.0
            for threshold in thresholds:
                mask = values <= threshold
                n_left = int(mask.sum())
                n_right = n - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                gain = parent_impurity - (
                    n_left / n * self._impurity(y[mask])
                    + n_right / n * self._impurity(y[~mask]))
                if gain > best_gain + 1e-15:
                    best_gain, best_feature, best_threshold = gain, int(feature), float(threshold)
        return best_feature, best_threshold

    def _predict_row(self, row: np.ndarray):
        node = self._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def depth(self) -> int:
        """Actual depth of the fitted tree (0 for a single leaf)."""
        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise RuntimeError("tree has not been fitted")
        return walk(self._root)

    # ------------------------------------------------------------- persistence
    def _structure_arrays(self, value_to_row) -> dict:
        """Flatten the node tree into parallel preorder arrays.

        Internal nodes store ``feature >= 0`` and child indices; leaves store
        ``feature == -1`` and their value (mapped through ``value_to_row``).
        """
        if self._root is None:
            raise RuntimeError("tree has not been fitted")
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        values: list = []

        def visit(node: _Node) -> int:
            idx = len(feature)
            feature.append(-1 if node.is_leaf else int(node.feature))
            threshold.append(np.nan if node.is_leaf else float(node.threshold))
            left.append(-1)
            right.append(-1)
            values.append(value_to_row(node.value))
            if not node.is_leaf:
                left[idx] = visit(node.left)
                right[idx] = visit(node.right)
            return idx

        visit(self._root)
        return {
            "n_features": int(getattr(self, "_n_features", 0)),
            "feature": np.asarray(feature, dtype=np.int64),
            "threshold": np.asarray(threshold, dtype=np.float64),
            "left": np.asarray(left, dtype=np.int64),
            "right": np.asarray(right, dtype=np.int64),
            "values": np.asarray(values, dtype=np.float64),
        }

    def _load_structure_arrays(self, state: dict, row_to_value) -> None:
        feature = np.asarray(state["feature"], dtype=np.int64)
        threshold = np.asarray(state["threshold"], dtype=np.float64)
        left = np.asarray(state["left"], dtype=np.int64)
        right = np.asarray(state["right"], dtype=np.int64)
        values = np.asarray(state["values"], dtype=np.float64)
        self._n_features = int(state["n_features"])

        def build(idx: int) -> _Node:
            if feature[idx] < 0:
                return _Node(value=row_to_value(values[idx]))
            return _Node(feature=int(feature[idx]), threshold=float(threshold[idx]),
                         left=build(int(left[idx])), right=build(int(right[idx])))

        self._root = build(0)


class DecisionTreeRegressor(_BaseTree):
    """Variance-reduction regression tree (the weak learner inside boosting)."""

    def _impurity(self, y: np.ndarray) -> float:
        return float(np.var(y)) if len(y) else 0.0

    def _leaf_value(self, y: np.ndarray) -> float:
        return float(np.mean(y)) if len(y) else 0.0

    def fit(self, X, y) -> "DecisionTreeRegressor":
        self._fit(np.asarray(X, dtype=float), np.asarray(y, dtype=float))
        self._flat = FlatTree.from_state(self.get_state())
        return self

    def predict(self, X) -> np.ndarray:
        if self._flat is None:
            raise RuntimeError("tree has not been fitted")
        return self._flat.predict_values(X)

    def predict_recursive(self, X) -> np.ndarray:
        """Reference per-row recursive descent (bit-identical to ``predict``)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.array([self._predict_row(row) for row in X])

    @property
    def flat(self) -> FlatTree:
        if self._flat is None:
            raise RuntimeError("tree has not been fitted")
        return self._flat

    def get_state(self) -> dict:
        """Serializable fitted state (preorder node arrays)."""
        if self._flat is not None:
            return self._flat.get_state()
        return self._structure_arrays(lambda v: 0.0 if v is None else float(v))

    def set_state(self, state: dict) -> "DecisionTreeRegressor":
        self._load_structure_arrays(state, float)
        self._flat = FlatTree.from_state(state)
        return self


class DecisionTreeClassifier(_BaseTree):
    """Gini-impurity classification tree supporting any number of classes."""

    def _impurity(self, y: np.ndarray) -> float:
        if len(y) == 0:
            return 0.0
        _, counts = np.unique(y, return_counts=True)
        proportions = counts / len(y)
        return float(1.0 - (proportions ** 2).sum())

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        probs = np.zeros(self._n_classes)
        if len(y):
            for cls, count in zip(*np.unique(y, return_counts=True)):
                probs[self._class_to_index[cls]] = count / len(y)
        else:
            probs[:] = 1.0 / self._n_classes
        return probs

    def fit(self, X, y) -> "DecisionTreeClassifier":
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        self._n_classes = len(self.classes_)
        self._class_to_index = {cls: i for i, cls in enumerate(self.classes_)}
        self._fit(np.asarray(X, dtype=float), y)
        self._flat = FlatTree.from_state(self.get_state())
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self._flat is None:
            raise RuntimeError("tree has not been fitted")
        return self._flat.predict_values(X)

    def predict_proba_recursive(self, X) -> np.ndarray:
        """Reference per-row recursive descent (bit-identical to ``predict_proba``)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.vstack([self._predict_row(row) for row in X])

    def predict(self, X) -> np.ndarray:
        probs = self.predict_proba(X)
        return self.classes_[np.argmax(probs, axis=1)]

    @property
    def flat(self) -> FlatTree:
        if self._flat is None:
            raise RuntimeError("tree has not been fitted")
        return self._flat

    def get_state(self) -> dict:
        """Serializable fitted state (preorder node arrays + class labels)."""
        if self._flat is not None:
            state = self._flat.get_state()
        else:
            n_classes = self._n_classes
            state = self._structure_arrays(
                lambda v: np.zeros(n_classes) if v is None else np.asarray(v, dtype=float))
        state = dict(state)
        state["classes"] = np.asarray(self.classes_)
        return state

    def set_state(self, state: dict) -> "DecisionTreeClassifier":
        self.classes_ = np.asarray(state["classes"])
        self._n_classes = len(self.classes_)
        self._class_to_index = {cls: i for i, cls in enumerate(self.classes_)}
        self._load_structure_arrays(state, lambda row: np.asarray(row, dtype=float))
        self._flat = FlatTree.from_state(state)
        return self
