"""The tree heads fitted with the recursive exact splitter.

Each class subclasses its production head and replaces only the tree growth,
so boosting/bagging schedules, prediction and persistence are the production
code.  These are the original pre-histogram algorithms: the histogram
engine's held-out accuracy is checked against them
(``benchmarks/perf_ensemble.py``), and they must survive the same degenerate
inputs (``tests/test_ensemble_degenerate.py``).
"""

from __future__ import annotations

import numpy as np

from repro.ensemble import (
    AdaBoostClassifier,
    FlatClassifierTree,
    GradientBoostingClassifier,
    LightGBMClassifier,
    RandomForestClassifier,
    XGBoostClassifier,
)
from repro.ensemble.boosting import _sigmoid, _validate_binary

from tests.reference.exact_tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "ExactGradientBoostingClassifier",
    "ExactLightGBMClassifier",
    "ExactXGBoostClassifier",
    "ExactAdaBoostClassifier",
    "ExactRandomForestClassifier",
]


def _exact_regressor(head, rng: np.random.Generator) -> DecisionTreeRegressor:
    return DecisionTreeRegressor(max_depth=head.max_depth,
                                 min_samples_leaf=head.min_samples_leaf,
                                 max_features=head.max_features,
                                 rng=np.random.default_rng(rng.integers(1 << 31)))


def _fit_first_order(head, X, y, raw, rng) -> None:
    """First-order logistic boosting: exact trees on the residuals."""
    for _ in range(head.n_estimators):
        residual = y - _sigmoid(raw)
        idx = head._subsample_mask(rng, len(y))
        tree = _exact_regressor(head, rng).fit(X[idx], residual[idx])
        raw += head.learning_rate * tree.predict(X)
        head._trees.append(tree.flat)


class ExactGradientBoostingClassifier(GradientBoostingClassifier):
    def _fit_trees(self, X, y, raw, rng) -> None:
        _fit_first_order(self, X, y, raw, rng)


class ExactLightGBMClassifier(LightGBMClassifier):
    """The PR-3 algorithm: first-order exact boosting over quantile bin indices.

    Its trees split on *binned* inputs (``input_space == "binned"``), the
    layout of PR-3-era persisted states.
    """

    def _fit_trees(self, X, y, raw, rng) -> None:
        levels = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
        self._bin_edges = [np.unique(np.quantile(X[:, j], levels))
                           for j in range(X.shape[1])]
        self._input_space = "binned"
        _fit_first_order(self, self._legacy_bin(X), y, raw, rng)


class ExactXGBoostClassifier(XGBoostClassifier):
    """The PR-3 approximation: exact trees regressed onto per-row Newton targets."""

    def _fit_trees(self, X, y, raw, rng) -> None:
        for _ in range(self.n_estimators):
            p = _sigmoid(raw)
            gradient = p - y
            hessian = np.maximum(p * (1.0 - p), 1e-6)
            # Newton step target; the Hessian also regularises the leaf values.
            target = -gradient / (hessian + self.reg_lambda / max(len(y), 1))
            tree = _exact_regressor(self, rng).fit(X, target)
            raw += self.learning_rate * tree.predict(X)
            self._trees.append(tree.flat)


class ExactAdaBoostClassifier(AdaBoostClassifier):
    def fit(self, X, y) -> "ExactAdaBoostClassifier":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = _validate_binary(y).astype(int)
        signed = 2 * y - 1
        rng = np.random.default_rng(self.seed)
        n = len(y)
        weights = np.full(n, 1.0 / n)
        self._stumps, self._alphas = [], []
        for _ in range(self.n_estimators):
            idx = rng.choice(n, size=n, replace=True, p=weights)
            reference = DecisionTreeClassifier(
                max_depth=self.max_depth,
                rng=np.random.default_rng(rng.integers(1 << 31)))
            reference.fit(X[idx], y[idx])
            stump = FlatClassifierTree.from_state(reference.get_state())
            predictions = 2 * stump.predict(X).astype(int) - 1
            error = float(weights[predictions != signed].sum())
            error = np.clip(error, 1e-10, 1.0 - 1e-10)
            alpha = 0.5 * np.log((1.0 - error) / error)
            weights = weights * np.exp(-alpha * signed * predictions)
            weights /= weights.sum()
            self._stumps.append(stump)
            self._alphas.append(float(alpha))
            if error < 1e-9:
                break
        return self


class ExactRandomForestClassifier(RandomForestClassifier):
    def fit(self, X, y) -> "ExactRandomForestClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        rng = np.random.default_rng(self.seed)
        max_features = self._resolve_max_features(X.shape[1])
        self._trees = []
        self._invalidate_stack()
        n = len(y)
        for _ in range(self.n_estimators):
            idx = rng.choice(n, size=n, replace=True)
            reference = DecisionTreeClassifier(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                rng=np.random.default_rng(rng.integers(1 << 31)))
            reference.fit(X[idx], y[idx])
            self._trees.append(FlatClassifierTree.from_state(reference.get_state()))
        return self
