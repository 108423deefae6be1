"""Property-based tests for the flat histogram-GBDT engine.

Three invariants the engine must hold for *any* input, checked with
Hypothesis over randomly generated datasets:

* the histogram splitter's chosen split never has lower gain than any
  bin-boundary split found by brute force with the same criterion;
* batched flat-array prediction is bit-identical to the recursive ``_Node``
  descent of the exact reference trees;
* fitting is deterministic per seed — same seed, same data → bitwise
  identical states and predictions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ensemble import (
    GradientBoostingClassifier,
    GrowthParams,
    HistogramBinner,
    LightGBMClassifier,
    RandomForestClassifier,
)
from repro.ensemble.engine import MIN_GAIN, best_histogram_split, newton_gain

from tests.reference.exact_tree import DecisionTreeClassifier, DecisionTreeRegressor

SETTINGS = settings(max_examples=40, deadline=None)


def _dataset(seed: int, n: int, n_features: int, n_unique: int):
    """Deterministic random dataset with controllable feature cardinality."""
    rng = np.random.default_rng(seed)
    levels = rng.normal(size=(n_features, n_unique))
    X = levels[np.arange(n_features), rng.integers(0, n_unique, size=(n, n_features))]
    g = rng.normal(size=n)
    h = np.abs(rng.normal(size=n)) + 0.1
    y = rng.integers(0, 2, size=n)
    return X, g, h, y


def _brute_force_best_gain(codes, g, h, n_edges, params):
    """Score every (feature, bin) boundary directly from the raw rows."""
    best = -np.inf
    n = len(codes)
    g_total, h_total = float(g.sum()), float(h.sum())
    for feature in range(codes.shape[1]):
        for bin_idx in range(int(n_edges[feature])):
            mask = codes[:, feature] <= bin_idx
            n_left = int(mask.sum())
            if n_left < params.min_samples_leaf or n - n_left < params.min_samples_leaf:
                continue
            gain = float(newton_gain(
                np.array(float(g[mask].sum())), np.array(float(h[mask].sum())),
                g_total, h_total, params.reg_lambda))
            best = max(best, gain)
    return best


class TestSplitGainDominance:
    """The vectorised splitter never picks a worse split than brute force."""

    @SETTINGS
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 60),
           n_features=st.integers(1, 4), n_unique=st.integers(1, 12),
           reg_lambda=st.sampled_from([0.0, 1e-3, 1.0]))
    def test_histogram_split_matches_brute_force(self, seed, n, n_features,
                                                 n_unique, reg_lambda):
        X, g, h, _ = _dataset(seed, n, n_features, n_unique)
        binner = HistogramBinner(max_bins=8).fit(X)
        codes = binner.transform(X)
        n_edges = np.asarray([len(e) for e in binner.edges_])
        params = GrowthParams(min_samples_leaf=2, reg_lambda=reg_lambda)
        chosen = best_histogram_split(codes, np.arange(n), g, h, n_edges,
                                      8, params)
        brute = _brute_force_best_gain(codes, g, h, n_edges, params)
        if chosen is None:
            # No usable split — brute force must agree nothing clears the bar.
            assert brute <= MIN_GAIN + 1e-9
        else:
            _, _, gain = chosen
            tolerance = 1e-9 * max(1.0, abs(brute))
            assert gain >= brute - tolerance

    @SETTINGS
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 60),
           n_unique=st.integers(2, 12))
    def test_chosen_split_gain_is_achievable(self, seed, n, n_unique):
        """The reported gain equals the gain recomputed from the partition."""
        X, g, h, _ = _dataset(seed, n, 2, n_unique)
        binner = HistogramBinner(max_bins=8).fit(X)
        codes = binner.transform(X)
        n_edges = np.asarray([len(e) for e in binner.edges_])
        params = GrowthParams(min_samples_leaf=1)
        chosen = best_histogram_split(codes, np.arange(n), g, h, n_edges, 8, params)
        if chosen is None:
            return
        feature, bin_idx, gain = chosen
        mask = codes[:, feature] <= bin_idx
        recomputed = float(newton_gain(
            np.array(float(g[mask].sum())), np.array(float(h[mask].sum())),
            float(g.sum()), float(h.sum()), 0.0))
        assert gain == pytest.approx(recomputed, rel=1e-9, abs=1e-9)


class TestFlatRecursiveBitIdentity:
    """Batched flat descent must reproduce the recursive walk bit for bit."""

    @SETTINGS
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 80),
           n_features=st.integers(1, 4), max_depth=st.integers(1, 5))
    def test_regressor_predict(self, seed, n, n_features, max_depth):
        X, g, _, _ = _dataset(seed, n, n_features, 10)
        tree = DecisionTreeRegressor(max_depth=max_depth).fit(X, g)
        X_eval = np.random.default_rng(seed + 1).normal(size=(32, n_features))
        assert np.array_equal(tree.predict(X_eval), tree.predict_recursive(X_eval))

    @SETTINGS
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 80),
           n_features=st.integers(1, 4), max_depth=st.integers(1, 5))
    def test_classifier_predict_proba(self, seed, n, n_features, max_depth):
        X, _, _, y = _dataset(seed, n, n_features, 10)
        tree = DecisionTreeClassifier(max_depth=max_depth).fit(X, y)
        X_eval = np.random.default_rng(seed + 1).normal(size=(32, n_features))
        assert np.array_equal(tree.predict_proba(X_eval),
                              tree.predict_proba_recursive(X_eval))

    @SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_eval_points_on_thresholds(self, seed):
        """Rows landing exactly on split thresholds route identically."""
        X, g, _, _ = _dataset(seed, 40, 2, 6)
        tree = DecisionTreeRegressor(max_depth=4).fit(X, g)
        thresholds = tree.flat.threshold[tree.flat.feature >= 0]
        if not len(thresholds):
            return
        X_eval = np.column_stack([np.resize(thresholds, 16), np.resize(thresholds, 16)])
        assert np.array_equal(tree.predict(X_eval), tree.predict_recursive(X_eval))


class TestDeterminism:
    """Same seed + same data → bitwise identical fits."""

    HEADS = [
        lambda seed: GradientBoostingClassifier(n_estimators=8, seed=seed,
                                                subsample=0.8, max_features=1),
        lambda seed: LightGBMClassifier(n_estimators=8, seed=seed),
        lambda seed: RandomForestClassifier(n_estimators=8, seed=seed),
    ]

    @SETTINGS
    @given(seed=st.integers(0, 10_000), head=st.integers(0, 2))
    def test_refit_is_bitwise_identical(self, seed, head):
        X, _, _, y = _dataset(seed, 50, 2, 10)
        X_eval = np.random.default_rng(seed + 1).normal(size=(16, 2))
        first = self.HEADS[head](seed).fit(X, y)
        second = self.HEADS[head](seed).fit(X, y)
        assert np.array_equal(first.predict_proba(X_eval),
                              second.predict_proba(X_eval))
        for tree_a, tree_b in zip(first.get_state()["trees"],
                                  second.get_state()["trees"]):
            for key in ("feature", "threshold", "left", "right", "values"):
                assert np.array_equal(tree_a[key], tree_b[key], equal_nan=True)
