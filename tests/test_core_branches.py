"""Tests for the GSG and LDG encoding branches."""

import numpy as np
import pytest

from repro.core import GSGBranch, GSGConfig, LDGBranch, LDGConfig
from repro.metrics import accuracy


@pytest.fixture(scope="module")
def tiny_task(small_dataset):
    samples, labels = small_dataset.binary_task("exchange", rng=np.random.default_rng(0))
    return samples[:14], labels[:14]


def tiny_gsg_config(**overrides) -> GSGConfig:
    config = GSGConfig(hidden_dim=8, epochs=3, contrastive_batch=4)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def tiny_ldg_config(**overrides) -> LDGConfig:
    config = LDGConfig(hidden_dim=8, epochs=3, num_slices=3, first_pool_clusters=4)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestGSGBranch:
    def test_unfitted_predict_raises(self, tiny_task):
        samples, _labels = tiny_task
        with pytest.raises(RuntimeError):
            GSGBranch(tiny_gsg_config()).predict_scores(samples)

    def test_length_mismatch_raises(self, tiny_task):
        samples, labels = tiny_task
        with pytest.raises(ValueError):
            GSGBranch(tiny_gsg_config()).fit(samples, labels[:-1])

    def test_scores_shape_and_finiteness(self, tiny_task):
        samples, labels = tiny_task
        branch = GSGBranch(tiny_gsg_config()).fit(samples, labels)
        scores = branch.predict_scores(samples)
        assert scores.shape == (len(samples),)
        assert np.all(np.isfinite(scores))

    def test_probabilities_bounded(self, tiny_task):
        samples, labels = tiny_task
        branch = GSGBranch(tiny_gsg_config()).fit(samples, labels)
        probs = branch.predict_proba(samples)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_training_separates_classes_on_train_set(self, tiny_task):
        samples, labels = tiny_task
        branch = GSGBranch(tiny_gsg_config(epochs=8)).fit(samples, labels)
        predictions = (branch.predict_proba(samples) >= 0.5).astype(int)
        assert accuracy(labels, predictions) >= 0.7

    def test_contrastive_can_be_disabled(self, tiny_task):
        samples, labels = tiny_task
        branch = GSGBranch(tiny_gsg_config(use_contrastive=False)).fit(samples, labels)
        assert np.all(np.isfinite(branch.predict_scores(samples)))

    def test_embed_returns_hidden_dim_vector(self, tiny_task):
        samples, labels = tiny_task
        branch = GSGBranch(tiny_gsg_config()).fit(samples, labels)
        assert branch.embed(samples[0]).shape == (8,)

    def test_deterministic_given_seed(self, tiny_task):
        samples, labels = tiny_task
        a = GSGBranch(tiny_gsg_config(seed=3)).fit(samples, labels).predict_scores(samples)
        b = GSGBranch(tiny_gsg_config(seed=3)).fit(samples, labels).predict_scores(samples)
        np.testing.assert_allclose(a, b)


class TestLDGBranch:
    def test_unfitted_predict_raises(self, tiny_task):
        samples, _labels = tiny_task
        with pytest.raises(RuntimeError):
            LDGBranch(tiny_ldg_config()).predict_scores(samples)

    def test_length_mismatch_raises(self, tiny_task):
        samples, labels = tiny_task
        with pytest.raises(ValueError):
            LDGBranch(tiny_ldg_config()).fit(samples, labels[:-1])

    def test_scores_shape_and_finiteness(self, tiny_task):
        samples, labels = tiny_task
        branch = LDGBranch(tiny_ldg_config()).fit(samples, labels)
        scores = branch.predict_scores(samples)
        assert scores.shape == (len(samples),)
        assert np.all(np.isfinite(scores))

    def test_training_separates_classes_on_train_set(self, tiny_task):
        samples, labels = tiny_task
        branch = LDGBranch(tiny_ldg_config(epochs=8)).fit(samples, labels)
        predictions = (branch.predict_proba(samples) >= 0.5).astype(int)
        assert accuracy(labels, predictions) >= 0.7

    def test_slice_weights_form_distribution(self, tiny_task):
        samples, labels = tiny_task
        branch = LDGBranch(tiny_ldg_config()).fit(samples, labels)
        weights = branch.slice_weights()
        assert weights.shape == (3,)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights > 0.0)

    def test_slice_weights_before_fit_raise(self):
        with pytest.raises(RuntimeError):
            LDGBranch(tiny_ldg_config()).slice_weights()

    def test_single_pooling_layer_configuration(self, tiny_task):
        samples, labels = tiny_task
        branch = LDGBranch(tiny_ldg_config(pooling_layers=1)).fit(samples, labels)
        assert np.all(np.isfinite(branch.predict_scores(samples)))

    def test_three_pooling_layers_configuration(self, tiny_task):
        samples, labels = tiny_task
        branch = LDGBranch(tiny_ldg_config(pooling_layers=3)).fit(samples, labels)
        assert np.all(np.isfinite(branch.predict_scores(samples)))


@pytest.mark.parametrize("config_cls", [GSGConfig, LDGConfig])
@pytest.mark.parametrize("batch_size", [0, -3])
def test_batch_size_below_one_rejected(config_cls, batch_size):
    with pytest.raises(ValueError, match="batch_size"):
        config_cls(batch_size=batch_size)
