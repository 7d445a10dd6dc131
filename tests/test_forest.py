from __future__ import annotations

import math

import numpy as np
import pytest

from ergmkit.errors import ConfigError
from ergmkit.forest import ForestConfig, RandomForest

from conftest import rng


class TestConfig:
    def test_invalid(self):
        with pytest.raises(ConfigError):
            ForestConfig(trees=0)
        with pytest.raises(ConfigError):
            ForestConfig(min_leaf=0)
        with pytest.raises(ConfigError):
            ForestConfig(mtry=0)

    def test_too_few_rows(self):
        forest = RandomForest(ForestConfig(), classify=False)
        with pytest.raises(ConfigError):
            forest.fit(np.zeros((1, 2)), np.zeros(1), seed=0)
        with pytest.raises(ConfigError, match="same length"):
            forest.fit(np.zeros((5, 2)), np.zeros(4), seed=0)


class TestClassification:
    def test_constant_labels_constant_predictor(self):
        X = rng(0).normal(size=(30, 3))
        y = np.full(30, 2, dtype=np.int64)
        rf = RandomForest(ForestConfig(trees=10), classify=True).fit(X, y, seed=1)
        assert np.all(rf.predict(X) == 2)
        assert rf.oob_error == 0.0

    def test_single_separating_feature(self):
        X = np.column_stack([np.repeat([0.0, 1.0], 20), rng(1).normal(size=40)])
        y = np.repeat([0, 1], 20)
        rf = RandomForest(ForestConfig(trees=20, mtry=2), classify=True).fit(X, y, seed=2)
        assert np.mean(rf.predict(X) == y) == 1.0

    def test_vote_tie_breaks_to_smallest_code(self):
        # two trees disagree by construction when trained on tiny splits;
        # emulate directly through predict on an even forest
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = np.array([0, 1, 0, 1])
        rf = RandomForest(ForestConfig(trees=16), classify=True).fit(X, y, seed=3)
        pred = rf.predict(np.array([[0.0], [1.0]]))
        assert pred.tolist() == [0, 1]


class TestRegression:
    def test_identity_function_low_mse(self):
        x = np.linspace(0, 1, 200)
        X = x[:, None]
        y = x.copy()
        rf = RandomForest(ForestConfig(trees=60, min_leaf=1), classify=False)
        rf.fit(X, y, seed=4)
        mse = float(np.mean((rf.predict(X) - y) ** 2))
        assert mse <= float(np.var(y)) / 10

    def test_oob_error_reported(self):
        x = rng(5).normal(size=(120, 2))
        y = x[:, 0] * 2 + 0.1 * rng(6).normal(size=120)
        rf = RandomForest(ForestConfig(trees=40), classify=False).fit(x, y, seed=7)
        assert math.isfinite(rf.oob_error)


class TestDegenerateForest:
    def test_min_leaf_at_n_classification_gives_mode(self):
        X = rng(8).normal(size=(25, 2))
        y = np.array([0] * 15 + [1] * 10)
        rf = RandomForest(ForestConfig(trees=1, min_leaf=25), classify=True).fit(X, y, seed=9)
        assert np.all(rf.predict(X) == 0)  # exact training mode

    def test_min_leaf_at_n_regression_gives_mean(self):
        X = rng(10).normal(size=(20, 2))
        y = rng(11).normal(size=20)
        rf = RandomForest(ForestConfig(trees=1, min_leaf=20), classify=False).fit(X, y, seed=12)
        np.testing.assert_allclose(rf.predict(X), np.full(20, y.mean()), atol=1e-12)

    def test_degenerate_forest_has_no_oob(self):
        X = rng(13).normal(size=(10, 2))
        y = rng(14).normal(size=10)
        rf = RandomForest(ForestConfig(trees=3, min_leaf=10), classify=False).fit(X, y, seed=15)
        assert math.isnan(rf.oob_error)


class TestDeterminism:
    def test_same_seed_same_predictions(self):
        X = rng(16).normal(size=(80, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
        a = RandomForest(ForestConfig(trees=30), classify=True).fit(X, y, seed=99)
        b = RandomForest(ForestConfig(trees=30), classify=True).fit(X, y, seed=99)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))
        assert a.oob_error == b.oob_error

    def test_different_seed_differs_somewhere(self):
        X = rng(17).normal(size=(60, 3))
        y = X[:, 0] + 0.5 * rng(18).normal(size=60)
        a = RandomForest(ForestConfig(trees=5), classify=False).fit(X, y, seed=1)
        b = RandomForest(ForestConfig(trees=5), classify=False).fit(X, y, seed=2)
        assert not np.allclose(a.predict(X), b.predict(X))
