from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergmkit.errors import ConfigError, DataError
from ergmkit.forest import ForestConfig, RandomForest

from conftest import reference_forest, rng


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

    @pytest.mark.parametrize(
        "classify, x, y, named",
        [
            pytest.param(False, [0, np.nan, 1], [0, 1, 2], "features", id="nan-feature"),
            pytest.param(True, [0, np.nan, 1], [0, 1, 1], "features", id="nan-feature-class"),
            pytest.param(False, [0, 1, 2], [0, np.nan, 2], "labels", id="nan-label"),
            pytest.param(True, [0, 1, 2], [0, np.nan, 1], "labels", id="nan-class"),
            pytest.param(True, [0, 1, 2], [0, -1, 1], "non-negative", id="negative-class"),
            pytest.param(True, [0, 1, 2], [0, 0.5, 1], "integers", id="fractional-class"),
        ],
    )
    def test_bad_training_data_is_data_error(self, classify, x, y, named):
        forest = RandomForest(ForestConfig(trees=2), classify=classify)
        with pytest.raises(DataError, match=named):
            forest.fit(np.array(x, dtype=float)[:, None], np.array(y), seed=0)


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

    def test_split_between_adjacent_floats(self):
        # (a + b) / 2 rounds up to b here; the split must still separate a from b
        a, b = math.nextafter(10.0, 0.0), 10.0
        X = np.array([[a], [b], [a], [b]])
        y = np.array([0, 1, 0, 1])
        rf = RandomForest(ForestConfig(trees=8), classify=True).fit(X, y, seed=4)
        assert (rf._threshold[rf._feature >= 0] == a).all()
        assert rf.predict(np.array([[a], [b]])).tolist() == [0, 1]


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
    def test_same_seed_same_predictions(self, monkeypatch):
        """Two fits with one seed give identical node arrays, OOB error and
        prediction bytes, for both kinds; growing one tree per group (a tiny
        ``_GROUP_ENTRIES``) grows the same trees."""
        X = rng(16).normal(size=(80, 4))
        for classify in (True, False):
            y = (X[:, 0] + X[:, 1] > 0).astype(np.int64) if classify else X[:, 0] + X[:, 2]
            a, b = (RandomForest(ForestConfig(trees=30), classify).fit(X, y, seed=99) for _ in "ab")
            for name in ("_feature", "_threshold", "_left", "_right", "_value", "_root"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert repr(a.oob_error) == repr(b.oob_error)
            assert a.predict(X).tobytes() == b.predict(X).tobytes()
            with monkeypatch.context() as patch:
                patch.setattr("ergmkit.forest._GROUP_ENTRIES", 1)
                c = RandomForest(ForestConfig(trees=30), classify).fit(X, y, seed=99)
            assert len(set(np.diff(c._root))) > 1  # the groups are interleaved
            assert [_tuples(c, r) for r in c._root] == [_tuples(a, r) for r in a._root]
            assert repr(c.oob_error) == repr(a.oob_error)
            assert c.predict(X).tobytes() == a.predict(X).tobytes()

    def test_different_seed_differs_somewhere(self):
        X = rng(17).normal(size=(60, 3))
        y = X[:, 0] + 0.5 * rng(18).normal(size=60)
        a = RandomForest(ForestConfig(trees=5), classify=False).fit(X, y, seed=1)
        b = RandomForest(ForestConfig(trees=5), classify=False).fit(X, y, seed=2)
        assert not np.allclose(a.predict(X), b.predict(X))


def _tuples(rf, node):
    """Tree node ``node`` of a fitted forest and its subtree, as nested tuples."""
    if rf._feature[node] < 0:
        value = rf._value[node]
        return ("leaf", int(value) if rf.classify else float(value))
    return (
        int(rf._feature[node]),
        float(rf._threshold[node]),
        _tuples(rf, rf._left[node]),
        _tuples(rf, rf._right[node]),
    )


@st.composite
def forest_problems(draw):
    n = draw(st.integers(2, 80))
    f = draw(st.integers(1, 6))
    columns = []
    for _ in range(f):
        cell = draw(
            st.sampled_from(
                [
                    st.floats(-10, 10, allow_nan=False),
                    st.integers(0, 3).map(float),
                    st.sampled_from([-0.0, 0.0, 1.0]),
                    st.just(draw(st.floats(-1, 1, allow_nan=False))),  # constant column
                ]
            )
        )
        columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
    classify = draw(st.booleans())
    if classify:
        label = st.integers(0, draw(st.integers(0, 11)))
    else:
        label = draw(st.sampled_from([st.floats(-100, 100), st.sampled_from([-1.5, 0.0, 2.0])]))
    y = draw(st.lists(label, min_size=n, max_size=n))
    mtry = draw(st.one_of(st.none(), st.integers(1, f)))
    min_leaf = draw(st.integers(1, 5))
    return np.array(columns).T, np.array(y), classify, mtry, min_leaf


_LINE = np.arange(40.0)
_DEEP_X = np.column_stack([_LINE, _LINE[::-1] % 7])
# two features that cut the same rows in different orders: their gains
# differ by ~1e-14, and the later candidate must not win
_TIE_X = np.array([[0, 1, 2, 3, 4, 5, 2.5, 7], [2, 1, 0, 5, 4, 3, -1, 9]]).T
_TIE_Y = np.array([0.1, 0.7, 0.2, 5.3, 5.2, 5.1, 0.3, 5.9])
# squared labels overflow, so every gain is NaN and no feature qualifies
_HUGE_Y = np.array([1e200, -1e200, 1e200, -1e200, 1.0, 2.0, 3.0, 4.0])


class TestReference:
    @settings(max_examples=200, deadline=None)
    @given(forest_problems(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @example((_DEEP_X, 2.0 ** _LINE, False, None, 1), 2, 3)  # depth 17 and 16
    @example((_DEEP_X, _LINE.astype(int) % 2, True, None, 1), 2, 3)  # depth 19
    @example((_TIE_X, _TIE_Y, False, 2, 1), 4, 0)
    @example((_TIE_X[:, ::-1], _TIE_Y, False, 2, 1), 4, 5)
    @example((_TIE_X, _HUGE_Y, False, 2, 1), 3, 1)
    @example((_DEEP_X[:10], _LINE[:10] % 3, True, None, 6), 3, 2)  # min_leaf > n / 2
    @example((_DEEP_X[:10], _LINE[:10] ** 2, False, 1, 6), 3, 2)
    def test_trees_equal_the_per_node_numpy_search(self, problem, trees, seed):
        X, y, classify, mtry, min_leaf = problem
        rf = RandomForest(ForestConfig(trees=trees, mtry=mtry, min_leaf=min_leaf), classify)
        rf.fit(X, y, seed)
        want, predict, oob_error = reference_forest(X, y, trees, mtry, min_leaf, classify, seed)
        got = [_tuples(rf, root) for root in rf._root]
        assert got == want
        assert repr(got) == repr(want)  # signed zeros too
        assert rf.predict(X).tobytes() == predict(X).tobytes()
        assert repr(rf.oob_error) == repr(oob_error)


class TestEdges:
    def fitted(self):
        X = rng(20).normal(size=(30, 3))
        return RandomForest(ForestConfig(trees=4), classify=True).fit(X, X[:, 0] > 0, seed=1)

    def test_predict_before_fit_is_config_error(self):
        forest = RandomForest(ForestConfig(trees=2), classify=False)
        with pytest.raises(ConfigError, match="fit"):
            forest.predict(np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "shape", [(5, 4), (5, 2), (5,), (5, 3, 1)], ids=["more", "fewer", "1-D", "3-D"]
    )
    def test_predict_with_wrong_columns_is_data_error(self, shape):
        with pytest.raises(DataError, match=re.escape(str(shape))):
            self.fitted().predict(np.zeros(shape))

    def test_predict_nan_feature_is_data_error(self):
        X = np.zeros((4, 3))
        X[2, 1] = np.nan
        with pytest.raises(DataError, match="NaN"):
            self.fitted().predict(X)

    def test_fit_on_1d_features_is_data_error(self):
        forest = RandomForest(ForestConfig(trees=2), classify=False)
        with pytest.raises(DataError, match=re.escape("(6,)")):
            forest.fit(np.arange(6.0), np.arange(6.0), seed=0)

    def test_fit_on_2d_labels_is_data_error(self):
        forest = RandomForest(ForestConfig(trees=2), classify=True)
        with pytest.raises(DataError, match=re.escape("(6, 1)")):
            forest.fit(np.zeros((6, 2)), np.zeros((6, 1)), seed=0)
