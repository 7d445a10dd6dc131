"""Bagged CART trees for the iterative imputer.

Classification trees split on Gini impurity, regression trees on variance
reduction; mtry candidate features are drawn per split. Per-tree random
streams are spawned from the master seed, so results do not depend on
training order. When min_leaf rules out any split, bootstrapping is
skipped and the forest collapses to the exact training aggregate (the
column mode or mean) instead of a resampled one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 100
    mtry: int | None = None  # None: ceil(sqrt(feature count))
    min_leaf: int = 1

    def __post_init__(self):
        if self.trees < 1:
            raise ConfigError("forest needs at least one tree")
        if self.min_leaf < 1:
            raise ConfigError("min_leaf must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigError("mtry must be >= 1")


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value=None, feature=None, threshold=None, left=None, right=None):
        self.value = value
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


def _leaf_value(y: np.ndarray, classify: bool):
    if classify:
        counts = np.bincount(y.astype(np.int64))
        return int(np.argmax(counts))  # argmax tie-break: smallest code
    return float(np.mean(y))


def _best_split(X, y, features, min_leaf, classify):
    """Best (gain, feature, threshold) over the candidate features."""
    n = len(y)
    best_gain = 0.0
    best = None
    if classify:
        n_classes = int(y.max()) + 1 if len(y) else 1
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y.astype(np.int64)] = 1.0
        parent = n - float(np.sum(np.bincount(y.astype(np.int64)) ** 2)) / n
    else:
        parent = float(np.sum((y - y.mean()) ** 2))
    for f in features:
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        cuts = np.flatnonzero(xs[:-1] < xs[1:]) + 1  # left sizes at value changes
        if len(cuts) == 0:
            continue
        cuts = cuts[(cuts >= min_leaf) & (cuts <= n - min_leaf)]
        if len(cuts) == 0:
            continue
        if classify:
            cum = np.cumsum(onehot[order], axis=0)
            left_counts = cum[cuts - 1]
            right_counts = cum[-1] - left_counts
            nl = cuts.astype(np.float64)
            nr = n - nl
            child = (
                nl
                - np.sum(left_counts**2, axis=1) / nl
                + nr
                - np.sum(right_counts**2, axis=1) / nr
            )
        else:
            ys = y[order]
            s1 = np.cumsum(ys)
            s2 = np.cumsum(ys * ys)
            nl = cuts.astype(np.float64)
            left_ss = s2[cuts - 1] - s1[cuts - 1] ** 2 / nl
            nr = n - nl
            right_ss = (s2[-1] - s2[cuts - 1]) - (s1[-1] - s1[cuts - 1]) ** 2 / nr
            child = left_ss + right_ss
        gains = parent - child
        k = int(np.argmax(gains))
        if gains[k] > best_gain + 1e-12:
            best_gain = float(gains[k])
            cut = cuts[k]
            best = (f, float((xs[cut - 1] + xs[cut]) / 2.0))
    if best is None:
        return None
    return best_gain, best[0], best[1]


def _grow(X, y, min_leaf, mtry, classify, rng):
    if len(y) < 2 * min_leaf or (y == y[0]).all():
        return _Node(value=_leaf_value(y, classify))
    n_features = X.shape[1]
    k = min(mtry, n_features)
    features = rng.choice(n_features, size=k, replace=False)
    split = _best_split(X, y, features, min_leaf, classify)
    if split is None:
        return _Node(value=_leaf_value(y, classify))
    _, f, thr = split
    mask = X[:, f] <= thr
    return _Node(
        feature=f,
        threshold=thr,
        left=_grow(X[mask], y[mask], min_leaf, mtry, classify, rng),
        right=_grow(X[~mask], y[~mask], min_leaf, mtry, classify, rng),
    )


def _predict_tree(node: _Node, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    idx = np.arange(len(X))
    stack = [(node, idx)]
    while stack:
        nd, rows = stack.pop()
        if nd.value is not None:
            out[rows] = nd.value
            continue
        mask = X[rows, nd.feature] <= nd.threshold
        stack.append((nd.left, rows[mask]))
        stack.append((nd.right, rows[~mask]))
    return out


class RandomForest:
    """Bagged trees; vote for classification, average for regression."""

    def __init__(self, config: ForestConfig, classify: bool):
        self.config = config
        self.classify = classify
        self._trees: list[_Node] = []
        self.oob_error: float = math.nan
        self.n_classes = 0

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        if self.classify:
            y = np.asarray(y, dtype=np.int64)
            self.n_classes = int(y.max()) + 1 if len(y) else 1
        else:
            y = np.asarray(y, dtype=np.float64)
        n, f = X.shape
        if len(y) != n:
            raise ConfigError("features and labels must have the same length")
        if n < 2:
            raise ConfigError("forest needs at least two training rows")
        cfg = self.config
        mtry = cfg.mtry if cfg.mtry is not None else max(1, math.ceil(math.sqrt(f)))
        splittable = n >= 2 * cfg.min_leaf
        streams = np.random.SeedSequence(seed).spawn(cfg.trees)
        oob_votes = (
            np.zeros((n, self.n_classes)) if self.classify else np.zeros(n)
        )
        oob_counts = np.zeros(n)
        self._trees = []
        for t in range(cfg.trees):
            rng = np.random.Generator(np.random.PCG64(streams[t]))
            if splittable:
                rows = rng.integers(0, n, size=n)
            else:
                rows = np.arange(n)  # constant tree: use the exact aggregate
            tree = _grow(X[rows], y[rows], cfg.min_leaf, mtry, self.classify, rng)
            self._trees.append(tree)
            oob = np.setdiff1d(np.arange(n), rows, assume_unique=False)
            if len(oob):
                pred = _predict_tree(tree, X[oob])
                if self.classify:
                    oob_votes[oob, pred.astype(np.int64)] += 1.0
                else:
                    oob_votes[oob] += pred
                oob_counts[oob] += 1.0
        seen = oob_counts > 0
        if seen.any():
            if self.classify:
                winner = np.argmax(oob_votes[seen], axis=1)
                self.oob_error = float(np.mean(winner != y[seen]))
            else:
                mean_pred = oob_votes[seen] / oob_counts[seen]
                self.oob_error = float(np.mean((mean_pred - y[seen]) ** 2))
        else:
            self.oob_error = math.nan
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.classify:
            votes = np.zeros((len(X), self.n_classes))
            for tree in self._trees:
                pred = _predict_tree(tree, X).astype(np.int64)
                votes[np.arange(len(X)), pred] += 1.0
            return np.argmax(votes, axis=1)  # ties: smallest code
        acc = np.zeros(len(X))
        for tree in self._trees:
            acc += _predict_tree(tree, X)
        return acc / len(self._trees)

