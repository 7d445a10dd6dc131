"""Bagged CART trees for the iterative imputer.

Classification trees split on Gini impurity, regression trees on variance
reduction; mtry candidate features are drawn per split. Per-tree random
streams are spawned from the master seed, so results do not depend on
training order. When min_leaf rules out any split, bootstrapping is
skipped and the forest collapses to the exact training aggregate (the
column mode or mean) instead of a resampled one.

Trees grow over Python lists, because their nodes are small (tens of rows)
and a numpy call per node and feature costs more than the arithmetic. A
node is a list of bootstrap positions. Each candidate feature sorts them
once (``sorted`` is stable) and scans them once, scoring every cut between
distinct values: classification keeps exact integer class counts,
regression takes prefix sums in sequence. The gains are those of a stable
argsort with cumulative sums, bit for bit; the first cut of largest gain
wins within a feature, and a later feature must beat the best by 1e-12.
Regression node means and impurities keep numpy's pairwise sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError, DataError


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


def _class_leaf(counts: list[int]) -> int:
    return counts.index(max(counts))  # first maximum: smallest code


def _gini_cut(xs, ys, counts, squares, parent, lo, hi):
    """Gain and left size of the first cut of largest Gini gain.

    ``xs`` is the node's feature column in sorted order, ``ys`` its labels
    in the same order, ``counts`` the node's class counts and ``squares``
    their sum of squares. The left side's sum of squared counts ``sl`` and
    the sum ``d`` of node counts over its labels give the right side's,
    ``squares - 2 d + sl``. All three stay exact integers, so the gain is
    the one a cumulative sum would give.
    """
    n = len(xs)
    left = [0] * len(counts)
    sl = d = 0
    best, cut, nl = -math.inf, 0, 0
    for c, a, b in zip(ys, xs, xs[1:]):
        nl += 1
        k = left[c]
        left[c] = k + 1
        sl += k + k + 1
        d += counts[c]
        if a < b and lo <= nl <= hi:
            nr = n - nl
            gain = parent - (nl - sl / nl + nr - (squares - d - d + sl) / nr)
            if gain > best:
                best, cut = gain, nl
    return best, cut


def _variance_cut(xs, ys, parent, lo, hi):
    """As ``_gini_cut``, for the variance reduction of a regression tree.

    Prefix sums add in sequence, as ``np.cumsum`` does. A NaN gain from
    overflow disqualifies the feature, as it does under ``np.argmax``.
    """
    n = len(xs)
    s1 = list(accumulate(ys))
    s2 = list(accumulate([v * v for v in ys]))
    t1, t2 = s1[-1], s2[-1]
    best, cut = -math.inf, 0
    for nl in range(lo, hi + 1):
        if xs[nl - 1] < xs[nl]:
            a1, a2 = s1[nl - 1], s2[nl - 1]
            b1 = t1 - a1
            gain = parent - ((a2 - a1 * a1 / nl) + ((t2 - a2) - b1 * b1 / (n - nl)))
            if gain != gain:
                return -math.inf, 0
            if gain > best:
                best, cut = gain, nl
    return best, cut


def _best_split(cols, y, rows, features, min_leaf, counts, squares, parent):
    """Best (feature, threshold) over the candidate features, or None.

    ``counts`` holds the node's class counts for a classification tree and
    is None for a regression tree. Each feature's rows are sorted once,
    stably, and scanned once; the first feature to beat the running best
    by more than 1e-12 wins.
    """
    lo, hi = min_leaf, len(rows) - min_leaf
    best_gain = 0.0
    best = None
    for f in features:
        col = cols[f]
        order = sorted(rows, key=col.__getitem__)
        xs = list(map(col.__getitem__, order))
        ys = list(map(y.__getitem__, order))
        if counts is None:
            gain, cut = _variance_cut(xs, ys, parent, lo, hi)
        else:
            gain, cut = _gini_cut(xs, ys, counts, squares, parent, lo, hi)
        if gain > best_gain + 1e-12:
            best_gain = gain
            a, b = xs[cut - 1], xs[cut]
            thr = (a + b) / 2.0
            # between adjacent floats the midpoint can round up to b, where
            # ``x <= thr`` would leave the right child empty
            best = (f, thr if thr < b else a)
    return best


def _grow(cols, y, yb, rows, min_leaf, mtry, n_classes, rng):
    """Grow the subtree over bootstrap positions ``rows``, in their order.

    ``cols`` and ``y`` are the bootstrap sample's feature columns and
    labels as lists; ``yb`` is the label array, used for the pairwise sums
    of a regression node. ``n_classes`` is 0 for a regression tree.
    """
    n = len(rows)
    if n_classes:
        counts = [0] * n_classes
        for r in rows:
            counts[y[r]] += 1
        if n < 2 * min_leaf or max(counts) == n:
            return _Node(value=_class_leaf(counts))
        squares = sum(c * c for c in counts)
        parent = n - squares / n
    else:
        counts = squares = None
        yv = yb[rows]
        if n < 2 * min_leaf or (yv == yv[0]).all():
            return _Node(value=float(np.mean(yv)))
        parent = float(np.sum((yv - yv.mean()) ** 2))
    features = rng.choice(len(cols), size=min(mtry, len(cols)), replace=False)
    split = _best_split(
        cols, y, rows, features.tolist(), min_leaf, counts, squares, parent
    )
    if split is None:
        return _Node(value=_class_leaf(counts) if n_classes else float(np.mean(yv)))
    f, thr = split
    col = cols[f]
    left = [r for r in rows if col[r] <= thr]
    right = [r for r in rows if col[r] > thr]
    return _Node(
        feature=f,
        threshold=thr,
        left=_grow(cols, y, yb, left, min_leaf, mtry, n_classes, rng),
        right=_grow(cols, y, yb, right, min_leaf, mtry, n_classes, rng),
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
        y = np.asarray(y, dtype=np.float64)
        # sorting needs a total order, and a class code indexes a count list
        if np.isnan(X).any():
            raise DataError("forest features contain NaN")
        if np.isnan(y).any():
            raise DataError("forest labels contain NaN")
        if self.classify:
            if not (np.isfinite(y) & (y >= 0) & (y == np.floor(y))).all():
                raise DataError("class labels must be non-negative integers")
            y = y.astype(np.int64)
            self.n_classes = int(y.max()) + 1 if len(y) else 1
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
            Xb, yb = X[rows], y[rows]
            tree = _grow(
                Xb.T.tolist(),
                yb.tolist(),
                yb,
                list(range(n)),
                cfg.min_leaf,
                mtry,
                self.n_classes if self.classify else 0,
                rng,
            )
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

