"""Bagged CART trees for the iterative imputer.

Classification trees split on Gini impurity, regression trees on variance
reduction; mtry candidate features are tried per split. Per-tree random
streams are spawned from the master seed, so results do not depend on
training order. When min_leaf rules out any split, bootstrapping is skipped
and the forest collapses to the exact training aggregate (the column mode or
mean) instead of a resampled one.

Trees grow together, one depth level at a time, with a fixed number of numpy
calls per level over every node of that level in every tree; past
``_GROUP_ENTRIES`` (sample, candidate) pairs they grow in groups, which
bounds memory and changes no tree. Each tree's stream draws its bootstrap
rows, then at each level one ``random((k, F))`` block for its k nodes that
may split, in level order (left child before right). A node tries the mtry
features of smallest uniform, in that order: a uniform random subset. The
split search is one stable argsort of (segment, dense value rank) keys over
all (node row, candidate) entries. Classification scores cuts with exact
integer class counts; regression with running sums in sorted order, and node
means and impurities with running sums in bootstrap order, each added in
sequence from zero. The first cut of largest gain wins within a feature, a
NaN gain disqualifies the feature, and a later feature must beat the best by
1e-12. Trees are flat node arrays; prediction walks the trees of a group at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import count, setting
from .errors import ConfigError, DataError

_GROUP_ENTRIES = 1 << 16  # (sample, candidate) pairs of a tree group: bounds level memory


@dataclass(frozen=True)
class ForestConfig:
    trees: int = setting(count, 100)
    mtry: int | None = setting(count, None)  # None: ceil(sqrt(feature count))
    min_leaf: int = setting(count, 1)

    def __post_init__(self):
        if self.trees < 1:
            raise ConfigError("forest needs at least one tree")
        if self.min_leaf < 1:
            raise ConfigError("min_leaf must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigError("mtry must be >= 1")


def _running_sums(v: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Running sums of ``v`` within consecutive segments of the given sizes.

    Each segment adds in order from zero, as a loop would (``np.add.reduceat``
    sums pairwise). Segments whose sizes share a power of two share a
    zero-padded ``np.cumsum`` matrix, so padding at most doubles the entries.
    """
    seg = np.repeat(np.arange(len(sizes)), sizes)
    col = np.arange(len(v)) - (np.cumsum(sizes) - sizes)[seg] + 1
    band = np.frexp(sizes)[1][seg]
    out = np.empty(len(v))
    for b in np.unique(band):
        pick = band == b
        segs, rows = np.unique(seg[pick], return_inverse=True)
        pad = np.zeros((len(segs), int(sizes[segs].max()) + 1))
        pad[rows, col[pick]] = v[pick]
        out[pick] = np.cumsum(pad, axis=1)[rows, col[pick]]
    return out


def _best_splits(X, ranks, ys, boot, rows, sizes, parent, cand, min_leaf, n_classes):
    """The nodes that split, with their features and thresholds.

    ``rows`` holds the sample ids (as in ``RandomForest._grow``) of the nodes
    that may split, node after node; ``sizes``, ``parent`` and ``cand`` give
    their row counts, impurities and candidate features in the order tried.
    """
    k, mtry = cand.shape
    # one entry per (node row, candidate); a segment is a (node, candidate)
    seg_len = np.repeat(sizes, mtry)
    seg_start = np.cumsum(seg_len) - seg_len
    seg = np.repeat(np.arange(k * mtry), seg_len)
    off = np.arange(len(seg)) - seg_start[seg]
    sample = rows[np.repeat(np.cumsum(sizes) - sizes, mtry)[seg] + off]
    key = seg * len(ys) + ranks[boot[sample], cand.ravel()[seg]]
    order = np.argsort(key, kind="stable")
    key, sample = key[order], sample[order]
    nl, nr = off + 1, seg_len[seg] - off - 1
    valid = (nl >= min_leaf) & (nr >= min_leaf)
    valid[:-1] &= key[:-1] < key[1:]
    nl, nr, at = nl[valid], nr[valid], seg[valid]
    del off, key, order  # entry arrays set the fit's peak memory
    base = np.repeat(parent, mtry)[at]
    if n_classes:
        labels, ends = ys[sample], np.flatnonzero(valid) + 1
        sl = sr = 0  # sums of squared class counts left and right of a cut
        for c in range(n_classes):
            cum = np.concatenate(([0], np.cumsum(labels == c)))
            before = cum[seg_start[at]]
            left = cum[ends] - before
            right = cum[(seg_start + seg_len)[at]] - before - left
            sl, sr = sl + left * left, sr + right * right
        del labels, ends, cum, before, left, right
        gain = base - (nl - sl / nl + nr - sr / nr)
    else:
        v = ys[sample]
        s1, s2 = _running_sums(v, seg_len), _running_sums(v * v, seg_len)
        ends = (seg_start + seg_len - 1)[at]
        a1, a2 = s1[valid], s2[valid]
        b1 = s1[ends] - a1
        gain = base - ((a2 - a1 * a1 / nl) + ((s2[ends] - a2) - b1 * b1 / nr))
    scores = np.full(len(seg), -np.inf)
    scores[valid] = gain
    best = np.maximum.reduceat(scores, seg_start)  # NaN if a gain is: never picked
    hit = np.where(scores == best[seg], np.arange(len(seg)), len(seg))
    cut = np.minimum.reduceat(hit, seg_start)  # first cut of largest gain
    won, pick = np.zeros(k), np.full(k, -1)
    for c, gains in enumerate(best.reshape(k, mtry).T):  # a later one must win by 1e-12
        take = gains > won + 1e-12
        won = np.where(take, gains, won)
        pick[take] = c
    split = np.flatnonzero(pick >= 0)
    e = cut[split * mtry + pick[split]]
    feat = cand[split, pick[split]]
    a, b = X[boot[sample[e]], feat], X[boot[sample[e + 1]], feat]
    thr = (a + b) / 2.0
    # between adjacent floats the midpoint can round up to b, where
    # ``x <= thr`` would leave the right child empty
    return split, feat, np.where(thr < b, thr, a)


class RandomForest:
    """Bagged trees; vote for classification, average for regression.

    After ``fit``, node ``_root[t]`` is tree ``t``'s root and every node has a
    ``_feature`` (-1 at a leaf), ``_threshold`` (rows with ``x <=`` it go
    left), ``_left``/``_right`` child ids (a leaf points at itself) and a
    ``_value``: the leaf's class code or mean. Trees ``_group`` at a time
    grew together, and are walked together.
    """

    def __init__(self, config: ForestConfig, classify: bool):
        self.config = config
        self.classify = classify
        self._feature: np.ndarray | None = None
        self.oob_error: float = math.nan
        self.n_classes = 0

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1:
            raise DataError(f"forest needs 2-D X and 1-D y, got shapes {X.shape} and {y.shape}")
        # sorting needs a total order, and a class code indexes a count table
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
        cfg, self._n_features = self.config, f
        mtry = min(f, cfg.mtry or max(1, math.ceil(math.sqrt(f))))
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(cfg.trees)]
        boot = np.concatenate(
            [r.integers(0, n, size=n) if n >= 2 * cfg.min_leaf else np.arange(n) for r in rngs]
        )
        dense = [np.unique(column, return_inverse=True)[1] for column in X.T]
        ranks = np.array(dense, dtype=np.int64).reshape(f, n).T  # dense value ranks
        with np.errstate(over="ignore", invalid="ignore"):  # huge labels: NaN gains
            self._grow(X, ranks, y[boot], boot, rngs, mtry)

        oob = np.ones((cfg.trees, n), dtype=bool)
        oob[np.repeat(np.arange(cfg.trees), n), boot] = False
        seen = oob.any(axis=0)
        combined = self._combine(X, oob)[seen]
        if self.classify:
            loss = np.argmax(combined, axis=1) != y[seen]
        else:
            loss = (combined / oob.sum(axis=0)[seen] - y[seen]) ** 2
        self.oob_error = float(np.mean(loss)) if seen.any() else math.nan
        return self

    def _grow(self, X, ranks, ys, boot, rngs, mtry):
        """Grow every tree from its bootstrap sample, one level at a time.

        Sample id ``i`` is row ``boot[i]`` of ``X`` and ``ranks``, with label
        ``ys[i]``; tree t's are ids t*n .. t*n + n - 1. A level keeps its nodes'
        sample ids in ``members``, by node and in bootstrap order in a node.
        """
        n, min_leaf, n_classes = len(X), self.config.min_leaf, self.n_classes
        group = self._group = max(1, _GROUP_ENTRIES // (n * mtry))  # trees grown together
        levels, roots, first = [], [], 0  # per level: feature, threshold, left, right, value
        for g in range(0, len(rngs), group):
            trees = min(group, len(rngs) - g)
            members, sizes = g * n + np.arange(trees * n), np.full(trees, n)
            roots.append(first + np.arange(trees))
            while True:  # until a level where no node may split
                count, starts = len(sizes), np.cumsum(sizes) - sizes
                node = np.repeat(np.arange(count), sizes)
                yv = ys[members]
                if n_classes:
                    counts = np.bincount(node * n_classes + yv, minlength=count * n_classes)
                    counts = counts.reshape(count, n_classes)
                    value = np.argmax(counts, axis=1).astype(np.float64)  # smallest code
                    may = (sizes >= 2 * min_leaf) & (counts.max(axis=1) < sizes)
                    parent = sizes[may] - (counts[may] ** 2).sum(axis=1) / sizes[may]
                else:
                    value = _running_sums(yv, sizes)[starts + sizes - 1] / sizes
                    constant = np.maximum.reduceat(yv, starts) == np.minimum.reduceat(yv, starts)
                    may = (sizes >= 2 * min_leaf) & ~constant
                    dev = (yv - value[node])[may[node]]
                    parent = _running_sums(dev * dev, sizes[may])[np.cumsum(sizes[may]) - 1]
                ids = first + np.arange(count)
                level = [np.full(count, -1), np.full(count, np.nan), ids, ids.copy(), value]
                levels.append(level)
                first += count
                if not may.any():
                    break
                per_tree = np.bincount(members[starts[may]] // n - g, minlength=trees)
                draws = [rngs[g + t].random((c, X.shape[1])) for t, c in enumerate(per_tree) if c]
                cand = np.argsort(np.concatenate(draws), axis=1, kind="stable")[:, :mtry]
                split, feat, thr = _best_splits(
                    X, ranks, ys, boot, members[may[node]], sizes[may], parent, cand,
                    min_leaf, n_classes,
                )
                where, s = np.flatnonzero(may)[split], len(split)
                level[0][where], level[1][where] = feat, thr
                level[2][where] = first + 2 * np.arange(s)
                level[3][where] = level[2][where] + 1
                split_of = np.full(count, -1)
                split_of[where] = np.arange(s)
                inside = split_of[node] >= 0
                rank, moving = split_of[node[inside]], members[inside]
                child = 2 * rank + (X[boot[moving], feat[rank]] > thr[rank])
                members = moving[np.argsort(child, kind="stable")]
                sizes = np.bincount(child, minlength=2 * s)
        self._feature, self._threshold, self._left, self._right, self._value = (
            np.concatenate(parts) for parts in zip(*levels)
        )
        self._root = np.concatenate(roots)

    def _leaves(self, X: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """The leaf each row of ``X`` reaches in each tree of ``roots``, shape (trees, rows)."""
        rows = np.arange(len(X))
        at = np.repeat(roots[:, None], len(X), axis=1)
        while (self._feature[at] >= 0).any():
            go_left = X[rows, self._feature[at]] <= self._threshold[at]
            at = np.where(go_left, self._left[at], self._right[at])
        return at

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._feature is None:
            raise ConfigError("forest must be fit before it can predict")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise DataError(f"forest fit on {self._n_features} columns got shape {X.shape}")
        if np.isnan(X).any():
            raise DataError("forest features contain NaN")
        combined = self._combine(X, None)
        if self.classify:
            return np.argmax(combined, axis=1)  # ties: smallest code
        return combined / self.config.trees

    def _combine(self, X: np.ndarray, use: np.ndarray | None) -> np.ndarray:
        """Per row of ``X``, the class votes or the leaf-value sum, tree by tree from zero.

        Only the (tree, row) pairs ``use`` allows count (all if None). The
        trees are walked in ``_grow``'s groups, which bounds the walk's memory.
        """
        n, c = len(X), self.n_classes
        total = np.zeros((n, c), dtype=np.int64) if self.classify else np.zeros(n)
        for g in range(0, len(self._root), self._group):
            values = self._value[self._leaves(X, self._root[g : g + self._group])]
            counted = np.ones(values.shape, dtype=bool) if use is None else use[g : g + self._group]
            if self.classify:
                t, r = np.nonzero(counted)
                total += np.bincount(r * c + values[t, r].astype(int), minlength=n * c).reshape(n, c)
            else:
                for value, ok in zip(values, counted):
                    total += np.where(ok, value, 0.0)
        return total
