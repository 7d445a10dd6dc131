"""Shared fixtures and independent brute-force oracles.

The oracle implementations here use naive loops and direct formulas on
purpose; they must not share code paths with the package internals they
check.
"""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np
import pytest

from ergmkit.graph import AttributeTable, Graph, categorical
from ergmkit.model import (
    CompiledModel,
    Edges,
    GwDegree,
    ModelSpec,
    NodeFactor,
    NodeMatch,
    NodeMix,
)


def all_dyads(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def draw_graph(n, draw):
    """The graph of a draw: tied dyad positions in ``all_dyads`` order."""
    dyads = all_dyads(n)
    return Graph(n, [dyads[k] for k in draw])


def draw_bitmask(draw):
    """Edge-set bitmask of a draw, bit d = dyad d, as ``exact.graph_bitmask``."""
    return sum(1 << int(k) for k in draw)


def gof_draw_rows(g, attrs, draws, aux_model):
    """(name, observed, simulated values) of gof's degree and aux rows,
    rebuilt from draws decoded through ``all_dyads`` with plain loops."""
    dyads = all_dyads(g.n)

    def degrees(edges):
        out = [0] * g.n
        for i, j in edges:
            out[i] += 1
            out[j] += 1
        return out

    observed = degrees(g.edges)
    simulated = [degrees(dyads[k] for k in draw) for draw in draws]
    top = max(observed + [d for sim in simulated for d in sim])
    degree_rows = [
        (f"degree{k}", float(observed.count(k)), np.array([float(s.count(k)) for s in simulated]))
        for k in range(top + 1)
    ]
    aux_obs = brute_statistics(g, attrs, aux_model)
    aux_sims = np.array([brute_statistics(draw_graph(g.n, d), attrs, aux_model) for d in draws])
    names = CompiledModel(aux_model, attrs, g.n).stat_names
    aux_rows = [(name, aux_obs[k], aux_sims[:, k]) for k, name in enumerate(names)]
    return degree_rows, aux_rows


def with_edge(g, i, j):
    return Graph(g.n, g.edges | {(min(i, j), max(i, j))})


def without_edge(g, i, j):
    return Graph(g.n, g.edges - {(min(i, j), max(i, j))})


def graphs_on(n):
    """Every labeled simple graph on n nodes (2^(n(n-1)/2) of them)."""
    dyads = all_dyads(n)
    for mask in range(1 << len(dyads)):
        yield Graph(n, [dyads[d] for d in range(len(dyads)) if mask >> d & 1])


# ---- independent statistic oracles (naive loops) ------------------------


def brute_statistics(g: Graph, attrs: AttributeTable, model: ModelSpec) -> np.ndarray:
    out: list[float] = []
    for term in model.terms:
        if isinstance(term, Edges):
            out.append(float(g.edge_count))
        elif isinstance(term, NodeMatch):
            col = attrs[term.attr]
            labels = col.labels()
            if term.differential:
                for lev in col.levels:
                    count = sum(
                        1
                        for i, j in g.edges
                        if labels[i] == lev and labels[j] == lev
                    )
                    out.append(float(count))
            else:
                out.append(float(sum(1 for i, j in g.edges if labels[i] == labels[j])))
        elif isinstance(term, NodeFactor):
            col = attrs[term.attr]
            labels = col.labels()
            for lev in col.levels:
                if lev == term.reference:
                    continue
                total = 0
                for i, j in g.edges:
                    total += (labels[i] == lev) + (labels[j] == lev)
                out.append(float(total))
        elif isinstance(term, NodeMix):
            col = attrs[term.attr]
            labels = col.labels()
            ref = frozenset(term.reference) if term.reference[0] != term.reference[1] else frozenset([term.reference[0]])
            for a_idx, a in enumerate(col.levels):
                for b in col.levels[a_idx:]:
                    pair = frozenset([a, b]) if a != b else frozenset([a])
                    if pair == ref:
                        continue
                    count = 0
                    for i, j in g.edges:
                        epair = (
                            frozenset([labels[i], labels[j]])
                            if labels[i] != labels[j]
                            else frozenset([labels[i]])
                        )
                        if epair == pair:
                            count += 1
                    out.append(float(count))
        elif isinstance(term, GwDegree):
            d = term.decay
            total = 0.0
            for k in g.degrees().tolist():
                total += math.exp(d) * (1.0 - (1.0 - math.exp(-d)) ** k)
            out.append(total)
        else:
            raise AssertionError(f"oracle does not know term {term!r}")
    return np.array(out)


def assert_design_holds_toggles(g: Graph, attrs: AttributeTable, model: ModelSpec, design):
    """The grouped design rows ``(X, ties, trials)`` of g hold its change statistics.

    A dyad's change statistic is its full-recompute toggle difference: the
    ``brute_statistics`` of g with the dyad on minus with it off. Distinct
    rows may be equal, so rows and dyads match as multisets: for each row v,
    the untied dyads whose difference is v number the trials minus ties of
    every row equal to v, and the tied ones their ties. Matching is exact on
    every column but gwdegree's, and to 1e-12 on it.
    """
    X, ties, trials = design
    tol = np.zeros(X.shape[1])
    for k, term in enumerate(model.terms):
        if isinstance(term, GwDegree):  # its column follows the statistics of the terms before it
            tol[len(brute_statistics(g, attrs, ModelSpec(model.terms[:k])))] = 1e-12
    base = brute_statistics(g, attrs, model)
    diffs, tied = [], []
    for i, j in all_dyads(g.n):
        tie = g.has_edge(i, j)
        if tie:
            diffs.append(base - brute_statistics(without_edge(g, i, j), attrs, model))
        else:
            diffs.append(brute_statistics(with_edge(g, i, j), attrs, model) - base)
        tied.append(float(tie))
    diffs, tied = np.array(diffs), np.array(tied)
    same = np.all(np.abs(X[:, None, :] - X[None, :, :]) <= tol, axis=2)
    hit = np.all(np.abs(X[:, None, :] - diffs[None, :, :]) <= tol, axis=2)
    assert trials.sum() == len(tied) and ties.sum() == g.edge_count
    assert hit.any(axis=0).all(), "a dyad's change statistic is in no design row"
    np.testing.assert_array_equal(hit @ (1.0 - tied), same @ (trials - ties))
    np.testing.assert_array_equal(hit @ tied, same @ ties)


def dense_design(g: Graph, attrs: AttributeTable, model: ModelSpec):
    """Per-dyad pseudo-likelihood design: (X, y), one Bernoulli row per dyad.

    Rows follow lexicographic dyad order; each is the change statistic of
    the dyad from its endpoint labels and its endpoint degrees with the
    dyad itself absent, and y is its observed tie state.
    """
    degree = g.degrees().tolist()
    labels = {t.attr: attrs[t.attr].labels() for t in model.terms if hasattr(t, "attr")}
    X, y = [], []
    for i, j in all_dyads(g.n):
        tie = g.has_edge(i, j)
        row: list[float] = []
        for term in model.terms:
            if isinstance(term, Edges):
                row.append(1.0)
                continue
            if isinstance(term, GwDegree):
                # w(k + 1) - w(k) = (1 - e^(-d))^k at each endpoint's degree k
                q = 1.0 - math.exp(-term.decay)
                row.append(q ** (degree[i] - tie) + q ** (degree[j] - tie))
                continue
            col = attrs[term.attr]
            li, lj = labels[term.attr][i], labels[term.attr][j]
            if isinstance(term, NodeMatch):
                if term.differential:
                    row.extend(float(li == lev and lj == lev) for lev in col.levels)
                else:
                    row.append(float(li == lj))
            elif isinstance(term, NodeFactor):
                for lev in col.levels:
                    if lev != term.reference:
                        row.append(float((li == lev) + (lj == lev)))
            elif isinstance(term, NodeMix):
                ref = sorted(term.reference, key=col.levels.index)
                for a_idx, a in enumerate(col.levels):
                    for b in col.levels[a_idx:]:
                        if [a, b] == ref:
                            continue
                        row.append(float(sorted([li, lj], key=col.levels.index) == [a, b]))
            else:
                raise AssertionError(f"oracle does not know term {term!r}")
        X.append(row)
        y.append(float(tie))
    return np.array(X), np.array(y)


# ---- independent network statistic oracles -------------------------------


def brute_transitivity(g: Graph) -> float:
    n = g.n
    closed = 0
    connected = 0
    for i, j, k in itertools.permutations(range(n), 3):
        if g.has_edge(i, j) and g.has_edge(j, k):
            connected += 1
            if g.has_edge(i, k):
                closed += 1
    return closed / connected if connected else 0.0


def brute_betweenness(g: Graph) -> np.ndarray:
    """Normalized betweenness per node by explicit shortest-path counting."""
    n = g.n
    raw = np.zeros(n)
    for s, t in itertools.combinations(range(n), 2):
        paths = _all_shortest_paths(g, s, t)
        if not paths:
            continue
        for v in range(n):
            if v in (s, t):
                continue
            through = sum(1 for p in paths if v in p)
            raw[v] += through / len(paths)
    return raw / ((n - 1) * (n - 2) / 2.0)


def brandes_betweenness(g: Graph) -> np.ndarray:
    """Normalized betweenness per node by Brandes' accumulation.

    Brandes (2001), J. Math. Sociol. 25(2), Algorithm 1: from each source
    s, a breadth-first search counts shortest paths sigma[w] and records
    each node's predecessors; popping nodes in order of non-increasing
    distance, delta[v] += sigma[v] / sigma[w] * (1 + delta[w]) over each
    predecessor v of w. C_B(w) sums delta[w] over sources, which counts
    each unordered pair twice.
    """
    n = g.n
    cb = np.zeros(n)
    for s in range(n):
        stack = []
        pred = {w: [] for w in range(n)}
        sigma = dict.fromkeys(range(n), 0)
        sigma[s] = 1
        dist = dict.fromkeys(range(n), -1)
        dist[s] = 0
        queue = collections.deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in sorted(g.neighbors(v)):
                if dist[w] < 0:
                    queue.append(w)
                    dist[w] = dist[v] + 1
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    pred[w].append(v)
        delta = dict.fromkeys(range(n), 0.0)
        while stack:
            w = stack.pop()
            for v in pred[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                cb[w] += delta[w]
    return cb / 2.0 / ((n - 1) * (n - 2) / 2.0)


def _all_shortest_paths(g: Graph, s: int, t: int):
    if s == t:
        return []
    frontier = [[s]]
    found: list[list[int]] = []
    seen_depth = {s: 0}
    depth = 0
    while frontier and not found:
        depth += 1
        nxt = []
        for path in frontier:
            for v in g.neighbors(path[-1]):
                if v in path:
                    continue
                if v in seen_depth and seen_depth[v] < depth:
                    continue
                seen_depth[v] = depth
                newp = path + [v]
                if v == t:
                    found.append(newp)
                else:
                    nxt.append(newp)
        frontier = nxt
    return found


def brute_assortativity(g: Graph):
    degs = g.degrees()
    xs, ys = [], []
    for i, j in g.edges:
        xs += [degs[i], degs[j]]
        ys += [degs[j], degs[i]]
    x = np.array(xs, dtype=float)
    y = np.array(ys, dtype=float)
    vx = np.mean(x * x) - np.mean(x) ** 2
    vy = np.mean(y * y) - np.mean(y) ** 2
    if vx <= 0 or vy <= 0:
        return None
    return float((np.mean(x * y) - np.mean(x) * np.mean(y)) / math.sqrt(vx * vy))


# ---- bagged CART oracle (breadth first, per-node numpy search) -------------


def _ref_mean(y):
    total = 0.0
    for v in y.tolist():  # in bootstrap order, from zero
        total += v
    return total / len(y)


def _ref_leaf(y, classify):
    if classify:
        return int(np.argmax(np.bincount(y)))  # smallest code on ties
    return _ref_mean(y)


def _ref_split(X, y, features, min_leaf, classify):
    """Best (feature, threshold) of one node over its candidates, or None.

    Every candidate is sorted by a stable argsort; class counts or label
    sums come from a cumulative sum over the sorted rows. The node's own
    impurity adds its squared deviations in bootstrap order, from zero.
    """
    n = len(y)
    if classify:
        onehot = np.zeros((n, int(y.max()) + 1))
        onehot[np.arange(n), y] = 1.0
        parent = n - float(np.sum(np.bincount(y) ** 2)) / n
    else:
        mean = _ref_mean(y)
        parent = 0.0
        for v in y.tolist():
            parent += (v - mean) * (v - mean)
    best_gain, best = 0.0, None
    for f in features:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        cuts = np.flatnonzero(xs[:-1] < xs[1:]) + 1
        cuts = cuts[(cuts >= min_leaf) & (cuts <= n - min_leaf)]
        if len(cuts) == 0:
            continue
        nl = cuts.astype(np.float64)
        nr = n - nl
        if classify:
            cum = np.cumsum(onehot[order], axis=0)
            left = cum[cuts - 1]
            right = cum[-1] - left
            child = nl - np.sum(left**2, axis=1) / nl + nr - np.sum(right**2, axis=1) / nr
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                s1 = np.cumsum(y[order])
                s2 = np.cumsum(y[order] ** 2)
                a1, a2 = s1[cuts - 1], s2[cuts - 1]
                child = (a2 - a1**2 / nl) + ((s2[-1] - a2) - (s1[-1] - a1) ** 2 / nr)
        with np.errstate(invalid="ignore"):
            gains = parent - child
        k = int(np.argmax(gains))  # first maximum; a NaN comes first and fails below
        if gains[k] > best_gain + 1e-12:
            lo, hi = float(xs[cuts[k] - 1]), float(xs[cuts[k]])
            mid = (lo + hi) / 2.0
            best_gain = float(gains[k])
            best = (int(f), mid if mid < hi else lo)  # a midpoint may round up
    return best


def _ref_grow(X, y, min_leaf, mtry, classify, rng):
    """One tree grown breadth first, as nested tuples.

    A node is ("leaf", value) or (feature, threshold, left, right). Each
    level draws ``rng.random((k, F))`` for its k nodes that may split, in
    level order (left child before right); a node's candidates are the
    ``mtry`` features of smallest uniform, in that order.
    """
    F = X.shape[1]
    root = {"rows": np.arange(len(y))}
    level = [root]
    while level:
        open_nodes = []
        for node in level:
            ys = y[node["rows"]]
            if len(ys) < 2 * min_leaf or np.all(ys == ys[0]):
                node["tree"] = ("leaf", _ref_leaf(ys, classify))
            else:
                open_nodes.append(node)
        uniforms = rng.random((len(open_nodes), F)) if open_nodes else []
        level = []
        for node, u in zip(open_nodes, uniforms):
            rows = node["rows"]
            features = np.argsort(u, kind="stable")[: min(mtry, F)]
            best = _ref_split(X[rows], y[rows], features, min_leaf, classify)
            if best is None:
                node["tree"] = ("leaf", _ref_leaf(y[rows], classify))
                continue
            f, thr = best
            mask = X[rows, f] <= thr
            node["split"] = (f, thr, {"rows": rows[mask]}, {"rows": rows[~mask]})
            level.extend(node["split"][2:])

    def nested(node):
        if "tree" in node:
            return node["tree"]
        f, thr, left, right = node["split"]
        return (f, thr, nested(left), nested(right))

    return nested(root)


def _ref_predict_row(tree, x):
    while tree[0] != "leaf":
        f, thr, left, right = tree
        tree = left if x[f] <= thr else right
    return tree[1]


def reference_forest(X, y, trees, mtry, min_leaf, classify, seed):
    """Bagged CART grown one tree and one node at a time, as an oracle.

    Returns ``(trees, predict, oob_error)``: the trees as nested tuples,
    ``predict(X)`` (majority vote with ties to the smallest code, or the
    mean over trees, added in tree order) and the out-of-bag error
    (misclassification rate or mean squared error; NaN when no row is ever
    out of bag). Each tree has its own stream spawned from ``seed``; it
    draws the bootstrap rows, then one block of uniforms per level of the
    tree, breadth first (``_ref_grow``).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64 if classify else np.float64)
    n, f = X.shape
    mtry = mtry if mtry is not None else max(1, math.ceil(math.sqrt(f)))
    n_classes = int(y.max()) + 1 if classify else 0
    grown = []
    oob_sum = np.zeros((n, n_classes)) if classify else np.zeros(n)
    oob_seen = np.zeros(n)
    for stream in np.random.SeedSequence(seed).spawn(trees):
        r = np.random.Generator(np.random.PCG64(stream))
        rows = r.integers(0, n, size=n) if n >= 2 * min_leaf else np.arange(n)
        tree = _ref_grow(X[rows], y[rows], min_leaf, mtry, classify, r)
        grown.append(tree)
        in_bag = np.zeros(n, dtype=bool)
        in_bag[rows] = True
        for i in np.flatnonzero(~in_bag):
            value = _ref_predict_row(tree, X[i])
            if classify:
                oob_sum[i, value] += 1.0
            else:
                oob_sum[i] += value
            oob_seen[i] += 1.0

    def predict(Z):
        Z = np.asarray(Z, dtype=np.float64)
        out = []
        for z in Z:
            values = [_ref_predict_row(t, z) for t in grown]
            if classify:
                out.append(int(np.argmax(np.bincount(values, minlength=n_classes))))
            else:
                total = 0.0
                for v in values:
                    total += v
                out.append(total / len(grown))
        return np.array(out, dtype=np.int64 if classify else np.float64)

    seen = oob_seen > 0
    if not seen.any():
        oob_error = math.nan
    elif classify:
        oob_error = float(np.mean(np.argmax(oob_sum[seen], axis=1) != y[seen]))
    else:
        oob_error = float(np.mean((oob_sum[seen] / oob_seen[seen] - y[seen]) ** 2))
    return grown, predict, oob_error


# ---- Metropolis chain oracle (one proposal at a time) -----------------------


def reference_chain(g0, theta, model, attrs, burn_in, thin, sample_count, seed):
    """The toggle chain run on every proposal, as an oracle for ``sample``.

    Proposal dyads and uniforms come from ``PCG64(seed)`` in runs of 2**15,
    dyads first. Each proposal toggles a uniform dyad with probability
    min(1, exp(s * theta . delta)), s = +1 for an add and -1 for a removal,
    evaluated as ``not (logodds < 0 and u >= exp(logodds))``. The chain
    keeps a bit per dyad, block tie counts, degrees and the running
    gwdegree statistic, and reads a retained sample's statistics off them
    after every ``thin`` proposals past ``burn_in``. Returns the retained
    draws, each the sorted int64 positions of its tied dyads in
    ``all_dyads`` order, the statistics, and the positions in the stream of
    the proposals it accepted, counted from 0.
    """
    cm = CompiledModel(model, attrs, g0.n)
    theta = np.asarray(theta, dtype=np.float64)
    n = g0.n
    dyads = all_dyads(n)
    block_of = cm.dyad_blocks().tolist()
    tie = [int(g0.has_edge(i, j)) for i, j in dyads]
    ties = [0] * len(cm.table)
    for d in range(len(dyads)):
        ties[block_of[d]] += tie[d]
    degree = g0.degrees().tolist()
    eta = (cm.table @ theta).tolist()
    gw_at = cm._gw_offset
    gw_theta = float(theta[gw_at]) if gw_at is not None else 0.0
    wdiff = cm._wdiff.tolist() if gw_at is not None else None
    gw_stat = float(cm.statistics(g0)[gw_at]) if gw_at is not None else 0.0

    def statistics():
        row = np.array(ties) @ cm.table
        if gw_at is not None:
            row[gw_at] = gw_stat
        return row

    total = burn_in + thin * sample_count
    rng = np.random.Generator(np.random.PCG64(seed))
    stats, draws, accepted = [], [], []
    made = 0
    while made < total:
        size = min(1 << 15, total - made)
        picks = rng.integers(0, len(dyads), size=size).tolist()
        uniforms = rng.random(size).tolist()
        for d, u in zip(picks, uniforms):
            i, j = dyads[d]
            b, bit = block_of[d], tie[d]
            sign = 1 - 2 * bit
            change = wdiff[degree[i] - bit] + wdiff[degree[j] - bit] if wdiff is not None else 0.0
            logodds = sign * (eta[b] + gw_theta * change)
            if not (logodds < 0.0 and u >= math.exp(logodds)):
                tie[d] = 1 - bit
                ties[b] += sign
                degree[i] += sign
                degree[j] += sign
                if wdiff is not None:
                    gw_stat += sign * change
                accepted.append(made)
            made += 1
            if made > burn_in and (made - burn_in) % thin == 0:
                stats.append(statistics())
                draws.append(np.array([k for k in range(len(dyads)) if tie[k]], dtype=np.int64))
    return draws, np.array(stats).reshape(sample_count, cm.p), accepted


# ---- attribute builders ---------------------------------------------------


def two_level_attrs(n: int, n_a: int, name: str = "grp") -> AttributeTable:
    labels = ["a"] * n_a + ["b"] * (n - n_a)
    return AttributeTable([categorical(name, ["a", "b"], labels)])


@pytest.fixture
def attrs5() -> AttributeTable:
    return two_level_attrs(5, 3)


@pytest.fixture
def attrs4() -> AttributeTable:
    return two_level_attrs(4, 2)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_graph(n: int, p: float, seed: int) -> Graph:
    r = rng(seed)
    edges = [d for d in all_dyads(n) if r.random() < p]
    return Graph(n, edges)
