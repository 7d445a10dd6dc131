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
    Edges,
    GwDegree,
    ModelSpec,
    NodeFactor,
    NodeMatch,
    NodeMix,
)


def all_dyads(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


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
            for i in range(g.n):
                k = g.degree(i)
                total += math.exp(d) * (1.0 - (1.0 - math.exp(-d)) ** k)
            out.append(total)
        else:
            raise AssertionError(f"oracle does not know term {term!r}")
    return np.array(out)


def dense_design(g: Graph, attrs: AttributeTable, model: ModelSpec):
    """Per-dyad pseudo-likelihood design: (X, y), one Bernoulli row per dyad.

    Rows follow lexicographic dyad order; each is the change statistic of
    the dyad from its endpoint labels and its endpoint degrees with the
    dyad itself absent, and y is its observed tie state.
    """
    degree = [g.degree(i) for i in range(g.n)]
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
