"""Whole-network descriptive statistics.

Conventions: density is edges over n-choose-2, transitivity is the global
clustering coefficient 3*triangles / connected triples, betweenness is
normalized per node by (n-1)(n-2)/2 and averaged (from shortest-path
lengths alone), and assortativity is the Pearson correlation of endpoint
degrees over edges counted in both orientations (undefined when the
degree variance over endpoints is zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataio import column, json_text, table_csv, table_json
from .errors import EmptyGraph, NoEdges, TooFewNodes
from .graph import Graph


def density(g: Graph) -> float:
    if g.n < 2:
        raise TooFewNodes("density requires at least 2 nodes")
    return g.edge_count / (g.n * (g.n - 1) / 2)


def average_degree(g: Graph) -> tuple[float, float]:
    """Mean and population standard deviation of the degree sequence."""
    if g.n == 0:
        raise EmptyGraph("average degree of an empty graph is undefined")
    degs = g.degrees()
    mean = 2 * g.edge_count / g.n
    sd = float(np.sqrt(np.mean((degs - mean) ** 2)))
    return mean, sd


def transitivity(g: Graph) -> float:
    """3 * triangles / connected triples; 0 when there are no triples."""
    degs = g.degrees()
    triples = int(np.sum(degs * (degs - 1) // 2))
    if triples == 0:
        return 0.0
    closed = 0
    for i, j in g.edges:
        closed += len(g.neighbors(i) & g.neighbors(j))
    # each triangle contributes one common neighbor per edge, so the loop
    # counts 3 per triangle; 3*triangles equals the closed-triple count
    return closed / triples


def mean_betweenness(g: Graph) -> float:
    """Mean normalized betweenness over nodes, from shortest-path lengths.

    A shortest s-t path has d(s, t) - 1 interior nodes, so betweenness
    summed over nodes is the sum of d(s, t) - 1 over connected ordered
    pairs s != t. Normalized per node by (n-1)(n-2)/2, the mean is that
    integer sum over n(n-1)(n-2): one correctly rounded division. One
    breadth-first search runs from all sources at once; bit s of
    ``reached[v]`` marks v as reached from s (n^2/8 bytes of Python ints).
    """
    n = g.n
    if n < 3:
        raise TooFewNodes("betweenness requires at least 3 nodes")
    adj = [tuple(g.neighbors(v)) for v in range(n)]
    frontier = reached = [1 << v for v in range(n)]
    interior = 0  # sum of d(s, t) - 1 over the ordered pairs reached so far
    for depth in range(n):  # this level reaches pairs at distance depth + 1 (always < n)
        nxt = []
        for v in range(n):
            bits = 0
            for u in adj[v]:
                bits |= frontier[u]
            nxt.append(bits & ~reached[v])
        found = sum(new.bit_count() for new in nxt)
        if not found:
            break
        interior += depth * found
        reached = [old | new for old, new in zip(reached, nxt)]
        frontier = nxt
    return interior / (n * (n - 1) * (n - 2))


def degree_assortativity(g: Graph) -> Optional[float]:
    """Pearson degree correlation over edge endpoints, both orientations.

    Returns None when the endpoint-degree variance is zero (e.g. regular
    graphs), where the correlation is undefined.
    """
    if g.edge_count == 0:
        raise NoEdges("assortativity requires at least one edge")
    e = g.edge_array()
    degs = g.degrees()
    x = np.concatenate([degs[e[:, 0]], degs[e[:, 1]]]).astype(np.float64)
    y = np.concatenate([degs[e[:, 1]], degs[e[:, 0]]]).astype(np.float64)
    vx = np.mean(x * x) - np.mean(x) ** 2
    vy = np.mean(y * y) - np.mean(y) ** 2
    if vx <= 0 or vy <= 0:
        return None
    cov = np.mean(x * y) - np.mean(x) * np.mean(y)
    return float(cov / np.sqrt(vx * vy))


@dataclass(frozen=True)
class NetworkSummary:
    """One row, its columns in the published table's order."""

    node_count: int = column()
    edge_count: int = column()
    degree_assortativity: Optional[float] = column(csv="assortativity")
    transitivity: float = column()
    average_degree: float = column()
    degree_sd: float = column()
    mean_betweenness: Optional[float] = column()
    density: Optional[float] = column()

    def to_json(self) -> str:
        return json_text(table_json(NetworkSummary, [self])[0])

    def to_csv(self) -> str:
        return table_csv(NetworkSummary, [self])


def network_summary(g: Graph) -> NetworkSummary:
    """All descriptive statistics for one graph.

    Density is reported as None for n < 2, betweenness for n < 3, and
    assortativity for edgeless or degree-constant graphs instead of raising,
    so a summary can always be produced for a loadable graph.
    """
    mean, sd = average_degree(g)
    betw = mean_betweenness(g) if g.n >= 3 else None
    if g.edge_count > 0:
        assort = degree_assortativity(g)
    else:
        assort = None
    return NetworkSummary(
        node_count=g.n,
        edge_count=g.edge_count,
        density=density(g) if g.n >= 2 else None,
        transitivity=transitivity(g),
        average_degree=mean,
        degree_sd=sd,
        mean_betweenness=betw,
        degree_assortativity=assort,
    )
