"""Undirected simple graphs and node attribute tables.

Both structures are immutable after construction and safe to share across
threads; all "mutation" constructs new values. The Metropolis sampler keeps
its own private mutable adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import EmptyGraph, SelfLoop, UnknownNodeId

MISSING_CODE = -1  # categorical missing sentinel, never a valid level index


class Graph:
    """Undirected simple graph on nodes 0..n-1.

    Edges are stored canonically as (i, j) with i < j; duplicates collapse.
    """

    __slots__ = ("n", "_edges", "_adj", "_degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("node count must be >= 0")
        canon = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise SelfLoop(f"self-loop at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise UnknownNodeId(f"edge endpoint out of range: ({i}, {j})")
            canon.add((i, j) if i < j else (j, i))
        self.n = n
        self._edges = frozenset(canon)
        adj: list[set[int]] = [set() for _ in range(n)]
        for i, j in canon:
            adj[i].add(j)
            adj[j].add(i)
        self._adj = tuple(frozenset(s) for s in adj)
        self._degrees = np.array([len(s) for s in adj], dtype=np.int64)
        self._degrees.flags.writeable = False

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def degrees(self) -> np.ndarray:
        """Degree sequence; entry i is the degree of node i."""
        return self._degrees

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def neighbors(self, i: int) -> frozenset[int]:
        return self._adj[i]

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self._edges if i < j else (j, i) in self._edges

    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) int array in lexicographic order."""
        if not self._edges:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(sorted(self._edges), dtype=np.int64)

    def with_edge(self, i: int, j: int) -> "Graph":
        return Graph(self.n, self._edges | {(min(i, j), max(i, j))})

    def without_edge(self, i: int, j: int) -> "Graph":
        return Graph(self.n, self._edges - {(min(i, j), max(i, j))})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True)
class CategoricalColumn:
    """Per-node categorical values coded as indices into ``levels``.

    Missing cells carry the sentinel code ``MISSING_CODE`` (-1), which is
    distinct from every level index by construction.
    """

    name: str
    levels: tuple[str, ...]
    codes: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ValueError("codes must be one-dimensional")
        bad = (codes < MISSING_CODE) | (codes >= len(self.levels))
        if bad.any():
            raise ValueError(f"column {self.name!r}: code out of range")
        codes = codes.copy()
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "levels", tuple(self.levels))

    @property
    def n(self) -> int:
        return len(self.codes)

    def missing_mask(self) -> np.ndarray:
        return self.codes == MISSING_CODE

    def labels(self) -> list[Union[str, None]]:
        return [None if c == MISSING_CODE else self.levels[c] for c in self.codes]

    def level_index(self, label: str) -> int:
        try:
            return self.levels.index(label)
        except ValueError:
            from .errors import UnknownLevel

            raise UnknownLevel(f"{label!r} is not a level of {self.name!r}") from None


@dataclass(frozen=True)
class ContinuousColumn:
    """Per-node real values; NaN marks missing cells."""

    name: str
    values: np.ndarray
    units: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).copy()
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.values)


Column = Union[CategoricalColumn, ContinuousColumn]


def categorical(name: str, levels: Sequence[str], values: Iterable[Union[str, None]]) -> CategoricalColumn:
    """Build a categorical column from labels; None marks missing."""
    levels = tuple(levels)
    index = {lev: k for k, lev in enumerate(levels)}
    codes = []
    for v in values:
        if v is None:
            codes.append(MISSING_CODE)
        elif v in index:
            codes.append(index[v])
        else:
            from .errors import UnknownLevel

            raise UnknownLevel(f"{v!r} is not a declared level of {name!r}")
    return CategoricalColumn(name, levels, np.array(codes, dtype=np.int64))


def continuous(name: str, values: Iterable[Union[float, None]], units: str = "") -> ContinuousColumn:
    vals = np.array([np.nan if v is None else float(v) for v in values])
    return ContinuousColumn(name, vals, units)


class AttributeTable:
    """Named columns of per-node covariates aligned to graph node indices."""

    __slots__ = ("_columns", "n")

    def __init__(self, columns: Sequence[Column] = ()):
        cols: dict[str, Column] = {}
        n = None
        for col in columns:
            if col.name in cols:
                raise ValueError(f"duplicate column {col.name!r}")
            if n is None:
                n = col.n
            elif col.n != n:
                raise ValueError(
                    f"column {col.name!r} has {col.n} values, expected {n}"
                )
            cols[col.name] = col
        self._columns = cols
        self.n = 0 if n is None else n

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def __getitem__(self, name: str) -> Column:
        return self._columns[name]

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def columns(self) -> tuple[Column, ...]:
        return tuple(self._columns.values())

    def with_columns(self, *replacements: Column) -> "AttributeTable":
        """New table with the named columns replaced (or appended)."""
        cols = dict(self._columns)
        for col in replacements:
            cols[col.name] = col
        return AttributeTable(tuple(cols.values()))

    def subset(self, index: np.ndarray) -> "AttributeTable":
        """New table with rows re-indexed by ``index`` (new row k = old row index[k])."""
        out = []
        for col in self._columns.values():
            if isinstance(col, CategoricalColumn):
                out.append(CategoricalColumn(col.name, col.levels, col.codes[index]))
            else:
                out.append(ContinuousColumn(col.name, col.values[index], col.units))
        return AttributeTable(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributeTable) or self.names != other.names:
            return False
        for name in self.names:
            a, b = self[name], other[name]
            if type(a) is not type(b):
                return False
            if isinstance(a, CategoricalColumn):
                if a.levels != b.levels or not np.array_equal(a.codes, b.codes):
                    return False
            else:
                if not np.array_equal(a.values, b.values, equal_nan=True):
                    return False
        return True

    def __repr__(self) -> str:
        return f"AttributeTable(n={self.n}, columns={list(self.names)})"


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected component id per node plus component sizes."""

    labels: np.ndarray
    sizes: np.ndarray

    component_count: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "component_count", len(self.sizes))


def connected_components(g: Graph) -> ComponentLabeling:
    """Label components by breadth-first search in node-index order."""
    labels = np.full(g.n, -1, dtype=np.int64)
    sizes = []
    for start in range(g.n):
        if labels[start] >= 0:
            continue
        comp = len(sizes)
        queue = [start]
        labels[start] = comp
        count = 0
        while queue:
            u = queue.pop()
            count += 1
            for v in g.neighbors(u):
                if labels[v] < 0:
                    labels[v] = comp
                    queue.append(v)
        sizes.append(count)
    return ComponentLabeling(labels, np.array(sizes, dtype=np.int64))


def induced_subgraph(g: Graph, keep: np.ndarray) -> Graph:
    """Subgraph on the kept node indices, re-indexed in their given order."""
    remap = {int(old): new for new, old in enumerate(keep)}
    edges = [(remap[i], remap[j]) for i, j in g.edges if i in remap and j in remap]
    return Graph(len(keep), edges)


def largest_connected_component(
    g: Graph, attrs: AttributeTable | None = None
) -> tuple[Graph, AttributeTable | None, np.ndarray]:
    """Induced subgraph on the largest component, attributes re-indexed.

    Ties on size go to the component containing the smallest original node
    id, which makes the choice independent of edge-list order. Returns the
    subgraph, the re-indexed table (None if none given), and the index map
    (new index k corresponds to original node index map[k]).
    """
    if g.n == 0:
        raise EmptyGraph("cannot take the largest component of an empty graph")
    if attrs is not None and attrs.n != g.n:
        raise ValueError("attribute table does not match graph size")
    labeling = connected_components(g)
    best = np.flatnonzero(labeling.sizes == labeling.sizes.max())
    # labels are assigned in node-index order, so the smallest label among
    # the tied components is the one containing the smallest node id
    chosen = int(best.min())
    keep = np.flatnonzero(labeling.labels == chosen)
    sub = induced_subgraph(g, keep)
    sub_attrs = attrs.subset(keep) if attrs is not None else None
    return sub, sub_attrs, keep


def load_graph(
    edge_list: Iterable[tuple[str, str]], node_ids: Sequence[str]
) -> Graph:
    """Build a graph from string node ids and id pairs.

    Ids get dense indices in first-appearance order of ``node_ids``.
    Duplicate and reversed pairs collapse to one edge.
    """
    ids = list(node_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("node ids must be unique")
    index = {v: k for k, v in enumerate(ids)}
    pairs = []
    for a, b in edge_list:
        if a not in index:
            raise UnknownNodeId(f"edge endpoint {a!r} not in node id list")
        if b not in index:
            raise UnknownNodeId(f"edge endpoint {b!r} not in node id list")
        pairs.append((index[a], index[b]))
    return Graph(len(ids), pairs)
