"""ERGM terms, sufficient statistics, and the grouped pseudo-likelihood design.

A model is an ordered list of terms; the statistic vector g(y, x) lays the
terms out left to right. Every term here is a sum over dyads of a symmetric
function of the endpoint attributes except the geometrically weighted
degree term, which is a function of the degree sequence.

A dyad's change statistic is the difference in g from switching it on
versus off with the rest of the graph held fixed; it determines the
conditional log-odds of a tie. Change statistics appear only as rows of
the pseudo-likelihood design.

A model compiles to one table. Each node gets one joint code over the
attribute columns the model uses (its group; only codes that occur are
numbered), and every dyad between groups a and b has the same change row
for every term but gwdegree. The table holds that row once per unordered
group pair, a level-pair block: at most K(K+1)/2 rows for K groups.
Statistics are block tie counts times the table; gwdegree is added from
the degrees. The pseudo-likelihood design is grouped, never per dyad: one
row per pair of node classes (a class is a group, or with gwdegree a
(group, degree) pair) and, with gwdegree, per tie state, counted from
class sizes and the edge list. Exact simulation works on the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .dataio import JsonObject, flag, level_pair, number, read_record, record_dict, setting, text
from .errors import ConfigError, DataError, MissingAttribute, TooFewNodes
from .graph import AttributeTable, CategoricalColumn, Graph


@dataclass(frozen=True)
class Edges:
    """Edge count; the density/intercept term."""


@dataclass(frozen=True)
class NodeMatch:
    """Homophily: edges whose endpoints share a level of ``attr``.

    Differential (the default) fits one statistic per level, counting
    within-level edges separately; non-differential collapses them into a
    single match count.
    """

    attr: str = setting(text)
    differential: bool = setting(flag, True)


@dataclass(frozen=True)
class NodeFactor:
    """Additive main effect: endpoint incidences of each non-reference level.

    An edge between two nodes at the same level contributes 2 to that
    level's statistic.
    """

    attr: str = setting(text)
    reference: str = setting(text)


@dataclass(frozen=True)
class NodeMix:
    """Edges between each unordered level pair, relative to a reference pair."""

    attr: str = setting(text)
    reference: tuple[str, str] = setting(level_pair)


@dataclass(frozen=True)
class GwDegree:
    """Geometrically weighted degree with fixed decay.

    Statistic: e^d * sum_k [1 - (1 - e^(-d))^k] * D_k over degrees k >= 1,
    where D_k counts degree-k nodes and d is the decay. The decay is held
    fixed during fitting, keeping the model in the linear family.
    """

    decay: float = setting(number, 0.5)

    def __post_init__(self):
        if not self.decay > 0:
            raise ConfigError("gwdegree decay must be > 0")


TermSpec = Union[Edges, NodeMatch, NodeFactor, NodeMix, GwDegree]


@dataclass(frozen=True)
class ModelSpec:
    """Ordered term list; coefficient vectors align to this ordering."""

    terms: tuple[TermSpec, ...]

    def __init__(self, terms: Sequence[TermSpec]):
        terms = tuple(terms)
        if sum(isinstance(t, Edges) for t in terms) > 1:
            raise ConfigError("Edges may appear at most once")
        if sum(isinstance(t, GwDegree) for t in terms) > 1:
            raise ConfigError("GwDegree may appear at most once")
        object.__setattr__(self, "terms", terms)

    @property
    def dyad_independent(self) -> bool:
        """True when no term's change statistic depends on the rest of y."""
        return not any(isinstance(t, GwDegree) for t in self.terms)


# JSON name of each term kind, read as its class's record
TERM_KINDS = {
    "edges": Edges,
    "nodematch": NodeMatch,
    "nodefactor": NodeFactor,
    "nodemix": NodeMix,
    "gwdegree": GwDegree,
}
_KIND_OF = {cls: kind for kind, cls in TERM_KINDS.items()}


def term_to_dict(term: TermSpec) -> dict:
    return {"term": _KIND_OF[type(term)], **record_dict(term)}


def read_term(where: str, value) -> TermSpec:
    """The term a JSON object at ``where`` describes, as ``term_to_dict`` writes it."""
    obj = JsonObject(where, value)
    kind = obj.get("term", text)
    if kind not in TERM_KINDS:
        raise ConfigError(f"config {where}: unknown term kind {kind!r}")
    return read_record(obj, TERM_KINDS[kind])


def _gw_weights(decay: float, max_degree: int) -> np.ndarray:
    """w(k) = e^d (1 - (1 - e^(-d))^k) for k = 0..max_degree; w(0) = 0."""
    k = np.arange(max_degree + 1)
    return np.exp(decay) * (1.0 - (1.0 - np.exp(-decay)) ** k)


def _term_columns(
    term: TermSpec, col: CategoricalColumn | None, ca: np.ndarray, cb: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """Statistic names of one term and its change rows for endpoint levels (ca, cb).

    ``ca`` and ``cb`` hold the term column's level codes at the two ends of
    each level pair. The gwdegree column is zero: its change depends on the
    endpoint degrees, not their levels, and is added where they are known.
    """
    if isinstance(term, Edges):
        return ["edges"], np.ones((len(ca), 1))
    if isinstance(term, GwDegree):
        return ["gwdegree"], np.zeros((len(ca), 1))
    levels = col.levels
    L = len(levels)
    one_hot = np.eye(L)
    if isinstance(term, NodeMatch):
        match = (ca == cb)[:, None]
        if term.differential:
            names = [f"nodematch.{term.attr}.{lev}" for lev in levels]
            return names, one_hot[ca] * match
        return [f"nodematch.{term.attr}"], match.astype(np.float64)
    if isinstance(term, NodeFactor):
        ref = col.level_index(term.reference)
        keep = [k for k in range(L) if k != ref]
        names = [f"nodefactor.{term.attr}.{levels[k]}" for k in keep]
        return names, (one_hot[ca] + one_hot[cb])[:, keep]
    if isinstance(term, NodeMix):
        ref_pair = tuple(sorted(col.level_index(r) for r in term.reference))
        pairs = [(a, b) for a in range(L) for b in range(a, L) if (a, b) != ref_pair]
        names = [f"nodemix.{term.attr}.{levels[a]}.{levels[b]}" for a, b in pairs]
        lo = np.array([a for a, _ in pairs], dtype=np.int64)
        hi = np.array([b for _, b in pairs], dtype=np.int64)
        rows = (np.minimum(ca, cb)[:, None] == lo) & (np.maximum(ca, cb)[:, None] == hi)
        return names, rows.astype(np.float64)
    raise TypeError(f"unknown term {term!r}")


class CompiledModel:
    """A model bound to an attribute table, compiled to its level-pair table.

    Validates once that the table has one row per node (a table without
    columns fits any size), level references and completeness. Each node
    gets a group: its joint level over the columns the model uses, numbered
    over the joint levels that occur. ``table[pair]`` is the change-statistic
    row of every dyad between the two groups of an unordered group pair
    (gwdegree column zero); ``pair[a, b]`` numbers the pairs (a <= b
    lexicographically) and ``group[i]`` is node i's group.
    """

    def __init__(self, model: ModelSpec, attrs: AttributeTable, n: int):
        if attrs.names and attrs.n != n:
            raise DataError(
                f"attribute table has {attrs.n} rows but the graph has {n} nodes"
            )
        self.model = model
        self.n = n
        columns: dict[str, CategoricalColumn] = {}
        for term in model.terms:
            attr = getattr(term, "attr", None)
            if attr is not None and attr not in columns:
                columns[attr] = _categorical(attr, attrs)
        joint = np.zeros(n, dtype=np.int64)
        for col in columns.values():
            # renumbered per column, so the code stays below n * levels
            joint = np.unique(joint * len(col.levels) + col.codes, return_inverse=True)[1]
        _, first, group = np.unique(joint, return_index=True, return_inverse=True)
        self.group = group.reshape(-1)
        K = len(first)
        a, b = np.triu_indices(K)
        P = len(a)
        self.pair = np.empty((K, K), dtype=np.int64)
        self.pair[a, b] = np.arange(P)
        self.pair[b, a] = np.arange(P)
        names: list[str] = []
        parts = [np.zeros((P, 0))]
        # gwdegree weights w(k), k = 0..n + 1, all zero without the term
        self._gw_offset = None
        self._w = np.zeros(n + 2)
        for term in model.terms:
            col = columns.get(getattr(term, "attr", None))
            # level of the term's column in each group (any node of it)
            level = col.codes[first] if col is not None else np.zeros(K, dtype=np.int64)
            tnames, rows = _term_columns(term, col, level[a], level[b])
            if isinstance(term, GwDegree):
                self._gw_offset = len(names)
                self._w = _gw_weights(term.decay, n + 1)
            names.extend(tnames)
            parts.append(rows)
        # gwdegree weight difference table: wdiff[k] = w(k+1) - w(k)
        self._wdiff = self._w[1:] - self._w[:-1]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate statistic names in model: {names}")
        self.p = len(names)
        self.stat_names = tuple(names)
        self.table = np.hstack(parts)

    # ---- level-pair blocks ----------------------------------------------

    def _require_dyads(self) -> None:
        if self.n < 2:
            raise TooFewNodes(f"a dyad design requires n >= 2 nodes, got n = {self.n}")

    def block_ties(self, g: Graph) -> np.ndarray:
        """Tie count of g in every level-pair block."""
        if g.n != self.n:
            raise ValueError("graph size does not match compiled model")
        e = g.edge_array()
        pair_ids = self.pair[self.group[e[:, 0]], self.group[e[:, 1]]]
        return np.bincount(pair_ids, minlength=len(self.table))

    def dyad_blocks(self) -> np.ndarray:
        """Block of every dyad, in lexicographic dyad order."""
        self._require_dyads()
        n, group = self.n, self.group
        by_group = self.pair[group]  # (n, K): node i's block with each group
        out = np.empty(n * (n - 1) // 2, dtype=np.int64)
        start = 0
        for i in range(n - 1):
            out[start : start + n - 1 - i] = by_group[i, group[i + 1 :]]
            start += n - 1 - i
        return out

    # ---- evaluation -----------------------------------------------------

    def statistics(self, g: Graph) -> np.ndarray:
        """g(y, x) for one graph: block tie counts times the table, plus gwdegree."""
        out = self.block_ties(g) @ self.table
        if self._gw_offset is not None:
            out[self._gw_offset] = float(self._w[g.degrees()].sum())
        return out

    def design_matrix(self, g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grouped pseudo-likelihood rows: change rows, tie counts, dyad counts.

        A node's class is its group, or with gwdegree its (group, degree)
        pair. Each class pair gives a row, in lexicographic pair order
        (without gwdegree, the level-pair blocks); with gwdegree it splits
        into a non-tie row, gwdegree entry wdiff[d_a] + wdiff[d_b], and a tie
        row, wdiff[d_a - 1] + wdiff[d_b - 1] (the dyad absent). Rows without
        trials are dropped. Built in O(n + m + C^2) for C occupied classes.
        """
        self._require_dyads()
        if g.n != self.n:
            raise ValueError("graph size does not match compiled model")
        gw, degs = self._gw_offset, g.degrees()
        key = self.group if gw is None else self.group * self.n + degs
        _, first, klass = np.unique(key, return_index=True, return_inverse=True)
        klass, kgroup, kdeg = klass.reshape(-1), self.group[first], degs[first]
        size = np.bincount(klass)
        C = len(size)
        a, b = np.triu_indices(C)
        dyads = np.where(a == b, size[a] * (size[a] - 1) // 2, size[a] * size[b])
        lo, hi = np.sort(klass[g.edge_array()], axis=1).T
        ties = np.bincount(lo * C + hi, minlength=C * C)[a * C + b]
        X = self.table[self.pair[kgroup[a], kgroup[b]]]
        if gw is not None:
            tied = X.copy()
            X[:, gw] = self._wdiff[kdeg[a]] + self._wdiff[kdeg[b]]
            # a degree-0 class holds no ties, so its tie rows are dropped
            tied[:, gw] = self._wdiff[kdeg[a] - 1] + self._wdiff[kdeg[b] - 1]
            X = np.vstack([X, tied])
            dyads = np.concatenate([dyads - ties, ties])
            ties = np.concatenate([np.zeros_like(ties), ties])
        held = dyads > 0
        return X[held], ties[held].astype(np.float64), dyads[held].astype(np.float64)


def _categorical(name: str, attrs: AttributeTable) -> CategoricalColumn:
    if name not in attrs:
        raise MissingAttribute(f"model references unknown column {name!r}")
    col = attrs[name]
    if not isinstance(col, CategoricalColumn):
        raise MissingAttribute(f"model column {name!r} must be categorical")
    if col.missing_mask().any():
        missing = int(col.missing_mask().sum())
        raise MissingAttribute(
            f"column {name!r} has {missing} missing cells; complete or "
            f"impute it before fitting"
        )
    return col


def statistics(g: Graph, attrs: AttributeTable, model: ModelSpec) -> np.ndarray:
    return CompiledModel(model, attrs, g.n).statistics(g)


def dyad_index(n: int, i: int, j: int) -> int:
    """Position of dyad {i, j} in lexicographic order, i < j."""
    if i > j:
        i, j = j, i
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def dyad_endpoints(n: int, d: np.ndarray) -> np.ndarray:
    """Endpoints (i, j), i < j, of lexicographic dyad positions as a (len(d), 2) array.

    Row i starts at f(i) = i(2n-1-i)/2, and i is the largest with f(i) <= d:
    the floor of the smaller root of i^2 - (2n-1)i + 2d = 0. For n up to
    1.5e9 the int64 discriminant is exact, and it lies between the squares
    of the integers 2n-1-2i and 2n-1-2(i+1), whose correctly rounded square
    roots are those integers. So the float64 root lies in [i, i + 1], and
    one step down against f makes its floor exact.
    """
    d = np.asarray(d, dtype=np.int64)
    m = 2 * n - 1
    i = ((m - np.sqrt(m * m - 8 * d)) / 2).astype(np.int64)  # the root is >= 0
    i -= d < i * (m - i) >> 1
    return np.column_stack([i, d - (i * (m - i) >> 1) + i + 1])
