"""ERGM terms, sufficient statistics, and per-dyad change statistics.

A model is an ordered list of terms; the statistic vector g(y, x) lays the
terms out left to right. Every term here is a sum over dyads of a symmetric
function of the endpoint attributes except the geometrically weighted
degree term, which is a function of the degree sequence.

Change statistics are the difference in g from switching one dyad on
versus off with the rest of the graph held fixed; they determine the
conditional log-odds of a tie and are computed incrementally, never by
rebuilding the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DataError, MissingAttribute, SelfLoop, TooFewNodes
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

    attr: str
    differential: bool = True


@dataclass(frozen=True)
class NodeFactor:
    """Additive main effect: endpoint incidences of each non-reference level.

    An edge between two nodes at the same level contributes 2 to that
    level's statistic.
    """

    attr: str
    reference: str


@dataclass(frozen=True)
class NodeMix:
    """Edges between each unordered level pair, relative to a reference pair."""

    attr: str
    reference: tuple[str, str]


@dataclass(frozen=True)
class GwDegree:
    """Geometrically weighted degree with fixed decay.

    Statistic: e^d * sum_k [1 - (1 - e^(-d))^k] * D_k over degrees k >= 1,
    where D_k counts degree-k nodes and d is the decay. The decay is held
    fixed during fitting, keeping the model in the linear family.
    """

    decay: float = 0.5

    def __post_init__(self):
        if not self.decay > 0:
            raise ValueError("gwdegree decay must be > 0")


TermSpec = Union[Edges, NodeMatch, NodeFactor, NodeMix, GwDegree]


@dataclass(frozen=True)
class ModelSpec:
    """Ordered term list; coefficient vectors align to this ordering."""

    terms: tuple[TermSpec, ...]

    def __init__(self, terms: Sequence[TermSpec]):
        terms = tuple(terms)
        if sum(isinstance(t, Edges) for t in terms) > 1:
            raise ValueError("Edges may appear at most once")
        if sum(isinstance(t, GwDegree) for t in terms) > 1:
            raise ValueError("GwDegree may appear at most once")
        object.__setattr__(self, "terms", terms)

    @property
    def has_gwdegree(self) -> bool:
        return any(isinstance(t, GwDegree) for t in self.terms)

    @property
    def dyad_independent(self) -> bool:
        """True when no term's change statistic depends on the rest of y."""
        return not self.has_gwdegree


def term_to_dict(term: TermSpec) -> dict:
    if isinstance(term, Edges):
        return {"term": "edges"}
    if isinstance(term, NodeMatch):
        return {"term": "nodematch", "attr": term.attr, "differential": term.differential}
    if isinstance(term, NodeFactor):
        return {"term": "nodefactor", "attr": term.attr, "reference": term.reference}
    if isinstance(term, NodeMix):
        return {"term": "nodemix", "attr": term.attr, "reference": list(term.reference)}
    if isinstance(term, GwDegree):
        return {"term": "gwdegree", "decay": term.decay}
    raise TypeError(f"unknown term {term!r}")


def term_from_dict(d: dict) -> TermSpec:
    kind = d.get("term")
    if kind == "edges":
        return Edges()
    if kind == "nodematch":
        return NodeMatch(d["attr"], bool(d.get("differential", True)))
    if kind == "nodefactor":
        return NodeFactor(d["attr"], d["reference"])
    if kind == "nodemix":
        ref = d["reference"]
        return NodeMix(d["attr"], (ref[0], ref[1]))
    if kind == "gwdegree":
        return GwDegree(float(d.get("decay", 0.5)))
    raise ValueError(f"unknown term kind {kind!r}")


def _gw_weights(decay: float, max_degree: int) -> np.ndarray:
    """w(k) = e^d (1 - (1 - e^(-d))^k) for k = 0..max_degree; w(0) = 0."""
    k = np.arange(max_degree + 1)
    return np.exp(decay) * (1.0 - (1.0 - np.exp(-decay)) ** k)


class _CompiledTerm:
    __slots__ = ("term", "offset", "width", "names")

    def __init__(self, term: TermSpec, offset: int, width: int, names: list[str]):
        self.term = term
        self.offset = offset
        self.width = width
        self.names = names


class CompiledModel:
    """A model bound to an attribute table, ready for fast evaluation.

    Validates once that the table has one row per node (a table without
    columns fits any size), level references and completeness; exposes
    vectorized statistics, per-dyad change rows, and the full dyad design
    matrix.
    """

    def __init__(self, model: ModelSpec, attrs: AttributeTable, n: int):
        if attrs.names and attrs.n != n:
            raise DataError(
                f"attribute table has {attrs.n} rows but the graph has {n} nodes"
            )
        self.model = model
        self.n = n
        self._compiled: list[_CompiledTerm] = []
        self._codes: dict[str, np.ndarray] = {}
        self._levels: dict[str, tuple[str, ...]] = {}
        names: list[str] = []
        offset = 0
        for term in model.terms:
            if isinstance(term, (NodeMatch, NodeFactor, NodeMix)):
                col = self._categorical(term.attr, attrs)
                levels = col.levels
            if isinstance(term, Edges):
                tnames = ["edges"]
            elif isinstance(term, NodeMatch):
                if term.differential:
                    tnames = [f"nodematch.{term.attr}.{lev}" for lev in levels]
                else:
                    tnames = [f"nodematch.{term.attr}"]
            elif isinstance(term, NodeFactor):
                ref = col.level_index(term.reference)
                tnames = [
                    f"nodefactor.{term.attr}.{lev}"
                    for k, lev in enumerate(levels)
                    if k != ref
                ]
            elif isinstance(term, NodeMix):
                ra = col.level_index(term.reference[0])
                rb = col.level_index(term.reference[1])
                ref_pair = (min(ra, rb), max(ra, rb))
                tnames = [
                    f"nodemix.{term.attr}.{levels[a]}.{levels[b]}"
                    for a in range(len(levels))
                    for b in range(a, len(levels))
                    if (a, b) != ref_pair
                ]
            elif isinstance(term, GwDegree):
                tnames = ["gwdegree"]
            else:
                raise TypeError(f"unknown term {term!r}")
            self._compiled.append(_CompiledTerm(term, offset, len(tnames), tnames))
            names.extend(tnames)
            offset += len(tnames)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate statistic names in model: {names}")
        self.p = offset
        self.stat_names = tuple(names)
        # gwdegree weight difference table: wdiff[k] = w(k+1) - w(k)
        self._wdiff = None
        self._w = None
        self._gw_offset = None
        self._gw_theta_index = None
        for ct in self._compiled:
            if isinstance(ct.term, GwDegree):
                w = _gw_weights(ct.term.decay, n + 1)
                self._w = w
                self._wdiff = w[1:] - w[:-1]
                self._gw_offset = ct.offset

    def _categorical(self, name: str, attrs: AttributeTable) -> CategoricalColumn:
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
        self._codes[name] = col.codes
        self._levels[name] = col.levels
        return col

    # ---- evaluation -----------------------------------------------------

    def statistics(self, g: Graph) -> np.ndarray:
        """g(y, x) for one graph."""
        if g.n != self.n:
            raise ValueError("graph size does not match compiled model")
        e = g.edge_array()
        out = np.zeros(self.p)
        for ct in self._compiled:
            t = ct.term
            if isinstance(t, Edges):
                out[ct.offset] = len(e)
            elif isinstance(t, NodeMatch):
                c = self._codes[t.attr]
                if len(e):
                    ci, cj = c[e[:, 0]], c[e[:, 1]]
                    match = ci == cj
                    if t.differential:
                        counts = np.bincount(
                            ci[match], minlength=len(self._levels[t.attr])
                        )
                        out[ct.offset : ct.offset + ct.width] = counts
                    else:
                        out[ct.offset] = int(match.sum())
            elif isinstance(t, NodeFactor):
                c = self._codes[t.attr]
                levels = self._levels[t.attr]
                if len(e):
                    inc = np.bincount(c[e[:, 0]], minlength=len(levels)) + np.bincount(
                        c[e[:, 1]], minlength=len(levels)
                    )
                    ref = levels.index(t.reference)
                    keep = [k for k in range(len(levels)) if k != ref]
                    out[ct.offset : ct.offset + ct.width] = inc[keep]
            elif isinstance(t, NodeMix):
                c = self._codes[t.attr]
                pair_pos = self._mix_positions(t)
                if len(e):
                    ci, cj = c[e[:, 0]], c[e[:, 1]]
                    a = np.minimum(ci, cj)
                    b = np.maximum(ci, cj)
                    pos = pair_pos[a, b]
                    valid = pos >= 0
                    counts = np.bincount(pos[valid], minlength=ct.width)
                    out[ct.offset : ct.offset + ct.width] = counts
            elif isinstance(t, GwDegree):
                out[ct.offset] = float(self._w[g.degrees()].sum())
        return out

    def _mix_positions(self, term: NodeMix) -> np.ndarray:
        """(L, L) matrix mapping an unordered code pair to its statistic slot."""
        levels = self._levels[term.attr]
        L = len(levels)
        ra = levels.index(term.reference[0])
        rb = levels.index(term.reference[1])
        ref_pair = (min(ra, rb), max(ra, rb))
        pos = np.full((L, L), -1, dtype=np.int64)
        k = 0
        for a in range(L):
            for b in range(a, L):
                if (a, b) == ref_pair:
                    continue
                pos[a, b] = k
                pos[b, a] = k
                k += 1
        return pos

    def change_row(
        self, i: int, j: int, base_degree_i: int, base_degree_j: int
    ) -> np.ndarray:
        """Change statistics for dyad {i, j}.

        ``base_degree_*`` are the endpoint degrees with the dyad itself
        absent; all other terms depend only on the endpoint attributes.
        """
        row = np.zeros(self.p)
        for ct in self._compiled:
            t = ct.term
            if isinstance(t, Edges):
                row[ct.offset] = 1.0
            elif isinstance(t, NodeMatch):
                c = self._codes[t.attr]
                if c[i] == c[j]:
                    row[ct.offset + (c[i] if t.differential else 0)] += 1.0
            elif isinstance(t, NodeFactor):
                c = self._codes[t.attr]
                colmap = self._factor_columns(t)
                for node in (i, j):
                    k = colmap[c[node]]
                    if k >= 0:
                        row[ct.offset + k] += 1.0
            elif isinstance(t, NodeMix):
                c = self._codes[t.attr]
                pos = self._mix_positions(t)[c[i], c[j]]
                if pos >= 0:
                    row[ct.offset + pos] += 1.0
            elif isinstance(t, GwDegree):
                wd = self._wdiff
                row[ct.offset] = wd[base_degree_i] + wd[base_degree_j]
        return row

    def _factor_columns(self, term: NodeFactor) -> np.ndarray:
        """Level code -> statistic slot, -1 for the reference level."""
        levels = self._levels[term.attr]
        ref = levels.index(term.reference)
        cols = np.full(len(levels), -1, dtype=np.int64)
        k = 0
        for lev in range(len(levels)):
            if lev == ref:
                continue
            cols[lev] = k
            k += 1
        return cols

    def design_matrix(self, g: Graph) -> tuple[np.ndarray, np.ndarray]:
        """Change-statistic rows for every dyad plus observed tie labels.

        Rows follow lexicographic dyad order ((0,1), (0,2), ..., (n-2,n-1)).
        For dyad-dependent terms the rest of the graph is held at its
        observed state with the dyad itself switched off.
        """
        n = self.n
        if n < 2:
            raise TooFewNodes(f"design matrix requires n >= 2 nodes, got n = {n}")
        iu, ju = np.triu_indices(n, k=1)
        D = len(iu)
        adj = np.zeros((n, n), dtype=bool)
        e = g.edge_array()
        if len(e):
            adj[e[:, 0], e[:, 1]] = True
            adj[e[:, 1], e[:, 0]] = True
        y = adj[iu, ju].astype(np.float64)
        X = np.zeros((D, self.p))
        rows = np.arange(D)
        for ct in self._compiled:
            t = ct.term
            if isinstance(t, Edges):
                X[:, ct.offset] = 1.0
            elif isinstance(t, NodeMatch):
                c = self._codes[t.attr]
                ci, cj = c[iu], c[ju]
                match = ci == cj
                if t.differential:
                    X[rows[match], ct.offset + ci[match]] = 1.0
                else:
                    X[match, ct.offset] = 1.0
            elif isinstance(t, NodeFactor):
                c = self._codes[t.attr]
                colmap = self._factor_columns(t)
                for codes in (c[iu], c[ju]):
                    k = colmap[codes]
                    sel = k >= 0
                    np.add.at(X, (rows[sel], ct.offset + k[sel]), 1.0)
            elif isinstance(t, NodeMix):
                c = self._codes[t.attr]
                pos = self._mix_positions(t)[c[iu], c[ju]]
                sel = pos >= 0
                X[rows[sel], ct.offset + pos[sel]] = 1.0
            elif isinstance(t, GwDegree):
                degs = g.degrees()
                di = degs[iu] - y.astype(np.int64)
                dj = degs[ju] - y.astype(np.int64)
                X[:, ct.offset] = self._wdiff[di] + self._wdiff[dj]
        return X, y


def compile_model(model: ModelSpec, attrs: AttributeTable, n: int) -> CompiledModel:
    return CompiledModel(model, attrs, n)


def statistics(g: Graph, attrs: AttributeTable, model: ModelSpec) -> np.ndarray:
    return CompiledModel(model, attrs, g.n).statistics(g)


def stat_names(model: ModelSpec, attrs: AttributeTable, n: int | None = None) -> tuple[str, ...]:
    return CompiledModel(model, attrs, attrs.n if n is None else n).stat_names


def change_statistics(
    g: Graph, attrs: AttributeTable, model: ModelSpec, dyad: tuple[int, int]
) -> np.ndarray:
    """Delta_ij: statistics with dyad on minus statistics with dyad off."""
    i, j = dyad
    if i == j:
        raise SelfLoop(f"change statistic undefined for self-pair ({i}, {i})")
    cm = CompiledModel(model, attrs, g.n)
    present = 1 if g.has_edge(i, j) else 0
    return cm.change_row(i, j, g.degree(i) - present, g.degree(j) - present)


def dyad_design_matrix(
    g: Graph, attrs: AttributeTable, model: ModelSpec
) -> tuple[np.ndarray, np.ndarray]:
    return CompiledModel(model, attrs, g.n).design_matrix(g)


def dyad_index(n: int, i: int, j: int) -> int:
    """Position of dyad {i, j} in lexicographic order, i < j."""
    if i > j:
        i, j = j, i
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def dyad_list(n: int) -> np.ndarray:
    """All dyads in lexicographic order as an (n*(n-1)/2, 2) array."""
    iu, ju = np.triu_indices(n, k=1)
    return np.column_stack([iu, ju])
