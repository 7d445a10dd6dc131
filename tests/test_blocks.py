"""The level-pair block table and the grouped design against the brute
oracles and the per-dyad design.

Random attribute tables (1-3 columns of 1-4 declared levels, drawn from a
random subset of the levels, so declared levels can be empty and columns
can have a single level), random term lists over them (reference levels
may be absent from the data) and random graphs, empty ones included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergmkit.errors import ErgmkitError, Separation
from ergmkit.fit import fit_mple
from ergmkit.graph import AttributeTable, Graph, categorical
from ergmkit.logistic import fit_logistic
from ergmkit.model import (
    CompiledModel,
    Edges,
    GwDegree,
    ModelSpec,
    NodeFactor,
    NodeMatch,
    NodeMix,
)
from ergmkit.sampler import SamplerConfig, simulate

from conftest import all_dyads, brute_statistics, dense_design

LEVELS = ("a", "b", "c", "d")


@st.composite
def block_cases(draw, max_n=7, identifiable=False):
    """(graph, attribute table, model) with 1-3 categorical columns.

    ``identifiable`` draws models that can be full rank: edges plus one of
    nodematch, plain nodematch or nodefactor per column, every level
    occupied, and graphs of 20 or more nodes.
    """
    n = draw(st.integers(20, max_n) if identifiable else st.integers(2, max_n))
    columns, terms = [], []
    if identifiable or draw(st.booleans()):
        terms.append(Edges())
    for c in range(draw(st.integers(1, 3))):
        name = f"x{c}"
        levels = LEVELS[: draw(st.integers(1, 4))]
        if identifiable:
            labels = list(levels) + draw(
                st.lists(st.sampled_from(levels), min_size=n - len(levels), max_size=n - len(levels))
            )
            kind = draw(st.sampled_from(["match", "plain", "factor"]))
            kinds = {kind}
        else:
            occupied = draw(st.lists(st.sampled_from(levels), min_size=1, unique=True))
            labels = draw(st.lists(st.sampled_from(occupied), min_size=n, max_size=n))
            kinds = draw(st.sets(st.sampled_from(["match", "plain", "factor", "mix"])))
        columns.append(categorical(name, levels, labels))
        if "match" in kinds:
            terms.append(NodeMatch(name, differential=True))
        if "plain" in kinds:
            terms.append(NodeMatch(name, differential=False))
        if "factor" in kinds:
            terms.append(NodeFactor(name, draw(st.sampled_from(levels))))
        if "mix" in kinds:
            ref = (draw(st.sampled_from(levels)), draw(st.sampled_from(levels)))
            terms.append(NodeMix(name, ref))
    if draw(st.booleans()):
        terms.append(GwDegree(draw(st.sampled_from([0.3, 0.5, 1.2]))))
    dyads = all_dyads(n)
    densities = [0.15, 0.3, 0.5] if identifiable else [0.0, 0.2, 0.5, 0.8]
    density = draw(st.sampled_from(densities))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    g = Graph(n, [d for d in dyads if rng.random() < density])
    return g, AttributeTable(columns), ModelSpec(terms)


def _case(labels_by_column, levels_by_column, terms, n, edges):
    attrs = AttributeTable(
        [
            categorical(f"x{c}", levels, labels)
            for c, (levels, labels) in enumerate(zip(levels_by_column, labels_by_column))
        ]
    )
    return Graph(n, edges), attrs, ModelSpec(terms)


# declared level "c" has no nodes, and it is nodefactor's reference
EMPTY_LEVEL = _case(
    [["a", "b", "a", "b", "a"]],
    [("a", "b", "c")],
    [Edges(), NodeMatch("x0"), NodeFactor("x0", "c"), NodeMix("x0", ("c", "a"))],
    5,
    [(0, 1), (1, 2), (2, 4)],
)
# a single-level column beside a three-level one
SINGLE_LEVEL = _case(
    [["a"] * 6, ["a", "b", "c", "a", "b", "c"]],
    [("a",), ("a", "b", "c")],
    [Edges(), NodeFactor("x0", "a"), NodeMix("x0", ("a", "a")), NodeMatch("x1", False)],
    6,
    [(0, 3), (1, 4), (2, 5), (0, 1)],
)
# no ties at all
EMPTY_GRAPH = _case(
    [["a", "b", "b", "a"], ["b", "b", "a", "a"]],
    [("a", "b"), ("a", "b")],
    [Edges(), NodeMatch("x0"), NodeMix("x1", ("a", "b")), GwDegree(0.5)],
    4,
    [],
)


def _toggle_difference(g, attrs, model, i, j):
    on = g if g.has_edge(i, j) else g.with_edge(i, j)
    off = g.without_edge(i, j) if g.has_edge(i, j) else g
    return brute_statistics(on, attrs, model) - brute_statistics(off, attrs, model)


@settings(max_examples=150, deadline=None)
@given(block_cases())
@example(EMPTY_LEVEL)
@example(SINGLE_LEVEL)
@example(EMPTY_GRAPH)
def test_statistics_match_brute_oracle(case):
    g, attrs, model = case
    cm = CompiledModel(model, attrs, g.n)
    np.testing.assert_allclose(
        cm.statistics(g), brute_statistics(g, attrs, model), rtol=0, atol=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(block_cases(max_n=6))
@example(EMPTY_LEVEL)
@example(SINGLE_LEVEL)
@example(EMPTY_GRAPH)
def test_change_rows_and_design_match_toggle_differences(case):
    g, attrs, model = case
    cm = CompiledModel(model, attrs, g.n)
    X, y = dense_design(g, attrs, model)
    degs = g.degrees()
    for d, (i, j) in enumerate(all_dyads(g.n)):
        present = g.has_edge(i, j)
        want = _toggle_difference(g, attrs, model, i, j)
        row = cm.change_row(i, j, int(degs[i]) - present, int(degs[j]) - present)
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(X[d], want, rtol=0, atol=1e-12)
        assert y[d] == float(present)
    # the grouped rows hold the dyads of the dense rows they equal: over
    # grouped rows with one change row, ties and trials add up to that
    # row's dense ties and dyads
    Xg, ties, trials = cm.design_matrix(g)
    match = np.all(np.abs(Xg[:, None, :] - X[None, :, :]) <= 1e-12, axis=2)
    assert match.any(axis=1).all() and match.any(axis=0).all()
    same = (match.astype(int) @ match.T.astype(int)) > 0
    np.testing.assert_array_equal(same @ ties, match @ y)
    np.testing.assert_array_equal(same @ trials, match.sum(axis=1))


def _outcome(fit):
    try:
        return fit(), None
    except ErgmkitError as exc:
        return None, exc


def _classes(g, attrs, model):
    """Occupied node classes: joint labels, plus the degree with gwdegree."""
    columns = [attrs[t.attr].labels() for t in model.terms if hasattr(t, "attr")]
    return {
        (tuple(c[i] for c in columns), 0 if model.dyad_independent else g.degree(i))
        for i in range(g.n)
    }


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        block_cases(max_n=40),
        block_cases(max_n=60, identifiable=True),
    )
)
@example(EMPTY_LEVEL)
@example(SINGLE_LEVEL)
@example(EMPTY_GRAPH)
def test_block_mple_matches_dense_irls(case):
    g, attrs, model = case
    cm = CompiledModel(model, attrs, g.n)
    X, y = dense_design(g, attrs, model)
    grouped, grouped_err = _outcome(lambda: fit_mple(g, attrs, model))
    dense, dense_err = _outcome(lambda: fit_logistic(X, y, names=list(cm.stat_names)))
    if dense is not None:
        mu = 1.0 / (1.0 + np.exp(-(X @ dense.beta)))
        if np.any((mu < 1e-8) | (mu > 1 - 1e-8)):
            # saturated fitted probabilities: the data are quasi-separated,
            # the likelihood has no interior maximum and IRLS stopped on its
            # flat ridge, which fit_mple reports
            assert isinstance(grouped_err, Separation)
            return
    # rank and separation errors name the same terms; a fit that runs
    # gives the same estimate and covariance
    assert type(grouped_err) is type(dense_err)
    assert str(grouped_err) == str(dense_err)
    if dense is None:
        return
    # gwdegree's column can be tiny beside the others (at high degrees); its
    # estimate is then ill-conditioned and rounding moves it by about
    # cond * eps, so gwdegree models compare in units of max(1, SE)
    unit = np.ones(cm.p)
    if not model.dyad_independent:
        unit = np.maximum(1.0, np.sqrt(np.diag(dense.covariance)))
    np.testing.assert_allclose(grouped.theta / unit, dense.beta / unit, rtol=1e-10, atol=1e-10)
    cov_unit = np.outer(unit, unit)
    np.testing.assert_allclose(
        grouped.covariance / cov_unit, dense.covariance / cov_unit, rtol=1e-10, atol=1e-10
    )
    assert grouped.diagnostics["dyads"] == len(y)
    C = len(_classes(g, attrs, model))
    assert grouped.diagnostics["blocks"] <= (1 if model.dyad_independent else 2) * C * (C + 1) // 2


def test_dyad_independent_paths_build_no_dense_design(monkeypatch):
    n = 5000
    rng = np.random.Generator(np.random.PCG64(11))
    attrs = AttributeTable(
        [
            categorical("sex", ["m", "f"], [("m", "f")[k] for k in rng.integers(0, 2, n)]),
            categorical("race", ["a", "b", "c"], [("a", "b", "c")[k] for k in rng.integers(0, 3, n)]),
        ]
    )
    ends = rng.integers(0, n, size=(3 * n, 2))
    g = Graph(n, [(int(i), int(j)) for i, j in ends if i != j])
    model = ModelSpec([Edges(), NodeMatch("sex"), NodeMix("race", ("a", "a"))])
    gw_model = ModelSpec(list(model.terms) + [GwDegree(0.5)])

    def per_dyad(*args, **kwargs):
        raise AssertionError("per-dyad blocks built")

    with monkeypatch.context() as patch:
        patch.setattr(CompiledModel, "dyad_blocks", per_dyad)
        fit = fit_mple(g, attrs, model)
        gw_fit = fit_mple(g, attrs, gw_model)
    assert fit.diagnostics["dyads"] == gw_fit.diagnostics["dyads"] == n * (n - 1) // 2
    assert fit.diagnostics["blocks"] == 21
    C = len(_classes(g, attrs, gw_model))
    assert gw_fit.diagnostics["blocks"] <= 2 * C * (C + 1) // 2

    graphs, stats = simulate(Graph(n), fit.theta, model, attrs, SamplerConfig(seed=3))
    np.testing.assert_array_equal(stats[0], CompiledModel(model, attrs, n).statistics(graphs[0]))
