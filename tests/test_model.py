from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmkit.errors import (
    ConfigError,
    DataError,
    MissingAttribute,
    TooFewNodes,
    UnknownLevel,
)
from ergmkit.graph import AttributeTable, Graph, categorical
from ergmkit.model import (
    CompiledModel,
    Edges,
    GwDegree,
    ModelSpec,
    NodeFactor,
    NodeMatch,
    NodeMix,
    dyad_endpoints,
    dyad_index,
    read_term,
    statistics,
    term_to_dict,
)

from conftest import (
    all_dyads,
    assert_design_holds_toggles,
    brute_statistics,
    dense_design,
    graphs_on,
    two_level_attrs,
)


def sex_attrs(labels):
    return AttributeTable([categorical("sex", ["male", "female"], labels)])


def living_attrs(labels):
    levels = ["own", "other", "homeless"]
    return AttributeTable([categorical("living", levels, labels)])


FULL_MODEL = ModelSpec(
    [
        Edges(),
        NodeMatch("grp", differential=True),
        NodeMatch("grp", differential=False),
        NodeFactor("grp", reference="a"),
        NodeMix("grp", reference=("a", "a")),
        GwDegree(0.5),
    ]
)


class TestStatistics:
    def test_single_within_level_edge(self):
        attrs = sex_attrs(["male", "male", "female", "female"])
        model = ModelSpec([Edges(), NodeMatch("sex", differential=True)])
        got = statistics(Graph(4, [(0, 1)]), attrs, model)
        assert got.tolist() == [1.0, 1.0, 0.0]

    def test_cross_level_edge_nodefactor(self):
        attrs = sex_attrs(["male", "female"])
        model = ModelSpec([NodeFactor("sex", reference="male")])
        got = statistics(Graph(2, [(0, 1)]), attrs, model)
        assert got.tolist() == [1.0]

    def test_nodefactor_counts_both_endpoints(self):
        attrs = sex_attrs(["female", "female"])
        model = ModelSpec([NodeFactor("sex", reference="male")])
        assert statistics(Graph(2, [(0, 1)]), attrs, model).tolist() == [2.0]

    def test_gwdegree_three_star(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        decay = 0.5
        model = ModelSpec([GwDegree(decay)])
        attrs = two_level_attrs(4, 2)
        got = statistics(g, attrs, model)[0]
        e = math.exp
        expected = e(decay) * (
            3 * (1 - (1 - e(-decay)) ** 1) + 1 * (1 - (1 - e(-decay)) ** 3)
        )
        assert got == pytest.approx(expected, abs=1e-12)
        # independent per-node summation
        per_node = sum(
            e(decay) * (1 - (1 - e(-decay)) ** int(d)) for d in g.degrees()
        )
        assert got == pytest.approx(per_node, abs=1e-12)

    def test_nodemix_reference_pair_excluded(self):
        attrs = living_attrs(["own", "other", "homeless", "homeless"])
        model = ModelSpec([NodeMix("living", reference=("homeless", "homeless"))])
        cm = CompiledModel(model, attrs, 4)
        assert "nodemix.living.homeless.homeless" not in cm.stat_names
        assert len(cm.stat_names) == 5

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_loop_oracle(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = int(rng.integers(2, 7))
        labels = [["a", "b", "c"][k] for k in rng.integers(0, 3, size=n)]
        attrs = AttributeTable([categorical("grp", ["a", "b", "c"], labels)])
        dyads = all_dyads(n)
        g = Graph(n, [d for d in dyads if rng.random() < 0.5])
        model = ModelSpec(
            [
                Edges(),
                NodeMatch("grp", differential=True),
                NodeFactor("grp", reference="b"),
                NodeMix("grp", reference=("a", "c")),
                GwDegree(0.7),
            ]
        )
        np.testing.assert_allclose(
            statistics(g, attrs, model), brute_statistics(g, attrs, model), atol=1e-12
        )

    def test_missing_cells_rejected(self):
        attrs = AttributeTable([categorical("sex", ["male", "female"], ["male", None])])
        with pytest.raises(MissingAttribute):
            statistics(Graph(2, [(0, 1)]), attrs, ModelSpec([NodeMatch("sex")]))

    def test_unknown_reference_level(self):
        attrs = sex_attrs(["male", "female"])
        with pytest.raises(UnknownLevel):
            statistics(
                Graph(2), attrs, ModelSpec([NodeFactor("sex", reference="robot")])
            )

    def test_duplicate_edges_term_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec([Edges(), Edges()])

    @pytest.mark.parametrize("n", [3, 7])
    def test_table_size_mismatch_rejected(self, n):
        # a 5-row table against 3 nodes used to yield statistics silently
        attrs = two_level_attrs(5, 3)
        with pytest.raises(DataError, match="5 rows"):
            statistics(Graph(n, [(0, 1)]), attrs, ModelSpec([Edges(), NodeMatch("grp")]))

    def test_table_without_columns_fits_any_size(self):
        got = statistics(Graph(3, [(0, 1)]), AttributeTable([]), ModelSpec([Edges()]))
        assert got.tolist() == [1.0]

    def test_duplicate_stat_names_rejected(self):
        attrs = sex_attrs(["male", "female"])
        model = ModelSpec([NodeMatch("sex"), NodeMatch("sex")])
        with pytest.raises(ConfigError):
            CompiledModel(model, attrs, 2)


class TestChangeStatistics:
    """Change statistics as the grouped design rows hold them."""

    def test_edges_term_is_one(self):
        attrs = two_level_attrs(4, 2)
        X, _, _ = CompiledModel(ModelSpec([Edges()]), attrs, 4).design_matrix(Graph(4, [(1, 3)]))
        assert X.tolist() == [[1.0]]

    def test_nodemix_coordinates(self):
        attrs = living_attrs(["own", "homeless", "other", "own"])
        model = ModelSpec([NodeMix("living", reference=("homeless", "homeless"))])
        cm = CompiledModel(model, attrs, 4)
        X, _, trials = cm.design_matrix(Graph(4))
        hit = {
            tuple(name for name, v in zip(cm.stat_names, row) if v): t
            for row, t in zip(X, trials)
        }
        assert hit == {
            ("nodemix.living.own.own",): 1,
            ("nodemix.living.own.other",): 2,
            ("nodemix.living.own.homeless",): 2,
            ("nodemix.living.other.homeless",): 1,
        }

    def test_gwdegree_change_matches_full_recompute(self):
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([GwDegree(0.5)])
        g = Graph(5, [(0, 1), (0, 2)])  # node 0 at degree 2
        assert_design_holds_toggles(g, attrs, model, CompiledModel(model, attrs, 5).design_matrix(g))

    def test_exhaustive_consistency_n4(self):
        attrs = AttributeTable(
            [categorical("grp", ["a", "b"], ["a", "a", "b", "b"])]
        )
        cm = CompiledModel(FULL_MODEL, attrs, 4)
        for g in graphs_on(4):
            assert_design_holds_toggles(g, attrs, FULL_MODEL, cm.design_matrix(g))

    def test_sampled_consistency_n6(self):
        # n=6 has 32768 graphs; a seeded sample keeps the check affordable
        attrs = AttributeTable(
            [categorical("grp", ["a", "b", "c"], ["a", "b", "c", "a", "b", "c"])]
        )
        cm = CompiledModel(FULL_MODEL, attrs, 6)
        dyads = all_dyads(6)
        r = np.random.Generator(np.random.PCG64(42))
        for mask in r.integers(0, 1 << 15, size=200):
            g = Graph(6, [dyads[d] for d in range(15) if int(mask) >> d & 1])
            assert_design_holds_toggles(g, attrs, FULL_MODEL, cm.design_matrix(g))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**10 - 1), st.integers(0, 9))
    def test_relabeling_equivariance(self, mask, perm_seed):
        n = 5
        dyads = all_dyads(n)
        g = Graph(n, [dyads[d] for d in range(len(dyads)) if mask >> d & 1])
        labels = ["a", "a", "b", "b", "a"]
        attrs = AttributeTable([categorical("grp", ["a", "b"], labels)])
        rng = np.random.Generator(np.random.PCG64(perm_seed))
        perm = rng.permutation(n)
        g2 = Graph(n, [(int(perm[i]), int(perm[j])) for i, j in g.edges])
        labels2 = [None] * n
        for old, new in enumerate(perm):
            labels2[int(new)] = labels[old]
        attrs2 = AttributeTable([categorical("grp", ["a", "b"], labels2)])
        model = ModelSpec(
            [Edges(), NodeMatch("grp"), NodeMix("grp", ("b", "b")), GwDegree(0.5)]
        )
        np.testing.assert_allclose(
            statistics(g, attrs, model), statistics(g2, attrs2, model), atol=1e-12
        )

    def test_differential_match_sums_to_plain_match(self):
        attrs = AttributeTable(
            [categorical("grp", ["a", "b", "c"], ["a", "b", "c", "a", "b"])]
        )
        g = Graph(5, [(0, 3), (1, 4), (0, 1), (2, 3)])
        diff = statistics(g, attrs, ModelSpec([NodeMatch("grp", differential=True)]))
        plain = statistics(g, attrs, ModelSpec([NodeMatch("grp", differential=False)]))
        assert diff.sum() == pytest.approx(plain[0])

    def test_nodemix_within_level_equals_differential_match(self):
        attrs = AttributeTable(
            [categorical("grp", ["a", "b", "c"], ["a", "b", "c", "a", "b"])]
        )
        g = Graph(5, [(0, 3), (1, 4), (0, 1), (2, 3), (1, 2)])
        mix_model = ModelSpec([NodeMix("grp", reference=("a", "b"))])
        cm = CompiledModel(mix_model, attrs, 5)
        mix = dict(zip(cm.stat_names, statistics(g, attrs, mix_model)))
        match_model = ModelSpec([NodeMatch("grp", differential=True)])
        cm2 = CompiledModel(match_model, attrs, 5)
        match = dict(zip(cm2.stat_names, statistics(g, attrs, match_model)))
        for lev in ("a", "b", "c"):
            assert mix[f"nodemix.grp.{lev}.{lev}"] == match[f"nodematch.grp.{lev}"]


class TestDesignMatrix:
    """The grouped pseudo-likelihood design and the per-dyad oracle."""

    def test_row_count_and_order(self):
        attrs = two_level_attrs(3, 2)
        g = Graph(3, [(0, 2)])
        model = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
        X, ties, trials = CompiledModel(model, attrs, 3).design_matrix(g)
        # blocks (a, a) and (a, b); (b, b) holds no dyad and has no row
        assert X.tolist() == [[1.0, 1.0], [1.0, 0.0]]
        assert ties.tolist() == [0.0, 1.0]
        assert trials.tolist() == [1.0, 2.0]
        X, y = dense_design(g, attrs, model)
        assert X.tolist() == [[1.0, 1.0], [1.0, 0.0], [1.0, 0.0]]
        assert y.tolist() == [0.0, 1.0, 0.0]  # dyads (0,1),(0,2),(1,2)

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_nodes(self, n):
        cm = CompiledModel(ModelSpec([Edges()]), two_level_attrs(n, n), n)
        with pytest.raises(TooFewNodes):
            cm.design_matrix(Graph(n))

    def test_empty_graph_labels(self):
        attrs = two_level_attrs(4, 2)
        for model in (ModelSpec([Edges()]), ModelSpec([Edges(), GwDegree(0.5)])):
            _, ties, trials = CompiledModel(model, attrs, 4).design_matrix(Graph(4))
            assert not ties.any()
            assert trials.sum() == 6

    def test_dyad_independent_rows_ignore_y(self):
        attrs = AttributeTable(
            [categorical("grp", ["a", "b"], ["a", "b", "a", "b", "a"])]
        )
        model = ModelSpec(
            [
                Edges(),
                NodeMatch("grp"),
                NodeFactor("grp", "a"),
                NodeMix("grp", ("a", "a")),
            ]
        )
        cm = CompiledModel(model, attrs, 5)
        X_empty, _, trials_empty = cm.design_matrix(Graph(5))
        for g in graphs_on(5):
            X, ties, trials = cm.design_matrix(g)
            np.testing.assert_array_equal(X, X_empty)
            np.testing.assert_array_equal(trials, trials_empty)
            assert ties.sum() == g.edge_count

    def test_rows_match_change_statistics(self):
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([Edges(), NodeMatch("grp"), GwDegree(0.5)])
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        X, ties, trials = CompiledModel(model, attrs, 5).design_matrix(g)
        assert np.all((ties == trials) | (ties == 0))  # with gwdegree a row is all ties or all non-ties
        assert_design_holds_toggles(g, attrs, model, (X, ties, trials))


class TestDyadEndpoints:
    @pytest.mark.parametrize("n", [2, 3, 12, 1000, 46_341, 10**6, 94_906_267, 10**9, 1_500_000_000])
    def test_positions_around_row_starts(self, n):
        # the closed form's float root is closest to a wrong row at row edges
        i = np.unique(np.r_[0, n - 2, np.random.default_rng(n).integers(0, n - 1, 100)])
        start, count = i * n - i * (i + 1) // 2, n * (n - 1) // 2
        d = np.unique(np.r_[start - 1, start, start + 1, count - 1])
        d = d[(d >= 0) & (d < count)]
        got = dyad_endpoints(n, d)
        assert got.dtype == np.int64
        for (a, b), pos in zip(got.tolist(), d.tolist()):
            assert 0 <= a < b < n and dyad_index(n, a, b) == dyad_index(n, b, a) == pos


class TestSerialization:
    @pytest.mark.parametrize(
        "term",
        [
            Edges(),
            NodeMatch("sex", differential=False),
            NodeFactor("living", reference="own"),
            NodeMix("living", reference=("own", "homeless")),
            GwDegree(0.25),
        ],
    )
    def test_round_trip(self, term):
        assert read_term("term", term_to_dict(term)) == term

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            read_term("term", {"term": "triangles"})

    def test_gwdegree_positive_decay(self):
        with pytest.raises(ConfigError):
            GwDegree(0.0)
