from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmkit.errors import DataError, EmptyGraph, SelfLoop, UnknownNodeId
from ergmkit.graph import (
    AttributeTable,
    CategoricalColumn,
    ContinuousColumn,
    Graph,
    categorical,
    connected_components,
    continuous,
    induced_subgraph,
    largest_connected_component,
    load_graph,
    MISSING_CODE,
)

from conftest import all_dyads, random_graph


def graphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        dyads = all_dyads(n)
        mask = draw(st.lists(st.booleans(), min_size=len(dyads), max_size=len(dyads)))
        return Graph(n, [d for d, keep in zip(dyads, mask) if keep])

    return build()


class TestLoadGraph:
    def test_reversed_duplicates_collapse(self):
        g = load_graph([("a", "b"), ("b", "a")], ["a", "b"])
        assert g.n == 2 and g.edge_count == 1

    def test_empty_edge_list(self):
        g = load_graph([], ["a", "b", "c"])
        assert g.n == 3 and g.edge_count == 0

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            load_graph([("a", "a")], ["a"])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownNodeId):
            load_graph([("a", "z")], ["a", "b"])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="'a'"):
            load_graph([], ["a", "b", "a"])

    def test_first_appearance_indexing(self):
        g = load_graph([("c", "a")], ["c", "a", "b"])
        assert g.has_edge(0, 1)

    def test_order_insensitive(self):
        pairs = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
        g1 = load_graph(pairs, ["a", "b", "c", "d"])
        g2 = load_graph(list(reversed(pairs)), ["a", "b", "c", "d"])
        assert g1 == g2 and hash(g1) == hash(g2)


class TestDegreeSequence:
    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.degrees().tolist() == [2, 2, 2]

    def test_star(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees().tolist() == [3, 1, 1, 1]

    def test_empty(self):
        assert Graph(5).degrees().tolist() == [0] * 5

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_handshake_lemma(self, g):
        assert int(g.degrees().sum()) == 2 * g.edge_count


class TestComponents:
    def test_connected_cycle_is_its_own_lcc(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        sub, _, idx = largest_connected_component(g)
        assert sub == g and idx.tolist() == [0, 1, 2, 3]

    def test_largest_of_two_components(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        sub, _, idx = largest_connected_component(g)
        assert sub.n == 3 and sub.edge_count == 2
        assert idx.tolist() == [0, 1, 2]

    def test_tie_break_smallest_node_id(self):
        # two 2-node components; the one containing node 0 wins
        g = Graph(4, [(0, 2), (1, 3)])
        sub, _, idx = largest_connected_component(g)
        assert idx.tolist() == [0, 2]

    def test_attributes_reindexed(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        attrs = AttributeTable(
            [categorical("c", ["x", "y"], ["x", "y", "x", "y", "y"])]
        )
        _, sub_attrs, _ = largest_connected_component(g, attrs)
        assert sub_attrs["c"].labels() == ["x", "y", "x"]

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            largest_connected_component(Graph(0))

    def test_inputs_unchanged(self):
        g = Graph(5, [(0, 1), (3, 4)])
        edges_before = set(g.edges)
        largest_connected_component(g)
        assert set(g.edges) == edges_before

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=7))
    def test_lcc_idempotent(self, g):
        if g.n == 0:
            return
        sub, _, _ = largest_connected_component(g)
        sub2, _, _ = largest_connected_component(sub)
        assert sub2 == sub

    def test_component_labels_partition(self):
        g = random_graph(9, 0.2, seed=3)
        labels = connected_components(g)
        # every node labelled, components numbered by their smallest node
        ids, first = np.unique(labels, return_index=True)
        assert labels.dtype == np.int64
        assert ids.tolist() == list(range(len(ids))) and np.all(np.diff(first) > 0)
        for i, j in g.edges:
            assert labels[i] == labels[j]

    def test_lcc_counts_on_reference_shaped_graph(self):
        # synthetic graph with the published shape: 767 nodes and 516 edges
        # overall, one 277-node component holding 380 of them
        edges = []
        # connected 277-node component: path + extra chords = 380 edges
        edges += [(i, i + 1) for i in range(276)]
        edges += [(i, i + 2) for i in range(104)]
        assert len(edges) == 380
        # 68 disjoint 3-node paths use 204 nodes and 136 edges
        base = 277
        for k in range(68):
            a = base + 3 * k
            edges += [(a, a + 1), (a + 1, a + 2)]
        g = Graph(767, edges)
        assert g.edge_count == 516
        sub, _, _ = largest_connected_component(g)
        assert sub.n == 277 and sub.edge_count == 380

    def test_induced_subgraph_reindexes(self):
        g = Graph(5, [(0, 1), (1, 4), (2, 3)])
        sub = induced_subgraph(g, np.array([1, 4, 2]))
        assert sub.n == 3 and sub.edges == frozenset({(0, 1)})


class TestGraphInvariants:
    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(UnknownNodeId):
            Graph(3, [(0, 3)])

    def test_degrees_read_only(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.degrees()[0] = 5


class TestAttributeTable:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            AttributeTable(
                [
                    categorical("a", ["x"], ["x", "x"]),
                    categorical("b", ["x"], ["x"]),
                ]
            )

    def test_missing_sentinel_distinct_from_levels(self):
        col = categorical("c", ["x", "y"], ["x", None, "y"])
        assert col.codes[1] == MISSING_CODE
        assert MISSING_CODE not in range(len(col.levels))
        assert col.missing_mask().tolist() == [False, True, False]

    def test_continuous_missing_is_nan(self):
        col = continuous("age", [35.0, None])
        assert np.isnan(col.values[1]) and not np.isnan(col.values[0])

    def test_codes_immutable(self):
        col = categorical("c", ["x"], ["x"])
        with pytest.raises(ValueError):
            col.codes[0] = 0

    def test_subset_reindexes_all_columns(self):
        t = AttributeTable(
            [
                categorical("c", ["x", "y"], ["x", "y", "x"]),
                continuous("age", [1.0, 2.0, 3.0]),
            ]
        )
        s = t.subset(np.array([2, 0]))
        assert s["c"].labels() == ["x", "x"]
        assert s["age"].values.tolist() == [3.0, 1.0]

    def test_with_columns_replaces(self):
        t = AttributeTable([categorical("c", ["x", "y"], ["x", "y"])])
        t2 = t.with_columns(categorical("c", ["x", "y"], ["y", "y"]))
        assert t["c"].labels() == ["x", "y"]  # original untouched
        assert t2["c"].labels() == ["y", "y"]

    def test_code_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CategoricalColumn("c", ("x",), np.array([1]))

    def test_equality_tells_kind_levels_and_missing_cells_apart(self):
        def table(col):
            return AttributeTable([col])

        cat = categorical("c", ["x", "y"], ["x", None, "y"])
        assert table(cat) == table(categorical("c", ["x", "y"], ["x", None, "y"]))
        assert table(cat) != table(CategoricalColumn("c", ("y", "x"), cat.codes))
        assert table(cat) != table(categorical("c", ["x", "y"], [None, "x", "y"]))
        assert table(cat) != table(ContinuousColumn("c", cat.codes))
        assert table(cat) != table(ContinuousColumn("c", [0.0, np.nan, 1.0]))
        cont = continuous("a", [1.5, None, 2.0])
        assert table(cont) == table(continuous("a", [1.5, None, 2.0]))
        assert table(cont) != table(continuous("a", [None, 1.5, 2.0]))
        assert table(cont) != table(continuous("a", [1.5, 0.0, 2.0]))
        assert table(cont) != AttributeTable([continuous("b", [1.5, None, 2.0])])


@st.composite
def columns_with_gaps(draw, n):
    """A categorical or continuous column of ``n`` cells, some of them missing."""
    missing = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    if draw(st.booleans()):
        levels = draw(st.lists(st.text("xyz", min_size=1), min_size=1, max_size=4, unique=True))
        codes = draw(st.lists(st.integers(0, len(levels) - 1), min_size=n, max_size=n))
        return CategoricalColumn("c", tuple(levels), np.where(missing, MISSING_CODE, codes))
    values = draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n))
    return ContinuousColumn("c", np.where(missing, np.nan, values), units=draw(st.text("kg", max_size=2)))


def reindexed(col, index):
    """The column with its cells re-indexed, rebuilt from its own kind's fields."""
    if isinstance(col, CategoricalColumn):
        return CategoricalColumn(col.name, col.levels, col.codes[index])
    return ContinuousColumn(col.name, col.values[index], col.units)


def assert_same_column(a, b):
    assert type(a) is type(b) and a.name == b.name
    if isinstance(a, CategoricalColumn):
        assert a.levels == b.levels and np.array_equal(a.codes, b.codes)
    else:
        assert a.units == b.units
        assert a.values.tobytes() == b.values.tobytes()  # NaN and signed zeros too


class TestNumericCells:
    @given(st.integers(0, 8).flatmap(columns_with_gaps))
    @settings(max_examples=200, deadline=None)
    def test_with_numeric_of_numeric_is_the_column(self, col):
        cells = col.numeric()
        assert cells.dtype == np.float64
        assert np.array_equal(np.isnan(cells), col.missing_mask())
        assert_same_column(col.with_numeric(cells), col)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_subset_reindexes_each_kind_as_its_own_fields(self, data):
        n = data.draw(st.integers(1, 8))
        col = data.draw(columns_with_gaps(n))
        index = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=10)), dtype=np.int64)
        sub = AttributeTable([col]).subset(index)
        assert_same_column(sub["c"], reindexed(col, index))
        assert sub == AttributeTable([reindexed(col, index)])
