from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergmkit.errors import EmptyGraph, NoEdges, TooFewNodes
from ergmkit.graph import Graph
from ergmkit.netstats import (
    average_degree,
    degree_assortativity,
    density,
    mean_betweenness,
    network_summary,
    transitivity,
)

from conftest import (
    all_dyads,
    brandes_betweenness,
    brute_assortativity,
    brute_betweenness,
    brute_transitivity,
    random_graph,
)


def ring(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, all_dyads(n))


def sparse_graph_with(n, m, seed=0):
    """Arbitrary graph with exactly n nodes and m edges."""
    dyads = all_dyads(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.choice(len(dyads), size=m, replace=False)
    return Graph(n, [dyads[k] for k in idx])


class TestDensity:
    def test_reference_counts_767_516(self):
        g = sparse_graph_with(767, 516)
        assert round(density(g), 3) == 0.002

    def test_reference_counts_356_542(self):
        g = sparse_graph_with(356, 542)
        assert round(density(g), 3) == 0.009

    def test_complete_graph(self):
        assert density(complete(4)) == 1.0

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodes):
            density(Graph(1))

    def test_adding_edge_increases(self):
        g = Graph(5, [(0, 1)])
        assert density(g.with_edge(2, 3)) > density(g)

    def test_isolate_decreases(self):
        g = Graph(5, [(0, 1), (1, 2)])
        bigger = Graph(6, list(g.edges))
        assert density(bigger) < density(g)


class TestAverageDegree:
    def test_reference_counts_767_516(self):
        g = sparse_graph_with(767, 516)
        mean, _ = average_degree(g)
        assert round(mean, 2) == 1.35

    def test_reference_counts_277_380(self):
        g = sparse_graph_with(277, 380)
        mean, _ = average_degree(g)
        assert round(mean, 2) == 2.74

    def test_triangle(self):
        assert average_degree(Graph(3, [(0, 1), (1, 2), (0, 2)])) == (2.0, 0.0)

    def test_population_sd(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])  # degrees 3,1,1,1
        mean, sd = average_degree(g)
        degs = np.array([3, 1, 1, 1])
        assert mean == pytest.approx(1.5)
        assert sd == pytest.approx(float(np.sqrt(np.mean((degs - 1.5) ** 2))))

    def test_empty(self):
        with pytest.raises(EmptyGraph):
            average_degree(Graph(0))


class TestTransitivity:
    def test_triangle(self):
        assert transitivity(Graph(3, [(0, 1), (1, 2), (0, 2)])) == 1.0

    def test_path(self):
        assert transitivity(Graph(3, [(0, 1), (1, 2)])) == 0.0

    def test_chorded_cycle_vs_enumeration(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert transitivity(g) == pytest.approx(brute_transitivity(g))

    def test_no_triples(self):
        assert transitivity(Graph(4, [(0, 1)])) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration_oracle(self, seed):
        g = random_graph(7, 0.4, seed=seed)
        assert transitivity(g) == pytest.approx(brute_transitivity(g))


class TestBetweenness:
    def test_three_path(self):
        assert mean_betweenness(Graph(3, [(0, 1), (1, 2)])) == pytest.approx(1 / 3)

    def test_complete_four(self):
        assert mean_betweenness(complete(4)) == 0.0

    def test_five_star(self):
        g = Graph(5, [(0, k) for k in range(1, 5)])
        assert mean_betweenness(g) == pytest.approx(1 / 5)

    def test_too_few(self):
        with pytest.raises(TooFewNodes):
            mean_betweenness(Graph(2, [(0, 1)]))

    def test_disconnected_pairs_contribute_zero(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert mean_betweenness(g) == pytest.approx(float(brute_betweenness(g).mean()))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_path_enumeration_oracle(self, seed):
        g = random_graph(7, 0.35, seed=100 + seed)
        assert mean_betweenness(g) == pytest.approx(
            float(brute_betweenness(g).mean()), abs=1e-12
        )


@st.composite
def any_graphs(draw, min_n=3, max_n=40):
    """Any edge set on n nodes, so isolates and several components occur."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    dyads = all_dyads(n)
    picks = draw(st.sets(st.integers(0, len(dyads) - 1), max_size=len(dyads)))
    return Graph(n, [dyads[k] for k in picks])


class TestBetweennessMatchesBrandes:
    """The distance-sum mean against Brandes' per-node accumulation."""

    @settings(max_examples=150, deadline=None)
    @given(any_graphs())
    @example(Graph(6, [(k, k + 1) for k in range(5)]))  # path
    @example(Graph(7, [(0, k) for k in range(1, 7)]))  # star
    @example(complete(9))
    @example(Graph(5))  # empty
    @example(Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]))  # two components
    def test_matches_brandes(self, g):
        expected = float(brandes_betweenness(g).mean())
        assert mean_betweenness(g) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_matches_brandes_at_n_300(self):
        g = random_graph(300, 0.01, seed=7)
        expected = float(brandes_betweenness(g).mean())
        assert expected > 0
        assert mean_betweenness(g) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestAssortativity:
    def test_regular_graph_undefined(self):
        assert degree_assortativity(ring(4)) is None

    def test_star_matches_direct_pearson(self):
        g = Graph(5, [(0, k) for k in range(1, 5)])
        assert degree_assortativity(g) == pytest.approx(brute_assortativity(g))
        assert degree_assortativity(g) == pytest.approx(-1.0)

    def test_mixed_graph_matches_oracle(self):
        # two disjoint edges plus a 3-path
        g = Graph(7, [(0, 1), (2, 3), (4, 5), (5, 6)])
        assert degree_assortativity(g) == pytest.approx(brute_assortativity(g))

    def test_no_edges(self):
        with pytest.raises(NoEdges):
            degree_assortativity(Graph(3))

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_agreement_random(self, seed):
        g = random_graph(8, 0.4, seed=200 + seed)
        if g.edge_count == 0:
            return
        ours = degree_assortativity(g)
        brute = brute_assortativity(g)
        if brute is None:
            assert ours is None
        else:
            assert ours == pytest.approx(brute)


@st.composite
def nonempty_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=3, max_value=max_n))
    dyads = all_dyads(n)
    mask = draw(st.lists(st.booleans(), min_size=len(dyads), max_size=len(dyads)))
    return Graph(n, [d for d, keep in zip(dyads, mask) if keep])


class TestRanges:
    @settings(max_examples=60, deadline=None)
    @given(nonempty_graphs())
    def test_bounded_statistics(self, g):
        assert 0.0 <= density(g) <= 1.0
        assert 0.0 <= transitivity(g) <= 1.0
        assert 0.0 <= mean_betweenness(g) <= 1.0
        if g.edge_count:
            a = degree_assortativity(g)
            if a is not None:
                assert -1.0 - 1e-12 <= a <= 1.0 + 1e-12


class TestSummary:
    def test_fields_and_serialization(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
        s = network_summary(g)
        assert s.node_count == 5 and s.edge_count == 5
        payload = json.loads(s.to_json())
        assert payload["density"] == pytest.approx(density(g))
        csv = s.to_csv().splitlines()
        assert csv[0].split(",")[0] == "node_count"
        assert len(csv) == 2

    def test_edgeless_summary_has_null_assortativity(self):
        s = network_summary(Graph(4))
        assert s.degree_assortativity is None
        assert s.density == 0.0
