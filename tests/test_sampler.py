from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from ergmkit.errors import ConfigError, TooFewNodes
from ergmkit.exact import exact_distribution, exact_expected_stats, graph_bitmask
from ergmkit.graph import Graph
from ergmkit.model import Edges, GwDegree, ModelSpec, NodeMatch, statistics
from ergmkit.sampler import (
    SamplerConfig,
    sample,
    simulate,
    simulation_counters,
)

from conftest import (
    all_dyads,
    draw_bitmask,
    draw_graph,
    random_graph,
    reference_chain,
    two_level_attrs,
)


EDGES = ModelSpec([Edges()])
BLOCK = 1 << 15  # proposals drawn per run of the PCG64 stream


class TestConfig:
    def test_defaults_scale_with_n(self):
        cfg = SamplerConfig()
        assert cfg.resolve(10) == (1000, 100)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            SamplerConfig(sample_count=0)
        with pytest.raises(ConfigError):
            SamplerConfig(thin=0)
        with pytest.raises(ConfigError):
            SamplerConfig(burn_in=-1)


class TestMhStep:
    def test_zero_theta_always_accepts(self):
        attrs = two_level_attrs(5, 3)
        cfg = SamplerConfig(burn_in=0, thin=1, sample_count=200, seed=1)
        draws, _ = sample(Graph(5), np.zeros(1), EDGES, attrs, cfg)
        # every proposal is accepted, so each draw is one toggle from the last
        for before, after in zip([np.array([], dtype=np.int64)] + draws, draws):
            assert len(np.setxor1d(before, after)) == 1

    def test_strongly_negative_edges_keeps_empty_graph_absorbing(self):
        attrs = two_level_attrs(5, 3)
        cfg = SamplerConfig(burn_in=0, thin=1, sample_count=2000, seed=2)
        draws, stats = sample(Graph(5), np.array([-50.0]), EDGES, attrs, cfg)
        assert all(len(d) == 0 for d in draws)
        assert not stats.any()

    def test_long_run_density_matches_logit(self):
        # independent dyads: long-run tie probability is sigmoid(theta);
        # thinning well past n^2 keeps retained samples near-independent
        attrs = two_level_attrs(6, 3)
        target = 0.3
        theta = np.array([math.log(target / (1 - target))])
        cfg = SamplerConfig(burn_in=2000, thin=120, sample_count=10000, seed=9)
        _, stats = sample(Graph(6), theta, EDGES, attrs, cfg)
        mean_edges = stats[:, 0].mean()
        want = 15 * target
        se = stats[:, 0].std() / math.sqrt(len(stats))
        assert abs(mean_edges - want) <= 3 * max(se, 1e-6)


class TestSample:
    def test_single_proposal_run(self):
        attrs = two_level_attrs(4, 2)
        cfg = SamplerConfig(burn_in=0, thin=1, sample_count=1, seed=5)
        g0 = Graph(4, [(0, 1)])
        draws, stats = sample(g0, np.zeros(1), EDGES, attrs, cfg)
        assert len(draws) == 1
        flipped = set(draw_graph(4, draws[0]).edges) ^ g0.edges
        assert len(flipped) == 1  # theta=0 accepts, so exactly one toggle

    def test_uniform_mean_edge_count(self):
        attrs = two_level_attrs(5, 3)
        cfg = SamplerConfig(burn_in=1000, thin=10, sample_count=50000, seed=31)
        _, stats = sample(Graph(5), np.zeros(1), EDGES, attrs, cfg)
        mean = stats[:, 0].mean()
        se = stats[:, 0].std() / math.sqrt(len(stats))
        assert abs(mean - 5.0) <= 3 * se

    def test_moments_match_enumeration(self):
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
        theta = np.array([-0.5, 0.9])
        cfg = SamplerConfig(burn_in=2000, thin=25, sample_count=30000, seed=17)
        _, stats = sample(Graph(5), theta, model, attrs, cfg)
        want = exact_expected_stats(exact_distribution(5, attrs, model, theta))
        se = stats.std(axis=0) / math.sqrt(len(stats))
        assert np.all(np.abs(stats.mean(axis=0) - want) <= 3 * np.maximum(se, 1e-9))

    def test_seed_determinism(self):
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([Edges(), NodeMatch("grp")])
        theta = np.array([-0.2, 0.4, 0.1])
        cfg = SamplerConfig(burn_in=100, thin=5, sample_count=50, seed=77)
        d1, s1 = sample(Graph(5), theta, model, attrs, cfg)
        d2, s2 = sample(Graph(5), theta, model, attrs, cfg)
        assert [d.tolist() for d in d1] == [d.tolist() for d in d2]
        np.testing.assert_array_equal(s1, s2)
        d3, _ = sample(Graph(5), theta, model, attrs, SamplerConfig(100, 5, 50, seed=78))
        assert [d.tolist() for d in d3] != [d.tolist() for d in d1]

    def test_retained_stats_equal_full_recompute(self):
        attrs = two_level_attrs(6, 3)
        model = ModelSpec([Edges(), NodeMatch("grp"), GwDegree(0.5)])
        theta = np.array([-0.5, 0.6, 0.2, 0.3])
        cfg = SamplerConfig(burn_in=500, thin=30, sample_count=40, seed=13)
        draws, stats = sample(Graph(6), theta, model, attrs, cfg)
        for d, row in zip(draws, stats):
            assert d.dtype == np.int64 and np.all(np.diff(d) > 0)
            np.testing.assert_allclose(
                row, statistics(draw_graph(6, d), attrs, model), atol=1e-9
            )

    def test_gwdegree_chain_matches_enumeration(self):
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([Edges(), GwDegree(0.5)])
        theta = np.array([-0.8, 0.5])
        cfg = SamplerConfig(burn_in=3000, thin=30, sample_count=30000, seed=23)
        _, stats = sample(Graph(5), theta, model, attrs, cfg)
        want = exact_expected_stats(exact_distribution(5, attrs, model, theta))
        se = stats.std(axis=0) / math.sqrt(len(stats))
        assert np.all(np.abs(stats.mean(axis=0) - want) <= 3.5 * np.maximum(se, 1e-9))

    def test_initial_graph_untouched(self):
        attrs = two_level_attrs(5, 3)
        g0 = Graph(5, [(0, 1), (2, 3)])
        before = set(g0.edges)
        sample(g0, np.zeros(1), EDGES, attrs, SamplerConfig(10, 2, 5, seed=3))
        assert set(g0.edges) == before


class TestGoldenStream:
    def test_gwdegree_chain_bits(self):
        # pins the PCG64 proposal/uniform stream, the acceptance rule and the
        # summation order of the running gwdegree statistic
        attrs = two_level_attrs(8, 4)
        model = ModelSpec([Edges(), NodeMatch("grp"), GwDegree(0.5)])
        theta = np.array([-1.0, 0.6, 0.3, 0.4])
        cfg = SamplerConfig(burn_in=200, thin=15, sample_count=25, seed=2024)
        draws, stats = sample(Graph(8, [(0, 1), (2, 5)]), theta, model, attrs, cfg)
        want = np.array(
            [
                [12.0, 2.0, 3.0, 12.29239775875015],
                [12.0, 3.0, 3.0, 12.161548287824989],
                [7.0, 2.0, 3.0, 9.883513604641811],
                [11.0, 3.0, 3.0, 11.9827615152578],
                [8.0, 1.0, 2.0, 9.492717250903349],
                [7.0, 4.0, 0.0, 8.431801066675352],
                [12.0, 5.0, 3.0, 11.973744412788632],
                [14.0, 6.0, 4.0, 12.447629707253279],
                [9.0, 1.0, 3.0, 10.647535372649523],
                [10.0, 1.0, 2.0, 11.528375990742436],
                [9.0, 1.0, 2.0, 9.947102775418712],
                [12.0, 2.0, 2.0, 11.865942665172602],
                [11.0, 1.0, 1.0, 11.411557140657239],
                [8.0, 1.0, 2.0, 10.670452285216545],
                [11.0, 2.0, 2.0, 11.88885957773962],
                [8.0, 2.0, 3.0, 9.586619188421524],
                [6.0, 1.0, 4.0, 8.728695482895631],
                [8.0, 0.0, 5.0, 8.516685901724358],
                [8.0, 2.0, 2.0, 10.431801066675344],
                [7.0, 3.0, 1.0, 8.813580317944638],
                [9.0, 4.0, 4.0, 11.218739747250076],
                [11.0, 5.0, 3.0, 11.88885957773961],
                [11.0, 4.0, 3.0, 11.88885957773961],
                [10.0, 3.0, 3.0, 11.434474053224248],
                [13.0, 2.0, 3.0, 12.414230127206135],
            ]
        )
        np.testing.assert_array_equal(stats, want)
        assert [all_dyads(8)[k] for k in draws[-1]] == [
            (0, 2), (0, 5), (1, 3), (1, 4), (1, 5), (1, 6), (2, 6),
            (2, 7), (3, 5), (3, 7), (4, 5), (4, 6), (6, 7),
        ]


@st.composite
def chain_controls(draw):
    """(burn_in, thin, sample_count): short runs, or runs that end on a
    2**15 block edge, or that retain at a block's last proposal and go on."""
    thin = draw(st.integers(1, 3000))
    count = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["short", "ends_on_edge", "retains_on_edge"]))
    if shape == "short":
        return draw(st.integers(0, 400)), thin, count
    # thin * count can pass one block (3000 * 12 > 2**15), so the edge is
    # taken one block later where it would make the burn-in negative
    if shape == "ends_on_edge":
        edge = (draw(st.integers(1, 2)) + thin * count // BLOCK) * BLOCK
        return edge - thin * count, thin, count
    kept = draw(st.integers(1, count))
    return (1 + thin * kept // BLOCK) * BLOCK - thin * kept, thin, count


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 30),
    start=st.sampled_from(["empty", "random", "complete"]),
    match=st.booleans(),
    gw=st.booleans(),
    theta=st.tuples(
        st.floats(-6.0, 3.0), st.floats(-2.0, 2.0), st.floats(-3.0, 3.0)
    ),
    controls=chain_controls(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=6, start="random", match=True, gw=True, theta=(800.0, 0.3, 0.2),
         controls=(100, 7, 5), seed=1)
@example(n=6, start="complete", match=True, gw=True, theta=(-50.0, 0.3, -0.2),
         controls=(100, 7, 5), seed=2)
@example(n=9, start="random", match=False, gw=True, theta=(-1.0, 0.0, 0.5),
         controls=(BLOCK - 40, 1, 60), seed=3)
def test_sample_equals_reference_chain(n, start, match, gw, theta, controls, seed):
    attrs = two_level_attrs(n, n // 2)
    terms, values = [Edges()], [theta[0]]
    if match:
        terms.append(NodeMatch("grp", differential=False))
        values.append(theta[1])
    if gw:
        terms.append(GwDegree(0.5))
        values.append(theta[2])
    model, values = ModelSpec(terms), np.array(values)
    g0 = random_graph(n, {"empty": 0.0, "random": 0.3, "complete": 1.0}[start], seed % 1000)
    burn, thin, count = controls
    draws, stats = sample(g0, values, model, attrs, SamplerConfig(burn, thin, count, seed))
    want_draws, want_stats = reference_chain(g0, values, model, attrs, burn, thin, count, seed)
    assert np.array_equal(stats, want_stats)
    assert all(d.dtype == np.int64 for d in draws)
    assert [d.tolist() for d in draws] == [d.tolist() for d in want_draws]


class TestSimulate:
    def test_exact_draws_vs_exact_distribution(self):
        # the form of acceptance criterion 3, on the exact path
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
        theta = np.array([-0.4, 0.8])
        dist = exact_distribution(5, attrs, model, theta)
        probs = dist.probabilities()
        cfg = SamplerConfig(sample_count=100_000, seed=42)
        draws, stat_mat = simulate(Graph(5), theta, model, attrs, cfg)
        counts = np.zeros(len(probs))
        for d in draws:
            counts[draw_bitmask(d)] += 1
        # the chi-square is taken over the enumeration's own state order
        assert all(draw_bitmask(d) == graph_bitmask(draw_graph(5, d)) for d in draws[:50])
        expected = probs * len(draws)
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        threshold = float(sps.chi2.ppf(0.99, len(probs) - 1))
        assert chi2 < threshold, f"chi2 {chi2:.1f} >= {threshold:.1f}"
        want = exact_expected_stats(dist)
        se = stat_mat.std(axis=0) / math.sqrt(len(stat_mat))
        assert np.all(np.abs(stat_mat.mean(axis=0) - want) <= 3 * np.maximum(se, 1e-12))

    def test_retained_stats_equal_full_recompute(self):
        attrs = two_level_attrs(6, 3)
        model = ModelSpec([Edges(), NodeMatch("grp")])
        theta = np.array([-0.5, 0.6, 0.2])
        draws, stats = simulate(Graph(6), theta, model, attrs, SamplerConfig(sample_count=40, seed=13))
        for d, row in zip(draws, stats):
            assert d.dtype == np.int64 and np.all(np.diff(d) > 0)
            np.testing.assert_array_equal(row, statistics(draw_graph(6, d), attrs, model))

    def test_exact_path_ignores_start_and_chain_controls(self):
        attrs = two_level_attrs(6, 3)
        model = ModelSpec([Edges(), NodeMatch("grp")])
        theta = np.array([-0.5, 0.6, 0.2])
        a = simulate(Graph(6), theta, model, attrs, SamplerConfig(sample_count=20, seed=8))
        b = simulate(
            Graph(6, [(0, 1), (2, 5)]),
            theta,
            model,
            attrs,
            SamplerConfig(burn_in=7, thin=3, sample_count=20, seed=8),
        )
        assert [d.tolist() for d in a[0]] == [d.tolist() for d in b[0]]
        np.testing.assert_array_equal(a[1], b[1])

    def test_counters(self):
        cfg = SamplerConfig(burn_in=100, thin=10, sample_count=7)
        assert simulation_counters(EDGES, 5, cfg) == {
            "simulator": "exact",
            "samples": 7,
            "proposals": 0,
        }
        gw = ModelSpec([Edges(), GwDegree(0.5)])
        assert simulation_counters(gw, 5, cfg) == {
            "simulator": "metropolis",
            "samples": 7,
            "proposals": 170,
        }


class TestTooFewNodes:
    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("model", [EDGES, ModelSpec([Edges(), GwDegree(0.5)])])
    def test_sample(self, n, model):
        theta = np.zeros(len(model.terms))
        with pytest.raises(TooFewNodes):
            sample(Graph(n), theta, model, two_level_attrs(n, n), SamplerConfig())

    @pytest.mark.parametrize("n", [0, 1])
    def test_exact_path(self, n):
        with pytest.raises(TooFewNodes):
            simulate(Graph(n), np.zeros(1), EDGES, two_level_attrs(n, n), SamplerConfig())


class TestBadTheta:
    @pytest.mark.parametrize(
        "theta", [[-1.0, 0.5, 0.2, 0.1], [-1.0, np.nan, 0.2], [np.inf, 0.5, 0.2], -1.0]
    )
    @pytest.mark.parametrize("run", [sample, simulate])
    def test_wrong_length_or_non_finite_is_config_error(self, theta, run):
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([Edges(), NodeMatch("grp")])
        with pytest.raises(ConfigError, match="theta"):
            run(Graph(5), np.array(theta), model, attrs, SamplerConfig())
