from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import optimize

from ergmkit.errors import Degeneracy, RankDeficient, Separation, SingularInformation
from ergmkit.exact import exact_mle
import ergmkit.fit as fit_module
import ergmkit.sampler as sampler_module
from ergmkit.fit import (
    Z_95,
    _gof_row,
    fit_counters,
    fit_mcmle,
    fit_mple,
    gof,
    or_table,
    screen_univariate,
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
    statistics,
)
from ergmkit.sampler import SamplerConfig, sample, simulate
from ergmkit.synth import CategoricalSpec, SynthSpec, generate

from conftest import all_dyads, gof_draw_rows, two_level_attrs, with_edge, without_edge


def brute_pseudo_mle(g, attrs, model):
    """Independent optimizer on the exact pseudo-likelihood.

    Builds change statistics from pairs of full statistic evaluations and
    maximizes with scipy; shares no solver code with the IRLS path.
    """
    rows, ys = [], []
    for i, j in all_dyads(g.n):
        present = g.has_edge(i, j)
        on = with_edge(g, i, j) if not present else g
        off = without_edge(g, i, j) if present else g
        rows.append(statistics(on, attrs, model) - statistics(off, attrs, model))
        ys.append(1.0 if present else 0.0)
    X = np.array(rows)
    y = np.array(ys)

    def neg_pl(beta):
        eta = X @ beta
        return float(np.sum(np.logaddexp(0.0, eta) - y * eta))

    res = optimize.minimize(
        neg_pl, np.zeros(X.shape[1]), method="BFGS", options={"gtol": 1e-12}
    )
    return res.x


class TestMple:
    def test_edges_only_closed_form(self):
        attrs = two_level_attrs(6, 3)
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
        d = 4 / 15
        r = fit_mple(g, attrs, ModelSpec([Edges()]))
        assert r.theta[0] == pytest.approx(math.log(d / (1 - d)), abs=1e-10)
        # one block: no model column splits the nodes
        assert fit_counters(r) == {
            "method": "MPLE",
            "dyads": 15,
            "blocks": 1,
            "iterations": r.diagnostics["iterations"],
        }

    def test_published_scale_closed_form(self):
        # node/edge counts from the published full-network table
        n, m = 767, 516
        dyads = all_dyads(n)
        rng = np.random.Generator(np.random.PCG64(0))
        idx = rng.choice(len(dyads), size=m, replace=False)
        g = Graph(n, [dyads[k] for k in idx])
        attrs = two_level_attrs(n, 400)
        r = fit_mple(g, attrs, ModelSpec([Edges()]))
        d = m / len(dyads)
        assert r.theta[0] == pytest.approx(math.log(d / (1 - d)), abs=1e-10)
        assert r.theta[0] == pytest.approx(-6.341, abs=2e-3)
        assert round(r.rows[0].odds_ratio, 5) == 0.00176

    def test_complete_graph_separates(self):
        attrs = two_level_attrs(4, 2)
        with pytest.raises(Separation):
            fit_mple(Graph(4, all_dyads(4)), attrs, ModelSpec([Edges()]))

    def test_quasi_separation_raises(self):
        # the one tie is on an a-b dyad: no single column separates, but
        # the a-b log-odds against a-a diverges and IRLS stops on the ridge
        attrs = two_level_attrs(3, 2)
        model = ModelSpec([Edges(), NodeFactor("grp", "a")])
        with pytest.raises(Separation):
            fit_mple(Graph(3, [(0, 2)]), attrs, model)

    def test_matches_brute_newton_on_pseudo_likelihood(self):
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
        g = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)])
        ours = fit_mple(g, attrs, model).theta
        brute = brute_pseudo_mle(g, attrs, model)
        np.testing.assert_allclose(ours, brute, atol=1e-6)

    def test_equals_exact_mle_when_dyad_independent(self):
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
        for edges in [
            [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)],
            [(0, 1), (1, 2), (3, 4), (0, 4)],
            [(0, 3), (1, 4), (2, 3), (0, 1)],
        ]:
            g = Graph(5, edges)
            np.testing.assert_allclose(
                fit_mple(g, attrs, model).theta,
                exact_mle(g, attrs, model),
                atol=1e-6,
            )

    def test_collinear_terms_named(self):
        # within-level mix columns duplicate the differential match columns
        attrs = two_level_attrs(5, 3)
        model = ModelSpec(
            [
                Edges(),
                NodeMatch("grp", differential=True),
                NodeMix("grp", reference=("a", "b")),
            ]
        )
        g = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        with pytest.raises(RankDeficient) as err:
            fit_mple(g, attrs, model)
        assert "nodematch" in str(err.value) or "nodemix" in str(err.value)


class TestOrTable:
    def test_zero_estimate(self):
        rows = or_table(np.zeros(1), np.array([[0.25]]), ["x"])
        assert rows[0].odds_ratio == 1.0
        assert rows[0].ci_low * rows[0].ci_high == pytest.approx(1.0)
        assert rows[0].p_value == pytest.approx(1.0)
        assert rows[0].stars == ""

    def test_published_row_inversion(self):
        rows = or_table(np.array([0.3646]), np.array([[0.1320**2]]), ["x"])
        assert round(rows[0].odds_ratio, 2) == 1.44
        assert round(rows[0].ci_low, 2) == 1.11
        assert round(rows[0].ci_high, 2) == 1.87
        assert rows[0].stars == "†"  # 0.01 level

    def test_negative_row_arithmetic(self):
        rows = or_table(np.array([-1.204]), np.array([[0.170**2]]), ["x"])
        assert round(rows[0].odds_ratio, 2) == 0.30
        assert round(rows[0].ci_low, 2) == 0.21
        assert round(rows[0].ci_high, 2) == 0.42

    def test_log_round_trip(self):
        theta = np.array([0.7, -2.1, 0.0313])
        cov = np.diag([0.04, 0.09, 0.01])
        for row, t in zip(or_table(theta, cov, ["a", "b", "c"]), theta):
            assert math.log(row.odds_ratio) == pytest.approx(float(t), abs=1e-12)

    def test_ci_monotone_in_se(self):
        widths = []
        for se in (0.1, 0.2, 0.4):
            row = or_table(np.array([0.5]), np.array([[se**2]]), ["x"])[0]
            widths.append(row.ci_high - row.ci_low)
            assert row.ci_low < row.odds_ratio < row.ci_high
        assert widths == sorted(widths)

    def test_stars_thresholds(self):
        # z-scores 1.5, 2.2, 3.0, 4.0 straddle the 1.96/2.576/3.291 cutoffs
        for z, expect in [(1.5, ""), (2.2, "*"), (3.0, "†"), (4.0, "‡")]:
            row = or_table(np.array([1.0]), np.array([[(1 / z) ** 2]]), ["x"])[0]
            assert row.stars == expect

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            or_table(np.zeros(1), np.array([[-1.0]]), ["x"])


class TestMcmle:
    def test_log_likelihood_ratio_zero_at_reference(self):
        # the importance objective at theta == theta_t is exactly zero
        S = np.array([[4.0, 2.0], [5.0, 1.0], [3.0, 3.0]])
        g_obs = np.array([4.0, 2.0])
        delta = np.zeros(2)
        value = float(delta @ g_obs - math.log(np.mean(np.exp(S @ delta))))
        assert value == 0.0

    def test_matches_exact_mle_small_graph(self):
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
        g = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)])
        want = exact_mle(g, attrs, model)
        cfg = SamplerConfig(burn_in=2000, thin=25, sample_count=60000, seed=6)
        r = fit_mcmle(g, attrs, model, cfg)
        assert np.max(np.abs(r.theta - want)) <= 1e-2

    def test_matches_mple_on_dyad_independent_n50(self):
        spec = SynthSpec(
            n=50,
            columns={"grp": CategoricalSpec(("a", "b"), (0.6, 0.4))},
            model=ModelSpec([Edges(), NodeMatch("grp", differential=False)]),
            theta=(-2.2, 0.8),
            seed=41,
        )
        g, attrs, _ = generate(spec)
        model = spec.model
        # default thinning (n^2) keeps retained samples near-independent,
        # matching the independence assumption behind the MC SE
        cfg = SamplerConfig(sample_count=2000, seed=8)
        mcmle = fit_mcmle(g, attrs, model, cfg)
        mple = fit_mple(g, attrs, model)
        mc_se = np.array(mcmle.diagnostics["mc_se"])
        assert np.all(np.abs(mcmle.theta - mple.theta) <= 3 * mc_se)

    def test_gwdegree_model_matches_exact_mle(self):
        # dyad-dependent case: the pseudo-likelihood start is biased
        # ([-2.94, 1.90] vs the true [-2.14, 1.17]) and the importance
        # sampling rounds must bridge the distance
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([Edges(), GwDegree(0.5)])
        g = Graph(5, [(0, 1), (0, 3), (1, 2)])
        want = exact_mle(g, attrs, model)
        cfg = SamplerConfig(burn_in=2000, thin=50, sample_count=150_000, seed=19)
        r = fit_mcmle(g, attrs, model, cfg)
        assert float(np.max(np.abs(r.theta - want))) <= 2e-2

    def test_degenerate_start_detected(self):
        attrs = two_level_attrs(5, 3)
        g = Graph(5, [(0, 1), (1, 2), (2, 3)])
        cfg = SamplerConfig(burn_in=1000, thin=10, sample_count=500, seed=4)
        with pytest.raises(Degeneracy):
            fit_mcmle(g, attrs, ModelSpec([Edges()]), cfg, theta0=np.array([-50.0]))

    def test_singular_confirmation_covariance_names_statistics(self, monkeypatch):
        # the sampled match count never moves off its observed value, so the
        # statistics' covariance, the inverse of the reported one, is singular
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
        g = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)])
        obs = statistics(g, attrs, model)
        S = np.column_stack([obs[0] + np.array([-1.0, 1.0] * 50), np.full(100, obs[1])])

        def constant_match(g0, theta, model, attrs, cfg):
            return [], S.copy()

        monkeypatch.setattr(fit_module, "simulate", constant_match)
        cfg = SamplerConfig(burn_in=10, thin=2, sample_count=100, seed=1)
        with pytest.raises(SingularInformation, match="nodematch.grp") as err:
            fit_mcmle(g, attrs, model, cfg, theta0=np.array([-0.5, 0.2]))
        assert "edges" not in str(err.value)
        assert err.value.exit_code == 3

    def test_round_and_proposal_counters(self):
        # exact draws make no MH proposals; the chain makes burn_in + thin * M
        # per round and for the confirmation sample
        attrs = two_level_attrs(5, 3)
        cfg = SamplerConfig(burn_in=200, thin=5, sample_count=2000, seed=3)
        for g, model, per_round in [
            (
                Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)]),
                ModelSpec([Edges(), NodeMatch("grp", differential=False)]),
                0,
            ),
            (
                Graph(5, [(0, 1), (0, 3), (1, 2)]),
                ModelSpec([Edges(), GwDegree(0.5)]),
                200 + 5 * 2000,
            ),
        ]:
            r = fit_mcmle(g, attrs, model, cfg)
            rounds = r.diagnostics["iterations"]
            assert r.diagnostics["proposals"] == (rounds + 1) * per_round
            assert fit_counters(r) == {
                "method": "MCMLE",
                "rounds": rounds,
                "proposals": r.diagnostics["proposals"],
            }

    def test_dyad_independent_fit_draws_exactly(self, monkeypatch):
        # no chain runs, so burn-in and thinning cannot change the estimate;
        # a gwdegree fit still runs the chain
        def no_chain(*args, **kwargs):
            raise AssertionError("the Metropolis chain ran")

        monkeypatch.setattr(sampler_module, "sample", no_chain)
        attrs = two_level_attrs(5, 3)
        g = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)])
        model = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
        short = fit_mcmle(g, attrs, model, SamplerConfig(0, 1, 2000, seed=12))
        long = fit_mcmle(g, attrs, model, SamplerConfig(10**5, 10**3, 2000, seed=12))
        assert short.diagnostics["proposals"] == long.diagnostics["proposals"] == 0
        assert short.theta.tobytes() == long.theta.tobytes()
        g_gw, gw_model = Graph(5, [(0, 1), (0, 3), (1, 2)]), ModelSpec([Edges(), GwDegree(0.5)])
        with pytest.raises(AssertionError, match="chain ran"):
            fit_mcmle(g_gw, attrs, gw_model, SamplerConfig(0, 1, 2000, seed=12))

    def test_moment_condition_at_solution(self):
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
        g = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)])
        cfg = SamplerConfig(burn_in=2000, thin=25, sample_count=30000, seed=10)
        r = fit_mcmle(g, attrs, model, cfg)
        obs = statistics(g, attrs, model)
        gap = np.abs(np.array(r.diagnostics["moment_gap"]))
        cov_stats = np.linalg.inv(r.covariance)
        se = np.sqrt(np.diag(cov_stats) / r.diagnostics["ess"])
        assert np.all(gap <= 3 * se)


class TestReferenceLevels:
    def test_factor_reference_reparameterization(self):
        labels = ["a", "a", "b", "c", "b", "c", "a"]
        attrs = AttributeTable([categorical("grp", ["a", "b", "c"], labels)])
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3)])
        m_ref_a = ModelSpec([Edges(), NodeFactor("grp", reference="a")])
        m_ref_b = ModelSpec([Edges(), NodeFactor("grp", reference="b")])
        fa = fit_mple(g, attrs, m_ref_a)
        fb = fit_mple(g, attrs, m_ref_b)

        def tie_probabilities(model, theta):
            X = CompiledModel(model, attrs, g.n).design_matrix(g)[0]
            return 1.0 / (1.0 + np.exp(-(X @ theta)))

        pa = tie_probabilities(m_ref_a, fa.theta)
        pb = tie_probabilities(m_ref_b, fb.theta)
        np.testing.assert_allclose(pa, pb, atol=1e-9)
        # documented remap: switching the reference from a to b shifts the
        # intercept by 2*theta_b and every level coefficient by -theta_b
        th = dict(zip(fa.stat_names, fa.theta))
        th2 = dict(zip(fb.stat_names, fb.theta))
        tb = th["nodefactor.grp.b"]
        assert th2["edges"] == pytest.approx(th["edges"] + 2 * tb, abs=1e-6)
        assert th2["nodefactor.grp.a"] == pytest.approx(-tb, abs=1e-6)
        assert th2["nodefactor.grp.c"] == pytest.approx(
            th["nodefactor.grp.c"] - tb, abs=1e-6
        )


class TestGof:
    def test_moment_band_at_mle(self):
        attrs = two_level_attrs(5, 3)
        model = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
        g = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)])
        theta = exact_mle(g, attrs, model)
        cfg = SamplerConfig(burn_in=1000, thin=25, sample_count=4000, seed=14)
        report = gof(g, attrs, model, theta, cfg)
        for row in report.stat_rows:
            se = max(1e-9, (row.hi - row.lo) / (2 * Z_95))
            assert abs(row.observed - row.sim_mean) <= 3 * se
        assert report.no_lack_of_fit

    def test_wrong_model_flagged_by_auxiliary_statistic(self):
        spec = SynthSpec(
            n=60,
            columns={"grp": CategoricalSpec(("a", "b"), (0.5, 0.5))},
            model=ModelSpec([Edges(), NodeMatch("grp", differential=False)]),
            theta=(-3.4, 2.2),
            seed=3,
        )
        g, attrs, _ = generate(spec)
        edges_only = ModelSpec([Edges()])
        fitted = fit_mple(g, attrs, edges_only)
        cfg = SamplerConfig(burn_in=None, thin=None, sample_count=300, seed=15)
        report = gof(
            g,
            attrs,
            edges_only,
            fitted.theta,
            cfg,
            aux_model=ModelSpec([NodeMatch("grp", differential=False)]),
        )
        aux = {r.name: r for r in report.aux_rows}
        row = aux["nodematch.grp"]
        assert not (row.lo <= row.observed <= row.hi)

    def test_degree_rows_present(self):
        attrs = two_level_attrs(5, 3)
        g = Graph(5, [(0, 1), (1, 2)])
        cfg = SamplerConfig(burn_in=100, thin=10, sample_count=200, seed=2)
        report = gof(g, attrs, ModelSpec([Edges()]), np.array([-1.0]), cfg)
        assert any(r.name == "degree0" for r in report.degree_rows)

    @pytest.mark.parametrize(
        "model, theta",
        [
            (ModelSpec([Edges(), NodeMatch("grp")]), [-1.0, 0.5, 0.3]),
            (ModelSpec([Edges(), GwDegree(0.5)]), [-1.2, 0.4]),
        ],
        ids=["dyad-independent", "gwdegree"],
    )
    def test_degree_and_aux_rows_equal_rows_rebuilt_from_draws(self, model, theta):
        attrs = two_level_attrs(9, 4)
        g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 7), (6, 8), (0, 8), (1, 8)])
        aux = ModelSpec([NodeMatch("grp", differential=False), NodeFactor("grp", "a")])
        theta = np.array(theta)
        cfg = SamplerConfig(burn_in=300, thin=20, sample_count=60, seed=12)
        report = gof(g, attrs, model, theta, cfg, aux_model=aux)
        draws, _ = simulate(g, theta, model, attrs, cfg)
        degree_rows, aux_rows = gof_draw_rows(g, attrs, draws, aux)
        assert report.degree_rows == tuple(_gof_row(*row) for row in degree_rows)
        assert report.aux_rows == tuple(_gof_row(*row) for row in aux_rows)

    def test_gwdegree_model_uses_the_chain(self, tmp_path):
        attrs = two_level_attrs(6, 3)
        model = ModelSpec([Edges(), GwDegree(0.5)])
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        theta = np.array([-0.8, 0.4])
        cfg = SamplerConfig(burn_in=200, thin=20, sample_count=30, seed=4)
        trace = tmp_path / "trace.csv"
        report = gof(g, attrs, model, theta, cfg, trace_path=trace)
        _, S = sample(g, theta, model, attrs, cfg)
        rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
        np.testing.assert_array_equal(np.array(rows, dtype=float), S)
        assert [r.sim_mean for r in report.stat_rows] == [S[:, k].mean() for k in range(2)]

    def test_dyad_independent_report_repeats(self, tmp_path):
        attrs = two_level_attrs(8, 3)
        model = ModelSpec([Edges(), NodeMatch("grp")])
        g = Graph(8, [(0, 1), (1, 2), (3, 4), (5, 7)])
        theta = np.array([-1.0, 0.5, 0.3])
        cfg = SamplerConfig(sample_count=50, seed=9)
        outs = []
        for name in ("a", "b"):
            trace = tmp_path / f"{name}.csv"
            report = gof(g, attrs, model, theta, cfg, trace_path=trace)
            outs.append((report.to_json(), report.to_csv(), trace.read_bytes()))
        assert outs[0] == outs[1]

    def test_zero_samples_rejected(self):
        with pytest.raises(Exception):
            SamplerConfig(sample_count=0)


class TestScreen:
    def test_exact_zero_coefficient_not_selected(self):
        # within-level and cross-level tie rates both 1/2, so the match
        # coefficient is exactly zero and its p-value is one
        attrs = two_level_attrs(4, 2)
        g = Graph(4, [(0, 1), (0, 2), (1, 3)])
        model = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
        r = fit_mple(g, attrs, model)
        assert r.theta[1] == pytest.approx(0.0, abs=1e-9)
        report = screen_univariate(g, attrs, [NodeMatch("grp", differential=False)])
        assert report.entries[0].p_min == pytest.approx(1.0)
        assert not report.entries[0].selected
        assert report.selected == ()

    def test_strong_homophily_selected(self):
        spec = SynthSpec(
            n=80,
            columns={"sex": CategoricalSpec(("m", "f"), (0.6, 0.4))},
            model=ModelSpec([Edges(), NodeMatch("sex", differential=False)]),
            theta=(-3.0, 1.5),
            seed=21,
        )
        g, attrs, _ = generate(spec)
        report = screen_univariate(g, attrs, [NodeMatch("sex", differential=False)])
        assert report.entries[0].selected

    def test_empty_candidates(self):
        attrs = two_level_attrs(4, 2)
        report = screen_univariate(Graph(4, [(0, 1)]), attrs, [])
        assert report.selected == ()

    def test_errors_recorded_without_aborting(self):
        # a constant-level attribute makes its match term collinear with
        # edges; the screen keeps going and still selects the good term
        n = 40
        labels_const = ["x"] * n
        rng = np.random.Generator(np.random.PCG64(33))
        labels_mix = [("a", "b")[int(k)] for k in rng.integers(0, 2, size=n)]
        attrs = AttributeTable(
            [
                categorical("const", ["x"], labels_const),
                categorical("mix", ["a", "b"], labels_mix),
            ]
        )
        spec = SynthSpec(
            n=n,
            columns={"mix": CategoricalSpec(("a", "b"), (0.5, 0.5))},
            model=ModelSpec([Edges(), NodeMatch("mix", differential=False)]),
            theta=(-2.5, 1.4),
            seed=5,
        )
        g, gen_attrs, _ = generate(spec)
        attrs = AttributeTable(
            [
                categorical("const", ["x"], labels_const),
                gen_attrs["mix"],
            ]
        )
        report = screen_univariate(
            g,
            attrs,
            [
                NodeMatch("const", differential=False),
                NodeMatch("mix", differential=False),
            ],
        )
        assert report.entries[0].error is not None
        assert report.entries[1].selected

    def test_programming_error_propagates(self, monkeypatch):
        # only package errors are a candidate's recorded failure; any other
        # exception fails the screen instead of silently dropping the term
        attrs = two_level_attrs(6, 3)
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (2, 5)])
        fit_mple = fit_module.fit_mple

        def broken_for_nodefactor(g, attrs, model):
            if isinstance(model.terms[1], NodeFactor):
                raise TypeError("bug")
            return fit_mple(g, attrs, model)

        monkeypatch.setattr(fit_module, "fit_mple", broken_for_nodefactor)
        candidates = [NodeMatch("grp", differential=False), NodeFactor("grp", "a")]
        with pytest.raises(TypeError, match="bug"):
            screen_univariate(g, attrs, candidates)
