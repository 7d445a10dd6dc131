"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single [ACCEPTANCE k] PASS/FAIL line (visible with
pytest -s and in the failure report) in addition to the usual pytest
outcome.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
from scipy import stats as sps

from ergmkit.cli import main as cli_main
from ergmkit.exact import (
    exact_distribution,
    exact_expected_stats,
    exact_log_likelihood,
    exact_mle,
)
from ergmkit.fit import fit_mcmle, fit_mple, or_table, screen_univariate
from ergmkit.forest import ForestConfig
from ergmkit.graph import AttributeTable, Graph, categorical, continuous
from ergmkit.imputation import impute_missforest, impute_psm
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
from ergmkit.pipeline import load_config, run
from ergmkit.sampler import SamplerConfig, sample
from ergmkit.synth import CategoricalSpec, SynthSpec, generate

from conftest import all_dyads, assert_design_holds_toggles, draw_bitmask, graphs_on, two_level_attrs
from test_pipeline import make_config, make_dataset


@contextmanager
def criterion(number: int, description: str):
    outcome = {"ok": False, "detail": ""}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        mark = "PASS" if outcome["ok"] else "FAIL"
        suffix = f" [{outcome['detail']}]" if outcome["detail"] else ""
        print(f"[ACCEPTANCE {number}] {mark} {description}{suffix}")


def sparse_graph(n: int, m: int, seed: int = 0) -> Graph:
    dyads = all_dyads(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.choice(len(dyads), size=m, replace=False)
    return Graph(n, [dyads[k] for k in idx])


def test_criterion_1_table3_arithmetic(tmp_path, capsys):
    """Published node/edge counts reproduce the printed density and degree."""
    cases = [
        (767, 516, 0.002, 3, 1.35),
        (277, 380, 0.01, 2, 2.74),
        (356, 542, 0.009, 3, 3.04),
        (241, 502, 0.017, 3, 4.17),
    ]
    files = []
    for n, m, *_ in cases:
        g = sparse_graph(n, m, seed=n)
        edge_path = tmp_path / f"edges_{n}.csv"
        node_path = tmp_path / f"nodes_{n}.txt"
        lines = ["source,target"] + [f"{i},{j}" for i, j in sorted(g.edges)]
        edge_path.write_text("\n".join(lines) + "\n")
        node_path.write_text("".join(f"{k}\n" for k in range(n)))
        files.append((edge_path, node_path))
    with criterion(1, "published-count density and average degree, <1s") as outcome:
        start = time.perf_counter()
        for (n, m, dens, places, deg), (edge_path, node_path) in zip(cases, files):
            code = cli_main(
                ["stats", "--edges", str(edge_path), "--nodes", str(node_path)]
            )
            out = capsys.readouterr().out
            assert code == 0
            payload = json.loads(out)
            assert payload["node_count"] == n and payload["edge_count"] == m
            assert round(payload["density"], places) == dens
            assert round(payload["average_degree"], 2) == deg
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"stats took {elapsed:.2f}s"
        outcome["detail"] = f"4 networks in {elapsed:.2f}s"


def test_criterion_2_or_table_inversion():
    """Published coefficient tables are not reproducible without the raw
    data; the substitute check inverts one published-format row."""
    with criterion(2, "odds ratio row 0.3646/0.1320 -> 1.44 (1.11, 1.87)") as outcome:
        rows = or_table(np.array([0.3646]), np.array([[0.1320**2]]), ["row"])
        assert round(rows[0].odds_ratio, 2) == 1.44
        assert round(rows[0].ci_low, 2) == 1.11
        assert round(rows[0].ci_high, 2) == 1.87
        outcome["detail"] = (
            f"OR {rows[0].odds_ratio:.4f}, CI ({rows[0].ci_low:.4f}, {rows[0].ci_high:.4f})"
        )


def test_criterion_3_sampler_vs_exact_distribution():
    attrs = two_level_attrs(5, 3)
    model = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
    theta = np.array([-0.4, 0.8])
    with criterion(3, "chi-square over 1024 states at 1e5 samples, <60s") as outcome:
        start = time.perf_counter()
        dist = exact_distribution(5, attrs, model, theta)
        probs = dist.probabilities()
        cfg = SamplerConfig(burn_in=5000, thin=25, sample_count=100_000, seed=42)
        draws, stat_mat = sample(Graph(5), theta, model, attrs, cfg)
        counts = np.zeros(len(probs))
        for d in draws:
            counts[draw_bitmask(d)] += 1
        expected = probs * len(draws)
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        threshold = float(sps.chi2.ppf(0.99, len(probs) - 1))
        assert chi2 < threshold, f"chi2 {chi2:.1f} >= {threshold:.1f}"
        want = exact_expected_stats(dist)
        got = stat_mat.mean(axis=0)
        se = stat_mat.std(axis=0) / math.sqrt(len(stat_mat))
        assert np.all(np.abs(got - want) <= 3 * np.maximum(se, 1e-12))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        outcome["detail"] = f"chi2 {chi2:.1f} < {threshold:.1f}, {elapsed:.1f}s"


def test_criterion_4_estimator_correctness():
    with criterion(4, "MPLE closed form 1e-10; MC-MLE vs exact 1e-2; MC-MLE vs MPLE 3 SE") as outcome:
        # (a) edges-only MPLE equals logit(density) to 1e-10
        for n, m, seed in [(30, 60, 1), (767, 516, 2)]:
            g = sparse_graph(n, m, seed=seed)
            attrs = two_level_attrs(n, n // 2)
            r = fit_mple(g, attrs, ModelSpec([Edges()]))
            d = m / (n * (n - 1) / 2)
            assert abs(r.theta[0] - math.log(d / (1 - d))) <= 1e-10

        # (b) MC-MLE within 1e-2 of the enumeration MLE on n=5 instances;
        # both observed statistic vectors sit well inside their attainable
        # ranges so the information matrix is decently conditioned
        attrs5 = two_level_attrs(5, 3)
        model5 = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
        instances = [
            (Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)]), 101),
            (Graph(5, [(0, 1), (2, 3), (0, 3), (1, 3), (2, 4)]), 303),
        ]
        gaps = []
        for g5, seed in instances:
            want = exact_mle(g5, attrs5, model5)
            cfg = SamplerConfig(burn_in=2000, thin=50, sample_count=300_000, seed=seed)
            r5 = fit_mcmle(g5, attrs5, model5, cfg)
            gap = float(np.max(np.abs(r5.theta - want)))
            assert gap <= 1e-2, f"instance seed {seed}: gap {gap:.4f}"
            gaps.append(gap)

        # (c) dyad-independent at n=50: MC-MLE equals MPLE within 3 MC SE
        spec = SynthSpec(
            n=50,
            columns={"grp": CategoricalSpec(("a", "b"), (0.6, 0.4))},
            model=ModelSpec([Edges(), NodeMatch("grp", differential=False)]),
            theta=(-2.2, 0.8),
            seed=77,
        )
        g50, attrs50, _ = generate(spec)
        mple = fit_mple(g50, attrs50, spec.model)
        # default burn-in and thinning (10 n^2 and n^2 proposals) keep the
        # retained samples near-independent, which the MC SE assumes
        cfg50 = SamplerConfig(sample_count=3000, seed=11)
        mcmle = fit_mcmle(g50, attrs50, spec.model, cfg50)
        mc_se = np.array(mcmle.diagnostics["mc_se"])
        assert np.all(np.abs(mcmle.theta - mple.theta) <= 3 * mc_se)
        outcome["detail"] = f"exact-MLE gaps {[f'{g:.4f}' for g in gaps]}"


REC_MODEL = ModelSpec(
    [
        Edges(),
        NodeMatch("sex", differential=True),
        NodeMix("living", reference=("homeless", "homeless")),
    ]
)
REC_THETA = (-4.8, 0.8, 0.7, -0.5, -0.7, -0.9, -0.3, -0.4)


def _recovery_replicate(seed: int):
    spec = SynthSpec(
        n=300,
        columns={
            "sex": CategoricalSpec(("male", "female"), (0.7, 0.3)),
            "living": CategoricalSpec(("own", "other", "homeless"), (0.35, 0.45, 0.2)),
            "education": CategoricalSpec(("low", "high"), (0.6, 0.4)),
        },
        model=REC_MODEL,
        theta=REC_THETA,
        seed=seed,
    )
    g, attrs, _ = generate(spec)
    fit = fit_mple(g, attrs, REC_MODEL)
    inside = np.abs(fit.theta - np.array(REC_THETA)) <= 3 * fit.standard_errors()
    screen = screen_univariate(
        g,
        attrs,
        [NodeMatch("sex", differential=False), NodeMatch("education", differential=False)],
    )
    active_selected = screen.entries[0].selected
    return inside, active_selected


def test_criterion_5_parameter_recovery():
    with criterion(5, "50 replicates at n=300: 3SE coverage >=90%, screen >=95%, <10min") as outcome:
        start = time.perf_counter()
        coverage = []
        selections = []
        for rep in range(50):
            inside, selected = _recovery_replicate(10_000 + rep)
            coverage.append(inside)
            selections.append(selected)
        coverage = np.array(coverage)
        frac_inside = float(coverage.mean())
        frac_selected = float(np.mean(selections))
        elapsed = time.perf_counter() - start
        assert frac_inside >= 0.90, f"coverage {frac_inside:.3f}"
        assert frac_selected >= 0.95, f"selection rate {frac_selected:.2f}"
        assert elapsed < 600.0, f"took {elapsed:.0f}s"
        outcome["detail"] = (
            f"coverage {frac_inside:.3f}, selection {frac_selected:.2f}, {elapsed:.0f}s"
        )


def test_criterion_6_change_statistic_consistency():
    model = ModelSpec(
        [
            Edges(),
            NodeMatch("grp", differential=True),
            NodeMatch("grp", differential=False),
            NodeFactor("grp", reference="a"),
            NodeMix("grp", reference=("a", "a")),
            GwDegree(0.5),
        ]
    )
    with criterion(6, "pseudo-likelihood rows hold every toggle difference, all graphs n<=5"):
        for n in range(2, 6):
            labels = [("a", "b", "c")[k % 3] for k in range(n)]
            attrs = AttributeTable([categorical("grp", ["a", "b", "c"], labels)])
            cm = CompiledModel(model, attrs, n)
            for g in graphs_on(n):
                assert_design_holds_toggles(g, attrs, model, cm.design_matrix(g))


def _imputation_table(seed: int, n: int = 100, rate: float = 0.2):
    rng = np.random.Generator(np.random.PCG64(seed))
    grp = [("x", "y", "z")[int(k)] for k in rng.integers(0, 3, size=n)]
    noise = rng.normal(0, 1, size=n)
    target_truth = [("own" if v == "x" else "rent" if v == "y" else "street") for v in grp]
    gaps = rng.random(n) < rate
    observed = [None if gaps[i] else target_truth[i] for i in range(n)]
    attrs = AttributeTable(
        [
            categorical("grp", ["x", "y", "z"], grp),
            continuous("noise", noise),
            categorical("living", ["own", "rent", "street"], observed),
        ]
    )
    return attrs, np.array(target_truth), gaps


def test_criterion_7_imputation():
    with criterion(7, "missForest beats mode >=95/100 seeds; PSM duplicate donors; observed cells intact") as outcome:
        forest = ForestConfig(trees=30)
        wins = 0
        usable = 0
        for seed in range(100):
            attrs, truth, gaps = _imputation_table(seed)
            if gaps.sum() == 0:
                continue
            usable += 1
            res = impute_missforest(attrs, ["living"], forest=forest, seed=seed)
            # observed cells bit-identical
            np.testing.assert_array_equal(
                attrs["living"].codes[~gaps], res.completed["living"].codes[~gaps]
            )
            imputed = np.array(res.completed["living"].labels())[gaps]
            acc = float(np.mean(imputed == truth[gaps]))
            observed_vals = [v for v, m in zip(truth, gaps) if not m]
            mode = max(set(observed_vals), key=observed_vals.count)
            base = float(np.mean(truth[gaps] == mode))
            if acc > base:
                wins += 1
        assert usable >= 95
        assert wins / usable >= 0.95, f"{wins}/{usable} wins"

        # PSM: an exact-duplicate donor is copied in 100% of constructed cases
        copied = 0
        total = 0
        for seed in range(20):
            attrs, truth, gaps = _imputation_table(200 + seed, n=40, rate=0.15)
            sex = attrs["grp"].labels()
            noise = attrs["noise"].values.copy()
            living = attrs["living"].labels()
            missing_idx = [i for i in range(40) if living[i] is None]
            observed_idx = [i for i in range(40) if living[i] is not None]
            if not missing_idx or not observed_idx:
                continue
            i, donor = missing_idx[0], observed_idx[0]
            sex[i], noise[i] = sex[donor], noise[donor]
            table = AttributeTable(
                [
                    categorical("grp", ["x", "y", "z"], sex),
                    continuous("noise", noise),
                    categorical("living", ["own", "rent", "street"], living),
                ]
            )
            res = impute_psm(table, "living", ["grp", "noise"])
            total += 1
            if (
                res.diagnostics["donors"][i] == donor
                and res.completed["living"].labels()[i] == living[donor]
            ):
                copied += 1
            obs_mask = ~table["living"].missing_mask()
            np.testing.assert_array_equal(
                table["living"].codes[obs_mask],
                res.completed["living"].codes[obs_mask],
            )
        assert total >= 15
        assert copied == total, f"{copied}/{total} duplicate donors copied"
        outcome["detail"] = f"forest wins {wins}/{usable}, donors {copied}/{total}"


def test_criterion_8_run_determinism(tmp_path):
    with criterion(8, "two pipeline runs with the same config+seed are byte-identical"):
        make_dataset(tmp_path, missing_rate=0.15, seed=29)
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            cfg = make_config(
                tmp_path,
                missing_policy="missforest",
                imputation={"targets": ["living"], "trees": 15},
                out=str(out),
            )
            run(load_config(cfg))
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between runs"


def test_criterion_9_gradient_check():
    with criterion(9, "enumeration gradient matches central differences at 1e-6"):
        labels = ["a", "a", "b", "b"]
        attrs = AttributeTable([categorical("grp", ["a", "b"], labels)])
        models = [
            (ModelSpec([Edges()]), np.array([0.4])),
            (ModelSpec([Edges(), NodeMatch("grp", differential=False)]), np.array([0.3, -0.7])),
            (ModelSpec([Edges(), GwDegree(0.5)]), np.array([-0.2, 0.5])),
        ]
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        h = 1e-5
        for model, theta in models:
            obs = statistics(g, attrs, model)
            dist = exact_distribution(4, attrs, model, theta)
            analytic = obs - exact_expected_stats(dist)
            for k in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[k] += h
                down[k] -= h
                fd = (
                    exact_log_likelihood(dist, obs, up)
                    - exact_log_likelihood(dist, obs, down)
                ) / (2 * h)
                tol = 1e-6 * max(1.0, abs(analytic[k]))
                assert abs(fd - analytic[k]) <= tol
