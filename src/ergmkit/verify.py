"""Self-checks against exact enumeration on built-in tiny fixtures.

Each check recomputes a quantity two independent ways (incremental versus
full recompute, sampler versus enumeration, closed form versus fitted)
and reports one pass/fail line. Backs the ``ergmkit verify`` subcommand.
"""

from __future__ import annotations

import math

import numpy as np

from .exact import exact_distribution, exact_expected_stats, exact_mle, enumerate_graphs
from .fit import fit_mple, or_table
from .graph import AttributeTable, Graph, categorical
from .model import (
    Edges,
    GwDegree,
    ModelSpec,
    NodeFactor,
    NodeMatch,
    NodeMix,
    change_statistics,
    statistics,
)
from .sampler import SamplerConfig, sample


def _fixture(n: int) -> AttributeTable:
    labels = ["a" if k % 2 == 0 else "b" for k in range(n)]
    return AttributeTable([categorical("grp", ["a", "b"], labels)])


def _fixture_model() -> ModelSpec:
    return ModelSpec(
        [
            Edges(),
            NodeMatch("grp"),
            NodeFactor("grp", reference="a"),
            NodeMix("grp", reference=("a", "a")),
            GwDegree(0.5),
        ]
    )


def run_verification() -> bool:
    """Run every check, print one PASS/FAIL line each and return whether all passed."""
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    # change statistics equal full-recompute differences, all graphs n=4
    n = 4
    attrs = _fixture(n)
    model = _fixture_model()
    worst = 0.0
    for g in enumerate_graphs(n):
        base = statistics(g, attrs, model)
        for i in range(n):
            for j in range(i + 1, n):
                delta = change_statistics(g, attrs, model, (i, j))
                if g.has_edge(i, j):
                    full = base - statistics(g.without_edge(i, j), attrs, model)
                else:
                    full = statistics(g.with_edge(i, j), attrs, model) - base
                worst = max(worst, float(np.max(np.abs(delta - full))))
    record("change-statistics vs full recompute (n=4, all graphs)", worst <= 1e-12, f"max |diff| = {worst:.2e}")

    # enumeration normalizes and matches the binomial closed form
    theta_e = 0.4
    dist = exact_distribution(n, attrs, ModelSpec([Edges()]), np.array([theta_e]))
    total = float(dist.probabilities().sum())
    record("exact distribution normalizes", abs(total - 1.0) <= 1e-12, f"sum = {total:.15f}")
    p_edge = 1.0 / (1.0 + math.exp(-theta_e))
    expect_edges = 6 * p_edge
    got = float(exact_expected_stats(dist)[0])
    record(
        "expected edge count matches binomial form",
        abs(got - expect_edges) <= 1e-10,
        f"{got:.12f} vs {expect_edges:.12f}",
    )

    # chain moments against enumeration (short run), on the dyad-dependent
    # model class the chain serves
    model_s = ModelSpec([Edges(), NodeMatch("grp", differential=False)])
    model_gw = ModelSpec(list(model_s.terms) + [GwDegree(0.5)])
    theta = np.array([-0.3, 0.8, 0.4])
    attrs5 = _fixture(5)
    want = exact_expected_stats(exact_distribution(5, attrs5, model_gw, theta))
    cfg = SamplerConfig(burn_in=2000, thin=20, sample_count=20000, seed=2024)
    _, stats_mat = sample(Graph(5), theta, model_gw, attrs5, cfg, keep_graphs=False)
    got_mean = stats_mat.mean(axis=0)
    se = stats_mat.std(axis=0) / math.sqrt(len(stats_mat))
    ok = bool(np.all(np.abs(got_mean - want) <= 4.0 * np.maximum(se, 1e-6)))
    record(
        "sampler moments within 4 SE of enumeration",
        ok,
        f"sampled {np.round(got_mean, 3)} vs exact {np.round(want, 3)}",
    )

    # pseudo-likelihood closed form and agreement with the exact MLE
    g_obs = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)])
    d = 5 / 10
    r = fit_mple(g_obs, attrs5, ModelSpec([Edges()]))
    record(
        "edges-only pseudo-likelihood equals logit(density)",
        abs(r.theta[0] - math.log(d / (1 - d))) <= 1e-10,
        f"theta = {r.theta[0]:.12f}",
    )
    r2 = fit_mple(g_obs, attrs5, model_s)
    t2 = exact_mle(g_obs, attrs5, model_s)
    gap = float(np.max(np.abs(r2.theta - t2)))
    record(
        "dyad-independent pseudo-likelihood equals exact MLE",
        gap <= 1e-6,
        f"max gap = {gap:.2e}",
    )

    # odds ratio report inverts a published-style row
    rows = or_table(np.array([0.3646]), np.array([[0.1320**2]]), ["x"])
    ok = (
        round(rows[0].odds_ratio, 2) == 1.44
        and round(rows[0].ci_low, 2) == 1.11
        and round(rows[0].ci_high, 2) == 1.87
    )
    record(
        "odds-ratio table matches the reference row",
        ok,
        f"OR {rows[0].odds_ratio:.4f} CI ({rows[0].ci_low:.4f}, {rows[0].ci_high:.4f})",
    )

    for name, ok, detail in checks:
        mark = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[{mark}] {name}{suffix}")
    print(f"{sum(ok for _, ok, _ in checks)}/{len(checks)} checks passed")
    return all(ok for _, ok, _ in checks)
