"""Tests of the benchmark's own parts: input generator, ESS estimator and
the MPLE score-equation check.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json

import numpy as np
import pytest

import checks
import inputs


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_gives_identical_input_files(workload, tmp_path):
    first = _files(inputs.generate(workload, 5, 1, tmp_path / "a").parent)
    again = _files(inputs.generate(workload, 5, 1, tmp_path / "b").parent)
    other = _files(inputs.generate(workload, 6, 1, tmp_path / "c").parent)
    assert first == again
    assert first["edges.csv"] != other["edges.csv"]


def test_generated_graph_hits_mean_degree(tmp_path):
    spec = inputs.WORKLOADS["paper-run"]
    config = inputs.generate("paper-run", 3, 0, tmp_path)
    edges = (config.parent / "edges.csv").read_text().splitlines()[1:]
    mean_degree = 2 * len(edges) / spec["n"]
    assert abs(mean_degree - spec["degree"]) < 0.5


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_geyer_ess_matches_ar1_closed_form(rho):
    rng = np.random.default_rng(11)
    n = 200_000
    noise = rng.normal(size=n)
    x = np.empty(n)
    x[0] = noise[0] / np.sqrt(1 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    expected = n * (1 - rho) / (1 + rho)
    assert checks.geyer_ess(x) == pytest.approx(expected, rel=0.1)


def test_geyer_ess_constant_series_is_nan():
    assert np.isnan(checks.geyer_ess(np.ones(50)))


@pytest.fixture
def small_large_network(tmp_path, monkeypatch):
    """A 150-node large-network run: PSM imputation then nodemix MPLE."""
    from ergmkit import pipeline

    spec = copy.deepcopy(inputs.WORKLOADS["large-network"])
    spec["n"] = 150
    spec["config"]["fit"] = {"method": "mple", "gof_samples": 2, "burn_in": 100, "thin": 100}
    monkeypatch.setitem(inputs.WORKLOADS, "large-network", spec)
    config = inputs.generate("large-network", 4, 0, tmp_path)
    pipeline.run(pipeline.load_config(config))
    fit = json.loads((tmp_path / "out" / "fit_mix.json").read_text())
    assert json.loads((tmp_path / "out" / "imputation.json").read_text())["living"]["imputed"] > 0
    return tmp_path, fit


def test_score_check_accepts_mple_theta(small_large_network):
    directory, fit = small_large_network
    assert checks.score_gap(directory, fit["stat_names"], fit["theta"]) <= checks.SCORE_RTOL
    assert checks.check_outputs("mple_score", directory, "mix") == []


def test_score_check_rejects_perturbed_theta(small_large_network):
    directory, fit = small_large_network
    theta = np.array(fit["theta"])
    theta[1] += 1e-3
    assert checks.score_gap(directory, fit["stat_names"], theta) > checks.SCORE_RTOL


def test_traced_run_accounts_for_wall_time_and_restores_originals(small_large_network):
    import spans
    from ergmkit import fit, pipeline, sampler

    directory, _ = small_large_network
    originals = (pipeline.run, fit.fit_mple, sampler.ChainState.__init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.op(0) as root:
            pipeline.run(pipeline.load_config(directory / "config.json"))
    finally:
        tracer.uninstall()
    assert (pipeline.run, fit.fit_mple, sampler.ChainState.__init__) == originals
    inclusive, _ = spans.layer_times(tracer.spans, 0)
    top = spans.top_level_time(tracer.spans, 0)
    assert top + inclusive["pipeline.self"] == pytest.approx(root.end - root.start, rel=1e-9)
    counts = tracer.counts[0]
    assert counts["sampler.proposals"] == 100 + 100 * 2
    assert counts["logistic.rows"] == 150 * 149 // 2 + 150  # MPLE dyads + PSM rows
    assert inclusive["fit.mple"] > 0 and inclusive["imputation.psm"] > 0


def test_traced_mcmle_records_rounds_and_moment_gap(tmp_path, monkeypatch):
    import spans
    from ergmkit import pipeline

    spec = copy.deepcopy(inputs.WORKLOADS["gwdegree-mcmle"])
    spec["n"] = 80
    spec["config"]["fit"] = {"method": "mcmle", "samples": 32, "gof_samples": 2,
                             "burn_in": 20000, "thin": 2000}
    monkeypatch.setitem(inputs.WORKLOADS, "gwdegree-mcmle", spec)
    config = inputs.generate("gwdegree-mcmle", 2, 0, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            pipeline.run(pipeline.load_config(config))
    finally:
        tracer.uninstall()
    fit = json.loads((tmp_path / "out" / "fit_match.json").read_text())
    counts = tracer.counts[0]
    assert counts["fit.mcmle_rounds"] == fit["diagnostics"]["iterations"] >= 1
    sd = np.sqrt(np.diag(np.linalg.inv(np.array(fit["covariance"]))))
    gap = np.abs(fit["diagnostics"]["moment_gap"]) / sd
    assert counts.mcmle_gaps == [pytest.approx(gap.max(), rel=1e-9)]
