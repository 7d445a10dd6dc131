from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

import ergmkit.pipeline as pipeline
from ergmkit.cli import main
from ergmkit.graph import Graph

from test_pipeline import make_config, make_dataset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the README's living recode map
LIVING_RECODE = {
    "on the streets": "homeless",
    "in a shelter": "homeless",
    "own apartment": "own place",
    "someone else's apartment": "someone else",
}


def make_raw_label_dataset(tmp_path: Path, extra_label: str | None = None):
    """The test dataset with living written as raw survey labels.

    Homeless cells alternate between the two raw labels that map to
    homeless; ``extra_label`` replaces the first cell's label.
    """
    make_dataset(tmp_path, missing_rate=0.1)
    raw = {
        "own": ["own apartment"],
        "other": ["someone else's apartment"],
        "homeless": ["on the streets", "in a shelter"],
    }
    with open(tmp_path / "attrs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    for k, row in enumerate(rows[1:]):
        if row[2]:
            choices = raw[row[2]]
            row[2] = choices[k % len(choices)]
    if extra_label is not None:
        rows[1][2] = extra_label
    with open(tmp_path / "attrs.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    schema = json.loads((tmp_path / "schema.json").read_text())
    schema["columns"]["living"]["levels"] = ["own place", "someone else", "homeless"]
    schema["recode"] = {"living": LIVING_RECODE}
    schema["reference_levels"]["living"] = "own place"
    (tmp_path / "schema.json").write_text(json.dumps(schema))


class TestStats:
    def test_full_graph_with_node_list(self, tmp_path, capsys):
        g, _ = make_dataset(tmp_path, missing_rate=0.0)
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("".join(f"{k}\n" for k in range(g.n)))
        code, out, _ = run_cli(
            capsys,
            "stats",
            "--edges",
            str(tmp_path / "edges.csv"),
            "--nodes",
            str(nodes),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["node_count"] == g.n
        assert payload["edge_count"] == g.edge_count

    def test_node_list_from_attribute_csv(self, tmp_path, capsys):
        g, _ = make_dataset(tmp_path, missing_rate=0.0)
        code, out, _ = run_cli(
            capsys,
            "stats",
            "--edges",
            str(tmp_path / "edges.csv"),
            "--attributes",
            str(tmp_path / "attrs.csv"),
        )
        assert code == 0
        assert json.loads(out)["node_count"] == g.n

    def test_node_list_from_edge_endpoints(self, tmp_path, capsys):
        g, _ = make_dataset(tmp_path, missing_rate=0.0)
        rows = (tmp_path / "edges.csv").read_text().splitlines()[1:]
        endpoints = {v for row in rows for v in row.split(",")}
        code, out, _ = run_cli(capsys, "stats", "--edges", str(tmp_path / "edges.csv"))
        assert code == 0
        payload = json.loads(out)
        assert payload["node_count"] == len(endpoints)
        assert payload["edge_count"] == g.edge_count

    def test_lcc_scope(self, tmp_path, capsys):
        (tmp_path / "e.csv").write_text("source,target\na,b\nb,c\nx,y\n")
        (tmp_path / "n.txt").write_text("a\nb\nc\nx\ny\nz\n")
        code, out, _ = run_cli(
            capsys,
            "stats",
            "--edges",
            str(tmp_path / "e.csv"),
            "--nodes",
            str(tmp_path / "n.txt"),
            "--scope",
            "lcc",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["node_count"] == 3 and payload["edge_count"] == 2

    def test_writes_output_files(self, tmp_path, capsys):
        make_dataset(tmp_path, missing_rate=0.0)
        out = tmp_path / "statsout"
        code, _, _ = run_cli(
            capsys,
            "stats",
            "--edges",
            str(tmp_path / "edges.csv"),
            "--attributes",
            str(tmp_path / "attrs.csv"),
            "--out",
            str(out),
        )
        assert code == 0
        assert (out / "network_summary.csv").exists()


class TestExitCodes:
    def test_missing_edge_file_is_data_or_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "stats", "--edges", str(tmp_path / "nope.csv")
        )
        assert code == 2
        assert "error" in err

    def test_bad_config_value(self, tmp_path, capsys):
        make_dataset(tmp_path, missing_rate=0.0)
        cfg = json.loads(Path(make_config(tmp_path)).read_text())
        cfg["scope"] = "asteroid"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", "--config", str(bad))
        assert code == 2

    @pytest.mark.parametrize(
        "overrides, named",
        [
            pytest.param({"gwdegree": 0}, "gwdegree: gwdegree decay", id="gwdegree-zero"),
            pytest.param({"gwdegree": -1}, "gwdegree: gwdegree decay", id="gwdegree-negative"),
            pytest.param({"gwdegree": "abc"}, "config gwdegree", id="gwdegree-text"),
            pytest.param(
                {"family": "final", "final_candidates": [{"term": "nodecov", "attr": "age"}]},
                "final_candidates[0]: unknown term kind 'nodecov'",
                id="unknown-term",
            ),
            pytest.param(
                {"family": "final", "final_candidates": [{"term": "nodematch"}]},
                "final_candidates[0]: missing key 'attr'",
                id="term-without-attr",
            ),
            pytest.param({"fit": {"samples": "x"}}, "fit.samples", id="samples-text"),
            pytest.param({"seed": -3}, "seed must be >= 0", id="negative-seed"),
            pytest.param(
                {"attributes_used": ["nope"]}, "attributes_used names 'nope'", id="unknown-column"
            ),
            pytest.param(
                {"missing_policy": "psm", "imputation": {"targets": ["nope"]}},
                "imputation.targets names 'nope'",
                id="unknown-imputation-target",
            ),
            pytest.param({"fit": "x"}, "config fit: expected an object", id="fit-not-object"),
            pytest.param(
                {"imputation": 5}, "config imputation: expected an object", id="imputation-not-object"
            ),
            pytest.param(
                {"final_candidates": "nodematch"},
                "config final_candidates: expected a list",
                id="candidates-not-list",
            ),
            pytest.param(
                {"attributes_used": "sex"},
                "config attributes_used: expected a list of strings",
                id="attributes-used-string",
            ),
            pytest.param(
                {"attributes_used": ["sex", 3]},
                "config attributes_used: expected a list of strings",
                id="attributes-used-number",
            ),
            pytest.param(
                {"missing_policy": "missforest", "imputation": {"targets": "living"}},
                "config imputation.targets: expected a list of strings",
                id="targets-string",
            ),
            pytest.param(
                {"missing_policy": "missforest", "imputation": {"covariates": "age"}},
                "config imputation.covariates: expected a list of strings",
                id="covariates-string",
            ),
            pytest.param(
                {"fit": {"trace": "false"}},
                "config fit.trace: expected true or false",
                id="trace-text",
            ),
            pytest.param({"fit": {"trace": 1}}, "config fit.trace", id="trace-number"),
            pytest.param(
                {"imputation": {"trees": 2.7}},
                "config imputation.trees: expected a whole number",
                id="trees-fraction",
            ),
            pytest.param({"imputation": {"trees": True}}, "imputation.trees", id="trees-boolean"),
            pytest.param({"imputation": {"mtry": 1.5}}, "imputation.mtry", id="mtry-fraction"),
            pytest.param(
                {"imputation": {"min_leaf": 0.5}}, "imputation.min_leaf", id="min-leaf-fraction"
            ),
            pytest.param({"seed": 5.5}, "config seed: expected a whole number", id="seed-fraction"),
            pytest.param({"seed": True}, "config seed", id="seed-boolean"),
            pytest.param({"seed": None}, "config seed", id="seed-null"),
            pytest.param({"fit": {"samples": 64.5}}, "fit.samples", id="samples-fraction"),
            pytest.param({"fit": {"samples": "64"}}, "fit.samples", id="samples-numeric-text"),
            pytest.param({"fit": {"burn_in": 10.5}}, "fit.burn_in", id="burn-in-fraction"),
            pytest.param({"fit": {"thin": False}}, "fit.thin", id="thin-boolean"),
            pytest.param(
                {"fit": {"gof_samples": 20.5}}, "fit.gof_samples", id="gof-samples-fraction"
            ),
            pytest.param(
                {"fit": {"screen_alpha": True}}, "fit.screen_alpha", id="screen-alpha-boolean"
            ),
            pytest.param(
                {"fit": {"screen_alpha": "0.5"}}, "fit.screen_alpha", id="screen-alpha-text"
            ),
            pytest.param(
                {"fit": {"screen_alpha": -3}}, "fit.screen_alpha", id="screen-alpha-negative"
            ),
            pytest.param(
                {"fit": {"screen_alpha": float("nan")}}, "fit.screen_alpha", id="screen-alpha-nan"
            ),
            pytest.param(
                {"family": "final", "final_candidates": [None]},
                "final_candidates[0]",
                id="candidate-null",
            ),
            pytest.param(
                {
                    "family": "final",
                    "final_candidates": [
                        {"term": "nodematch", "attr": "sex", "differential": "false"}
                    ],
                },
                "final_candidates[0].differential",
                id="differential-text",
            ),
            pytest.param(
                {"family": "final", "final_candidates": [{"term": "nodematch", "attr": 3}]},
                "final_candidates[0].attr",
                id="attr-number",
            ),
            pytest.param(
                {
                    "family": "final",
                    "final_candidates": [{"term": "nodemix", "attr": "sex", "reference": "ab"}],
                },
                "final_candidates[0].reference",
                id="reference-text",
            ),
            pytest.param(
                {"family": "final", "final_candidates": [{"term": "gwdegree", "decay": "0.5"}]},
                "final_candidates[0].decay",
                id="decay-text",
            ),
            pytest.param(
                {"attributes_used": ["sex", "sex"]},
                "duplicate statistic names",
                id="duplicate-term",
            ),
        ],
    )
    def test_malformed_setting_is_config_error(self, tmp_path, capsys, overrides, named):
        make_dataset(tmp_path, missing_rate=0.0)
        cfg = make_config(tmp_path, **overrides)
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert named in err

    @pytest.mark.parametrize(
        "changes, named",
        [
            pytest.param(
                {"columns": {"sex": {"type": "categorical", "levels": "mf"}}},
                "config schema.columns.sex.levels: expected a list of strings",
                id="levels-string",
            ),
            pytest.param(
                {"columns": {"sex": {"type": "categorical", "levels": ["male", "male"]}}},
                "column 'sex': duplicate levels",
                id="duplicate-levels",
            ),
            pytest.param(
                {"recode": {"living": [["own place", "own"]]}},
                "config schema.recode.living: expected an object",
                id="recode-list",
            ),
            pytest.param(
                {"columns": []}, "config schema.columns: expected an object", id="columns-list"
            ),
            pytest.param(
                {"reference_pairs": {"living": ["homeless"]}},
                "config schema.reference_pairs.living: expected a list of two strings",
                id="one-level-pair",
            ),
        ],
    )
    def test_malformed_schema_is_config_error(self, tmp_path, capsys, changes, named):
        make_dataset(tmp_path, missing_rate=0.0)
        schema = json.loads((tmp_path / "schema.json").read_text())
        schema.update(changes)
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        code, _, err = run_cli(capsys, "run", "--config", str(make_config(tmp_path)))
        assert code == 2
        assert named in err

    def test_config_not_an_object(self, tmp_path, capsys):
        make_dataset(tmp_path, missing_rate=0.0)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([json.loads(make_config(tmp_path).read_text())]))
        code, _, err = run_cli(capsys, "run", "--config", str(bad))
        assert code == 2
        assert "config top level: expected an object" in err

    def test_missforest_covariate_with_missing_cells(self, tmp_path, capsys):
        # age is a covariate of the living target, and three of its cells are blank
        make_dataset(tmp_path)
        with open(tmp_path / "attrs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        age = rows[0].index("age")
        for row in rows[1:4]:
            row[age] = ""
        with open(tmp_path / "attrs.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        cfg = make_config(tmp_path, missing_policy="missforest")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 4
        assert "covariate 'age' has missing cells" in err

    def test_data_error_exit_code(self, tmp_path, capsys):
        make_dataset(tmp_path, missing_rate=0.0)
        (tmp_path / "edges.csv").write_text("source,target\n0,999\n")
        code, _, _ = run_cli(
            capsys, "run", "--config", str(make_config(tmp_path))
        )
        assert code == 4

    def test_table_size_mismatch_is_data_error(self, tmp_path, capsys, monkeypatch):
        # a table one row per node longer than the graph must not be fitted
        make_dataset(tmp_path, missing_rate=0.0)
        load = pipeline.load_network

        def misaligned(*args):
            g, attrs, ids = load(*args)
            kept = [(i, j) for i, j in g.edges if j < g.n - 2]
            return Graph(g.n - 2, kept), attrs, ids[:-2]

        monkeypatch.setattr(pipeline, "load_network", misaligned)
        cfg = make_config(tmp_path, missing_policy="psm")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 4
        assert "rows" in err

    def test_too_few_nodes_is_data_error(self, tmp_path, capsys):
        # complete cases leave one node, so there is no dyad to fit
        (tmp_path / "edges.csv").write_text("source,target\n0,1\n1,2\n2,3\n")
        (tmp_path / "attrs.csv").write_text("id,sex\n0,male\n1,\n2,\n3,\n")
        (tmp_path / "schema.json").write_text(
            json.dumps(
                {
                    "columns": {"sex": {"type": "categorical", "levels": ["male", "female"]}},
                    "reference_levels": {"sex": "male"},
                }
            )
        )
        cfg = make_config(tmp_path, attributes_used=["sex"])
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 4
        assert "n >= 2" in err

    def test_wrong_theta_length_is_config_error(self, tmp_path, capsys):
        # edges + differential nodematch on two levels has three statistics
        spec = {
            "n": 20,
            "columns": {"sex": {"type": "categorical", "levels": ["m", "f"], "probs": [0.5, 0.5]}},
            "model": [{"term": "edges"}, {"term": "nodematch", "attr": "sex"}],
            "theta": [-1.5, 0.5, 0.5, 0.1],
        }
        p = tmp_path / "synth.json"
        p.write_text(json.dumps(spec))
        code, _, err = run_cli(
            capsys, "synth", "--config", str(p), "--out", str(tmp_path / "s")
        )
        assert code == 2
        assert "theta has 4 entries" in err

    @pytest.mark.parametrize(
        "changes, named",
        [
            pytest.param({"n": None}, "missing key 'n'", id="no-n"),
            pytest.param({"n": "abc"}, "config n: expected a whole number", id="n-text"),
            pytest.param(
                {"model": [{"term": "edges"}, {"term": "gwdegree", "decay": 0}]},
                "config model[1]: gwdegree decay must be > 0",
                id="gwdegree-zero",
            ),
            pytest.param(
                {"burn_in": "x"}, "config burn_in: expected a whole number", id="burn-in-text"
            ),
            pytest.param(
                {"model": [{"term": "edges"}, {"term": "nodematch"}]},
                "config model[1]: missing key 'attr'",
                id="nodematch-without-attr",
            ),
            pytest.param(
                {"model": [{"term": "edges"}, {"term": "edges"}]},
                "config model: Edges may appear at most once",
                id="two-edges",
            ),
            pytest.param(
                {"columns": {"sex": {"type": "categorical", "levels": ["m"] * 2, "probs": [1, 0]}}},
                "config columns.sex: duplicate levels",
                id="duplicate-levels",
            ),
            pytest.param({"seed": -1}, "seed must be >= 0", id="negative-seed"),
            pytest.param(
                {"missing": [{"column": "nope", "rate": 0.1}]},
                "missingness names 'nope'",
                id="missing-undeclared-column",
            ),
            pytest.param(
                {"missing": [{"column": "sex", "rate": 0.1, "mechanism": "mar", "covariate": "x"}]},
                "missingness names 'x'",
                id="mar-undeclared-covariate",
            ),
        ],
    )
    def test_malformed_synth_spec_is_config_error(self, tmp_path, capsys, changes, named):
        spec = {
            "n": 20,
            "columns": {"sex": {"type": "categorical", "levels": ["m", "f"], "probs": [0.5, 0.5]}},
            "model": [{"term": "edges"}],
            "theta": [-1.5],
        }
        spec.update(changes)
        p = tmp_path / "synth.json"
        p.write_text(json.dumps({k: v for k, v in spec.items() if v is not None}))
        code, _, err = run_cli(
            capsys, "synth", "--config", str(p), "--out", str(tmp_path / "s")
        )
        assert code == 2
        assert named in err

    def test_unmapped_label_fails_at_ingest(self, tmp_path, capsys):
        make_raw_label_dataset(tmp_path, extra_label="in a tent")
        code, _, err = run_cli(capsys, "run", "--config", str(make_config(tmp_path)))
        assert code == 4
        assert "'in a tent'" in err
        assert "stage: ingest" in (tmp_path / "out" / "FAILED").read_text()

    def test_separation_maps_to_fit_code(self, tmp_path, capsys):
        # complete graph: the edges coefficient diverges
        n = 6
        lines = ["source,target"] + [
            f"{i},{j}" for i in range(n) for j in range(i + 1, n)
        ]
        (tmp_path / "edges.csv").write_text("\n".join(lines) + "\n")
        rows = ["id,sex"] + [f"{k},{'male' if k % 2 else 'female'}" for k in range(n)]
        (tmp_path / "attrs.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "schema.json").write_text(
            json.dumps(
                {
                    "columns": {"sex": {"type": "categorical", "levels": ["male", "female"]}},
                    "reference_levels": {"sex": "male"},
                }
            )
        )
        cfg = {
            "edges": "edges.csv",
            "attributes": "attrs.csv",
            "schema": "schema.json",
            "family": "match",
            "attributes_used": ["sex"],
            "out": str(tmp_path / "sepout"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 3


class TestPipelineCommands:
    def test_run_and_overrides(self, tmp_path, capsys):
        make_dataset(tmp_path, missing_rate=0.0)
        out = tmp_path / "cli_out"
        code, stdout, _ = run_cli(
            capsys,
            "run",
            "--config",
            str(make_config(tmp_path)),
            "--seed",
            "21",
            "--out",
            str(out),
        )
        assert code == 0
        assert json.loads(stdout)["out"] == str(out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 21

    def test_fit_prints_table(self, tmp_path, capsys):
        make_dataset(tmp_path, missing_rate=0.0)
        code, stdout, _ = run_cli(
            capsys, "fit", "--config", str(make_config(tmp_path))
        )
        assert code == 0
        assert stdout.startswith("term,estimate,SE,OR")

    def test_screen_defaults_to_final_family(self, tmp_path, capsys):
        make_dataset(tmp_path, missing_rate=0.0)
        code, stdout, _ = run_cli(
            capsys, "screen", "--config", str(make_config(tmp_path))
        )
        assert code == 0
        assert "entries" in json.loads(stdout)

    def test_impute_writes_completed_table(self, tmp_path, capsys):
        make_dataset(tmp_path, missing_rate=0.2)
        path = make_config(
            tmp_path,
            missing_policy="missforest",
            imputation={"targets": ["living"], "trees": 10},
            out=str(tmp_path / "imp"),
        )
        code, stdout, _ = run_cli(capsys, "impute", "--config", str(path))
        assert code == 0
        completed = (tmp_path / "imp" / "attributes_completed.csv").read_text()
        for line in completed.splitlines()[1:]:
            assert line.split(",")[2] != ""  # living column completed

    def test_run_recodes_raw_labels(self, tmp_path, capsys):
        make_raw_label_dataset(tmp_path)
        code, _, _ = run_cli(capsys, "run", "--config", str(make_config(tmp_path)))
        assert code == 0
        summary = json.loads((tmp_path / "out" / "attribute_summary.json").read_text())
        levels = [r["level"] for r in summary["columns"]["living"]["rows"]]
        assert levels == ["own place", "someone else", "homeless", "Missing"]

    def test_impute_complete_table_is_unchanged(self, tmp_path, capsys):
        make_dataset(tmp_path, missing_rate=0.0)
        for method in ("psm", "missforest"):
            out = tmp_path / method
            path = make_config(tmp_path, missing_policy=method, out=str(out))
            code, stdout, err = run_cli(capsys, "impute", "--config", str(path))
            assert code == 0, err
            assert json.loads(stdout)["imputed_columns"] == []
            completed = (out / "attributes_completed.csv").read_bytes()
            assert completed == (tmp_path / "attrs.csv").read_bytes()

    def test_synth_emits_dataset(self, tmp_path, capsys):
        spec = {
            "n": 25,
            "columns": {"sex": {"type": "categorical", "levels": ["m", "f"], "probs": [0.6, 0.4]}},
            "model": [{"term": "edges"}],
            "theta": [-1.5],
            "missing": [{"column": "sex", "rate": 0.1}],
            "seed": 3,
        }
        p = tmp_path / "synth.json"
        p.write_text(json.dumps(spec))
        out = tmp_path / "synthout"
        code, stdout, _ = run_cli(
            capsys, "synth", "--config", str(p), "--out", str(out)
        )
        assert code == 0
        assert (out / "edges.csv").exists()
        assert (out / "attributes.csv").exists()
        truth = json.loads((out / "truth.json").read_text())
        assert truth["nodes"] == 25
        # the written schema lets the dataset feed the pipeline directly
        cfg = {
            "edges": "edges.csv",
            "attributes": "attributes.csv",
            "schema": "schema.json",
            "attributes_used": ["sex"],
            "fit": {"gof_samples": 10},
            "out": "runout",
        }
        (out / "config.json").write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", "--config", str(out / "config.json"))
        assert code == 0, err
        assert (out / "runout" / "manifest.json").exists()

    def test_gof_prints_report(self, tmp_path, capsys):
        make_dataset(tmp_path, missing_rate=0.0)
        code, stdout, _ = run_cli(
            capsys, "gof", "--config", str(make_config(tmp_path))
        )
        assert code == 0
        assert "no_lack_of_fit" in json.loads(stdout)
