from __future__ import annotations

import csv
import io
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmkit.dataio import (
    json_text,
    load_network,
    load_schema,
    read_attribute_csv,
    read_edge_csv,
    table_columns,
    table_csv,
    table_json,
    write_attribute_csv,
    write_edge_csv,
)
from ergmkit.errors import ConfigError, DataError, UnknownLevel, UnmappedLabel
from ergmkit.fit import FitResult, GofReport, GofRow, OrRow, or_table
from ergmkit.graph import AttributeTable, categorical, continuous
from ergmkit.model import Edges, ModelSpec, NodeMatch
from ergmkit.pipeline import (
    RunConfig,
    attribute_summary_csv,
    config_from_dict,
    load_config,
    run,
    summarize_attributes,
)
from ergmkit.synth import CategoricalSpec, ContinuousSpec, MissingSpec, SynthSpec, generate


def load_labels(tmp_path: Path, column: dict, labels: list[str], recode=None):
    """load_network on a one-column attribute file with no edges."""
    (tmp_path / "edges.csv").write_text("source,target\n")
    cells = "".join(f"{k},{'' if v is None else v}\n" for k, v in enumerate(labels))
    (tmp_path / "attrs.csv").write_text("id,c\n" + cells)
    schema = {"columns": {"c": column}, "recode": {"c": recode} if recode else {}}
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    _, attrs, _ = load_network(
        tmp_path / "edges.csv", tmp_path / "attrs.csv", load_schema(tmp_path / "schema.json")
    )
    return attrs["c"]


class TestLoadNetwork:
    def test_identity_labels_unchanged(self, tmp_path):
        col = load_labels(
            tmp_path, {"type": "categorical", "levels": ["m", "f"]}, ["m", "f", "m"]
        )
        assert col.levels == ("m", "f")
        assert col.labels() == ["m", "f", "m"]

    def test_employment_collapse(self, tmp_path):
        # published recoding folds retired, student, and homemaker into
        # the employed category
        mapping = {
            "unemployed": "unemployed",
            "unable to work - disabled": "unemployed",
            "regular full-time work": "employed",
            "retired": "employed",
            "student": "employed",
            "homemaker": "employed",
        }
        col = load_labels(
            tmp_path,
            {"type": "categorical", "levels": ["employed", "unemployed"]},
            list(mapping) + ["retired"],
            recode=mapping,
        )
        labels = col.labels()
        assert labels[3] == "employed" and labels[6] == "employed"
        assert labels[:2] == ["unemployed", "unemployed"]
        assert col.levels == ("employed", "unemployed")

    def test_unmapped_label_rejected(self, tmp_path):
        with pytest.raises(UnmappedLabel, match="'y'"):
            load_labels(
                tmp_path, {"type": "categorical", "levels": ["x"]}, ["x", "y"]
            )

    def test_missing_cells_stay_missing(self, tmp_path):
        col = load_labels(
            tmp_path,
            {"type": "categorical", "levels": ["z"]},
            ["x", None, "y"],
            recode={"x": "z", "y": "z"},
        )
        assert col.labels() == ["z", None, "z"]

    def test_recode_map_wins_over_declared_label(self, tmp_path):
        col = load_labels(
            tmp_path,
            {"type": "categorical", "levels": ["a", "b"]},
            ["a", "b"],
            recode={"a": "b"},
        )
        assert col.labels() == ["b", "b"]

    def test_undeclared_recode_target_is_unknown_level(self, tmp_path):
        with pytest.raises(UnknownLevel, match="'w' is not a declared level of 'c'"):
            load_labels(
                tmp_path,
                {"type": "categorical", "levels": ["x"]},
                ["x", "y"],
                recode={"y": "w"},
            )


class TestSummaries:
    def test_published_male_percentage(self):
        labels = ["male"] * 541 + ["female"] * 226
        attrs = AttributeTable([categorical("sex", ["male", "female"], labels)])
        s = summarize_attributes(attrs)
        male = s["columns"]["sex"]["rows"][0]
        assert male["count"] == 541
        assert round(male["percent"]) == 71

    def test_all_missing_column(self):
        attrs = AttributeTable([categorical("c", ["x"], [None, None])])
        s = summarize_attributes(attrs)
        rows = s["columns"]["c"]["rows"]
        assert rows[-1]["level"] == "Missing" and rows[-1]["percent"] == 100.0

    def test_continuous_mean_sd_row(self):
        vals = [30.0, 40.0, None]
        attrs = AttributeTable([continuous("age", vals, units="years")])
        s = summarize_attributes(attrs)
        col = s["columns"]["age"]
        assert col["mean"] == pytest.approx(35.0)
        assert col["missing"] == 1
        csv = attribute_summary_csv(s)
        assert "age,mean_sd,35.0,5.0" in csv

    def test_percentages_sum_to_100(self):
        labels = ["a"] * 3 + ["b"] * 5 + [None] * 2
        attrs = AttributeTable([categorical("c", ["a", "b"], labels)])
        s = summarize_attributes(attrs)
        total = sum(r["percent"] for r in s["columns"]["c"]["rows"])
        assert total == pytest.approx(100.0)


def make_dataset(tmp_path: Path, n=70, missing_rate=0.15, seed=13):
    spec = SynthSpec(
        n=n,
        columns={
            "sex": CategoricalSpec(("male", "female"), (0.65, 0.35)),
            "living": CategoricalSpec(("own", "other", "homeless"), (0.4, 0.4, 0.2)),
            "age": ContinuousSpec(36.0, 6.0),
        },
        model=ModelSpec([Edges(), NodeMatch("sex", differential=True)]),
        theta=(-2.6, 0.9, 1.1),
        missing=(MissingSpec("living", missing_rate, "mcar"),) if missing_rate else (),
        seed=seed,
    )
    g, attrs, _ = generate(spec)
    write_edge_csv(tmp_path / "edges.csv", g)
    write_attribute_csv(tmp_path / "attrs.csv", attrs)
    schema = {
        "columns": {
            "sex": {"type": "categorical", "levels": ["male", "female"]},
            "living": {"type": "categorical", "levels": ["own", "other", "homeless"]},
            "age": {"type": "continuous", "units": "years"},
        },
        "reference_levels": {"sex": "male", "living": "own"},
        "reference_pairs": {"living": ["homeless", "homeless"]},
    }
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    return g, attrs


def make_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "edges": "edges.csv",
        "attributes": "attrs.csv",
        "schema": "schema.json",
        "scope": "full",
        "missing_policy": "complete_case",
        "family": "match",
        "attributes_used": ["sex", "living"],
        "fit": {"method": "mple", "gof_samples": 40},
        "seed": 5,
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestDataio:
    def test_edge_csv_round_trip(self, tmp_path):
        g, _ = make_dataset(tmp_path, missing_rate=0.0)
        pairs = read_edge_csv(tmp_path / "edges.csv")
        assert len(pairs) == g.edge_count

    def test_attribute_csv_round_trip(self, tmp_path):
        _, attrs = make_dataset(tmp_path)
        ids, values = read_attribute_csv(tmp_path / "attrs.csv")
        assert len(ids) == attrs.n
        missing = sum(v is None for v in values["living"])
        assert missing == int(attrs["living"].missing_mask().sum())

    def test_bad_edge_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("from,to\n1,2\n")
        with pytest.raises(DataError):
            read_edge_csv(p)

    @pytest.mark.parametrize(
        "rows", ["p1,male,30,extra,cells\n", "p1,male\n", "p1,male,30\np2\n"]
    )
    def test_attribute_row_field_count_is_data_error(self, tmp_path, rows):
        p = tmp_path / "attrs.csv"
        p.write_text("id,sex,age\n" + rows)
        with pytest.raises(DataError):
            read_attribute_csv(p)

    def test_schema_declares_kinds(self, tmp_path):
        make_dataset(tmp_path)
        schema = load_schema(tmp_path / "schema.json")
        assert schema.column("sex").levels == ("male", "female")
        with pytest.raises(ConfigError):
            schema.column("nope")

    @pytest.mark.parametrize("key", ["Emp", "age"])
    def test_recode_of_undeclared_or_continuous_column_is_config_error(self, tmp_path, key):
        schema = {
            "columns": {
                "emp": {"type": "categorical", "levels": ["employed", "retired"]},
                "age": {"type": "continuous"},
            },
            "recode": {key: {"retired": "employed"}},
        }
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        with pytest.raises(ConfigError):
            load_schema(tmp_path / "schema.json")


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(edges="e", attributes="a", schema="s", scope="galaxy")
        with pytest.raises(ConfigError):
            RunConfig(edges="e", attributes="a", schema="s", family="quadratic")

    def test_paths_resolve_relative_to_config(self, tmp_path):
        make_dataset(tmp_path)
        path = make_config(tmp_path)
        cfg = load_config(path)
        assert Path(cfg.edges).is_absolute()
        assert Path(cfg.edges).exists()

    def test_missing_key_is_config_error(self):
        with pytest.raises(ConfigError):
            config_from_dict({"edges": "e.csv"})

    def test_sampler_seed_is_the_run_seed(self):
        config = RunConfig(edges="e", attributes="a", schema="s", seed=5)
        assert config.sampler().seed == 5
        assert replace(config, seed=7).sampler().seed == 7
        assert config.sampler(gof=True).seed == 6
        parsed = config_from_dict({"edges": "e", "attributes": "a", "schema": "s", "seed": 5})
        assert parsed == config


class TestRun:
    def test_complete_case_drops_nothing_when_complete(self, tmp_path):
        g, attrs = make_dataset(tmp_path, missing_rate=0.0)
        report = run(load_config(make_config(tmp_path)))
        stage = report.summary["stages"]["missing_policy"]
        assert stage["dropped"] == 0 and stage["nodes"] == g.n

    def test_complete_case_drops_missing_nodes(self, tmp_path):
        g, attrs = make_dataset(tmp_path, missing_rate=0.2)
        report = run(load_config(make_config(tmp_path)))
        stage = report.summary["stages"]["missing_policy"]
        expected = int(attrs["living"].missing_mask().sum())
        assert stage["dropped"] == expected
        assert stage["nodes"] == g.n - expected

    def test_imputation_policies_keep_all_nodes(self, tmp_path):
        g, _ = make_dataset(tmp_path, missing_rate=0.2)
        for policy in ("psm", "missforest"):
            path = make_config(
                tmp_path,
                missing_policy=policy,
                imputation={"targets": ["living"], "trees": 15},
                out=str(tmp_path / f"out_{policy}"),
            )
            report = run(load_config(path))
            assert report.summary["stages"]["missing_policy"]["nodes"] == g.n
            assert (tmp_path / f"out_{policy}" / "imputation.json").exists()

    def test_lcc_scope_on_connected_graph_equals_full(self, tmp_path):
        # build a connected dataset: densify until one component
        from ergmkit.graph import connected_components

        seed = 2
        while True:
            g, _ = make_dataset(tmp_path, n=40, missing_rate=0.0, seed=seed)
            if connected_components(g).max() + 1 == 1:
                break
            seed += 1
        full = run(load_config(make_config(tmp_path, out=str(tmp_path / "o1"))))
        lcc = run(
            load_config(make_config(tmp_path, scope="lcc", out=str(tmp_path / "o2")))
        )
        np.testing.assert_allclose(full.fit.theta, lcc.fit.theta, atol=1e-12)
        assert (tmp_path / "o1" / "network_summary.csv").read_text() == (
            tmp_path / "o2" / "network_summary.csv"
        ).read_text()

    def test_family_outputs(self, tmp_path):
        make_dataset(tmp_path, missing_rate=0.0)
        for family in ("match", "factor", "mix"):
            path = make_config(tmp_path, family=family, out=str(tmp_path / f"f_{family}"))
            report = run(load_config(path))
            table = (tmp_path / f"f_{family}" / f"fit_{family}.csv").read_text()
            assert table.startswith("term,estimate,SE,OR,ci_low,ci_high,p,stars")
            assert report.fit is not None

    def test_final_family_screens_then_fits(self, tmp_path):
        make_dataset(tmp_path, missing_rate=0.0)
        path = make_config(
            tmp_path,
            family="final",
            final_candidates=[
                {"term": "nodematch", "attr": "sex", "differential": True},
                {"term": "nodematch", "attr": "living", "differential": False},
            ],
            out=str(tmp_path / "fin"),
        )
        report = run(load_config(path))
        assert report.screen is not None
        assert (tmp_path / "fin" / "screen.json").exists()
        selected = json.loads((tmp_path / "fin" / "screen.json").read_text())
        assert any(e["selected"] for e in selected["entries"])

    def test_byte_identical_reruns(self, tmp_path):
        make_dataset(tmp_path, missing_rate=0.1)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        run(load_config(make_config(tmp_path, missing_policy="missforest",
                                    imputation={"targets": ["living"], "trees": 10},
                                    out=str(out1))))
        run(load_config(make_config(tmp_path, missing_policy="missforest",
                                    imputation={"targets": ["living"], "trees": 10},
                                    out=str(out2))))
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_failed_marker_names_stage(self, tmp_path):
        make_dataset(tmp_path, missing_rate=0.0)
        # drop a reference level the factor family needs: a model-stage error
        schema = json.loads((tmp_path / "schema.json").read_text())
        del schema["reference_levels"]["sex"]
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        path = make_config(tmp_path, family="factor", out=str(tmp_path / "boom"))
        with pytest.raises(Exception):
            run(load_config(path))
        marker = (tmp_path / "boom" / "FAILED").read_text()
        assert "stage: model" in marker
        # earlier outputs are retained
        assert (tmp_path / "boom" / "network_summary.csv").exists()

    def test_network_summary_matches_scope(self, tmp_path):
        g, _ = make_dataset(tmp_path, missing_rate=0.0)
        run(load_config(make_config(tmp_path, out=str(tmp_path / "ns"))))
        payload = json.loads((tmp_path / "ns" / "network_summary.json").read_text())
        assert payload["node_count"] == g.n
        assert payload["edge_count"] == g.edge_count

    def test_lcc_scope_counts_match_component_extraction(self, tmp_path):
        from ergmkit.graph import largest_connected_component

        g, _ = make_dataset(tmp_path, n=50, missing_rate=0.0, seed=44)
        sub, _, _ = largest_connected_component(g)
        report = run(
            load_config(make_config(tmp_path, scope="lcc", out=str(tmp_path / "lcc")))
        )
        stage = report.summary["stages"]["scope"]
        assert stage["nodes"] == sub.n
        assert stage["edges"] == sub.edge_count

    def test_gwdegree_with_mcmle(self, tmp_path):
        make_dataset(tmp_path, n=40, missing_rate=0.0, seed=61)
        cfg = make_config(
            tmp_path,
            gwdegree=0.5,
            fit={"method": "mcmle", "samples": 400, "gof_samples": 30},
            out=str(tmp_path / "gw"),
        )
        report = run(load_config(cfg))
        assert report.fit.method == "MCMLE"
        assert "gwdegree" in report.fit.stat_names
        table = json.loads((tmp_path / "gw" / "fit_match.json").read_text())
        assert any(r["term"] == "gwdegree" for r in table["table"])
        manifest = json.loads((tmp_path / "gw" / "manifest.json").read_text())
        # default chain: 10 n^2 burn-in plus n^2 proposals per retained sample
        assert manifest["stages"]["gof"] == {
            "simulator": "metropolis",
            "samples": 30,
            "proposals": 10 * 40**2 + 30 * 40**2,
        }
        rounds = report.fit.diagnostics["iterations"]
        # every round and the confirmation sample run one default chain
        assert manifest["stages"]["fit"] == {
            "method": "MCMLE",
            "rounds": rounds,
            "proposals": (rounds + 1) * (10 * 40**2 + 400 * 40**2),
        }

    def test_gof_trace_written_when_requested(self, tmp_path):
        make_dataset(tmp_path, missing_rate=0.0)
        cfg = make_config(
            tmp_path,
            fit={"method": "mple", "gof_samples": 25, "trace": True},
            out=str(tmp_path / "tr"),
        )
        run(load_config(cfg))
        trace = (tmp_path / "tr" / "gof_trace.csv").read_text().splitlines()
        assert trace[0].startswith("edges")
        assert len(trace) == 26  # header + one row per retained sample
        manifest = json.loads((tmp_path / "tr" / "manifest.json").read_text())
        assert manifest["stages"]["gof"] == {"simulator": "exact", "samples": 25, "proposals": 0}
        n = manifest["stages"]["missing_policy"]["nodes"]
        fit = manifest["stages"]["fit"]
        assert fit["method"] == "MPLE" and fit["iterations"] >= 1
        assert fit["dyads"] == n * (n - 1) // 2
        assert 1 <= fit["blocks"] <= 21  # sex x living: at most 6 groups


def read_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


# a level with a comma and one with double quotes, reached through the recode map
COMMA, QUOTED = "own, with family", 'someone else\'s "shared" place'


class TestOutputTables:
    @pytest.mark.parametrize("family", ["match", "factor", "mix"])
    def test_labels_with_commas_and_quotes_keep_every_csv_rectangular(self, tmp_path, family):
        make_dataset(tmp_path)
        schema = json.loads((tmp_path / "schema.json").read_text())
        schema["columns"]["living"]["levels"] = [COMMA, QUOTED, "homeless"]
        schema["recode"] = {"living": {"own": COMMA, "other": QUOTED}}
        schema["reference_levels"]["living"] = "homeless"
        schema["reference_pairs"]["living"] = [QUOTED, COMMA]
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        run(load_config(make_config(tmp_path, family=family, fit={"gof_samples": 20, "trace": True})))
        out = tmp_path / "out"
        written = sorted(p.name for p in out.glob("*.csv"))
        tables = ["attribute_summary", f"fit_{family}", "gof", "gof_trace", "network_summary"]
        assert written == [f"{t}.csv" for t in tables]
        for name in written:
            header, *rows = read_csv((out / name).read_text())
            assert rows and [len(r) for r in rows] == [len(header)] * len(rows), name
        terms = [r[0] for r in read_csv((out / f"fit_{family}.csv").read_text())[1:]]
        assert terms == json.loads((out / f"fit_{family}.json").read_text())["stat_names"]
        assert any(COMMA in t for t in terms) and any(QUOTED in t for t in terms)
        assert any(QUOTED in name for name in read_csv((out / "gof_trace.csv").read_text())[0])
        labels = [r[1] for r in read_csv((out / "attribute_summary.csv").read_text())[1:]]
        assert COMMA in labels and QUOTED in labels

    def test_a_carriage_return_in_a_level_is_config_error(self, tmp_path):
        column = {"type": "categorical", "levels": ["a\rb"]}
        (tmp_path / "schema.json").write_text(json.dumps({"columns": {"c": column}}))
        with pytest.raises(ConfigError, match="carriage return"):
            load_schema(tmp_path / "schema.json")


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # nan reads back as nan


# the schema rejects a carriage return in a name or level, so no table cell holds one
_CELL = {
    "str": st.text(st.characters(exclude_characters="\r", exclude_categories=("Cs",))),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "bool": st.booleans(),
}
_PARSE = {"str": str, "float": float, "bool": {"True": True, "False": False}.__getitem__}


def _rows(cls):
    return st.lists(st.builds(cls, **{f.name: _CELL[f.type] for f in fields(cls)}), max_size=4)


class TestTableWriter:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("cls", [OrRow, GofRow])
    def test_csv_and_json_give_back_every_cell(self, cls, data):
        rows = data.draw(_rows(cls))
        columns = table_columns(cls)
        header, *parsed = read_csv(table_csv(cls, rows))
        assert header == [h for _, h, _ in columns]
        assert len(parsed) == len(rows)
        docs = json.loads(json.dumps(table_json(cls, rows)))
        assert [list(d) for d in docs] == [[k for _, _, k in columns]] * len(rows)
        types = {f.name: f.type for f in fields(cls)}
        for row, cells, doc in zip(rows, parsed, docs):
            for (name, _, key), cell in zip(columns, cells):
                value = getattr(row, name)
                assert _same(_PARSE[types[name]](cell), value)
                assert _same(doc[key], value)


def strict_json(text: str):
    """``json.loads`` that rejects NaN and Infinity, as RFC 8259 parsers do."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestJson:
    def test_non_finite_cells_are_null(self, tmp_path):
        # theta 800 with SE 100: the odds ratio and its upper bound overflow
        theta, cov = np.array([0.5, 800.0]), np.diag([0.04, 1e4])
        rows = or_table(theta, cov, ["edges", "far"])
        assert np.isinf(rows[1].ci_high)
        fit = FitResult(theta, cov, ("edges", "far"), "MPLE", rows, {"score_norm": np.nan})
        doc = strict_json(fit.to_json())
        assert doc["table"][1]["ci_high"] is None and doc["table"][0]["ci_high"] > 0
        assert doc["diagnostics"] == {"score_norm": None}
        nan = float("nan")
        gof = GofReport(stat_rows=(GofRow("edges", 3.0, nan, nan, nan, nan, False),), degree_rows=())
        (row,) = strict_json(gof.to_json())["model_statistics"]
        assert row == {"name": "edges", "observed": 3.0, "sim_mean": None, "lo": None,
                       "hi": None, "p": None, "in_band": False}
        assert strict_json(json_text({"a": [np.float64(-np.inf), np.int64(2)]})) == {"a": [None, 2]}
