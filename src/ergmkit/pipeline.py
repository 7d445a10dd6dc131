"""End-to-end analysis runs.

Stage order: ingest (which maps raw labels onto the schema's levels),
scope selection (full network or largest connected component),
missing-data policy (complete cases, propensity matching, or iterative
forest imputation), model family fit, and goodness-of-fit, with every
table written as CSV + JSON. A run is a pure function of (input files,
config, seed): rerunning reproduces the output bytes. On a stage failure
the partial outputs stay on disk next to a FAILED marker naming the
stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    JsonObject,
    Schema,
    checked,
    count,
    csv_text,
    each,
    flag,
    load_network,
    load_schema,
    names,
    number,
    rate,
    read_record,
    record,
    setting,
    text,
    write_json,
    write_result,
)
from .errors import ConfigError, ErgmkitError
from .fit import (
    FitResult,
    GofReport,
    ScreenReport,
    fit_counters,
    fit_mcmle,
    fit_mple,
    gof,
    screen_univariate,
)
from .forest import ForestConfig
from .graph import (
    AttributeTable,
    CategoricalColumn,
    induced_subgraph,
    largest_connected_component,
)
from .imputation import impute_missforest, impute_psm
from .model import (
    CompiledModel,
    Edges,
    GwDegree,
    ModelSpec,
    NodeFactor,
    NodeMatch,
    NodeMix,
    TermSpec,
    read_term,
    term_to_dict,
)
from .netstats import network_summary
from .sampler import SamplerConfig, simulation_counters

SCOPES = ("full", "lcc")
POLICIES = ("complete_case", "psm", "missforest")
FAMILIES = ("match", "factor", "mix", "final")


def summarize_attributes(attrs: AttributeTable) -> dict:
    """Per-column counts/percentages, mean and SD for continuous columns."""
    n = attrs.n
    out: dict = {"n": n, "columns": {}}
    for col in attrs.columns():
        if isinstance(col, CategoricalColumn):
            counts = [int(np.sum(col.codes == k)) for k in range(len(col.levels))]
            counts.append(int(col.missing_mask().sum()))
            rows = [
                {"level": level, "count": c, "percent": 100.0 * c / n if n else 0.0}
                for level, c in zip([*col.levels, "Missing"], counts)
            ]
            out["columns"][col.name] = {"type": "categorical", "rows": rows}
        else:
            obs = col.values[~col.missing_mask()]
            out["columns"][col.name] = {
                "type": "continuous",
                "mean": float(obs.mean()) if len(obs) else None,
                "sd": float(obs.std()) if len(obs) else None,
                "missing": int(col.missing_mask().sum()),
                "units": col.units,
            }
    return out


def attribute_summary_csv(summary: dict) -> str:
    rows = []
    for name, info in summary["columns"].items():
        if info["type"] == "categorical":
            rows += [[name, r["level"], r["count"], r["percent"]] for r in info["rows"]]
        else:
            rows.append([name, "mean_sd", info["mean"], info["sd"]])
            rows.append([name, "Missing", info["missing"], None])
    return csv_text(["column", "label", "value1", "value2"], rows)


@dataclass(frozen=True)
class ImputationConfig(ForestConfig):
    """The ``imputation`` record: missForest's forest settings, plus the
    columns to impute and the covariates to impute them from."""

    targets: tuple[str, ...] = setting(names, ())
    covariates: tuple[str, ...] | None = setting(names, None)


@dataclass(frozen=True)
class FitConfig:
    """The ``fit`` record: estimator, chain controls, gof draws and screen level."""

    method: str = setting(text, "mple")
    burn_in: int | None = setting(count, None)
    thin: int | None = setting(count, None)
    samples: int = setting(count, 512)
    gof_samples: int = setting(count, 200)
    trace: bool = setting(flag, False)
    screen_alpha: float = setting(rate, 0.2)

    def __post_init__(self):
        if self.method not in ("mple", "mcmle"):
            raise ConfigError("method must be mple or mcmle")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.gof_samples < 1:
            raise ConfigError("gof_samples must be >= 1")
        SamplerConfig(self.burn_in, self.thin)  # checks burn_in and thin


def _gwdegree(where: str, value) -> GwDegree:
    return checked(where, GwDegree, number(where, value))


@dataclass(frozen=True)
class RunConfig:
    edges: str = setting(text)
    attributes: str = setting(text)
    schema: str = setting(text)
    scope: str = setting(text, "full")
    missing_policy: str = setting(text, "complete_case")
    family: str = setting(text, "match")
    attributes_used: tuple[str, ...] = setting(names, ())
    final_candidates: tuple[TermSpec, ...] = setting(each(read_term), ())
    gwdegree: GwDegree | None = setting(_gwdegree, None)  # its decay in JSON
    imputation: ImputationConfig = setting(record(ImputationConfig), factory=ImputationConfig)
    fit: FitConfig = setting(record(FitConfig), factory=FitConfig)
    seed: int = setting(count, 0)
    out: str = setting(text, "out")

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise ConfigError(f"scope must be one of {SCOPES}")
        if self.missing_policy not in POLICIES:
            raise ConfigError(f"missing_policy must be one of {POLICIES}")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def sampler(self, gof: bool = False) -> SamplerConfig:
        """The fit's chain controls, seeded with the run seed; with ``gof``,
        gof's: ``fit.gof_samples`` draws, seeded with the run seed + 1."""
        fit = self.fit
        if gof:
            return SamplerConfig(fit.burn_in, fit.thin, fit.gof_samples, self.seed + 1)
        return SamplerConfig(fit.burn_in, fit.thin, fit.samples, self.seed)


def config_from_dict(d: dict, base: Path | None = None) -> RunConfig:
    """The run config a JSON object declares, its relative paths resolved against ``base``."""
    config = read_record(JsonObject("", d), RunConfig)
    if base is None:
        return config

    def path(p: str) -> str:
        return p if Path(p).is_absolute() else str(base / p)

    paths = ("edges", "attributes", "schema", "out")
    return replace(config, **{k: path(getattr(config, k)) for k in paths})


def load_config(path) -> RunConfig:
    p = Path(path)
    with open(p, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh), base=p.parent)


def build_family_terms(
    family: str,
    attributes_used: tuple[str, ...],
    schema: Schema,
    attrs: AttributeTable,
) -> list[TermSpec]:
    """Non-edges terms for the match, factor, or mix family."""
    terms: list[TermSpec] = []
    for name in attributes_used:
        col = attrs[name]
        if not isinstance(col, CategoricalColumn):
            raise ConfigError(f"modeled attribute {name!r} must be categorical")
        if family == "match":
            terms.append(NodeMatch(name, differential=True))
        elif family == "factor":
            ref = schema.reference_levels.get(name)
            if ref is None:
                raise ConfigError(f"no reference level declared for {name!r}")
            terms.append(NodeFactor(name, ref))
        elif family == "mix":
            pair = schema.reference_pairs.get(name)
            if pair is None:
                ref = schema.reference_levels.get(name)
                if ref is None:
                    raise ConfigError(f"no reference pair or level for {name!r}")
                pair = (ref, ref)
            terms.append(NodeMix(name, pair))
        else:
            raise ConfigError(f"family {family!r} has no direct term builder")
    return terms


def _require_columns(attrs: AttributeTable, key: str, names) -> None:
    """Raise a ConfigError naming ``key`` for the first name that is not a column."""
    for name in names:
        if name not in attrs:
            raise ConfigError(f"{key} names {name!r}, which is not an attribute column")


def impute_attributes(
    attrs: AttributeTable, targets: list[str], config: RunConfig, outdir: Path
) -> AttributeTable:
    """Complete the target columns by the config's imputation policy, and
    write ``imputation.json``: the policy, the targets and the diagnostics.

    Covariates are ``config.imputation.covariates``, or every column that
    is not a target. PSM imputes one target at a time and its diagnostics
    are keyed by target; missForest imputes the targets together and its
    diagnostics go under ``missforest``. With no targets the table comes
    back unchanged with no diagnostics, whatever the policy.
    """
    diag: dict = {"policy": config.missing_policy, "targets": targets}
    if targets:
        covs = config.imputation.covariates
        covs = list(covs) if covs is not None else [c for c in attrs.names if c not in targets]
        _require_columns(attrs, "imputation.targets", targets)
        _require_columns(attrs, "imputation.covariates", covs)
        if config.missing_policy == "psm":
            for t in targets:
                res = impute_psm(attrs, t, covs)
                attrs = res.completed
                diag[t] = res.diagnostics
        else:
            res = impute_missforest(attrs, targets, covs, forest=config.imputation, seed=config.seed)
            attrs = res.completed
            diag["missforest"] = res.diagnostics
    write_json(outdir / "imputation.json", diag)
    return attrs


@dataclass
class RunReport:
    outdir: Path
    summary: dict
    fit: FitResult | None = None
    gof: GofReport | None = None
    screen: ScreenReport | None = None


def run(config: RunConfig, with_gof: bool = True) -> RunReport:
    """Execute the staged pipeline, writing every table under config.out."""
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    stage = "setup"
    summary: dict = {"stages": {}}
    report = RunReport(outdir=outdir, summary=summary)
    try:
        stage = "ingest"
        schema = load_schema(config.schema)
        g, attrs, _ = load_network(config.edges, config.attributes, schema)
        summary["stages"]["ingest"] = {"nodes": g.n, "edges": g.edge_count}
        source, modeled = "attributes_used", tuple(config.attributes_used)
        if config.family == "final" and config.final_candidates:
            source = "final_candidates"
            named = [t.attr for t in config.final_candidates if hasattr(t, "attr")]
            modeled = tuple(dict.fromkeys(named))
        _require_columns(attrs, source, modeled)

        stage = "scope"
        if config.scope == "lcc":
            g, attrs, _ = largest_connected_component(g, attrs)
        summary["stages"]["scope"] = {
            "scope": config.scope,
            "nodes": g.n,
            "edges": g.edge_count,
        }

        stage = "netstats"
        write_result(outdir, "network_summary", network_summary(g))

        stage = "attribute_summary"
        attr_summary = summarize_attributes(attrs)
        write_json(outdir / "attribute_summary.json", attr_summary)
        (outdir / "attribute_summary.csv").write_text(
            attribute_summary_csv(attr_summary), encoding="utf-8"
        )

        stage = "missing_policy"
        policy: dict = {"policy": config.missing_policy}
        if config.missing_policy == "complete_case":
            drop_mask = np.zeros(attrs.n, dtype=bool)
            for name in modeled:
                drop_mask |= attrs[name].missing_mask()
            keep_idx = np.flatnonzero(~drop_mask)
            g = induced_subgraph(g, keep_idx)
            attrs = attrs.subset(keep_idx)
            policy["dropped"] = int(drop_mask.sum())
        else:
            targets = list(config.imputation.targets) or [
                name for name in modeled if attrs[name].missing_mask().any()
            ]
            attrs = impute_attributes(attrs, targets, config, outdir)
        summary["stages"]["missing_policy"] = {**policy, "nodes": g.n, "edges": g.edge_count}

        stage = "model"
        if config.family == "final":
            candidates = list(config.final_candidates) or build_family_terms(
                "match", modeled, schema, attrs
            )
            screen = screen_univariate(g, attrs, candidates, alpha=config.fit.screen_alpha)
            report.screen = screen
            (outdir / "screen.json").write_text(screen.to_json() + "\n", encoding="utf-8")
            terms = list(screen.selected)
        else:
            terms = build_family_terms(config.family, modeled, schema, attrs)
        model_terms: list[TermSpec] = [Edges()] + terms
        if config.gwdegree is not None:
            model_terms.append(config.gwdegree)
        model = ModelSpec(model_terms)
        CompiledModel(model, attrs, g.n)  # fail here, not mid-fit
        write_json(outdir / "model.json", {"terms": [term_to_dict(t) for t in model.terms]})

        stage = "fit"
        if config.fit.method == "mcmle":
            fit_result = fit_mcmle(g, attrs, model, config.sampler())
        else:
            fit_result = fit_mple(g, attrs, model)
        report.fit = fit_result
        summary["stages"]["fit"] = fit_counters(fit_result)
        write_result(outdir, f"fit_{config.family}", fit_result)

        if with_gof:
            stage = "gof"
            gof_cfg = config.sampler(gof=True)
            gof_report = gof(
                g,
                attrs,
                model,
                fit_result.theta,
                gof_cfg,
                trace_path=(outdir / "gof_trace.csv") if config.fit.trace else None,
            )
            report.gof = gof_report
            summary["stages"]["gof"] = simulation_counters(model, g.n, gof_cfg)
            write_result(outdir, "gof", gof_report)
            summary["no_lack_of_fit"] = gof_report.no_lack_of_fit

        stage = "manifest"
        manifest = {
            "package": "ergmkit",
            "version": __version__,
            "numpy": np.__version__,
            "seed": config.seed,
            "scope": config.scope,
            "missing_policy": config.missing_policy,
            "family": config.family,
            "fit_method": config.fit.method,
            "stages": summary["stages"],
        }
        write_json(outdir / "manifest.json", manifest)
        return report
    except Exception as exc:
        (outdir / "FAILED").write_text(f"stage: {stage}\nerror: {exc}\n", encoding="utf-8")
        if isinstance(exc, ErgmkitError):
            raise
        raise ErgmkitError(f"stage {stage!r} failed: {exc}") from exc
