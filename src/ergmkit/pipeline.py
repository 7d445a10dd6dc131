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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    JsonObject,
    Schema,
    checked,
    count,
    each,
    flag,
    load_network,
    load_schema,
    names,
    number,
    rate,
    text,
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
            rows = []
            for k, lev in enumerate(col.levels):
                count = int(np.sum(col.codes == k))
                rows.append(
                    {"level": lev, "count": count, "percent": 100.0 * count / n if n else 0.0}
                )
            miss = int(col.missing_mask().sum())
            rows.append(
                {"level": "Missing", "count": miss, "percent": 100.0 * miss / n if n else 0.0}
            )
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
    lines = ["column,label,value1,value2"]
    for name, info in summary["columns"].items():
        if info["type"] == "categorical":
            for row in info["rows"]:
                lines.append(
                    f"{name},{row['level']},{row['count']},{repr(row['percent'])}"
                )
        else:
            mean = "" if info["mean"] is None else repr(info["mean"])
            sd = "" if info["sd"] is None else repr(info["sd"])
            lines.append(f"{name},mean_sd,{mean},{sd}")
            lines.append(f"{name},Missing,{info['missing']},")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunConfig:
    edges: str
    attributes: str
    schema: str
    scope: str = "full"
    missing_policy: str = "complete_case"
    family: str = "match"
    attributes_used: tuple[str, ...] = ()
    final_candidates: tuple[TermSpec, ...] = ()
    gwdegree: GwDegree | None = None
    imputation_targets: tuple[str, ...] = ()
    imputation_covariates: tuple[str, ...] | None = None
    forest: ForestConfig = field(default_factory=ForestConfig)
    fit_method: str = "mple"
    burn_in: int | None = None
    thin: int | None = None
    samples: int = 512
    gof_samples: int = 200
    gof_trace: bool = False
    screen_alpha: float = 0.2
    seed: int = 0
    out: str = "out"

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise ConfigError(f"scope must be one of {SCOPES}")
        if self.missing_policy not in POLICIES:
            raise ConfigError(f"missing_policy must be one of {POLICIES}")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}")
        if self.fit_method not in ("mple", "mcmle"):
            raise ConfigError("fit_method must be mple or mcmle")
        if self.gof_samples < 1:
            raise ConfigError("gof_samples must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        self.sampler  # checks the chain controls

    @property
    def sampler(self) -> SamplerConfig:
        """The fit's chain controls, seeded with the run seed."""
        return SamplerConfig(self.burn_in, self.thin, self.samples, self.seed)


def config_from_dict(d: dict, base: Path | None = None) -> RunConfig:
    def path(p: str) -> str:
        return str(base / p) if base is not None and not Path(p).is_absolute() else p

    top = JsonObject("", d)
    imp, fit = top.object("imputation"), top.object("fit")
    decay = top.get("gwdegree", number, None)
    return RunConfig(
        edges=path(top.get("edges", text)),
        attributes=path(top.get("attributes", text)),
        schema=path(top.get("schema", text)),
        scope=top.get("scope", text, "full"),
        missing_policy=top.get("missing_policy", text, "complete_case"),
        family=top.get("family", text, "match"),
        attributes_used=top.get("attributes_used", names, ()),
        final_candidates=top.get("final_candidates", each(read_term), ()),
        gwdegree=None if decay is None else checked("gwdegree", GwDegree, decay),
        imputation_targets=imp.get("targets", names, ()),
        imputation_covariates=imp.get("covariates", names, None),
        forest=ForestConfig(
            trees=imp.get("trees", count, 100),
            mtry=imp.get("mtry", count, None),
            min_leaf=imp.get("min_leaf", count, 1),
        ),
        fit_method=fit.get("method", text, "mple"),
        burn_in=fit.get("burn_in", count, None),
        thin=fit.get("thin", count, None),
        samples=fit.get("samples", count, 512),
        gof_samples=fit.get("gof_samples", count, 200),
        gof_trace=fit.get("trace", flag, False),
        screen_alpha=fit.get("screen_alpha", rate, 0.2),
        seed=top.get("seed", count, 0),
        out=path(top.get("out", text, "out")),
    )


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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    _write(path, json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def _require_columns(attrs: AttributeTable, key: str, names) -> None:
    """Raise a ConfigError naming ``key`` for the first name that is not a column."""
    for name in names:
        if name not in attrs:
            raise ConfigError(f"{key} names {name!r}, which is not an attribute column")


def impute_attributes(
    attrs: AttributeTable, targets: list[str], config: RunConfig
) -> tuple[AttributeTable, dict]:
    """Complete the target columns by the config's imputation policy.

    Covariates are ``config.imputation_covariates``, or every column that
    is not a target. PSM imputes one target at a time and its diagnostics
    are keyed by target; missForest imputes the targets together and
    returns its own diagnostics. With no targets the table comes back
    unchanged with empty diagnostics, whatever the policy.
    """
    if not targets:
        return attrs, {}
    covs = (
        list(config.imputation_covariates)
        if config.imputation_covariates is not None
        else [c for c in attrs.names if c not in targets]
    )
    _require_columns(attrs, "imputation.targets", targets)
    _require_columns(attrs, "imputation.covariates", covs)
    if config.missing_policy == "psm":
        diag = {}
        for t in targets:
            res = impute_psm(attrs, t, covs, seed=config.seed)
            attrs = res.completed
            diag[t] = res.diagnostics
        return attrs, diag
    res = impute_missforest(attrs, targets, covs, forest=config.forest, seed=config.seed)
    return res.completed, res.diagnostics


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
        g, attrs, ids = load_network(config.edges, config.attributes, schema)
        summary["stages"]["ingest"] = {"nodes": g.n, "edges": g.edge_count}
        source, modeled = "attributes_used", tuple(config.attributes_used)
        if config.family == "final" and config.final_candidates:
            source = "final_candidates"
            named = [t.attr for t in config.final_candidates if hasattr(t, "attr")]
            modeled = tuple(dict.fromkeys(named))
        _require_columns(attrs, source, modeled)

        stage = "scope"
        if config.scope == "lcc":
            g, attrs, keep = largest_connected_component(g, attrs)
            ids = [ids[k] for k in keep]
        summary["stages"]["scope"] = {
            "scope": config.scope,
            "nodes": g.n,
            "edges": g.edge_count,
        }

        stage = "netstats"
        ns = network_summary(g)
        _write(outdir / "network_summary.csv", ns.to_csv())
        _write(outdir / "network_summary.json", ns.to_json() + "\n")

        stage = "attribute_summary"
        attr_summary = summarize_attributes(attrs)
        _write_json(outdir / "attribute_summary.json", attr_summary)
        _write(outdir / "attribute_summary.csv", attribute_summary_csv(attr_summary))

        stage = "missing_policy"
        if config.missing_policy == "complete_case":
            drop_mask = np.zeros(attrs.n, dtype=bool)
            for name in modeled:
                drop_mask |= attrs[name].missing_mask()
            keep_idx = np.flatnonzero(~drop_mask)
            g = induced_subgraph(g, keep_idx)
            attrs = attrs.subset(keep_idx)
            ids = [ids[k] for k in keep_idx]
            summary["stages"]["missing_policy"] = {
                "policy": "complete_case",
                "dropped": int(drop_mask.sum()),
                "nodes": g.n,
                "edges": g.edge_count,
            }
        else:
            targets = list(config.imputation_targets)
            if not targets:
                targets = [
                    name for name in modeled if attrs[name].missing_mask().any()
                ]
            diag: dict = {"policy": config.missing_policy, "targets": targets}
            attrs, method_diag = impute_attributes(attrs, targets, config)
            if config.missing_policy == "psm":
                diag.update(method_diag)
            elif targets:
                diag["missforest"] = method_diag
            _write_json(outdir / "imputation.json", diag)
            summary["stages"]["missing_policy"] = {
                "policy": config.missing_policy,
                "nodes": g.n,
                "edges": g.edge_count,
            }

        stage = "model"
        if config.family == "final":
            candidates = list(config.final_candidates) or build_family_terms(
                "match", modeled, schema, attrs
            )
            screen = screen_univariate(g, attrs, candidates, alpha=config.screen_alpha)
            report.screen = screen
            _write(outdir / "screen.json", screen.to_json() + "\n")
            terms = list(screen.selected)
        else:
            terms = build_family_terms(config.family, modeled, schema, attrs)
        model_terms: list[TermSpec] = [Edges()] + terms
        if config.gwdegree is not None:
            model_terms.append(config.gwdegree)
        model = ModelSpec(model_terms)
        CompiledModel(model, attrs, g.n)  # fail here, not mid-fit
        _write_json(
            outdir / "model.json", {"terms": [term_to_dict(t) for t in model.terms]}
        )

        stage = "fit"
        if config.fit_method == "mcmle":
            fit_result = fit_mcmle(g, attrs, model, config.sampler)
        else:
            fit_result = fit_mple(g, attrs, model)
        report.fit = fit_result
        summary["stages"]["fit"] = fit_counters(fit_result)
        _write(outdir / f"fit_{config.family}.csv", fit_result.to_csv())
        _write(outdir / f"fit_{config.family}.json", fit_result.to_json() + "\n")

        if with_gof:
            stage = "gof"
            gof_cfg = SamplerConfig(
                burn_in=config.burn_in,
                thin=config.thin,
                sample_count=config.gof_samples,
                seed=config.seed + 1,
            )
            gof_report = gof(
                g,
                attrs,
                model,
                fit_result.theta,
                gof_cfg,
                trace_path=(outdir / "gof_trace.csv") if config.gof_trace else None,
            )
            report.gof = gof_report
            summary["stages"]["gof"] = simulation_counters(model, g.n, gof_cfg)
            _write(outdir / "gof.csv", gof_report.to_csv())
            _write(outdir / "gof.json", gof_report.to_json() + "\n")
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
            "fit_method": config.fit_method,
            "stages": summary["stages"],
        }
        _write_json(outdir / "manifest.json", manifest)
        return report
    except Exception as exc:
        _write(outdir / "FAILED", f"stage: {stage}\nerror: {exc}\n")
        if isinstance(exc, ErgmkitError):
            raise
        raise ErgmkitError(f"stage {stage!r} failed: {exc}") from exc
