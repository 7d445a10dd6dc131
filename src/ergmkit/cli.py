"""Command line interface.

Subcommands: stats, fit, impute, gof, screen, run, synth, verify. Exit
codes: 0 success, 2 configuration error, 3 fit degeneracy, 4 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .dataio import (
    load_network,
    load_schema,
    read_edge_csv,
    write_attribute_csv,
    write_edge_csv,
    write_schema,
)
from .errors import ConfigError, ErgmkitError
from .graph import Graph, largest_connected_component, load_graph
from .netstats import network_summary
from .pipeline import RunConfig, impute_attributes, load_config, run
from .synth import generate, spec_from_dict, spec_to_dict


def _load_stats_graph(args) -> Graph:
    pairs = read_edge_csv(args.edges)
    if args.nodes:
        ids = [
            line.strip()
            for line in Path(args.nodes).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
    elif args.attributes:
        from .dataio import read_attribute_csv

        ids, _ = read_attribute_csv(args.attributes)
    else:
        ids = list(dict.fromkeys(v for pair in pairs for v in pair))
    return load_graph(pairs, ids)


def _cmd_stats(args) -> int:
    g = _load_stats_graph(args)
    if args.scope == "lcc":
        g, _, _ = largest_connected_component(g)
    ns = network_summary(g)
    print(ns.to_json())
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "network_summary.csv").write_text(ns.to_csv(), encoding="utf-8")
        (outdir / "network_summary.json").write_text(ns.to_json() + "\n", encoding="utf-8")
    return 0


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    changes = {}
    if getattr(args, "seed", None) is not None:
        changes["seed"] = args.seed
    if getattr(args, "scope", None):
        changes["scope"] = args.scope
    if getattr(args, "missing", None):
        changes["missing_policy"] = args.missing.replace("-", "_")
    if getattr(args, "family", None):
        changes["family"] = args.family
    if getattr(args, "out", None):
        changes["out"] = args.out
    return replace(config, **changes) if changes else config


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    report = run(config)
    print(
        json.dumps(
            {"out": str(report.outdir), "summary": report.summary}, sort_keys=True
        )
    )
    return 0


def _cmd_fit(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    report = run(config, with_gof=False)
    assert report.fit is not None
    print(report.fit.to_csv(), end="")
    return 0


def _cmd_gof(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    report = run(config)
    assert report.gof is not None
    print(report.gof.to_json())
    return 0


def _cmd_screen(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if config.family != "final":
        config = replace(config, family="final")
    report = run(config, with_gof=False)
    assert report.screen is not None
    print(report.screen.to_json())
    return 0


def _cmd_impute(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if config.missing_policy == "complete_case":
        raise ConfigError("impute needs missing_policy psm or missforest")
    _, attrs, ids = load_network(config.edges, config.attributes, load_schema(config.schema))
    targets = list(config.imputation_targets) or [
        c for c in attrs.names if attrs[c].missing_mask().any()
    ]
    attrs, diag = impute_attributes(attrs, targets, config)
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_attribute_csv(outdir / "attributes_completed.csv", attrs, ids)
    (outdir / "imputation.json").write_text(
        json.dumps({"method": config.missing_policy, "diagnostics": diag}, sort_keys=True, default=str)
        + "\n",
        encoding="utf-8",
    )
    print(json.dumps({"out": str(outdir), "imputed_columns": targets}, sort_keys=True))
    return 0


def _cmd_synth(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        spec = spec_from_dict(json.load(fh))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    g, attrs, mask, theta = generate(spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_edge_csv(outdir / "edges.csv", g)
    write_attribute_csv(outdir / "attributes.csv", attrs)
    truth = {
        "spec": spec_to_dict(spec),
        "theta": [float(v) for v in theta],
        "missing_counts": {k: int(v.sum()) for k, v in mask.masks.items()},
        "nodes": g.n,
        "edges": g.edge_count,
    }
    (outdir / "truth.json").write_text(
        json.dumps(truth, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    # a matching schema so the dataset can feed the pipeline directly
    write_schema(outdir / "schema.json", attrs)
    print(json.dumps({"out": str(outdir), "nodes": g.n, "edges": g.edge_count}, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verification

    ok = run_verification()
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergmkit",
        description="network statistics, node-attribute graph models, and imputation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="descriptive network statistics")
    p_stats.add_argument("--edges", required=True)
    p_stats.add_argument("--nodes", help="text file with one node id per line")
    p_stats.add_argument("--attributes", help="attribute CSV supplying the node list")
    p_stats.add_argument("--scope", choices=["full", "lcc"], default="full")
    p_stats.add_argument("--out")

    for name, helptext in [
        ("run", "full pipeline"),
        ("fit", "fit the configured model family"),
        ("gof", "goodness-of-fit for the configured model"),
        ("screen", "univariate screen of the final-model candidates"),
        ("impute", "impute missing attributes"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--scope", choices=["full", "lcc"])
        p.add_argument("--missing", choices=["complete-case", "psm", "missforest"])
        p.add_argument("--family", choices=["match", "factor", "mix", "final"])
        p.add_argument("--out")

    p_synth = sub.add_parser("synth", help="generate synthetic data")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--out", required=True)

    sub.add_parser("verify", help="run the exact-enumeration verification suite")

    args = parser.parse_args(argv)
    handlers = {
        "stats": _cmd_stats,
        "run": _cmd_run,
        "fit": _cmd_fit,
        "gof": _cmd_gof,
        "screen": _cmd_screen,
        "impute": _cmd_impute,
        "synth": _cmd_synth,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ErgmkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
