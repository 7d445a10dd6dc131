"""File formats: edge list CSV, node attribute CSV, and the schema sidecar.

Edge lists are two-column CSVs with a ``source,target`` header. Attribute
files put ids in the first column and one attribute per remaining column;
an empty cell is a missing value. The schema JSON declares each column
categorical (with level order) or continuous, plus optional recode maps
and reference levels/pairs used by the model builders. Reading applies the
recode maps, so every loaded categorical column is on its declared levels.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, UnmappedLabel
from .graph import (
    AttributeTable,
    CategoricalColumn,
    Graph,
    categorical,
    continuous,
    load_graph,
)


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str  # categorical | continuous
    levels: tuple[str, ...] = ()
    units: str = ""

    def __post_init__(self):
        if self.kind not in ("categorical", "continuous"):
            raise ConfigError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical" and not self.levels:
            raise ConfigError(f"column {self.name!r}: categorical needs levels")


@dataclass(frozen=True)
class Schema:
    columns: tuple[ColumnSchema, ...]
    recode: dict = field(default_factory=dict)  # column -> {raw: analysis level}
    reference_levels: dict = field(default_factory=dict)
    reference_pairs: dict = field(default_factory=dict)

    def column(self, name: str) -> ColumnSchema:
        for c in self.columns:
            if c.name == name:
                return c
        raise ConfigError(f"column {name!r} not declared in schema")


def load_schema(path) -> Schema:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    columns = []
    for name, c in raw.get("columns", {}).items():
        columns.append(
            ColumnSchema(
                name=name,
                kind=c.get("type", ""),
                levels=tuple(c.get("levels", ())),
                units=c.get("units", ""),
            )
        )
    pairs = {
        k: (v[0], v[1]) for k, v in raw.get("reference_pairs", {}).items()
    }
    stray = set(raw.get("recode", {})) - {c.name for c in columns if c.kind == "categorical"}
    if stray:
        raise ConfigError(f"recode maps for {sorted(stray)}: not declared categorical columns")
    return Schema(
        columns=tuple(columns),
        recode=raw.get("recode", {}),
        reference_levels=raw.get("reference_levels", {}),
        reference_pairs=pairs,
    )


def read_edge_csv(path) -> list[tuple[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["source", "target"]:
            raise DataError(f"{path}: edge CSV must start with a source,target header")
        out = []
        for row in reader:
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise DataError(f"{path}: edge row with fewer than two fields: {row!r}")
            out.append((row[0].strip(), row[1].strip()))
    return out


def read_attribute_csv(path) -> tuple[list[str], dict[str, list[str | None]]]:
    """Node ids (first column) and raw string values per attribute column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "id":
            raise DataError(f"{path}: attribute CSV must start with an id column")
        names = [h.strip() for h in header[1:]]
        ids: list[str] = []
        values: dict[str, list[str | None]] = {name: [] for name in names}
        for row in reader:
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {row!r} has {len(row)} fields, header {len(header)}")
            ids.append(row[0].strip())
            for name, cell in zip(names, row[1:]):
                cell = cell.strip()
                values[name].append(cell if cell != "" else None)
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate node ids")
    return ids, values


def attribute_table(values: dict[str, list[str | None]], schema: Schema) -> AttributeTable:
    """Typed table on the schema's declared levels.

    Continuous cells are parsed as floats. A categorical cell takes its
    column's ``recode`` target if the map has its label, else keeps the
    label if it is a declared level; any other label raises
    ``UnmappedLabel``, and a target that is not a declared level raises
    ``UnknownLevel``.
    """
    cols = []
    for cs in schema.columns:
        if cs.name not in values:
            raise DataError(f"attribute CSV lacks declared column {cs.name!r}")
        vals = values[cs.name]
        if cs.kind == "continuous":
            try:
                cols.append(
                    continuous(
                        cs.name,
                        [None if v is None else float(v) for v in vals],
                        cs.units,
                    )
                )
            except ValueError as exc:
                raise DataError(f"column {cs.name!r}: {exc}") from None
        else:
            mapping = {lev: lev for lev in cs.levels}
            mapping.update(schema.recode.get(cs.name, {}))
            try:
                labels = [None if v is None else mapping[v] for v in vals]
            except KeyError as exc:
                raise UnmappedLabel(
                    f"column {cs.name!r}: raw label {exc.args[0]!r} neither recoded "
                    f"nor a declared level"
                ) from None
            cols.append(categorical(cs.name, cs.levels, labels))
    return AttributeTable(cols)


def load_network(
    edge_path, attr_path, schema: Schema
) -> tuple[Graph, AttributeTable, list[str]]:
    """Graph plus attribute table on the schema's levels, aligned on file ids."""
    pairs = read_edge_csv(edge_path)
    ids, values = read_attribute_csv(attr_path)
    g = load_graph(pairs, ids)
    return g, attribute_table(values, schema), ids


def write_edge_csv(path, g: Graph, ids: list[str] | None = None) -> None:
    names = ids if ids is not None else [str(k) for k in range(g.n)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target"])
        for i, j in sorted(g.edges):
            writer.writerow([names[i], names[j]])


def write_attribute_csv(path, attrs: AttributeTable, ids: list[str] | None = None) -> None:
    names = ids if ids is not None else [str(k) for k in range(attrs.n)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + list(attrs.names))
        for row in range(attrs.n):
            cells = [names[row]]
            for col in attrs.columns():
                if isinstance(col, CategoricalColumn):
                    code = col.codes[row]
                    cells.append("" if code < 0 else col.levels[code])
                else:
                    v = col.values[row]
                    cells.append("" if np.isnan(v) else repr(float(v)))
            writer.writerow(cells)


def write_schema(path, attrs: AttributeTable) -> None:
    """Schema declaring the table's columns as they are.

    Each categorical column's reference level is its first level.
    """
    columns = {}
    refs = {}
    for col in attrs.columns():
        if isinstance(col, CategoricalColumn):
            columns[col.name] = {"type": "categorical", "levels": list(col.levels)}
            refs[col.name] = col.levels[0]
        else:
            columns[col.name] = {"type": "continuous", "units": col.units}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": columns, "reference_levels": refs}, fh, sort_keys=True, indent=2)
        fh.write("\n")
