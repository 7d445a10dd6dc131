"""File formats: edge list CSV, node attribute CSV, the schema sidecar, and
the typed readers every JSON input goes through.

Edge lists are two-column CSVs with a ``source,target`` header. Attribute
files put ids in the first column and one attribute per remaining column;
an empty cell is a missing value. The schema JSON declares each column
categorical (with level order) or continuous, plus optional recode maps
and reference levels/pairs used by the model builders. Reading applies the
recode maps, so every loaded categorical column is on its declared levels.

The run config, the schema, the synth spec and the model terms are read
field by field with the readers below. A reader takes the field's dotted
path (``where``) and its decoded JSON value, and returns the value typed
or raises a ConfigError naming the field.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, dataclass, field, fields

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


def _wrong(where: str, expected: str, value) -> ConfigError:
    return ConfigError(f"config {where}: expected {expected}, got {value!r}")


def count(where: str, value) -> int:
    if type(value) not in (int, float) or value % 1 != 0:  # bool, text, fraction, inf, nan
        raise _wrong(where, "a whole number", value)
    return int(value)


def number(where: str, value) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise _wrong(where, "a finite number", value)
    return float(value)


def rate(where: str, value) -> float:
    if type(value) not in (int, float) or not 0 <= value <= 1:  # nan fails the comparison
        raise _wrong(where, "a number in [0, 1]", value)
    return float(value)


def flag(where: str, value) -> bool:
    if type(value) is not bool:
        raise _wrong(where, "true or false", value)
    return value


def text(where: str, value) -> str:
    if not isinstance(value, str):
        raise _wrong(where, "a string", value)
    return value


def names(where: str, value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise _wrong(where, "a list of strings", value)
    return tuple(value)


def level_pair(where: str, value) -> tuple[str, str]:
    if len(names(where, value)) != 2:
        raise _wrong(where, "a list of two strings", value)
    return (value[0], value[1])


def each(read):
    """Reader of a JSON list whose items ``read`` reads, item k named ``where[k]``."""

    def read_list(where: str, value) -> tuple:
        if not isinstance(value, list):
            raise _wrong(where, "a list", value)
        return tuple(read(f"{where}[{k}]", v) for k, v in enumerate(value))

    return read_list


def mapped(read):
    """Reader of a JSON object whose values ``read`` reads, each named ``where.key``."""

    def read_object(where: str, value) -> dict:
        return {k: read(f"{where}.{k}", v) for k, v in JsonObject(where, value).fields.items()}

    return read_object


def checked(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ConfigError from its own checks named ``where``."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"config {where}: {exc}") from None


def read_record(where: str, value, cls, readers: dict):
    """Dataclass ``cls`` from the JSON object at ``where``: each field in
    ``readers`` read by its reader, an absent one taking the class's default."""
    obj = JsonObject(where, value)
    defaults = {f.name: f.default for f in fields(cls)}
    return checked(where, cls, **{k: obj.get(k, read, defaults[k]) for k, read in readers.items()})


def record_dict(record) -> dict:
    """The fields of a dataclass as ``read_record`` reads them, tuples as lists."""
    values = {f.name: getattr(record, f.name) for f in fields(record)}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


class JsonObject:
    """A JSON object at path ``where`` ("" at the top level), read field by field."""

    def __init__(self, where: str, value):
        self.where = where
        if not isinstance(value, dict):
            raise _wrong(where or "top level", "an object", value)
        self.fields = value

    def get(self, key: str, read, default=MISSING):
        """``read`` of field ``key``; an absent field is ``default`` (required
        without one), and null is allowed only where the default is None."""
        if key not in self.fields:
            if default is MISSING:
                raise ConfigError(f"config {self.where or 'top level'}: missing key {key!r}")
            return default
        value = self.fields[key]
        if value is None and default is None:
            return None
        return read(self._path(key), value)

    def object(self, key: str) -> JsonObject:
        """Field ``key`` as a JsonObject; an absent field is an empty object."""
        return JsonObject(self._path(key), self.fields.get(key, {}))

    def _path(self, key: str) -> str:
        return f"{self.where}.{key}" if self.where else key


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
        if len(set(self.levels)) != len(self.levels):
            raise ConfigError(f"column {self.name!r}: duplicate levels {list(self.levels)}")


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
        raw = JsonObject("schema", json.load(fh))
    columns = tuple(
        ColumnSchema(
            name=name,
            kind=c.get("type", text),
            levels=c.get("levels", names, ()),
            units=c.get("units", text, ""),
        )
        for name, c in raw.get("columns", mapped(JsonObject), {}).items()
    )
    recode = raw.get("recode", mapped(mapped(text)), {})
    stray = set(recode) - {c.name for c in columns if c.kind == "categorical"}
    if stray:
        raise ConfigError(f"recode maps for {sorted(stray)}: not declared categorical columns")
    return Schema(
        columns=columns,
        recode=recode,
        reference_levels=raw.get("reference_levels", mapped(text), {}),
        reference_pairs=raw.get("reference_pairs", mapped(level_pair), {}),
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


def write_edge_csv(path, g: Graph) -> None:
    """Edges with node indices as ids, as ``write_attribute_csv`` writes without ids."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target"])
        for i, j in sorted(g.edges):
            writer.writerow([str(i), str(j)])


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
