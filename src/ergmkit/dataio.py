"""File formats: edge list CSV, node attribute CSV, the schema sidecar, the
typed readers every JSON input goes through, and the writers of every
output table.

Edge lists are two-column CSVs with a ``source,target`` header. Attribute
files put ids in the first column and one attribute per remaining column;
an empty cell is a missing value. The schema JSON declares each column
categorical (with level order) or continuous, plus optional recode maps
and reference levels/pairs used by the model builders. Reading applies the
recode maps, so every loaded categorical column is on its declared levels.

The run config, the schema, the synth spec and the model terms are
dataclasses read by ``read_record``. Each field that JSON sets is a
``setting``: its reader and its default are declared once, on the field.
A reader takes the field's dotted path (``where``) and its decoded JSON
value, and returns the value typed or raises a ConfigError naming the
field. A key that no reader reads is an error too, so a misspelt setting
cannot silently take its default.

An output table's rows are dataclasses too: each field written is a
``column``, which declares its CSV header and JSON key, and ``table_csv``
and ``table_json`` write the rows from those declarations.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

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
        raise ConfigError(f"config {where or 'top level'}: {exc}") from None


def setting(read, default=MISSING, *, factory=MISSING):
    """A dataclass field that ``read_record`` reads from the JSON key of its
    name with ``read``. ``default`` or ``factory`` is its value when the key
    is absent, as in ``dataclasses.field``; without either the key is required."""
    return field(default=default, default_factory=factory, metadata={"read": read})


def read_record(obj: JsonObject, cls, **given):
    """Dataclass ``cls`` from a JSON object: every ``setting`` field not in
    ``given`` read by its reader, an absent one taking its default, and no
    other key than those and the ones already read."""
    settings = [f for f in fields(cls) if "read" in f.metadata and f.name not in given]
    obj.close(*(f.name for f in settings))
    for f in settings:
        default = f.default if f.default_factory is MISSING else f.default_factory()
        given[f.name] = obj.get(f.name, f.metadata["read"], default)
    return checked(obj.where, cls, **given)


def record(cls):
    """Reader of a JSON object as the dataclass ``cls`` (``read_record``)."""
    return lambda where, value: read_record(JsonObject(where, value), cls)


def record_dict(rec) -> dict:
    """The fields of a dataclass as ``read_record`` reads them, tuples as lists."""
    values = {f.name: getattr(rec, f.name) for f in fields(rec)}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def column(csv: str | None = None, json: str | None = None):
    """A row dataclass field that ``table_csv`` heads ``csv`` and
    ``table_json`` keys ``json``, each the field's name when not given."""
    return field(metadata={"csv": csv, "json": json})


def table_columns(cls) -> list[tuple[str, str, str]]:
    """(field name, CSV header, JSON key) of each ``column`` field of ``cls``, in order."""
    return [
        (f.name, f.metadata["csv"] or f.name, f.metadata["json"] or f.name)
        for f in fields(cls)
        if "csv" in f.metadata
    ]


def csv_text(header, rows) -> str:
    """A header line and one line per row. A cell is quoted only when it
    holds a comma, a double quote or a newline; None is an empty cell and a
    float is written as its repr."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def table_csv(cls, rows) -> str:
    """``rows``, instances of the dataclass ``cls``, as CSV: one column per
    ``column`` field, headed even when there are no rows."""
    columns = table_columns(cls)
    return csv_text(
        [header for _, header, _ in columns],
        ([getattr(r, name) for name, _, _ in columns] for r in rows),
    )


def table_json(cls, rows) -> list[dict]:
    """``rows``, instances of the dataclass ``cls``, as JSON objects keyed by
    their ``column`` fields' JSON keys."""
    columns = table_columns(cls)
    return [{key: getattr(r, name) for name, _, key in columns} for r in rows]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    return obj


def json_text(obj, indent: int | None = None) -> str:
    """``obj`` as JSON (RFC 8259) with sorted keys: numpy scalars and arrays
    written as numbers and lists, and a NaN or an infinity as null."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=indent, allow_nan=False)


def write_json(path, obj) -> None:
    """``obj`` as ``json_text`` indented by 2."""
    Path(path).write_text(json_text(obj, indent=2) + "\n", encoding="utf-8")


def write_result(outdir: Path, name: str, result) -> None:
    """A result's table as ``name.csv`` and its JSON document, on one line,
    as ``name.json``."""
    (outdir / f"{name}.csv").write_text(result.to_csv(), encoding="utf-8")
    (outdir / f"{name}.json").write_text(result.to_json() + "\n", encoding="utf-8")


class JsonObject:
    """A JSON object at path ``where`` ("" at the top level), read field by
    field; ``close`` rejects the keys no field read asked for."""

    def __init__(self, where: str, value):
        self.where = where
        if not isinstance(value, dict):
            raise _wrong(where or "top level", "an object", value)
        self.fields = value
        self.read: set[str] = set()

    def get(self, key: str, read, default=MISSING):
        """``read`` of field ``key``; an absent field is ``default`` (required
        without one), and null is allowed only where the default is None."""
        self.read.add(key)
        if key not in self.fields:
            if default is MISSING:
                raise ConfigError(f"config {self.where or 'top level'}: missing key {key!r}")
            return default
        value = self.fields[key]
        if value is None and default is None:
            return None
        return read(self._path(key), value)

    def close(self, *expected: str) -> None:
        """Raise a ConfigError naming the first key neither read nor ``expected``."""
        for key in self.fields:
            if key not in self.read and key not in expected:
                raise ConfigError(f"config {self.where or 'top level'}: unknown key {key!r}")

    def _path(self, key: str) -> str:
        return f"{self.where}.{key}" if self.where else key


@dataclass(frozen=True)
class ColumnSchema:
    name: str  # the column's key in the schema's ``columns``
    kind: str  # categorical | continuous, its "type"
    levels: tuple[str, ...] = setting(names, ())
    units: str = setting(text, "")

    def __post_init__(self):
        if self.kind not in ("categorical", "continuous"):
            raise ConfigError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical" and not self.levels:
            raise ConfigError(f"column {self.name!r}: categorical needs levels")
        if len(set(self.levels)) != len(self.levels):
            raise ConfigError(f"column {self.name!r}: duplicate levels {list(self.levels)}")
        if any("\r" in t for t in (self.name, *self.levels)):
            # csv_text quotes a newline, not a carriage return
            raise ConfigError(f"column {self.name!r}: a name or level holds a carriage return")


def _columns(where: str, value) -> tuple[ColumnSchema, ...]:
    return tuple(
        read_record(c, ColumnSchema, name=name, kind=c.get("type", text))
        for name, c in mapped(JsonObject)(where, value).items()
    )


@dataclass(frozen=True)
class Schema:
    columns: tuple[ColumnSchema, ...] = setting(_columns, ())
    recode: dict = setting(mapped(mapped(text)), factory=dict)  # column -> {raw: analysis level}
    reference_levels: dict = setting(mapped(text), factory=dict)
    reference_pairs: dict = setting(mapped(level_pair), factory=dict)

    def column(self, name: str) -> ColumnSchema:
        for c in self.columns:
            if c.name == name:
                return c
        raise ConfigError(f"column {name!r} not declared in schema")


def _check_references(key: str, references: dict, columns: tuple[ColumnSchema, ...]) -> None:
    """Each entry of ``reference_levels`` or ``reference_pairs`` is for a
    declared categorical column and names only its declared levels."""
    declared = {c.name: c for c in columns}
    for name, ref in references.items():
        where = f"config schema.{key}.{name}"
        if name not in declared:
            raise ConfigError(f"{where}: column {name!r} is not declared")
        if declared[name].kind != "categorical":
            raise ConfigError(f"{where}: column {name!r} is not categorical")
        for level in (ref,) if isinstance(ref, str) else ref:
            if level not in declared[name].levels:
                raise ConfigError(f"{where}: {level!r} is not a level of {name!r}")


def load_schema(path) -> Schema:
    with open(path, encoding="utf-8") as fh:
        schema = read_record(JsonObject("schema", json.load(fh)), Schema)
    stray = set(schema.recode) - {c.name for c in schema.columns if c.kind == "categorical"}
    if stray:
        raise ConfigError(f"recode maps for {sorted(stray)}: not declared categorical columns")
    _check_references("reference_levels", schema.reference_levels, schema.columns)
    _check_references("reference_pairs", schema.reference_pairs, schema.columns)
    return schema


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
        repeated = next((h for k, h in enumerate(names) if h in names[:k]), None)
        if repeated is not None:
            raise DataError(f"{path}: column {repeated!r} appears more than once in the header")
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
    if any("\r" in i for i in ids):  # csv_text quotes a newline, not a carriage return
        raise DataError(f"{path}: a node id holds a carriage return")
    return ids, values


def attribute_table(
    values: dict[str, list[str | None]], schema: Schema, ids: list[str]
) -> AttributeTable:
    """Typed table on the schema's declared levels.

    A continuous cell must parse as a finite float; any other text, NaN
    or an infinity raises ``DataError`` naming the node. A categorical
    cell takes its column's ``recode`` target if the map has its label,
    else keeps the label if it is a declared level; any other label
    raises ``UnmappedLabel``, and a target that is not a declared level
    raises ``UnknownLevel``.
    """
    cols = []
    for cs in schema.columns:
        if cs.name not in values:
            raise DataError(f"attribute CSV lacks declared column {cs.name!r}")
        vals = values[cs.name]
        if cs.kind == "continuous":
            parsed = []
            for node, cell in zip(ids, vals):
                try:
                    v = None if cell is None else float(cell)
                except ValueError:
                    v = math.nan
                if v is not None and not math.isfinite(v):
                    raise DataError(f"column {cs.name!r}: node {node!r} has {cell!r}, not a finite number")
                parsed.append(v)
            cols.append(continuous(cs.name, parsed, cs.units))
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
    return g, attribute_table(values, schema, ids), ids


def write_edge_csv(path, g: Graph) -> None:
    """Edges with node indices as ids, as ``write_attribute_csv`` writes without ids."""
    rows = ([str(i), str(j)] for i, j in sorted(g.edges))
    Path(path).write_text(csv_text(["source", "target"], rows), encoding="utf-8")


def write_attribute_csv(path, attrs: AttributeTable, ids: list[str] | None = None) -> None:
    names = ids if ids is not None else [str(k) for k in range(attrs.n)]
    rows = []
    for row in range(attrs.n):
        cells = [names[row]]
        for col in attrs.columns():
            if isinstance(col, CategoricalColumn):
                code = col.codes[row]
                cells.append("" if code < 0 else col.levels[code])
            else:
                v = col.values[row]
                cells.append("" if np.isnan(v) else repr(float(v)))
        rows.append(cells)
    Path(path).write_text(csv_text(["id", *attrs.names], rows), encoding="utf-8")


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
    write_json(path, {"columns": columns, "reference_levels": refs})
