"""The README's JSON examples parse through the readers they document, and
its library example runs."""

from __future__ import annotations

import ast
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

import ergmkit
from ergmkit.dataio import ColumnSchema, Schema, load_schema, table_columns
from ergmkit.fit import GofRow, OrRow
from ergmkit.model import TERM_KINDS
from ergmkit.netstats import NetworkSummary
from ergmkit.pipeline import FitConfig, ImputationConfig, RunConfig, config_from_dict
from ergmkit.synth import CategoricalSpec, ContinuousSpec, MissingSpec, SynthSpec, spec_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def _load_schema(doc: dict, tmp_path: Path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    return load_schema(path)


# the README heading a json block sits under -> the reader of that format
READERS = {
    "Data formats": _load_schema,
    "Run configuration": lambda doc, tmp_path: config_from_dict(doc),
    "Synthetic data specification": lambda doc, tmp_path: spec_from_dict(doc),
}


# the README heading that documents a format -> the records its JSON objects are
# read as, and the keys read before the record (a term's kind, a column's type)
RECORDS = {
    "Data formats": ([Schema, ColumnSchema], ["type"]),
    "Run configuration": ([RunConfig, FitConfig, ImputationConfig, *TERM_KINDS.values()], ["term"]),
    "Synthetic data specification": (
        [SynthSpec, CategoricalSpec, ContinuousSpec, MissingSpec],
        ["type"],
    ),
}


def blocks(language: str) -> list[tuple[str, str]]:
    """(heading, text) of every fenced block in ``language``, under its nearest heading."""
    found, heading, block = [], None, None
    for line in README.read_text().splitlines(keepends=True):
        if block is not None:
            if line.startswith("```"):
                found.append((heading, "".join(block)))
                block = None
            else:
                block.append(line)
        elif line.startswith("#"):
            heading = line.lstrip("#").strip()
        elif line.strip() == f"```{language}":
            block = []
    return found


def section(name: str) -> str:
    """Text under the README heading ``name``, fenced blocks included, up to the next heading."""
    lines, inside, fenced = [], False, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif line.startswith("#") and not fenced:
            inside = line.lstrip("#").strip() == name
            continue
        if inside:
            lines.append(line)
    return "\n".join(lines)


def test_readme_has_every_format():
    assert sorted({h for h, _ in blocks("json")}) == sorted(READERS)


@pytest.mark.parametrize(
    "heading, text", [pytest.param(h, t, id=h) for h, t in blocks("json")]
)
def test_json_block_parses(heading, text, tmp_path):
    READERS[heading](json.loads(text), tmp_path)


@pytest.mark.parametrize("heading", sorted(RECORDS))
def test_every_key_is_documented(heading):
    """Each key a record's reader accepts is named, as "key" or `key`, in its section."""
    records, read_first = RECORDS[heading]
    keys = read_first + [f.name for cls in records for f in fields(cls) if "read" in f.metadata]
    text = section(heading)
    assert [k for k in keys if f'"{k}"' not in text and f"`{k}`" not in text] == []


def test_every_term_kind_and_mechanism_is_documented():
    assert [k for k in TERM_KINDS if f'"{k}"' not in section("Run configuration")] == []
    synth = section("Synthetic data specification")
    assert '"mcar"' in synth and '"mar"' in synth


@pytest.mark.parametrize("cls", [OrRow, GofRow, NetworkSummary], ids=lambda c: c.__name__)
def test_every_output_column_is_documented(cls):
    """A table's CSV header line, in column order, and each of its JSON keys,
    as `key`, are in the Outputs section."""
    text = section("Outputs")
    columns = table_columns(cls)
    header = ",".join(h for _, h, _ in columns)
    assert f"`{header}`" in text
    assert [k for _, _, k in columns if f"`{k}`" not in text] == []


def test_library_example_runs(capsys):
    (code,) = [text for heading, text in blocks("python") if heading == "Library use"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_public_api_is_the_documented_one():
    text = section("Library use")
    words = set(re.findall(r"\w+", text))
    assert [name for name in ergmkit.__all__ if name not in words] == []
    # a class name in backticks is one the package exports
    named = re.findall(r"`([A-Z]\w*[a-z]\w*)`", text)
    assert named and [name for name in named if name not in ergmkit.__all__] == []
    (code,) = [text for heading, text in blocks("python") if heading == "Library use"]
    imported = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "ergmkit"
        for alias in node.names
    ]
    assert imported and [name for name in imported if name not in ergmkit.__all__] == []
