"""The README's JSON examples parse through the readers they document."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ergmkit.dataio import load_schema
from ergmkit.pipeline import config_from_dict
from ergmkit.synth import spec_from_dict

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


def json_blocks() -> list[tuple[str, str]]:
    """(heading, text) of every fenced json block, under its nearest heading."""
    blocks, heading, block = [], None, None
    for line in README.read_text().splitlines(keepends=True):
        if block is not None:
            if line.startswith("```"):
                blocks.append((heading, "".join(block)))
                block = None
            else:
                block.append(line)
        elif line.startswith("#"):
            heading = line.lstrip("#").strip()
        elif line.strip() == "```json":
            block = []
    return blocks


def test_readme_has_every_format():
    assert sorted({h for h, _ in json_blocks()}) == sorted(READERS)


@pytest.mark.parametrize(
    "heading, text", [pytest.param(h, t, id=h) for h, t in json_blocks()]
)
def test_json_block_parses(heading, text, tmp_path):
    READERS[heading](json.loads(text), tmp_path)
