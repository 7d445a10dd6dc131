"""The benchmark's tracer names only functions and methods that exist.

``perfbench/spans.py`` wraps each ``(module, attr)`` of its ``BOUNDARIES``
by name, so renaming or deleting one of them breaks ``--trace 1`` runs.
The file is loaded by path and only read: no tracer is installed.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def boundaries() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.BOUNDARIES]


@pytest.mark.parametrize("module_name, attr", boundaries(), ids=lambda v: v)
def test_traced_boundary_resolves(module_name, attr):
    owner = importlib.import_module(f"ergmkit.{module_name}")
    for part in attr.split("."):
        found = getattr(owner, part, None)
        # a class that loses its own __init__ still inherits object's
        assert found is not None and found is not getattr(object, part, None), (
            f"ergmkit.{module_name} defines no {attr}"
        )
        owner = found
    assert callable(owner)
