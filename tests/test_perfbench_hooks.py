"""The repository benchmark's trace hooks must keep finding their targets.

``perfbench/layers.py`` wraps layer entry points by module and attribute
name.  A refactor that renames or moves one of them would silently drop
that layer's spans from the traced benchmark run, so every entry point is
checked here, and the frontend spans are checked end to end.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import repro.frontend
import repro.frontend.lexer
import repro.frontend.parser
from repro.frontend.parser import Parser, parse_source

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_entry_point_resolves(layers):
    for module_name, name, layer, _ in layers.FUNCTIONS:
        target = getattr(importlib.import_module(module_name), name, None)
        assert callable(target), f"{layer}: {module_name}.{name} is gone"


def test_every_method_entry_point_resolves(layers):
    for module_name, class_name, method, layer, _ in layers.METHODS:
        owner = getattr(importlib.import_module(module_name), class_name, None)
        assert owner is not None, f"{layer}: {module_name}.{class_name} is gone"
        assert callable(vars(owner).get(method)), f"{layer}: {class_name}.{method} is not defined on the class"


def test_frontend_spans_and_token_count(layers):
    originals = (repro.frontend.lexer.tokenize, repro.frontend.parser.tokenize, Parser.parse_translation_unit)
    tracer = layers.LayerTracer()
    with tracer.operation():
        assert repro.frontend.lexer.tokenize is not originals[0]
        assert repro.frontend.parser.tokenize is not originals[1]
        assert repro.frontend.tokenize is not originals[0]
        assert Parser.parse_translation_unit is not originals[2]
        parse_source("int f(int a)\n{\n    return a + 1;\n}\n", filename="t.c")
    layers_seen = {span.layer for span in tracer.traced_spans()}
    assert {"frontend.preprocess", "frontend.lex", "frontend.parse"} <= layers_seen
    assert tracer.counts["frontend.tokens"] == 14
    # Uninstalled: every entry point is the original again.
    assert (repro.frontend.lexer.tokenize, repro.frontend.parser.tokenize, Parser.parse_translation_unit) == originals
    assert repro.frontend.tokenize is originals[0]
