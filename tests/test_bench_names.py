"""The benchmark's tracer wraps functions by name: every traced name must still exist.

``perfbench/tracing.py`` reads a per-layer metric ``<layer>.<function>.<metric>``
from the spans of the public function of that name. A renamed or deleted
function leaves no span, and its metric then reads 0 without any error.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# deleted from the package with their metrics left in the tracer's table
KNOWN_GONE = {"linalg.embed_apply", "linalg.reduced_density", "linalg.product_state"}


def _load_tracing(monkeypatch):
    """The tracer module, executed from its path without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_name_is_a_public_function(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    stages = {f"protocol.stage.{s}_ms" for s in tracing.STAGES}
    named = {
        key.rsplit(".", 1)[0]
        for key in tracing.UNITS
        if key.count(".") == 2 and key.split(".")[0] in tracing.LAYERS and key not in stages
    }
    assert "protocol.v_of_p" in named and "cli.main" in named
    missing = set()
    for name in named:
        layer, function = name.split(".")
        module = importlib.import_module(f"quditclone.{layer}")
        fn = getattr(module, function, None)
        # the tracer wraps only public functions defined in the layer itself
        if function.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            missing.add(name)
    assert missing == KNOWN_GONE
