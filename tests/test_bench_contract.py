"""The names the benchmark tracer wraps exist on the ``takagi`` modules.

`bench/tracer.py` wraps functions by name from outside the package, so a
rename under ``src/`` would only show up when the benchmark runs.  The layer
table is read from the tracer's source; nothing under ``bench/`` is imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS table in %s" % TRACER)


def test_every_traced_name_exists():
    layers = _layers()
    assert "intpoly" in layers and "littlewood" in layers
    missing = []
    for layer, names in layers.items():
        module = importlib.import_module("takagi." + layer)
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append("%s.%s" % (layer, name))
    assert not missing
