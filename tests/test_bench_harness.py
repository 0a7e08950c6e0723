"""The benchmark's tracer wraps arczeta names given as strings in its LAYERS
table; a name it cannot find breaks every traced run, so each must resolve."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers():
    """LAYERS of perfbench/tracing.py, read without importing the file as a
    module (nothing is cached or written next to it)."""
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_name_resolves():
    missing = []
    for layer, (modname, names) in traced_layers().items():
        module = importlib.import_module("arczeta." + modname)
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                found = attr in vars(getattr(module, cls_name, object))
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append("%s: arczeta.%s.%s" % (layer, modname, name))
    assert not missing
