"""The benchmark's tracer wraps library functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = _load_tracer()
    missing = [
        f"{tracer.PACKAGE}.{mod}.{name}"
        for mod, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"{tracer.PACKAGE}.{mod}"), name, None))
    ]
    assert missing == []
