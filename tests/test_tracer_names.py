"""The benchmark's span tracer finds every entry point it wraps.

`perfbench/spans.py` names the traced functions by module and attribute
in `LAYERS`; a rename in `ordsel` would make a traced benchmark run fail
at install time.  The module imports only the standard library, so it is
loaded here by path."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_entry_point_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    missing = [
        f"{modname}.{fname}"
        for modname, fname, _, _ in spans.LAYERS
        if not callable(getattr(importlib.import_module(modname), fname, None))
    ]
    assert missing == []
