"""Every function the benchmark's ``--trace 1`` spans wrap must still be
found where ``perfbench/spans.py`` looks for it; a refactor that moves one
fails here rather than only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("mod_name, attr", _traced())
def test_traced_binding_resolves(mod_name, attr):
    # Resolve the entry exactly as Tracer.install does.
    module = importlib.import_module(f"toruschar.{mod_name}")
    owner_name, _, member = attr.rpartition(".")
    if owner_name:
        raw = vars(getattr(module, owner_name))[member]
    else:
        raw = vars(module)[member]
    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
    assert callable(fn)
