"""The benchmark tracer wraps package functions by module attribute name
(``perfbench/tracer.py`` ``SITES`` and ``COUNTED``), so renaming or moving
one of them breaks ``perfbench/run.py --trace 1``.  This catches that here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module,attr", sorted({site[:2] for site in
                                                tracer.SITES + tracer.COUNTED}))
def test_every_traced_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
