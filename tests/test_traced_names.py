"""The benchmark's traced functions must exist, or its per-layer metrics silently read zero."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_holosim_callable():
    traced = load_tracer().TRACED
    assert traced
    missing = [f"{module}.{name}" for module, name, _ in traced
               if not callable(getattr(importlib.import_module(f"holosim.{module}"), name, None))]
    assert missing == []
