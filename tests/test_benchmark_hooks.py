"""The benchmark's tracer must find every planner function it wraps.

planbench/tracing.py replaces functions by (module, attribute) name, so a
rename or removal in the planner would only show when a traced benchmark
round runs.  This test resolves every name up front.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "planbench" / "tracing.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("planbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WRAPS


def test_every_wrapped_name_resolves():
    missing = []
    for path, attr, _, _ in load_wraps():
        mod, _, cls = path.partition(".")
        target = importlib.import_module(f"pdrplan.{mod}")
        if cls:
            target = getattr(target, cls, None)
        if target is None or not callable(getattr(target, attr, None)):
            missing.append(f"{path}.{attr}")
    assert missing == []
