"""The benchmark tracer wraps cmfda functions at the names their callers look
up (``module.__dict__[name]``). A rename in ``src/`` would only break traced
benchmark runs, so this checks every name it patches still resolves."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
PATCHED = [entry[:2] for entry in tracing.LAYERS] + list(tracing.WORKER_BODIES)


@pytest.mark.parametrize("module_name, attr", PATCHED, ids=[f"{m}:{a}" for m, a in PATCHED])
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = owner.__dict__[part]
    assert name in owner.__dict__, f"{module_name}.{attr} is gone"
    assert callable(owner.__dict__[name])
