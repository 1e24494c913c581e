"""The scripts under ``scripts/`` do their work under ``__main__``, so
importing one runs only its imports: a renamed or removed cmfda name that
a script imports fails here rather than when someone next runs it. The
model-order comparison, which holds the inter-annual model, also runs."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[path.stem for path in SCRIPTS])
def test_script_imports(path):
    assert callable(getattr(_load(path), "main", None))


compare_model_orders = _load(SCRIPTS_DIR / "compare_model_orders.py")


def test_interannual_variant_reproduces_two_year_cycle():
    days = np.arange(0, 731, 16).astype(float)
    w = 2 * np.pi * days / 366.0
    signal = 0.4 + 0.05 * np.cos(w) + 0.02 * np.cos(w / 2.0)
    coeffs = compare_model_orders.fit_interannual(days, signal)
    kept = compare_model_orders.predict_interannual(coeffs, days, keep_interannual=True)
    np.testing.assert_allclose(kept, signal, atol=1e-8)
    dropped = compare_model_orders.predict_interannual(coeffs, days, keep_interannual=False)
    assert np.max(np.abs(dropped - signal)) > 0.005


def test_compare_model_orders_runs(capsys):
    """The three variants' rows, the retained inter-annual model the best on
    hold-out dates."""
    compare_model_orders.main()
    rows = {}
    for line in capsys.readouterr().out.splitlines()[1:4]:
        name, train, holdout = line.rsplit(maxsplit=2)
        rows[name] = float(train), float(holdout)
    assert list(rows) == [
        "annual + semi-annual (default)",
        "inter-annual fitted, zeroed at prediction",
        "inter-annual fitted and retained",
    ]
    holdout = {name: rmse for name, (_, rmse) in rows.items()}
    assert min(holdout, key=holdout.get) == "inter-annual fitted and retained"
    assert holdout["inter-annual fitted and retained"] == pytest.approx(0.0115, abs=5e-5)
