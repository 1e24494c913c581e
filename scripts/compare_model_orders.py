#!/usr/bin/env python3
"""Compare the default seasonal model against the inter-annual variant.

Fits both model orders to a synthetic pixel whose reflectance carries a
two-year cycle on top of the annual one, then reports training and
hold-out RMSE for three prediction variants: the 5-coefficient default,
the 7-coefficient model with the two-year pair zeroed at prediction, and
the 7-coefficient model with the pair retained.
"""
import numpy as np

from cmfda.core import YEAR_DAYS, Band
from cmfda.errors import InsufficientData
from cmfda.harmonic import fit_arrays, predict_many

# --- inter-annual variant -------------------------------------------------
#
# Adds a two-year harmonic pair on a continuous day axis. It exists for this
# comparison only; the pipeline always uses the 5-coefficient model.

N_COEFFS_INTERANNUAL = 7


def interannual_design_matrix(days_since_anchor: np.ndarray) -> np.ndarray:
    x = np.asarray(days_since_anchor, dtype=float)
    w = 2.0 * np.pi * x / YEAR_DAYS
    return np.column_stack(
        [
            np.ones_like(w),
            np.cos(w),
            np.sin(w),
            np.cos(w / 2.0),  # two-year cycle
            np.sin(w / 2.0),
            np.cos(2 * w),
            np.sin(2 * w),
        ]
    )


def fit_interannual(days_since_anchor: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of the 7-term inter-annual model."""
    x = np.asarray(days_since_anchor, dtype=float)
    if x.size < 2 * N_COEFFS_INTERANNUAL:
        raise InsufficientData(
            f"{x.size} observations, need {2 * N_COEFFS_INTERANNUAL}"
        )
    design = interannual_design_matrix(x)
    coeffs, *_ = np.linalg.lstsq(design, np.asarray(values, dtype=float), rcond=None)
    return coeffs


def predict_interannual(
    coeffs: np.ndarray,
    days_since_anchor: np.ndarray,
    keep_interannual: bool = True,
) -> np.ndarray:
    used = np.array(coeffs, dtype=float, copy=True)
    if not keep_interannual:
        used[3:5] = 0.0
    return interannual_design_matrix(days_since_anchor) @ used


def rmse(a, b):
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def main():
    rng = np.random.default_rng(3)
    days = np.arange(0, 1100, 16).astype(float)  # ~3 years of composites
    w = 2 * np.pi * days / 366.0
    signal = (
        0.42
        + 0.05 * np.cos(w)
        + 0.03 * np.sin(w)
        + 0.08 * np.cos(w / 2.0)     # strong two-year component
        + 0.01 * np.cos(2 * w)
    )
    noisy = signal + rng.normal(0, 0.01, size=days.size)

    # training on 1.7 years leaves the two-year regressor correlated with
    # the annual terms, the regime where zeroing it hurts most
    train = days < 620
    doys = (days % 366) + 1

    annual = fit_arrays(doys[train], noisy[train], band=Band.NIR)
    inter = fit_interannual(days[train], noisy[train])

    rows = [
        (
            "annual + semi-annual (default)",
            predict_many(annual.coeffs, doys[train]),
            predict_many(annual.coeffs, doys[~train]),
        ),
        (
            "inter-annual fitted, zeroed at prediction",
            predict_interannual(inter, days[train], keep_interannual=False),
            predict_interannual(inter, days[~train], keep_interannual=False),
        ),
        (
            "inter-annual fitted and retained",
            predict_interannual(inter, days[train], keep_interannual=True),
            predict_interannual(inter, days[~train], keep_interannual=True),
        ),
    ]
    print(f"{'variant':<45}{'train rmse':>12}{'holdout rmse':>14}")
    for name, fit_pred, holdout_pred in rows:
        print(
            f"{name:<45}{rmse(fit_pred, noisy[train]):>12.4f}"
            f"{rmse(holdout_pred, noisy[~train]):>14.4f}"
        )
    print(
        "\nZeroing a fitted two-year pair distorts predictions; the default "
        "5-coefficient model avoids that failure mode."
    )


if __name__ == "__main__":
    main()
