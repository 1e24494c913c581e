"""Per-pixel harmonic reflectance model.

The seasonal signal of one band at one pixel is modelled as

    value(d) = a0 + a1*cos(2*pi*d/366) + b1*sin(2*pi*d/366)
                  + a2*cos(4*pi*d/366) + b2*sin(4*pi*d/366)

where d is the composite day of the year. Coefficients are fitted by
ordinary least squares over the clear observations of a training window:
fit_batch fits many (pixel, band) series in one call, fit_arrays one.
A ModelTable holds the fitted models of fit_batch, of a model file and of
an online step, one row per model.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import Band, YEAR_DAYS
from .errors import InsufficientData, OutOfRangeDay, RankDeficient

N_COEFFS = 5

# At least 2x the parameter count; a two-year window holds at most 46 dates.
MIN_OBS = 12

# Reciprocal condition number below this aborts a fit (clustered composite
# days under heavy cloud can make the normal equations singular).
RCOND_MIN = 1e-10

_TWO_PI = 2.0 * math.pi


def design_matrix(doys: np.ndarray) -> np.ndarray:
    """Design rows of composite days: shape ``doys.shape + (5,)``."""
    doys = np.asarray(doys, dtype=float)
    if doys.size and (doys.min() < 1 or doys.max() > YEAR_DAYS):
        raise OutOfRangeDay("day of year outside 1..366")
    w = _TWO_PI * doys / YEAR_DAYS
    return np.stack(
        [np.ones_like(w), np.cos(w), np.sin(w), np.cos(2 * w), np.sin(2 * w)], axis=-1
    )


# Composite days are integers, so every design row comes from one table.
_DESIGN_ROWS = design_matrix(np.arange(1, YEAR_DAYS + 1))


def design_rows(doys: np.ndarray) -> np.ndarray:
    """Design rows of integer composite days: shape ``doys.shape + (5,)``."""
    doys = np.asarray(doys)
    if doys.size and (doys.min() < 1 or doys.max() > YEAR_DAYS):
        raise OutOfRangeDay(f"day of year outside 1..{YEAR_DAYS}")
    return _DESIGN_ROWS[doys - 1]


@dataclass(frozen=True, slots=True)
class HarmonicModel:
    """Fitted coefficients for one (pixel, band) over one training window."""

    band: Band
    pixel_id: str
    coeffs: tuple[float, float, float, float, float]
    train_window: tuple[dt.date, dt.date]
    n_obs: int


def fit_arrays(
    doys: np.ndarray,
    values: np.ndarray,
    *,
    band: Band,
    pixel_id: str = "",
    train_window: tuple[dt.date, dt.date] = (dt.date.min, dt.date.max),
) -> HarmonicModel:
    """OLS fit on prepared (composite doy, value) arrays.

    Solves the normal equations with a Cholesky factorization; a 5x5
    system does not warrant anything fancier.
    """
    doys = np.asarray(doys, dtype=float)
    values = np.asarray(values, dtype=float)
    if doys.size < MIN_OBS:
        raise InsufficientData(
            f"pixel {pixel_id!r} band {band.name}: {doys.size} clear observations, "
            f"need {MIN_OBS}"
        )
    design = design_matrix(doys)
    ata = design.T @ design
    eigs = np.linalg.eigvalsh(ata)
    if eigs[0] <= 0 or eigs[0] / eigs[-1] < RCOND_MIN:
        raise RankDeficient(
            f"pixel {pixel_id!r} band {band.name}: normal equations singular "
            f"(rcond ~ {max(eigs[0], 0.0) / eigs[-1]:.2e})"
        )
    aty = design.T @ values
    chol = np.linalg.cholesky(ata)
    coeffs = np.linalg.solve(chol.T, np.linalg.solve(chol, aty))
    return HarmonicModel(
        band=band,
        pixel_id=pixel_id,
        coeffs=tuple(float(c) for c in coeffs),
        train_window=train_window,
        n_obs=int(doys.size),
    )


# Status of one fit in a BatchFit: FIT_OK, or k + 1 for the failure
# FIT_FAILURES[k] that fit_arrays would raise.
FIT_OK = 0
FIT_FAILURES = (InsufficientData, RankDeficient)
_INSUFFICIENT = 1 + FIT_FAILURES.index(InsufficientData)
_RANK_DEFICIENT = 1 + FIT_FAILURES.index(RankDeficient)


class BatchFit(NamedTuple):
    """The fits of one fit_batch call, per (group, band)."""

    coeffs: np.ndarray   # (n, b, 5); NaN where the fit failed
    n_obs: np.ndarray    # (n, b)
    status: np.ndarray   # (n, b) int8


# Date columns per block of fit_batch. A two-year window holds at most 46
# dates, so its fits take one block.
FIT_WIDTH = 48

# Groups per Gram product in fit_batch; keeps its Z under 1 MB.
_GROUP_CHUNK = 64


def fit_batch(doys: np.ndarray, values: np.ndarray, mask: np.ndarray) -> BatchFit:
    """OLS fits of many series at once, with the checks of fit_arrays.

    A group is one pixel's dates in one training window: ``doys`` (n, w)
    holds their integer composite days (their design rows are looked up a
    few groups at a time), ``values`` (n, w, b) their values in b bands and
    ``mask`` (n, w, b) the dates each band's fit uses.

    Each fit's normal equations come from one Gram matrix Z Zᵀ (_gram).
    It has the same shape for every fit, and blocks of a longer w are added
    in order, so a fit's sums do not depend on the other groups or on w.
    Then come the ``MIN_OBS`` check, one batched ``eigvalsh`` condition
    check and batched Cholesky solves: each distinct normal matrix is
    factored and its factor inverted once, and bands of a group with equal
    normal matrices share them.
    """
    n, width, n_bands = mask.shape
    fits = n * n_bands
    gram = np.empty((n, n_bands, N_COEFFS + 1, N_COEFFS + 1))
    for lo in range(0, n, _GROUP_CHUNK):
        part = slice(lo, lo + _GROUP_CHUNK)
        gram[part] = _gram(design_rows(doys[part]), values[part], mask[part])
    ata = gram[:, :, :N_COEFFS, :N_COEFFS].reshape(n, n_bands, N_COEFFS * N_COEFFS)
    aty = gram[:, :, :N_COEFFS, N_COEFFS].reshape(fits, N_COEFFS, 1)
    del gram

    n_obs = mask.sum(axis=1)
    status = np.where(n_obs < MIN_OBS, _INSUFFICIENT, FIT_OK).astype(np.int8).reshape(-1)
    index = np.arange(fits).reshape(n, n_bands)
    shared = (ata == ata[:, :1]).all(axis=-1)
    source = np.where(shared, index[:, :1], index).reshape(-1)
    ata = ata.reshape(fits, N_COEFFS, N_COEFFS)
    own = np.flatnonzero((source == index.reshape(-1)) & (status == FIT_OK))
    if own.size:
        eigs = np.linalg.eigvalsh(ata[own])
        singular = ~(eigs[:, 0] > 0)
        singular[~singular] = eigs[~singular, 0] / eigs[~singular, -1] < RCOND_MIN
        status[own[singular]] = _RANK_DEFICIENT
        own = own[~singular]
    status = status[source]     # equal matrices: equal n_obs, equal outcome
    coeffs = np.full((fits, N_COEFFS), np.nan)
    fitted = np.flatnonzero(status == FIT_OK)
    if fitted.size:
        # A = L Lᵀ, so the coefficients are L⁻ᵀ (L⁻¹ Aᵀy)
        factor_row = np.empty(fits, dtype=np.intp)
        factor_row[own] = np.arange(own.size)
        inverse = np.linalg.inv(np.linalg.cholesky(ata[own]))[factor_row[source[fitted]]]
        coeffs[fitted] = (np.swapaxes(inverse, 1, 2) @ (inverse @ aty[fitted]))[:, :, 0]
    return BatchFit(coeffs.reshape(n, n_bands, N_COEFFS), n_obs, status.reshape(n, n_bands))


@dataclass(frozen=True, eq=False)
class ModelTable:
    """Fitted models as the rows of a model file: row i fits band code
    ``bands[i]`` (int8) of pixel ``pixel_ids[i]`` on ``n_obs[i]`` (int64)
    dates of the training ordinals ``train[i]`` (first, last). Of two rows
    of a (pixel, band), the later serves."""

    pixel_ids: list[str]
    bands: np.ndarray
    coeffs: np.ndarray   # (n, 5)
    n_obs: np.ndarray
    train: np.ndarray    # (n, 2)

    def __len__(self) -> int:
        return len(self.pixel_ids)

    @classmethod
    def of_fits(cls, fits: BatchFit, pixel_ids: Sequence[str], bands: Sequence[Band],
                train) -> ModelTable:
        """The fitted (group, band)s of ``fits``, group by group: group k is
        pixel ``pixel_ids[k]`` over the training ordinals ``train[k]``, or
        ``train`` when it is one pair; j indexes ``bands``."""
        ks, js = np.nonzero(fits.status == FIT_OK)
        train = np.broadcast_to(np.asarray(train, dtype=np.int64), (len(fits.status), 2))
        return cls([pixel_ids[k] for k in ks.tolist()], np.array(bands, dtype=np.int8)[js],
                   fits.coeffs[ks, js], fits.n_obs[ks, js].astype(np.int64), train[ks])

    @classmethod
    def concat(cls, tables: Sequence[ModelTable]) -> ModelTable:
        """The rows of ``tables``, table by table."""
        tables = [cls([], np.empty(0, np.int8), np.empty((0, N_COEFFS)),
                      np.empty(0, np.int64), np.empty((0, 2), np.int64)), *tables]
        return cls([pixel_id for table in tables for pixel_id in table.pixel_ids], *(
            np.concatenate([getattr(table, name) for table in tables])
            for name in ("bands", "coeffs", "n_obs", "train")))


def _gram(design: np.ndarray, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Z Zᵀ (n, b, 6, 6) for each fit of a few groups: the rows of Z (6,
    FIT_WIDTH) are the design columns and the values, zero on the dates
    the fit does not use, so Z Zᵀ holds AᵀA and Aᵀy."""
    n, width, n_bands = mask.shape
    gram = np.zeros((n, n_bands, N_COEFFS + 1, N_COEFFS + 1))
    z = np.empty((n, n_bands, N_COEFFS + 1, FIT_WIDTH))
    for lo in range(0, width, FIT_WIDTH):
        span = min(FIT_WIDTH, width - lo)
        used = np.moveaxis(mask[:, lo:lo + span], 1, 2)
        np.multiply(
            np.moveaxis(design[:, lo:lo + span], 1, 2)[:, None],
            used[:, :, None],
            out=z[:, :, :N_COEFFS, :span],
        )
        z[:, :, N_COEFFS, :span] = np.where(used, np.moveaxis(values[:, lo:lo + span], 1, 2), 0.0)
        z[:, :, :, span:] = 0.0
        gram += z @ np.swapaxes(z, 2, 3)
    return gram


def predict_many(coeffs: np.ndarray, doys: np.ndarray) -> np.ndarray:
    """Predictions at many composite days: ``coeffs`` is one (5,) model or
    one model per day, (..., 5). Integer days read the design table, which
    holds the same values design_matrix computes.

    Each prediction is its own row sum, so its bits do not depend on the
    other days of the call (a matrix product may block them differently).
    """
    doys = np.asarray(doys)
    design = design_rows(doys) if np.issubdtype(doys.dtype, np.integer) else design_matrix(doys)
    return (design * np.asarray(coeffs)).sum(axis=-1)
