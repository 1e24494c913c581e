#!/usr/bin/env python3
"""Sweep the 17 error-standardization schemes on a two-site scene.

Two synthetic sites with different noise scales get a shared multivariate
threshold (trained by annealing on the pooled data, C=4) after each
standardization scheme. The table reports pooled, worst-site, and average
training tss per scheme, mirroring the worst-site / average comparison
used to judge whether any scheme beats leaving the errors alone.
"""
import numpy as np

from cmfda.core import Band, ResidualHistory
from cmfda.dataio import BandSignal, sonora_like_config, yucatan_like_config, generate_site
from cmfda.pipeline import (
    build_training_dataset,
    compact_pixels,
    fit_pixels,
    training_residuals,
)
from cmfda.standardize import SCHEME_STAGES, Scheme, fit_standardizer
from cmfda.training import AnnealConfig, TrainingSet, anneal_multivariate, evaluate_rule, tss
from cmfda.detection import MultivariateRule
from cmfda.windows import make_windows

CONSECUTIVE = 4
ANNEAL = AnnealConfig(initial_temp=1.0, cooling=0.8, steps_per_temp=80, temp_levels=5)


def scaled(cfg, factor):
    signals = {
        band: BandSignal(sig.coeffs, sig.noise_sd * factor)
        for band, sig in cfg.signals.items()
    }
    return type(cfg)(**{**cfg.__dict__, "signals": signals})


def site_data(cfg, keep_clean=120):
    site, labels = generate_site(cfg)
    label_map = {l.pixel_id: l.z for l in labels}
    events = [p for p in site.pixels if label_map[p.pixel_id]]
    clean = [p for p in site.pixels if not label_map[p.pixel_id]][:keep_clean]
    return site.site_id, compact_pixels(events + clean), label_map


def main():
    windows = make_windows(2003, 2)
    sites = [
        site_data(sonora_like_config(seed=2, noise_sd=0.02, n_events=15,
                                     event_years=(2005, 2006))),
        site_data(scaled(yucatan_like_config(seed=4, noise_sd=0.02, n_events=15,
                                             event_years=(2005, 2006)), 2.5)),
    ]
    bands = (Band.NIR, Band.NDVI)
    fits = {}
    per_site = []
    for site_id, pixels, _ in sites:
        fits[site_id] = fit_pixels(pixels, windows, bands)
        per_site.append(training_residuals(pixels, fits[site_id], windows, bands, site_id))
    histories = {band: ResidualHistory.concat([h[band] for h in per_site]) for band in bands}

    raw_grids = (
        [round(0.02 * k, 4) for k in range(1, 16)],
        [round(0.03 * k, 4) for k in range(1, 16)],
    )
    sd_grid = [round(0.5 * k, 4) for k in range(1, 25)]       # sd-scaled errors
    ecdf_grid = [round(0.04 * k, 4) for k in range(1, 13)]    # bounded by 0.5

    print(f"{'scheme':<8}{'pooled tss':>12}{'worst site':>12}{'average':>10}")
    for scheme in Scheme:
        standardizers = (
            None
            if scheme is Scheme.IDENTITY
            else {b: fit_standardizer(histories[b], scheme, b) for b in bands}
        )
        datasets = {}
        for site_id, pixels, label_map in sites:
            dataset, _ = build_training_dataset(
                pixels, fits[site_id], windows, label_map, site_id, bands, standardizers
            )
            datasets[site_id] = dataset
        pooled = TrainingSet.concat(datasets.values())
        stages = SCHEME_STAGES[scheme]
        if not stages:
            grids = raw_grids
        elif stages[-1][1] == "ecdf":
            grids = (ecdf_grid, ecdf_grid)
        else:
            grids = (sd_grid, sd_grid)
        (l_nir, l_ndvi), pooled_tss = anneal_multivariate(
            pooled, CONSECUTIVE, grids[0], grids[1],
            (grids[0][len(grids[0]) // 2], grids[1][len(grids[1]) // 2]),
            ANNEAL, seed=0,
        )
        rule = MultivariateRule(l_nir, l_ndvi, CONSECUTIVE)
        per_site = [tss(evaluate_rule(d, rule)) for d in datasets.values()]
        print(
            f"{scheme.value:<8}{pooled_tss:>12.3f}{min(per_site):>12.3f}"
            f"{np.mean(per_site):>10.3f}"
        )


if __name__ == "__main__":
    main()
