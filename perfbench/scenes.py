"""Workload inputs for the cmfda benchmark, built from one seed.

Run as a script it writes one workload's inputs into a directory and a
``properties.json`` that records what the workload is made of:

    python3 perfbench/scenes.py --workload map-site --seed 7 --out DIR [--toy]

The runner times this script in a fresh interpreter, so the set-up time
covers importing cmfda, generating the scene and writing the inputs.
"""
from __future__ import annotations

import argparse
import datetime as dt
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("map-site", "train-site", "online-monitor")

WHY = {
    "map-site": "batch mapping of a 150-px sonora-like site: CSV read, 6-band fit, shipped and "
                "IVii-standardized detect, report; no training, no online loop",
    "train-site": "threshold training on two 40-px sites: annealing, grid search, CV and "
                  "repeated mahalanobis_series; read and fit are a small share",
    "online-monitor": "per-batch latency of the online loop on a 40-px site: many small "
                      "reads and writes of the state files and a refit per pixel per batch",
}

# Pixels kept per site by the workloads' subsets: every event pixel plus
# stable pixels picked by the seed up to this total.
MAP_PIXELS = 150
TRAIN_PIXELS = 40
ONLINE_PIXELS = 40
TOY_SUBSET_PIXELS = 24
TOY_EVENTS = 6
NOISE_SD = 0.02
N_EVENTS = 30
# The online loop monitors each of these years, up to the 120-day extension,
# with each rule: one stream per (year, rule).
MONITOR_YEARS = (2005, 2006)
ONLINE_RULES = ("multivariate", "mahalanobis")
EXTENSION_DAYS = 120
# A toy run keeps only the first batches of each monitored year.
TOY_BATCHES = 6


def _cmfda():
    if not (SRC / "cmfda" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cmfda sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cmfda.dataio as dataio

    return dataio


def _subset(site, labels, n_keep, seed, stream):
    """Every event pixel plus seed-chosen stable pixels, in site order."""
    import numpy as np

    positive = [i for i, label in enumerate(labels) if label.z]
    stable = [i for i, label in enumerate(labels) if not label.z]
    rng = np.random.default_rng([seed, stream])
    n_stable = max(0, n_keep - len(positive))
    chosen = rng.choice(len(stable), size=min(n_stable, len(stable)), replace=False)
    keep = sorted(positive + [stable[int(k)] for k in chosen])
    return [site.pixels[i] for i in keep], [labels[i] for i in keep]


def _event_dates(cfg) -> dict[str, str]:
    from cmfda.dataio import pixel_name

    return {
        pixel_name(cfg.site_id, col, row): event.date.isoformat()
        for event in cfg.events
        for col, row in event.pixels
    }


def _write(dataio, out: Path, name: str, sites) -> str:
    path = out / name
    dataio.write_series(path, sites)
    return name


def build(workload: str, seed: int, out: Path, toy: bool = False) -> dict:
    """Write the inputs of ``workload`` into ``out``; return its properties."""
    dataio = _cmfda()
    out.mkdir(parents=True, exist_ok=True)
    n_events = TOY_EVENTS if toy else N_EVENTS
    props: dict = {"workload": workload, "seed": seed, "toy": toy, "why": WHY[workload]}

    if workload == "map-site":
        cfg = dataio.sonora_like_config(seed=seed, noise_sd=NOISE_SD, n_events=n_events)
        site, labels = dataio.generate_site(cfg)
        pixels, labels = _subset(site, labels, TOY_SUBSET_PIXELS if toy else MAP_PIXELS, seed, 0)
        sites = {site.site_id: pixels}
        _write(dataio, out, "series.csv", sites)
        dataio.write_labels(out / "labels.csv", labels)
    elif workload == "train-site":
        n_keep = TOY_SUBSET_PIXELS if toy else TRAIN_PIXELS
        sites, all_labels = {}, []
        for stream, make in enumerate((dataio.sonora_like_config, dataio.yucatan_like_config)):
            cfg = make(seed=seed + stream, noise_sd=NOISE_SD, n_events=n_events)
            site, labels = dataio.generate_site(cfg)
            pixels, labels = _subset(site, labels, n_keep, seed, stream)
            sites[site.site_id] = pixels
            all_labels.extend(labels)
        labels = all_labels
        _write(dataio, out, "series.csv", sites)
        dataio.write_labels(out / "labels.csv", labels)
    elif workload == "online-monitor":
        cfg = dataio.sonora_like_config(
            seed=seed, noise_sd=NOISE_SD, n_events=n_events, event_years=MONITOR_YEARS
        )
        site, labels = dataio.generate_site(cfg)
        n_keep = TOY_SUBSET_PIXELS if toy else ONLINE_PIXELS
        pixels, labels = _subset(site, labels, n_keep, seed, 0)
        sites = {site.site_id: pixels}
        events = _event_dates(cfg)
        props["events"] = {p.pixel_id: events[p.pixel_id] for p in pixels if p.pixel_id in events}
        _write(dataio, out, "series.csv", sites)
        years = {}
        for year in MONITOR_YEARS:
            first = dt.date(year, 1, 1)
            last = dt.date(year, 12, 31) + dt.timedelta(days=EXTENSION_DAYS)
            history = {
                site.site_id: [
                    _replace_obs(p, [o for o in p.observations if o.nominal_date < first])
                    for p in pixels
                ]
            }
            dates = sorted(
                {o.nominal_date for p in pixels for o in p.observations if first <= o.nominal_date <= last}
            )
            if toy:
                dates = dates[:TOY_BATCHES]
            batches = []
            for date in dates:
                batch = {
                    site.site_id: [
                        _replace_obs(p, [o for o in p.observations if o.nominal_date == date])
                        for p in pixels
                    ]
                }
                batches.append(_write(dataio, out, f"batch_{year}_{date.isoformat()}.csv", batch))
            years[str(year)] = {
                "history": _write(dataio, out, f"history_{year}.csv", history),
                "batches": batches,
                "first": first.isoformat(),
                "last": last.isoformat(),
            }
        props["years"] = years
        props["batch_count"] = sum(len(y["batches"]) for y in years.values()) * len(ONLINE_RULES)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    props["sites"] = sorted(sites)
    props["pixels"] = sorted(p.pixel_id for ps in sites.values() for p in ps)
    props["n_pixels"] = len(props["pixels"])
    props["dates_per_pixel"] = max(len(p.observations) for ps in sites.values() for p in ps)
    props["input_mb"] = sum(f.stat().st_size for f in out.iterdir() if f.is_file()) / 1e6
    props.setdefault("batch_count", 0)
    (out / "properties.json").write_text(json.dumps(props, indent=1, sort_keys=True))
    return props


def _replace_obs(series, observations):
    return replace(series, observations=tuple(observations))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    build(args.workload, args.seed, Path(args.out), args.toy)
    return 0


if __name__ == "__main__":
    sys.exit(main())
