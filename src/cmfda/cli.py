"""Command-line driver: simulate, fit, detect, train, online, standardize,
report.

Every flag can also be supplied through a plain-text config file of
``key=value`` lines (keys are the long flag names without dashes);
command-line flags win over the file.
"""
from __future__ import annotations

import argparse
import datetime as dt
import glob
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .core import BAND_ORDER, Band
from .detection import (
    CubeCovarianceTable,
    DetectionResult,
    MahalanobisRule,
    MultivariateRule,
    UnivariateRule,
    estimate_cube_covariances,
    rule_bands,
)
from .harmonic import MIN_OBS, HarmonicModel
from .errors import (
    CmfdaError,
    DegenerateClass,
    InitOffGrid,
    OutOfRange,
    ParseError,
    TooFewPositives,
)
from . import dataio, pipeline, training
from .standardize import Scheme, fit_standardizer
from .training import AnnealConfig, ReportRow, TrainReport
from .windows import DateInterval, WindowPair, make_windows

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3

# Default thresholds of the shipped multivariate and index rules.
DEFAULT_NIR_THRESHOLD = 0.082
DEFAULT_NDVI_THRESHOLD = 0.182
DEFAULT_MAHALANOBIS_THRESHOLD = 11.72
DEFAULT_CONSECUTIVE = 4

DEFAULT_WINDOWS = "2003:5"
DEFAULT_CV_FOLDS = 5

DEFAULT_NIR_GRID = (0.01, 0.30, 0.01)
DEFAULT_NDVI_GRID = (0.01, 0.50, 0.01)
DEFAULT_MAHALANOBIS_GRID = (0.5, 30.0, 0.5)

# Consecutive counts every training run covers; the sweep re-applies C=3.
C_VALUES = (2, 3, 4, 5, 6)
PAIR_BANDS = (Band.NIR, Band.NDVI)

# The rule-specific flags `train` reads for each rule; any other is refused.
TRAIN_RULE_FLAGS = {
    "univariate": ("grid",),
    "multivariate": ("grid_nir", "grid_ndvi", "anneal_iters"),
    "mahalanobis": ("grid",),
}


class UsageError(Exception):
    pass


def threshold_grid(lo: float, hi: float, step: float) -> list[float]:
    n = int((hi - lo) / step + 1e-9) + 1
    return [round(lo + k * step, 10) for k in range(n)]


def parse_grid_spec(spec: str) -> list[float]:
    try:
        lo, hi, step = (float(part) for part in spec.split(":"))
    except ValueError:
        raise UsageError(f"bad grid spec {spec!r}; expected lo:hi:step") from None
    if step <= 0 or hi < lo or lo <= 0:
        raise UsageError(f"bad grid spec {spec!r}; thresholds must be positive")
    return threshold_grid(lo, hi, step)


def parse_windows_spec(spec: str) -> list[WindowPair]:
    try:
        first, _, count = spec.partition(":")
        return make_windows(int(first), int(count))
    except ValueError:
        raise UsageError(
            f"bad windows spec {spec!r}; expected FIRST_TRAIN_YEAR:N_WINDOWS"
        ) from None


def parse_scheme(code: str) -> Scheme:
    # "identity" spares quoting the literal "---" on the command line
    if code in ("identity", "none"):
        return Scheme.IDENTITY
    try:
        return Scheme.from_code(code)
    except CmfdaError as exc:
        raise UsageError(str(exc)) from None


def parse_band(name: str) -> Band:
    try:
        return Band[name.upper()]
    except KeyError:
        raise UsageError(
            f"unknown band {name!r}; choose from "
            + ", ".join(b.name.lower() for b in BAND_ORDER)
        ) from None


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise UsageError(f"{path}:{i}: expected key=value, got {line!r}")
            values[key.strip()] = value.strip()
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _str2bool(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


def build_parser(config: Optional[dict[str, str]] = None) -> _Parser:
    config = config or {}

    def add(sub, flag, *, type=str, default=None, action=None, **kw):
        key = flag.lstrip("-")
        if key in config:
            if action == "store_true":
                default = _str2bool(config[key])
                action = None
                sub.add_argument(flag, default=default, action="store_true", **kw)
                return
            default = type(config[key]) if type is not None else config[key]
        if action:
            sub.add_argument(flag, action=action, default=default, **kw)
        else:
            sub.add_argument(flag, type=type, default=default, **kw)

    parser = _Parser(prog="cmfda", description=__doc__)
    parser.add_argument("--config", help="key=value config file mirroring the flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rule_flags(p):
        add(p, "--rule", default="multivariate",
            help="univariate | multivariate | mahalanobis")
        add(p, "--band", default="nir", help="band for the univariate rule")
        add(p, "--L", type=float, default=None, help="univariate/mahalanobis threshold")
        add(p, "--L-nir", type=float, default=DEFAULT_NIR_THRESHOLD)
        add(p, "--L-ndvi", type=float, default=DEFAULT_NDVI_THRESHOLD)
        add(p, "--consec", type=int, default=DEFAULT_CONSECUTIVE)
        add(p, "--scheme", default=Scheme.IDENTITY.value,
            help="standardization scheme code")

    p = sub.add_parser("simulate", help="write a synthetic site (series + labels)")
    add(p, "--scenario", default="sonora-like", help="sonora-like | yucatan-like")
    add(p, "--out", required=True, help="output directory")
    add(p, "--seed", type=int, default=0)
    add(p, "--noise-sd", type=float, default=0.02)
    add(p, "--n-events", type=int, default=30)
    add(p, "--first-year", type=int, default=2003)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit harmonic models per training window")
    add(p, "--series", required=True)
    add(p, "--out", required=True, help="output directory for model files")
    add(p, "--windows", default=DEFAULT_WINDOWS)
    add(p, "--bands", default=",".join(b.name.lower() for b in BAND_ORDER))
    add(p, "--min-obs", type=int, default=None)
    add(p, "--threads", type=int, default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("detect", help="apply a fixed rule to a series")
    add(p, "--series", required=True)
    add(p, "--models", required=True, help="directory of models_*.csv files")
    add(p, "--out", required=True, help="detections file")
    add_rule_flags(p)
    add(p, "--standardizer", action="append", default=None,
        help="fitted standardizer file (repeat per band)")
    add(p, "--threads", type=int, default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("train", help="optimize thresholds against labels")
    add(p, "--series", required=True)
    add(p, "--labels", required=True)
    add(p, "--out", required=True, help="report file (csv); .txt written beside it")
    add(p, "--rule", default="multivariate")
    add(p, "--band", default="nir")
    add(p, "--windows", default=DEFAULT_WINDOWS)
    add(p, "--grid", default=None, help="lo:hi:step (univariate/mahalanobis)")
    add(p, "--grid-nir", default=None, help="lo:hi:step for the NIR threshold")
    add(p, "--grid-ndvi", default=None, help="lo:hi:step for the NDVI threshold")
    add(p, "--scheme", default=Scheme.IDENTITY.value)
    add(p, "--cv-folds", type=int, default=DEFAULT_CV_FOLDS)
    add(p, "--seed", type=int, default=0)
    add(p, "--anneal-iters", type=int, default=None, help="total annealing steps")
    add(p, "--sweep-fixed", action="store_true",
        help="also sweep the C=3 optimum across C=2..6")
    add(p, "--threads", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("standardize", help="fit and save a standardizer")
    add(p, "--series", required=True)
    add(p, "--models", required=True)
    add(p, "--scheme", required=True)
    add(p, "--band", required=True)
    add(p, "--out", required=True)
    p.set_defaults(func=cmd_standardize)

    p = sub.add_parser("online", help="incremental monitoring loop")
    add(p, "--state", required=True, help="state directory")
    add(p, "--init", action="store_true", help="initialize state from --series")
    add(p, "--series", default=None, help="historical series (with --init)")
    add(p, "--monitor-year", type=int, default=None)
    add(p, "--batch", default=None, help="series file holding one new nominal date")
    add(p, "--out", default=None, help="detections file for this batch")
    add_rule_flags(p)
    p.set_defaults(func=cmd_online)

    p = sub.add_parser("report", help="evaluate a detections file against labels")
    add(p, "--detections", required=True)
    add(p, "--labels", required=True)
    add(p, "--out", default=None, help="write the summary here instead of stdout")
    p.set_defaults(func=cmd_report)

    return parser


# --- shared helpers ----------------------------------------------------------


def _threads(args) -> int:
    n = getattr(args, "threads", None)
    return n if n and n > 0 else pipeline.default_workers()


def _load_model_dir(models_dir: str):
    paths = sorted(glob.glob(os.path.join(models_dir, "models_*.csv")))
    if not paths:
        raise UsageError(f"no models_*.csv files in {models_dir!r}")
    windows = []
    fit = pipeline.FitResult(models={})
    for index, path in enumerate(paths):
        train, models = dataio.load_models(path)
        window = make_windows(train.start.year, 1)[0]
        if window.train != train:
            raise ParseError(
                f"{path}: training window {train.start}..{train.end} is not the two "
                f"calendar years {window.train.start}..{window.train.end}"
            )
        windows.append(replace(window, index=index))
        fit.models[index] = models
    return windows, fit


def _window_tag(window: WindowPair) -> str:
    return f"{window.train.start.year}_{window.train.end.year}"


def _fit_sites(sites, windows, bands, *, workers: int, min_obs: int = MIN_OBS):
    """Fit every site's pixels and merge the per-site results."""
    merged = pipeline.FitResult(models={wp.index: {} for wp in windows})
    for pixels in sites.values():
        fit = pipeline.fit_pixels(pixels, windows, bands, min_obs=min_obs, workers=workers)
        for index, table in fit.models.items():
            merged.models[index].update(table)
        merged.skipped.extend(fit.skipped)
    return merged


def _residual_histories(sites, fit, windows, bands):
    histories = {band: [] for band in bands}
    for site_id, pixels in sites.items():
        per_site = pipeline.training_residuals(pixels, fit, windows, bands, site_id)
        for band in bands:
            histories[band].extend(per_site[band])
    return histories


def _cube_covariances(sites, fit, windows) -> CubeCovarianceTable:
    """Cube covariances of the sites' NIR/NDVI training residuals."""
    histories = _residual_histories(sites, fit, windows, PAIR_BANDS)
    return estimate_cube_covariances(pipeline.paired_residual_records(histories))


def _build_rule(args, covariances: Optional[CubeCovarianceTable] = None):
    kind = args.rule
    consec = args.consec
    try:
        if kind == "univariate":
            if args.L is None:
                raise UsageError("--L is required for the univariate rule")
            return UnivariateRule(parse_band(args.band), args.L, consec)
        if kind == "multivariate":
            if args.L is not None:
                raise UsageError("--L conflicts with the multivariate rule; use --L-nir/--L-ndvi")
            return MultivariateRule(args.L_nir, args.L_ndvi, consec)
        if kind == "mahalanobis":
            threshold = args.L if args.L is not None else DEFAULT_MAHALANOBIS_THRESHOLD
            if covariances is None:
                raise UsageError("mahalanobis rule needs covariance history")
            return MahalanobisRule(threshold, covariances, consec)
    except OutOfRange as exc:
        raise UsageError(str(exc)) from None
    raise UsageError(f"unknown rule {kind!r}")


def _rule_meta(rule, scheme_code: str) -> dict[str, str]:
    if isinstance(rule, UnivariateRule):
        meta = {
            "rule": "univariate",
            "band": rule.band.name,
            "L": dataio.real(rule.threshold),
        }
    elif isinstance(rule, MultivariateRule):
        meta = {
            "rule": "multivariate",
            "L_nir": dataio.real(rule.nir_threshold),
            "L_ndvi": dataio.real(rule.ndvi_threshold),
        }
    else:
        meta = {"rule": "mahalanobis", "L": dataio.real(rule.threshold)}
    meta["C"] = str(rule.consecutive)
    meta["scheme"] = scheme_code
    return meta


def _rule_thresholds(rule) -> tuple[float, ...]:
    if isinstance(rule, MultivariateRule):
        return (rule.nir_threshold, rule.ndvi_threshold)
    return (rule.threshold,)


# --- subcommands ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    builders = {
        "sonora-like": dataio.sonora_like_config,
        "yucatan-like": dataio.yucatan_like_config,
    }
    if args.scenario not in builders:
        raise UsageError(f"unknown scenario {args.scenario!r}")
    cfg = builders[args.scenario](
        seed=args.seed,
        noise_sd=args.noise_sd,
        n_events=args.n_events,
        first_year=args.first_year,
    )
    site, labels = dataio.generate_site(cfg)
    os.makedirs(args.out, exist_ok=True)
    series_path = os.path.join(args.out, "series.csv")
    labels_path = os.path.join(args.out, "labels.csv")
    dataio.write_series(series_path, {site.site_id: site.pixels})
    dataio.write_labels(labels_path, labels)
    print(
        f"wrote {series_path} and {labels_path}: site {site.site_id}, "
        f"{len(site.pixels)} pixels, {sum(l.z for l in labels)} deforested"
    )
    return EXIT_OK


def cmd_fit(args) -> int:
    sites = dataio.read_series(args.series)
    windows = parse_windows_spec(args.windows)
    bands = tuple(parse_band(b) for b in args.bands.split(","))
    os.makedirs(args.out, exist_ok=True)
    merged = _fit_sites(
        sites, windows, bands, workers=_threads(args), min_obs=args.min_obs or MIN_OBS
    )
    n_models = 0
    for wp in windows:
        path = os.path.join(args.out, f"models_{_window_tag(wp)}.csv")
        dataio.save_models(path, merged.models[wp.index], wp.train)
        n_models += len(merged.models[wp.index])
    report_path = os.path.join(args.out, "fit_report.txt")
    with open(report_path, "w") as fh:
        fh.write(f"fitted {n_models} models over {len(windows)} windows\n")
        fh.write(f"skipped {len(merged.skipped)} (pixel, window, band) fits\n")
        for skip in merged.skipped:
            fh.write(
                f"skip {skip.pixel_id} window={skip.window_index} "
                f"band={skip.band.name} reason={skip.reason}\n"
            )
    print(f"fitted {n_models} models; skipped {len(merged.skipped)}; report: {report_path}")
    return EXIT_OK


def _standardizers_for(args, sites, fit, windows, bands):
    scheme = parse_scheme(args.scheme)
    loaded = {}
    if getattr(args, "standardizer", None):
        for path in args.standardizer:
            std = dataio.load_standardizer(path)
            loaded[std.band] = std
        return loaded
    if scheme is Scheme.IDENTITY:
        return {}
    histories = _residual_histories(sites, fit, windows, bands)
    return {
        band: fit_standardizer(histories[band], scheme, band) for band in bands
    }


def cmd_detect(args) -> int:
    sites = dataio.read_series(args.series)
    windows, fit = _load_model_dir(args.models)
    covariances = _cube_covariances(sites, fit, windows) if args.rule == "mahalanobis" else None
    rule = _build_rule(args, covariances)
    standardizers = _standardizers_for(args, sites, fit, windows, rule_bands(rule))
    results = []
    skipped = []
    for site_id, pixels in sites.items():
        site_results, site_skipped = pipeline.detect_pixels(
            pixels, fit, rule, windows, site_id,
            standardizers=standardizers or None, workers=_threads(args),
        )
        results.extend(site_results)
        skipped.extend(site_skipped)
    meta = _rule_meta(rule, args.scheme)
    meta["skipped"] = str(len(skipped))
    dataio.write_detections(args.out, results, meta)
    if skipped:
        with open(args.out + ".skipped.txt", "w") as fh:
            fh.write("\n".join(skipped) + "\n")
    n_flagged = sum(r.flagged for r in results)
    print(
        f"wrote {args.out}: {n_flagged} of {len(results)} pixels flagged "
        f"({len(skipped)} skipped); rule " + " ".join(f"{k}={v}" for k, v in meta.items())
    )
    return EXIT_OK


def _accuracy_cells(counts) -> tuple[Optional[float], Optional[float]]:
    try:
        return training.accuracies(counts)
    except DegenerateClass:
        return None, None


def _cv_or_none(dataset, trainer, folds, seed):
    try:
        return training.cross_validate(dataset, trainer, k=folds, seed=seed)
    except (TooFewPositives, DegenerateClass):
        return None


def _grid(spec: Optional[str], default: tuple[float, float, float]) -> list[float]:
    return parse_grid_spec(spec) if spec else threshold_grid(*default)


def _check_train_flags(args) -> None:
    if args.rule not in TRAIN_RULE_FLAGS:
        raise UsageError(f"unknown rule {args.rule!r}")
    for flag in ("grid", "grid_nir", "grid_ndvi", "anneal_iters"):
        if getattr(args, flag) is not None and flag not in TRAIN_RULE_FLAGS[args.rule]:
            option = "--" + flag.replace("_", "-")
            raise UsageError(f"{option} does not apply to the {args.rule} rule")


def _trainer(args, band: Optional[Band], grids, covariances):
    """The rule's trainer: (C, dataset) -> (rule, train TSS)."""
    if args.rule == "univariate":
        (grid,) = grids

        def train(c, dataset):
            best_l, best_tss = training.grid_search_univariate(dataset, band, c, grid)
            return UnivariateRule(band, best_l, c), best_tss

    elif args.rule == "mahalanobis":
        (grid,) = grids

        def train(c, dataset):
            best_l, best_tss = training.grid_search_mahalanobis(dataset, covariances, c, grid)
            return MahalanobisRule(best_l, covariances, c), best_tss

    else:
        nir_grid, ndvi_grid = grids
        config = AnnealConfig()
        if args.anneal_iters:
            config = AnnealConfig(
                steps_per_temp=max(1, args.anneal_iters // config.temp_levels)
            )

        def train(c, dataset):
            init = (
                _anneal_start(dataset, Band.NIR, c, nir_grid),
                _anneal_start(dataset, Band.NDVI, c, ndvi_grid),
            )
            (l_nir, l_ndvi), best_tss = training.anneal_multivariate(
                dataset, c, nir_grid, ndvi_grid, init, config, args.seed
            )
            return MultivariateRule(l_nir, l_ndvi, c), best_tss

    return train


def cmd_train(args) -> int:
    _check_train_flags(args)
    windows = parse_windows_spec(args.windows)
    band, bands = None, PAIR_BANDS
    if args.rule == "univariate":
        band = parse_band(args.band)
        bands = (band,)
        grids = [_grid(args.grid, DEFAULT_NIR_GRID if band is Band.NIR else DEFAULT_NDVI_GRID)]
    elif args.rule == "mahalanobis":
        grids = [_grid(args.grid, DEFAULT_MAHALANOBIS_GRID)]
    else:
        grids = [_grid(args.grid_nir, DEFAULT_NIR_GRID), _grid(args.grid_ndvi, DEFAULT_NDVI_GRID)]

    sites = dataio.read_series(args.series)
    labels = {l.pixel_id: l.z for l in dataio.read_labels(args.labels)}
    fit = _fit_sites(sites, windows, bands, workers=_threads(args))
    standardizers = _standardizers_for(args, sites, fit, windows, bands)
    datasets = {
        site_id: pipeline.build_training_dataset(
            pixels, fit, windows, labels, site_id, bands, standardizers
        )[0]
        for site_id, pixels in sites.items()
    }
    pooled = [p for dataset in datasets.values() for p in dataset]
    covariances = _cube_covariances(sites, fit, windows) if args.rule == "mahalanobis" else None
    train = _trainer(args, band, grids, covariances)

    # univariate thresholds are trained per site, the pair rules on all pixels
    scopes = datasets if args.rule == "univariate" else {"all": pooled}
    rows: list[ReportRow] = []
    trained = {}
    for scope, dataset in scopes.items():
        for c in C_VALUES:
            rule, train_tss = train(c, dataset)
            cv = _cv_or_none(
                dataset, lambda fold, c=c: train(c, fold)[0], args.cv_folds, args.seed
            )
            rows.append(
                ReportRow(
                    scope=scope, consecutive=c, thresholds=_rule_thresholds(rule),
                    train_tss=train_tss,
                    cv_tss=cv.tss_mean if cv else None,
                    producer_acc=cv.producer_acc if cv else None,
                    user_acc=cv.user_acc if cv else None,
                )
            )
            trained[scope, c] = rule, train_tss

    if args.rule == "multivariate":
        # the pooled optimum over C, scored on each site alone
        best_rule, _ = max((trained["all", c] for c in C_VALUES), key=lambda pair: pair[1])
        for site_id, dataset in datasets.items():
            counts = training.evaluate_rule(dataset, best_rule)
            try:
                site_tss = training.tss(counts)
            except DegenerateClass:
                site_tss = None
            producer, user = _accuracy_cells(counts)
            rows.append(
                ReportRow(
                    scope=site_id, consecutive=best_rule.consecutive,
                    thresholds=_rule_thresholds(best_rule),
                    train_tss=site_tss, cv_tss=None,
                    producer_acc=producer, user_acc=user,
                )
            )

    if args.sweep_fixed:
        for scope, dataset in scopes.items():
            fixed, _ = trained[scope, 3]
            for sweep in training.sweep_fixed(dataset, fixed, C_VALUES):
                rows.append(
                    ReportRow(
                        scope=f"{scope}:fixed-L(C=3)", consecutive=sweep.consecutive,
                        thresholds=_rule_thresholds(fixed),
                        train_tss=sweep.tss, cv_tss=None,
                        producer_acc=sweep.producer_acc, user_acc=sweep.user_acc,
                    )
                )

    report = TrainReport(rule_kind=args.rule, band=band, rows=tuple(rows))
    dataio.write_report(args.out, report)
    text = dataio.format_report_text(report)
    text_path = os.path.splitext(args.out)[0] + ".txt"
    with open(text_path, "w") as fh:
        fh.write(text)
    print(text, end="")
    print(f"wrote {args.out} and {text_path}")
    return EXIT_OK


def _anneal_start(dataset, band, consecutive, grid) -> float:
    """The annealing start point: the grid point nearest the average of the
    per-site optimal thresholds."""
    by_site: dict[str, list] = {}
    for p in dataset:
        by_site.setdefault(p.site_id, []).append(p)
    optima = []
    for site_pixels in by_site.values():
        try:
            best_l, _ = training.grid_search_univariate(site_pixels, band, consecutive, grid)
        except DegenerateClass:
            continue
        optima.append(best_l)
    if not optima:
        return grid[len(grid) // 2]
    average = sum(optima) / len(optima)
    return min(grid, key=lambda g: abs(g - average))


def cmd_standardize(args) -> int:
    sites = dataio.read_series(args.series)
    windows, fit = _load_model_dir(args.models)
    band = parse_band(args.band)
    scheme = parse_scheme(args.scheme)
    histories = _residual_histories(sites, fit, windows, (band,))
    std = fit_standardizer(histories[band], scheme, band)
    dataio.save_standardizer(args.out, std)
    print(
        f"wrote {args.out}: scheme {scheme.value}, band {band.name}, "
        f"{len(histories[band])} history records"
    )
    return EXIT_OK


# --- online state -----------------------------------------------------------


def _online_paths(state_dir: str) -> dict[str, str]:
    return {
        "config": os.path.join(state_dir, "config.txt"),
        "history": os.path.join(state_dir, "history.csv"),
        "flagged": os.path.join(state_dir, "flagged.csv"),
        "models": os.path.join(state_dir, "models_online.csv"),
        "covariances": os.path.join(state_dir, "covariances.csv"),
    }


def _write_online_config(path: str, values: dict[str, str]) -> None:
    with open(path, "w") as fh:
        for key, value in values.items():
            fh.write(f"{key}={value}\n")


def cmd_online(args) -> int:
    if parse_scheme(args.scheme) is not Scheme.IDENTITY:
        raise UsageError("online monitoring supports only the identity scheme")
    paths = _online_paths(args.state)
    if args.init:
        if not args.series or args.monitor_year is None:
            raise UsageError("--init needs --series and --monitor-year")
        os.makedirs(args.state, exist_ok=True)
        sites = dataio.read_series(args.series)
        dataio.write_series(paths["history"], sites)
        dataio.write_detections(paths["flagged"], [], {"state": "online"})
        config = {
            "monitor-year": str(args.monitor_year),
            "rule": args.rule,
            "band": args.band,
            "consec": str(args.consec),
            "L": "" if args.L is None else dataio.real(args.L),
            "L-nir": dataio.real(args.L_nir),
            "L-ndvi": dataio.real(args.L_ndvi),
        }
        if args.rule == "mahalanobis":
            windows = make_windows(args.monitor_year - 2, 1)
            fit = _fit_sites(sites, windows, PAIR_BANDS, workers=1)
            dataio.save_covariances(paths["covariances"], _cube_covariances(sites, fit, windows))
        _write_online_config(paths["config"], config)
        print(f"initialized online state in {args.state} (monitoring {args.monitor_year})")
        return EXIT_OK

    if not args.batch or not args.out:
        raise UsageError("online step needs --batch and --out (or --init)")
    config = load_config_file(paths["config"])
    monitor_year = int(config["monitor-year"])
    covariances = None
    if config["rule"] == "mahalanobis":
        covariances = dataio.load_covariances(paths["covariances"])
    rule_args = argparse.Namespace(
        rule=config["rule"],
        band=config.get("band", "nir"),
        L=float(config["L"]) if config.get("L") else None,
        L_nir=float(config["L-nir"]),
        L_ndvi=float(config["L-ndvi"]),
        consec=int(config["consec"]),
    )
    rule = _build_rule(rule_args, covariances)

    history = dataio.read_series(paths["history"])
    batch = dataio.read_series(args.batch)
    _, previously = dataio.read_detections(paths["flagged"])
    flagged = {r.pixel_id: r.first_flag_date for r in previously}

    batch_dates = {
        obs.nominal_date
        for pixels in batch.values()
        for series in pixels
        for obs in series.observations
    }
    if len(batch_dates) != 1:
        raise UsageError("a batch must hold exactly one nominal date")
    batch_date = batch_dates.pop()

    merged: dict[str, list] = {}
    newly: dict[str, dt.date] = {}
    models: dict[tuple[str, Band], HarmonicModel] = {}
    for site_id in set(history) | set(batch):
        by_pixel = {p.pixel_id: p for p in history.get(site_id, [])}
        for piece in batch.get(site_id, []):
            existing = by_pixel.get(piece.pixel_id)
            if existing is None:
                by_pixel[piece.pixel_id] = piece
            else:
                by_pixel[piece.pixel_id] = replace(
                    existing, observations=existing.observations + piece.observations
                )
        merged[site_id] = list(by_pixel.values())
        outcome = pipeline.online_process_batch(
            pipeline.compact_pixels(merged[site_id]),
            batch_date, rule, monitor_year, flagged, site_id=site_id,
        )
        newly.update(outcome.newly_flagged)
        models.update(outcome.models)

    dataio.write_series(paths["history"], merged)
    results = [
        DetectionResult(pid, True, date, None)
        for pid, date in sorted({**flagged, **newly}.items())
    ]
    dataio.write_detections(paths["flagged"], results, {"state": "online"})
    if models:
        train_window = DateInterval(
            batch_date - dt.timedelta(days=731 + 16 * rule.consecutive), batch_date
        )
        dataio.save_models(paths["models"], models, train_window)
    batch_results = [
        DetectionResult(pid, True, date, None) for pid, date in sorted(newly.items())
    ]
    dataio.write_detections(
        args.out, batch_results, {"batch": batch_date.isoformat(), "new_flags": str(len(newly))}
    )
    print(f"batch {batch_date}: {len(newly)} new flags, {len(flagged) + len(newly)} total")
    return EXIT_OK


def cmd_report(args) -> int:
    _, results = dataio.read_detections(args.detections)
    labels = {l.pixel_id: l.z for l in dataio.read_labels(args.labels)}
    preds = {r.pixel_id: int(r.flagged) for r in results}
    counts = training.confusion(preds, labels)
    lines = [
        f"pixels: {counts.n}",
        f"confusion: hits={counts.s} misses={counts.t} "
        f"correct_rejections={counts.u} false_alarms={counts.v}",
    ]
    try:
        lines.append(f"tss: {training.tss(counts):.4f}")
    except DegenerateClass:
        lines.append("tss: undefined (single observed class)")
    try:
        producer, user = training.accuracies(counts)
        lines.append(f"producer_acc: {producer:.4f}")
        lines.append("user_acc: " + (f"{user:.4f}" if user is not None else "undefined (no flags)"))
    except DegenerateClass:
        lines.append("producer_acc: undefined (no observed positives)")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config = {}
    try:
        if "--config" in argv:
            config = load_config_file(argv[argv.index("--config") + 1])
        else:
            for item in argv:
                if item.startswith("--config="):
                    config = load_config_file(item.split("=", 1)[1])
        parser = build_parser(config)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)
    except UsageError as exc:
        print(f"cmfda: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateClass, TooFewPositives, InitOffGrid) as exc:
        print(f"cmfda: degenerate training input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (CmfdaError, OSError) as exc:
        print(f"cmfda: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
