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

import numpy as np

from .core import BAND_ORDER, Band, ResidualHistory
from .detection import (
    CubeCovarianceTable,
    DetectionResult,
    MahalanobisRule,
    MultivariateRule,
    UnivariateRule,
    estimate_cube_covariances,
    rule_bands,
)
from .harmonic import HarmonicModel
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
    "univariate": ("band", "grid"),
    "multivariate": ("grid_nir", "grid_ndvi", "anneal_iters"),
    "mahalanobis": ("grid",),
}
# The same for `detect` and `online --init`, whose rule flags default to
# the shipped rule below.
RULE_FLAGS = {
    "univariate": ("band", "L"),
    "multivariate": ("L_nir", "L_ndvi"),
    "mahalanobis": ("L",),
}
RULE_DEFAULTS = {
    "rule": "multivariate",
    "band": "nir",
    "L_nir": DEFAULT_NIR_THRESHOLD,
    "L_ndvi": DEFAULT_NDVI_THRESHOLD,
    "consec": DEFAULT_CONSECUTIVE,
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


def _read_config(path: str, fault=UsageError) -> dict[str, tuple[str, int]]:
    """A config file's ``key=value`` lines as key -> (value, line number);
    a later line wins over an earlier one with the same key. A line
    without ``=`` or not UTF-8 text raises ``fault``, naming the file and
    the line."""
    entries: dict[str, tuple[str, int]] = {}
    try:
        with open(path, encoding=dataio.ENCODING) as fh:
            for i, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = line.partition("=")
                if not eq:
                    raise fault(f"{path}:{i}: expected key=value, got {line!r}")
                entries[key.strip()] = (value.strip(), i)
    except UnicodeDecodeError:
        raise fault(f"{path}:{dataio.undecodable_line(path)}: not {dataio.ENCODING} text") from None
    return entries


def load_config_file(path: str) -> dict[str, str]:
    return {key: value for key, (value, _) in _read_config(path).items()}


THREADS_HELP = (
    "threads over pixel slices of %d pixels; a smaller site runs on one "
    "(default: the CPU count)" % pipeline.SLICE_PIXELS
)


def _thread_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise UsageError(f"--threads must be at least 1, got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _str2bool(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


# Each subcommand's arguments; ``add`` adds a flag whose default a config
# file may set.


def _add_rule_flags(add):
    # None marks a flag not given; RULE_DEFAULTS fills in the shipped value
    add("--rule", help="univariate | multivariate (default) | mahalanobis")
    add("--band", help="band for the univariate rule (default nir)")
    add("--L", type=float, help="univariate/mahalanobis threshold")
    add("--L-nir", type=float, help=f"default {DEFAULT_NIR_THRESHOLD}")
    add("--L-ndvi", type=float, help=f"default {DEFAULT_NDVI_THRESHOLD}")
    add("--consec", type=int, help=f"default {DEFAULT_CONSECUTIVE}")
    add("--scheme", default=Scheme.IDENTITY.value, help="standardization scheme code")


def _simulate_arguments(add):
    add("--scenario", default="sonora-like", help="sonora-like | yucatan-like")
    add("--out", required=True, help="output directory")
    add("--seed", type=int, default=0)
    add("--noise-sd", type=float, default=0.02)
    add("--n-events", type=int, default=30)
    add("--first-year", type=int, default=2003)
    return cmd_simulate


def _fit_arguments(add):
    add("--series", required=True)
    add("--out", required=True, help="output directory for model files")
    add("--windows", default=DEFAULT_WINDOWS)
    add("--bands", default=",".join(b.name.lower() for b in BAND_ORDER))
    add("--threads", type=_thread_count, default=None, help=THREADS_HELP)
    return cmd_fit


def _detect_arguments(add):
    add("--series", required=True)
    add("--models", required=True, help="directory of models_*.csv files")
    add("--out", required=True, help="detections file")
    _add_rule_flags(add)
    add("--standardizer", action="append", default=None,
        help="fitted standardizer file (repeat per band)")
    add("--threads", type=_thread_count, default=None, help=THREADS_HELP)
    return cmd_detect


def _train_arguments(add):
    add("--series", required=True)
    add("--labels", required=True)
    add("--out", required=True, help="report file (csv); .txt written beside it")
    add("--rule", default="multivariate")
    add("--band", default=None, help="univariate band (default nir)")
    add("--windows", default=DEFAULT_WINDOWS)
    add("--grid", default=None, help="lo:hi:step (univariate/mahalanobis)")
    add("--grid-nir", default=None, help="lo:hi:step for the NIR threshold")
    add("--grid-ndvi", default=None, help="lo:hi:step for the NDVI threshold")
    add("--scheme", default=Scheme.IDENTITY.value)
    add("--cv-folds", type=int, default=DEFAULT_CV_FOLDS)
    add("--seed", type=int, default=0)
    add("--anneal-iters", type=int, default=None, help="total annealing steps")
    add("--sweep-fixed", action="store_true",
        help="also sweep the C=3 optimum across C=2..6")
    add("--threads", type=_thread_count, default=None, help=THREADS_HELP)
    return cmd_train


def _standardize_arguments(add):
    add("--series", required=True)
    add("--models", required=True)
    add("--scheme", required=True)
    add("--band", required=True)
    add("--out", required=True)
    return cmd_standardize


def _online_arguments(add):
    add("--state", required=True, help="state directory")
    add("--init", action="store_true", help="initialize state from --series")
    add("--series", default=None, help="historical series (with --init)")
    add("--monitor-year", type=int, default=None)
    add("--batch", default=None, help="series file holding one new nominal date")
    add("--out", default=None, help="detections file for this batch")
    _add_rule_flags(add)
    return cmd_online


def _report_arguments(add):
    add("--detections", required=True)
    add("--labels", required=True)
    add("--out", default=None, help="write the summary here instead of stdout")
    return cmd_report


# name: (help, the function that adds its arguments and names its command)
SUBCOMMANDS = {
    "simulate": ("write a synthetic site (series + labels)", _simulate_arguments),
    "fit": ("fit harmonic models per training window", _fit_arguments),
    "detect": ("apply a fixed rule to a series", _detect_arguments),
    "train": ("optimize thresholds against labels", _train_arguments),
    "standardize": ("fit and save a standardizer", _standardize_arguments),
    "online": ("incremental monitoring loop", _online_arguments),
    "report": ("evaluate a detections file against labels", _report_arguments),
}


def build_parser(config: Optional[dict[str, str]] = None, *, only: Optional[str] = None) -> _Parser:
    """The command-line parser; a flag named in ``config`` takes its
    default from there. With ``only``, a subcommand's name, the parser knows
    that subcommand alone: it parses an argument list that opens with it as
    the full parser does, and builds a fraction of it."""
    config = config or {}
    parser = _Parser(prog="cmfda", description=__doc__)
    parser.add_argument("--config", help="key=value config file mirroring the flags")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in SUBCOMMANDS.items():
        if only not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)

        def add(flag, *, type=str, default=None, action=None, **kw):
            key = flag.lstrip("-")
            if key in config:
                if action == "store_true":
                    p.add_argument(flag, default=_str2bool(config[key]), action=action, **kw)
                    return
                try:
                    default = type(config[key]) if type is not None else config[key]
                except ValueError:
                    raise UsageError(f"--config: bad value for {key}: {config[key]!r}") from None
            if action:
                p.add_argument(flag, action=action, default=default, **kw)
            else:
                p.add_argument(flag, type=type, default=default, **kw)

        p.set_defaults(func=arguments(add))
    return parser


def _flag_keys(command: str) -> set[str]:
    """The config keys of ``command``'s flags."""
    keys: set[str] = set()
    SUBCOMMANDS[command][1](lambda flag, **kw: keys.add(flag.lstrip("-")))
    return keys


# --- shared helpers ----------------------------------------------------------


def _threads(args) -> int:
    return args.threads or pipeline.default_workers()


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


def _fit_sites(sites, windows, bands, *, workers: int):
    """Fit every site's pixels and merge the per-site results."""
    merged = pipeline.FitResult(models={wp.index: {} for wp in windows})
    for pixels in sites.values():
        fit = pipeline.fit_pixels(pixels, windows, bands, workers=workers)
        for index, table in fit.models.items():
            merged.models[index].update(table)
        merged.skipped.extend(fit.skipped)
    return merged


def _residual_histories(sites, fit, windows, bands):
    per_site = [
        pipeline.training_residuals(pixels, fit, windows, bands, site_id)
        for site_id, pixels in sites.items()
    ]
    return {band: ResidualHistory.concat([h[band] for h in per_site]) for band in bands}


def _cube_covariances(sites, fit, windows) -> CubeCovarianceTable:
    """Cube covariances of the sites' NIR/NDVI training residuals."""
    histories = _residual_histories(sites, fit, windows, PAIR_BANDS)
    return estimate_cube_covariances(pipeline.paired_residual_records(histories))


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _refuse_unread(args, flags: Sequence[str], read: Sequence[str]) -> None:
    """Refuse each of ``flags`` that was given but is not in ``read``."""
    for flag in flags:
        if getattr(args, flag) is not None and flag not in read:
            raise UsageError(f"{_option(flag)} does not apply to the {args.rule} rule")


def _rule_args(args) -> None:
    """Refuse rule flags the chosen rule does not read, then fill in the
    shipped values of the flags not given."""
    if args.rule is None:
        args.rule = RULE_DEFAULTS["rule"]
    if args.rule not in RULE_FLAGS:
        raise UsageError(f"unknown rule {args.rule!r}")
    _refuse_unread(args, ("band", "L", "L_nir", "L_ndvi"), RULE_FLAGS[args.rule])
    for flag, value in RULE_DEFAULTS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, value)


def _refuse_standardized_index(args) -> None:
    """The cube covariances come from raw residuals, so the Mahalanobis
    rule takes unstandardized errors only."""
    if args.rule == "mahalanobis" and (
        parse_scheme(args.scheme) is not Scheme.IDENTITY or getattr(args, "standardizer", None)
    ):
        raise UsageError("the mahalanobis rule takes unstandardized errors only")


def _build_rule(args, covariances: Optional[CubeCovarianceTable] = None):
    kind = args.rule
    consec = args.consec
    try:
        if kind == "univariate":
            if args.L is None:
                raise UsageError("--L is required for the univariate rule")
            return UnivariateRule(parse_band(args.band), args.L, consec)
        if kind == "multivariate":
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


# The series mirror that fit writes into --out, and detect and standardize
# read from --models.
SERIES_MIRROR = "series.npy"


def cmd_fit(args) -> int:
    """Fit the models of every (pixel, band, window) into ``--out``: one
    ``models_<first>_<last>.csv`` per window and ``fit_report.txt``.

    ``--out`` also gets ``series.npy``, a binary mirror of ``--series`` as
    parsed, in the format of the online state's ``history.npy``. It is
    derived, never authoritative, and may be deleted: it holds the SHA-256
    of the series bytes that fit parsed, and ``detect`` and ``standardize``
    read it in place of ``--series`` only while that matches the file's
    bytes. A mirror that cannot be written is a warning, not an error.
    """
    sites, digest = dataio.read_series_hashed(args.series)
    windows = parse_windows_spec(args.windows)
    bands = tuple(parse_band(b) for b in args.bands.split(","))
    os.makedirs(args.out, exist_ok=True)
    merged = _fit_sites(sites, windows, bands, workers=_threads(args))
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
    try:
        dataio.write_series_mirror(
            os.path.join(args.out, SERIES_MIRROR), args.series, sites, digest=digest
        )
    except OSError as exc:
        print(f"cmfda: warning: series mirror not written: {exc}", file=sys.stderr)
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


def _read_series(args):
    """``--series`` as parsed, taken from the mirror that ``fit`` left in
    ``--models`` while that mirrors the file's current bytes."""
    return dataio.read_series_mirrored(args.series, os.path.join(args.models, SERIES_MIRROR))


def cmd_detect(args) -> int:
    """Apply a rule to ``--series`` with the models in ``--models`` and write
    the detections to ``--out``.

    ``fit`` also leaves ``series.npy`` in ``--models``: a mirror of the
    series as parsed, in the format of the online state's ``history.npy``.
    It is derived, and may be deleted. The series is read from it while
    the SHA-256 it holds matches the bytes of ``--series``, and parsed
    otherwise: mirror missing, stale, truncated or unreadable, or a models
    dir without one. Either way the outputs are the same.
    """
    _rule_args(args)
    _refuse_standardized_index(args)
    sites = _read_series(args)
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
    _refuse_unread(
        args, ("band", "grid", "grid_nir", "grid_ndvi", "anneal_iters"),
        TRAIN_RULE_FLAGS[args.rule],
    )


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
            best_l, best_tss = training.grid_search_mahalanobis(dataset, c, grid)
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
    _refuse_standardized_index(args)
    windows = parse_windows_spec(args.windows)
    band, bands = None, PAIR_BANDS
    if args.rule == "univariate":
        band = parse_band(args.band or RULE_DEFAULTS["band"])
        bands = (band,)
        grids = [_grid(args.grid, DEFAULT_NIR_GRID if band is Band.NIR else DEFAULT_NDVI_GRID)]
    elif args.rule == "mahalanobis":
        grids = [_grid(args.grid, DEFAULT_MAHALANOBIS_GRID)]
    else:
        grids = [_grid(args.grid_nir, DEFAULT_NIR_GRID), _grid(args.grid_ndvi, DEFAULT_NDVI_GRID)]

    sites = dataio.read_series_arrays(args.series)
    labels = {l.pixel_id: l.z for l in dataio.read_labels(args.labels)}
    fit = _fit_sites(sites, windows, bands, workers=_threads(args))
    standardizers = _standardizers_for(args, sites, fit, windows, bands)
    datasets = {
        site_id: pipeline.build_training_dataset(
            pixels, fit, windows, labels, site_id, bands, standardizers
        )[0]
        for site_id, pixels in sites.items()
    }
    pooled = training.TrainingSet.concat(datasets.values())
    covariances = None
    if args.rule == "mahalanobis":
        covariances = _cube_covariances(sites, fit, windows)
        training.fill_dataset_index(pooled, covariances)
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
    optima = []
    for site_id in dict.fromkeys(dataset.site_ids.tolist()):
        site_pixels = dataset.take(np.flatnonzero(dataset.site_ids == site_id))
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
    """Fit a standardizer for ``--band`` from the training residuals of
    ``--series`` under the models in ``--models``, and write it to ``--out``.

    The series is read as ``detect`` reads it: from the ``series.npy`` that
    ``fit`` left in ``--models`` (a derived mirror in the format of the
    online ``history.npy``, which may be deleted) while the SHA-256 it holds
    matches the bytes of ``--series``, and parsed otherwise.
    """
    sites = _read_series(args)
    windows, fit = _load_model_dir(args.models)
    band = parse_band(args.band)
    scheme = parse_scheme(args.scheme)
    histories = _residual_histories(sites, fit, windows, (band,))
    std = fit_standardizer(histories[band], scheme, band)
    dataio.save_standardizer(args.out, std)
    served = "".join(
        f"; stage {i} {stage.key_kind.value} {stage.transform_kind} keys served by "
        + " ".join(f"{kind.value}={n}" for kind, n in stage.served(histories[band]).items())
        for i, stage in enumerate(std.stages, start=1)
    )
    print(
        f"wrote {args.out}: scheme {scheme.value}, band {band.name}, "
        f"{len(histories[band])} history records{served}"
    )
    return EXIT_OK


# --- online state -----------------------------------------------------------


def _online_paths(state_dir: str) -> dict[str, str]:
    return {
        "config": os.path.join(state_dir, "config.txt"),
        "history": os.path.join(state_dir, "history.csv"),
        "mirror": os.path.join(state_dir, "history.npy"),
        "flagged": os.path.join(state_dir, "flagged.csv"),
        "models": os.path.join(state_dir, "models_online.csv"),
        "covariances": os.path.join(state_dir, "covariances.csv"),
        "covariance_mirror": os.path.join(state_dir, "covariances.npy"),
    }


def _write_online_config(path: str, values: dict[str, str]) -> None:
    with dataio.replacing(path) as tmp, open(tmp, "w") as fh:
        for key, value in values.items():
            fh.write(f"{key}={value}\n")


def _state_settings(path: str):
    """The function that reads a key of the state's ``config.txt``:
    ``parse`` of its value, or of ``default`` when the key is absent. A
    missing key without a default or a value ``parse`` refuses is a
    ``ParseError`` naming the file and the line, as is a line without
    ``=``."""
    config = _read_config(path, ParseError)

    def setting(key: str, parse=str, default: Optional[str] = None):
        value, line = config.get(key, (default, None))
        if value is None:
            raise ParseError(f"{path}: missing key {key!r}")
        try:
            return parse(value)
        except ValueError:
            raise ParseError(f"{path}: bad value for {key!r}: {value!r}", line=line) from None

    return setting


def _replace_state(path: str, write, *args, **kwargs) -> None:
    """Write a state file with ``write(tmp, *args, **kwargs)`` to a
    temporary path beside ``path``, which it then replaces."""
    with dataio.replacing(path) as tmp:
        write(tmp, *args, **kwargs)


def cmd_online(args) -> int:
    """With ``--init``, start a state directory from ``--series``; without,
    run one step of the loop on ``--batch``.

    The state is ``config.txt``, ``history.csv`` (every observation so far),
    ``flagged.csv``, ``models_online.csv`` (the last step's refits),
    ``covariances.csv`` (Mahalanobis rule only) and two binary mirrors:
    ``history.npy`` of the parsed ``history.csv``, in the format of the
    ``series.npy`` that ``fit`` writes, and ``covariances.npy`` of the rows
    of ``covariances.csv`` that a lookup can serve. A mirror is derived,
    never authoritative, and safe to delete: a step uses it only while the
    SHA-256 it holds matches its table's bytes, and parses the table
    otherwise. A step hashes ``history.csv`` once, formats the batch's
    values once, and holds the history in the mirror's layout from the read
    to the writes. It writes ``--out``, ``flagged.csv`` (unless the file
    holds those bytes already), ``models_online.csv``, then ``history.csv``,
    which commits the step, then the history mirror.
    """
    if parse_scheme(args.scheme) is not Scheme.IDENTITY:
        raise UsageError("online monitoring supports only the identity scheme")
    paths = _online_paths(args.state)
    if args.init:
        if not args.series or args.monitor_year is None:
            raise UsageError("--init needs --series and --monitor-year")
        _rule_args(args)
        # The state works on the values as history.csv holds them.
        history, rows = dataio.read_series_as_written(args.series)
        covariances = None
        if args.rule == "mahalanobis":
            sites = history.sites()
            windows = make_windows(args.monitor_year - 2, 1)
            fit = _fit_sites(sites, windows, PAIR_BANDS, workers=1)
            covariances = _cube_covariances(sites, fit, windows)
        _build_rule(args, covariances)  # a rule the batches could not build is refused here
        os.makedirs(args.state, exist_ok=True)
        digest = dataio.append_series_rows(paths["history"], rows)
        dataio.write_series_mirror(paths["mirror"], paths["history"], history, digest.hexdigest())
        _replace_state(paths["flagged"], dataio.write_detections, [], {"state": "online"})
        if covariances is not None:
            _replace_state(paths["covariances"], dataio.save_covariances, covariances)
            dataio.write_covariance_mirror(
                paths["covariance_mirror"], paths["covariances"], covariances
            )
        _write_online_config(paths["config"], {
            "monitor-year": str(args.monitor_year),
            "rule": args.rule,
            "band": args.band,
            "consec": str(args.consec),
            "L": "" if args.L is None else dataio.real(args.L),
            "L-nir": dataio.real(args.L_nir),
            "L-ndvi": dataio.real(args.L_ndvi),
        })
        print(f"initialized online state in {args.state} (monitoring {args.monitor_year})")
        return EXIT_OK

    if not args.batch or not args.out:
        raise UsageError("online step needs --batch and --out (or --init)")
    for flag in ("rule", "band", "L", "L_nir", "L_ndvi", "consec"):
        if getattr(args, flag) is not None:
            raise UsageError(f"{_option(flag)} is read from the state; give it with --init")
    setting = _state_settings(paths["config"])
    monitor_year = setting("monitor-year", int)
    kind = setting("rule")
    covariances = None
    if kind == "mahalanobis":
        covariances = dataio.read_covariances_mirrored(
            paths["covariances"], paths["covariance_mirror"]
        )
    rule_args = argparse.Namespace(
        rule=kind,
        band=setting("band", default="nir"),
        L=setting("L", lambda text: float(text) if text else None, default=""),
        L_nir=setting("L-nir", float),
        L_ndvi=setting("L-ndvi", float),
        consec=setting("consec", int),
    )
    rule = _build_rule(rule_args, covariances)

    history, digest = dataio.read_flat_mirrored(paths["history"], paths["mirror"])
    batch, rows = dataio.read_series_as_written(args.batch)
    _, previously = dataio.read_detections(paths["flagged"])
    dataio.check_pixel_sites(args.batch, (key[:2] for key in [*history.keys, *batch.keys]))

    batch_dates = set(batch.columns.ordinals.tolist())
    if len(batch_dates) != 1:
        raise UsageError("a batch must hold exactly one nominal date")
    batch_date = dt.date.fromordinal(batch_dates.pop())
    # A batch pixel's flag dated on the batch was written by an earlier run
    # of this step that stopped before the history took the batch; the step
    # makes it again.
    batch_pixels = {key[1] for key in batch.keys}
    flagged = {
        r.pixel_id: r.first_flag_date
        for r in previously
        if not (r.first_flag_date == batch_date and r.pixel_id in batch_pixels)
    }

    merged = pipeline.append_batch(history, batch)
    newly: dict[str, dt.date] = {}
    models: dict[tuple[str, Band], HarmonicModel] = {}
    for site_id, pixels in sorted(merged.sites().items()):
        outcome = pipeline.online_process_batch(
            pixels, batch_date, rule, monitor_year, flagged, site_id=site_id,
        )
        newly.update(outcome.newly_flagged)
        models.update(outcome.models)

    # history.csv gains the batch's rows after the other state files: until
    # it does, the same batch can be run again and writes the same files.
    batch_results = [
        DetectionResult(pid, True, date, None) for pid, date in sorted(newly.items())
    ]
    dataio.write_detections(
        args.out, batch_results, {"batch": batch_date.isoformat(), "new_flags": str(len(newly))}
    )
    results = [
        DetectionResult(pid, True, date, None)
        for pid, date in sorted({**flagged, **newly}.items())
    ]
    dataio.replace_detections(paths["flagged"], results, {"state": "online"})
    if models:
        # The header window spans every refit's own training window.
        train_window = DateInterval(
            min(model.train_window[0] for model in models.values()),
            max(model.train_window[1] for model in models.values()),
        )
        _replace_state(paths["models"], dataio.save_models, models, train_window)
    dataio.append_series_rows(paths["history"], rows, digest)
    # The step is committed; a mirror left stale by a failed write is
    # refused by its hash.
    try:
        dataio.write_series_mirror(paths["mirror"], paths["history"], merged, digest.hexdigest())
    except OSError as exc:
        print(f"cmfda: warning: history mirror not written: {exc}", file=sys.stderr)
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


def _config_path(argv: Sequence[str]) -> Optional[str]:
    """The file that ``--config`` names in ``argv``, or None."""
    if "--config" in argv:
        i = argv.index("--config")
        if i + 1 == len(argv):
            raise UsageError("argument --config: expected one argument")
        return argv[i + 1]
    path = None
    for item in argv:
        if item.startswith("--config="):
            path = item.split("=", 1)[1]
    return path


def _named_command(argv: Sequence[str]) -> Optional[str]:
    """The subcommand that ``argv`` opens with, after an optional
    ``--config FILE``; None when it opens otherwise."""
    rest = list(argv)
    if rest[:1] == ["--config"]:
        rest = rest[2:]
    elif rest and rest[0].startswith("--config="):
        rest = rest[1:]
    return rest[0] if rest and rest[0] in SUBCOMMANDS else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        path = _config_path(argv)
        entries = _read_config(path) if path is not None else {}
        config = {key: value for key, (value, _) in entries.items()}
        parser = build_parser(config, only=_named_command(argv))
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if args.config != path:  # an abbreviated or repeated --config
            raise UsageError("give --config FILE once, spelled out in full")
        keys = _flag_keys(args.command)
        for key, (_, line) in entries.items():
            if key not in keys:
                raise UsageError(f"{path}:{line}: {key!r} names no flag of {args.command}")
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
