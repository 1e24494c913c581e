import dataclasses
import datetime as dt
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cmfda
from cmfda import dataio, pipeline

from cmfda.cli import (
    C_VALUES,
    DEFAULT_CONSECUTIVE,
    DEFAULT_MAHALANOBIS_THRESHOLD,
    DEFAULT_NDVI_THRESHOLD,
    DEFAULT_NIR_THRESHOLD,
    EXIT_DATA,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_USAGE,
    SUBCOMMANDS,
    build_parser,
    load_config_file,
    main,
    parse_grid_spec,
    parse_windows_spec,
    threshold_grid,
)
from cmfda.dataio import (
    load_covariances,
    load_models,
    read_detections,
    read_labels,
    read_report,
    read_series,
    read_series_arrays,
    save_covariances,
    write_labels,
    write_series,
)
from cmfda.core import Band, DeforestationLabel, Reliability, band_fill
from cmfda.detection import CovarianceEntry, CubeCovarianceTable, DetectionResult
from cmfda.standardize import KeyKind, Scheme
from conftest import assert_same_sites


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One simulated scene reused by the chain tests (few events, short span)."""
    out = tmp_path_factory.mktemp("sim")
    code = main(
        [
            "simulate", "--scenario", "sonora-like", "--out", str(out),
            "--seed", "11", "--n-events", "12", "--noise-sd", "0.015",
        ]
    )
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def models_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    code = main(
        [
            "fit", "--series", str(sim_dir / "series.csv"), "--out", str(out),
            "--windows", "2003:5", "--bands", "nir,ndvi", "--threads", "2",
        ]
    )
    assert code == EXIT_OK
    return out


def test_flag_helpers():
    grid = threshold_grid(0.01, 0.30, 0.01)
    assert len(grid) == 30
    assert grid[0] == 0.01 and grid[-1] == 0.30
    assert parse_grid_spec("0.5:30:0.5") == threshold_grid(0.5, 30.0, 0.5)
    windows = parse_windows_spec("2003:5")
    assert len(windows) == 5


def test_simulate_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert (
            main(
                [
                    "simulate", "--out", str(tmp_path / sub), "--seed", "5",
                    "--n-events", "4",
                ]
            )
            == EXIT_OK
        )
    assert (tmp_path / "a" / "series.csv").read_bytes() == (tmp_path / "b" / "series.csv").read_bytes()
    assert (tmp_path / "a" / "labels.csv").read_bytes() == (tmp_path / "b" / "labels.csv").read_bytes()


def test_simulate_yucatan_scenario(tmp_path):
    out = tmp_path / "yuc"
    assert (
        main(
            [
                "simulate", "--scenario", "yucatan-like", "--out", str(out),
                "--seed", "2", "--n-events", "5",
            ]
        )
        == EXIT_OK
    )
    sites = read_series(out / "series.csv")
    assert len(sites["yucatan-like"]) == 625
    labels = read_labels(out / "labels.csv")
    assert sum(l.z for l in labels) == 5


def test_fit_reports_skipped_pixels(sim_dir, tmp_path):
    import dataclasses

    from cmfda.core import Reliability

    sites = read_series(sim_dir / "series.csv")
    site_id, pixels = next(iter(sites.items()))
    victim = pixels[0]
    cloudy = dataclasses.replace(
        victim,
        observations=tuple(
            dataclasses.replace(o, reliability=Reliability.CLOUDY)
            for o in victim.observations
        ),
    )
    series_path = tmp_path / "series.csv"
    write_series(series_path, {site_id: [cloudy] + list(pixels[1:6])})
    out = tmp_path / "models"
    assert (
        main(
            [
                "fit", "--series", str(series_path), "--out", str(out),
                "--windows", "2003:1", "--bands", "nir", "--threads", "1",
            ]
        )
        == EXIT_OK
    )
    report = (out / "fit_report.txt").read_text()
    assert victim.pixel_id in report
    assert "InsufficientData" in report
    # the pixel without a model is skipped (not failed) by detection
    det = tmp_path / "det.csv"
    assert (
        main(
            [
                "detect", "--series", str(series_path), "--models", str(out),
                "--out", str(det), "--rule", "univariate", "--band", "nir",
                "--L", "0.08", "--threads", "1",
            ]
        )
        == EXIT_OK
    )
    meta, results = read_detections(det)
    assert meta["skipped"] == "1"
    assert victim.pixel_id in (det.parent / (det.name + ".skipped.txt")).read_text()
    assert victim.pixel_id not in {r.pixel_id for r in results}


def test_fit_writes_window_model_files(models_dir):
    names = sorted(os.listdir(models_dir))
    assert "fit_report.txt" in names
    model_files = [n for n in names if n.startswith("models_")]
    assert model_files == [
        "models_2003_2004.csv", "models_2004_2005.csv", "models_2005_2006.csv",
        "models_2006_2007.csv", "models_2007_2008.csv",
    ]


def test_detect_defaults_echo_paper_rule(sim_dir, models_dir, tmp_path):
    out = tmp_path / "det.csv"
    code = main(
        [
            "detect", "--series", str(sim_dir / "series.csv"),
            "--models", str(models_dir), "--out", str(out), "--threads", "1",
        ]
    )
    assert code == EXIT_OK
    meta, results = read_detections(out)
    assert meta["rule"] == "multivariate"
    assert float(meta["L_nir"]) == DEFAULT_NIR_THRESHOLD
    assert float(meta["L_ndvi"]) == DEFAULT_NDVI_THRESHOLD
    assert int(meta["C"]) == DEFAULT_CONSECUTIVE
    assert meta["scheme"] == "---"
    labels = {l.pixel_id: l.z for l in read_labels(sim_dir / "labels.csv")}
    flagged = {r.pixel_id for r in results if r.flagged}
    assert flagged == {pid for pid, z in labels.items() if z}


def test_detect_identity_scheme_matches_no_scheme(sim_dir, models_dir, tmp_path):
    paths = []
    for name, extra in (("plain", []), ("identity", ["--scheme=---"])):
        out = tmp_path / f"{name}.csv"
        code = main(
            [
                "detect", "--series", str(sim_dir / "series.csv"),
                "--models", str(models_dir), "--out", str(out), "--threads", "1",
            ]
            + extra
        )
        assert code == EXIT_OK
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_detect_mahalanobis_accepts_paper_threshold(sim_dir, models_dir, tmp_path):
    out = tmp_path / "mahl.csv"
    code = main(
        [
            "detect", "--series", str(sim_dir / "series.csv"),
            "--models", str(models_dir), "--out", str(out),
            "--rule", "mahalanobis", "--threads", "1",
        ]
    )
    assert code == EXIT_OK
    meta, results = read_detections(out)
    assert float(meta["L"]) == DEFAULT_MAHALANOBIS_THRESHOLD
    assert int(meta["C"]) == DEFAULT_CONSECUTIVE
    labels = {l.pixel_id: l.z for l in read_labels(sim_dir / "labels.csv")}
    flagged = {r.pixel_id for r in results if r.flagged}
    events = {pid for pid, z in labels.items() if z}
    # a deforested pixel's own post-event residuals inflate its cube's
    # covariance in later training windows, so the index rule may miss a
    # few events; it must still catch most and raise no false alarms here
    assert len(flagged & events) >= len(events) * 0.7
    assert flagged <= events


def test_report_command(sim_dir, models_dir, tmp_path, capsys):
    det = tmp_path / "det.csv"
    main(
        [
            "detect", "--series", str(sim_dir / "series.csv"),
            "--models", str(models_dir), "--out", str(det), "--threads", "1",
        ]
    )
    out = tmp_path / "summary.txt"
    code = main(
        [
            "report", "--detections", str(det),
            "--labels", str(sim_dir / "labels.csv"), "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    text = out.read_text()
    assert "tss: 1.0000" in text
    assert "producer_acc: 1.0000" in text


def test_report_on_detections_with_unknown_band_is_a_data_error(sim_dir, tmp_path, capsys):
    det = tmp_path / "det.csv"
    dataio.write_detections(det, [DetectionResult("p", True, dt.date(2006, 3, 7), Band.NIR)], {})
    det.write_text(det.read_text().replace(",NIR", ",FOO"))
    command = ["report", "--detections", str(det), "--labels", str(sim_dir / "labels.csv"),
               "--out", str(tmp_path / "summary.txt")]
    assert main(command) == EXIT_DATA
    assert f"line 3: {det}: unknown band 'FOO'" in capsys.readouterr().err


def test_config_file_supplies_defaults(sim_dir, models_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "rule=univariate\nband=nir\nL=0.08\nconsec=4\nthreads=1\n"
    )
    out = tmp_path / "det.csv"
    code = main(
        [
            "--config", str(config),
            "detect", "--series", str(sim_dir / "series.csv"),
            "--models", str(models_dir), "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    meta, _ = read_detections(out)
    assert meta["rule"] == "univariate"
    assert meta["band"] == "NIR"
    assert float(meta["L"]) == 0.08


def test_usage_errors_exit_1(tmp_path):
    assert main(["detect", "--series", "x.csv"]) == EXIT_USAGE  # missing flags
    assert main(["nonsense"]) == EXIT_USAGE
    assert (
        main(
            [
                "simulate", "--scenario", "no-such-place", "--out", str(tmp_path / "o"),
            ]
        )
        == EXIT_USAGE
    )


def test_config_file_faults_exit_1(tmp_path, capsys):
    """--config with no file after it, a config key that names no flag of
    the subcommand, a value its flag cannot take, a file that is not UTF-8
    and an abbreviated --config are usage errors, and the command does not
    run."""
    out = tmp_path / "models"
    fit = ["fit", "--series", str(tmp_path / "missing.csv"), "--out", str(out)]
    assert main(fit + ["--config"]) == EXIT_USAGE
    assert "argument --config: expected one argument" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    for text, error in (
        ("# defaults\nwindows=2003:1\nbogus=1\n", f"{config}:3: 'bogus' names no flag of fit"),
        ("rule=univariate\n", f"{config}:1: 'rule' names no flag of fit"),
        ("threads=many\n", "--config: bad value for threads: 'many'"),
    ):
        config.write_text(text)
        assert main(["--config", str(config), *fit]) == EXIT_USAGE
        assert error in capsys.readouterr().err
    config.write_bytes(b"windows=2003:1\nbands=nir\xff\n")
    assert main(["--config", str(config), *fit]) == EXIT_USAGE
    assert f"{config}:2: not utf-8 text" in capsys.readouterr().err
    config.write_text("windows=2003:1\n")
    assert main(["--conf", str(config), *fit]) == EXIT_USAGE
    assert "give --config FILE once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in SUBCOMMANDS)])
def test_help_is_the_full_parsers(argv, capsys):
    """main builds the parser of the named subcommand alone; the help it
    prints is the full parser's, word for word."""
    assert main(argv) == EXIT_OK
    text = capsys.readouterr().out
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert text == capsys.readouterr().out
    assert text.startswith("usage: cmfda")


def test_main_builds_only_the_named_subcommand(monkeypatch, capsys):
    built = []
    for name, (help_text, arguments) in list(SUBCOMMANDS.items()):
        monkeypatch.setitem(SUBCOMMANDS, name, (
            help_text, lambda add, name=name, arguments=arguments: built.append(name) or arguments(add)
        ))
    assert main(["simulate", "--scenario", "nowhere", "--out", "unused"]) == EXIT_USAGE
    assert "unknown scenario 'nowhere'" in capsys.readouterr().err
    assert set(built) == {"simulate"}


def test_data_errors_exit_2(tmp_path, sim_dir, models_dir):
    missing = tmp_path / "missing.csv"
    assert (
        main(
            [
                "detect", "--series", str(missing), "--models", str(models_dir),
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        == EXIT_DATA
    )
    # a models file whose training window is not two calendar years
    edited = tmp_path / "models"
    edited.mkdir()
    for path in sorted(models_dir.glob("models_*.csv")):
        (edited / path.name).write_text(path.read_text())
    first = sorted(edited.glob("models_*.csv"))[0]
    header, rest = first.read_text().split("\n", 1)
    assert "train_end=2004-12-31" in header
    first.write_text(header.replace("train_end=2004-12-31", "train_end=2003-12-31") + "\n" + rest)
    assert (
        main(
            [
                "detect", "--series", str(sim_dir / "series.csv"), "--models", str(edited),
                "--out", str(tmp_path / "out.csv"), "--threads", "1",
            ]
        )
        == EXIT_DATA
    )


def test_fit_refuses_a_series_it_cannot_key_by_pixel_id(sim_dir, tmp_path, capsys):
    """A series that is not UTF-8, or that holds one pixel id under two
    sites, is a data error: model, label and detection files key a pixel
    by its id alone."""
    series = tmp_path / "series.csv"
    lines = (sim_dir / "series.csv").read_bytes().splitlines(keepends=True)
    fit = ["fit", "--series", str(series), "--out", str(tmp_path / "models")]
    series.write_bytes(b"".join(lines[:3] + [lines[3].replace(b"sonora-like-", b"\xff", 1)]))
    assert main(fit) == EXIT_DATA
    assert f"line 4: {series}: not utf-8 text" in capsys.readouterr().err
    pixel = [line for line in lines if line.startswith(b"sonora-like,sonora-like-00-00,")]
    series.write_bytes(b"".join(lines + [b"other" + line[len(b"sonora-like"):] for line in pixel]))
    assert main(fit) == EXIT_DATA
    assert "pixel 'sonora-like-00-00' is under sites 'sonora-like' and 'other'" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "models").exists()


def test_degenerate_training_exits_3(sim_dir, models_dir, tmp_path):
    # labels claiming nothing was deforested cannot train a threshold
    sites = read_series(sim_dir / "series.csv")
    pixels = next(iter(sites.values()))
    labels = [DeforestationLabel(p.pixel_id, p.col, p.row, 0, 0) for p in pixels]
    labels_path = tmp_path / "all_zero.csv"
    write_labels(labels_path, labels)
    code = main(
        [
            "train", "--series", str(sim_dir / "series.csv"),
            "--labels", str(labels_path), "--out", str(tmp_path / "report.csv"),
            "--rule", "univariate", "--band", "nir", "--windows", "2003:5",
            "--grid", "0.05:0.15:0.05", "--threads", "1",
        ]
    )
    assert code == EXIT_DEGENERATE


def test_train_univariate_separable_site(sim_dir, tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        [
            "train", "--series", str(sim_dir / "series.csv"),
            "--labels", str(sim_dir / "labels.csv"), "--out", str(out),
            "--rule", "univariate", "--band", "nir", "--windows", "2003:5",
            "--grid", "0.04:0.2:0.02", "--cv-folds", "3", "--seed", "1",
            "--threads", "2",
        ]
    )
    assert code == EXIT_OK
    report = read_report(out)
    assert {r.consecutive for r in report.rows} == {2, 3, 4, 5, 6}
    by_c = {r.consecutive: r for r in report.rows}
    assert by_c[4].train_tss == 1.0
    assert by_c[4].cv_tss == 1.0
    assert os.path.exists(os.path.splitext(str(out))[0] + ".txt")


def test_train_univariate_sweeps_each_site(sim_dir, tmp_path):
    """Univariate thresholds are trained per site, so --sweep-fixed sweeps
    each site's C=3 threshold over that site's pixels."""
    pixels = next(iter(read_series(sim_dir / "series.csv").values()))
    labels = {l.pixel_id: l.z for l in read_labels(sim_dir / "labels.csv")}
    events = [p for p in pixels if labels[p.pixel_id]]
    stable = [p for p in pixels if not labels[p.pixel_id]][:30]
    sites = {"east": events[::2] + stable[::2], "west": events[1::2] + stable[1::2]}
    series = tmp_path / "series.csv"
    write_series(series, sites)
    out = tmp_path / "report.csv"
    code = main(
        [
            "train", "--series", str(series), "--labels", str(sim_dir / "labels.csv"),
            "--out", str(out), "--rule", "univariate", "--band", "nir",
            "--windows", "2003:5", "--grid", "0.04:0.2:0.02", "--cv-folds", "2",
            "--sweep-fixed", "--threads", "1",
        ]
    )
    assert code == EXIT_OK
    report = read_report(out)
    assert {r.scope for r in report.rows} == {
        "east", "west", "east:fixed-L(C=3)", "west:fixed-L(C=3)"
    }
    for site in sites:
        trained = {r.consecutive: r for r in report.rows if r.scope == site}
        swept = {r.consecutive: r for r in report.rows if r.scope == f"{site}:fixed-L(C=3)"}
        assert set(trained) == set(swept) == set(C_VALUES)
        assert all(r.thresholds == trained[3].thresholds for r in swept.values())
        assert swept[3].train_tss == trained[3].train_tss


def test_standardize_command(sim_dir, models_dir, tmp_path):
    out = tmp_path / "std_nir.csv"
    code = main(
        [
            "standardize", "--series", str(sim_dir / "series.csv"),
            "--models", str(models_dir), "--scheme", "1", "--band", "nir",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    from cmfda.dataio import load_standardizer
    from cmfda.standardize import Scheme

    std = load_standardizer(out)
    assert std.scheme is Scheme.PIXEL_SD
    # detect accepts the fitted standardizer file
    det = tmp_path / "det.csv"
    code = main(
        [
            "detect", "--series", str(sim_dir / "series.csv"),
            "--models", str(models_dir), "--out", str(det),
            "--rule", "univariate", "--band", "nir", "--L", "4.0",
            "--standardizer", str(out), "--threads", "1",
        ]
    )
    assert code == EXIT_OK


def test_standardize_reports_fallback_levels(tmp_path, capsys):
    """The summary counts, per stage, the history's keys that each fallback
    level served; on 12 pixels over one window most cubes are too sparse."""
    import scalar_oracle as oracle
    from cmfda.cli import _load_model_dir
    from test_pipeline import one_year_scenario

    pixels, _ = one_year_scenario(seed=21, n_events=6)
    series = tmp_path / "series.csv"
    write_series(series, {"mini": pixels[:12]})
    models = tmp_path / "models"
    assert main([
        "fit", "--series", str(series), "--out", str(models), "--windows", "2003:1",
        "--bands", "nir", "--threads", "1",
    ]) == EXIT_OK
    capsys.readouterr()
    for scheme, served in (
        ("4c", "; stage 1 cube sd keys served by cube=109 site_period=152 site=0 global=0"),
        ("III.1", "; stage 1 site_period ecdf keys served by site_period=73 period=0 global=0"
                  "; stage 2 pixel sd keys served by pixel=12 site=0 global=0"),
    ):
        assert main([
            "standardize", "--series", str(series), "--models", str(models),
            f"--scheme={scheme}", "--band", "nir", "--out", str(tmp_path / "std.csv"),
        ]) == EXIT_OK
        assert capsys.readouterr().out.endswith(f"490 history records{served}\n")
    # the 4c counts, from the per-record tables
    (site_id, compact), = read_series_arrays(series).items()
    windows, fit = _load_model_dir(str(models))
    records = oracle.training_residuals(compact, fit, windows, (Band.NIR,), site_id)[Band.NIR]
    (stage,) = oracle.fit_standardizer(records, Scheme.CUBE_SD)
    served_by = {}
    for r in records:
        key = oracle.key_for(KeyKind.CUBE, r)
        for kind, table in stage.sd_levels:
            sd, n = table.get(oracle.key_for(kind, r), (0.0, 0))
            if n >= 2 and sd > 0:
                served_by.setdefault(key, kind)
                break
    assert [list(served_by.values()).count(kind) for kind, _ in stage.sd_levels] == [109, 152, 0, 0]


def test_train_multivariate_and_mahalanobis(sim_dir, tmp_path):
    base = [
        "train", "--series", str(sim_dir / "series.csv"),
        "--labels", str(sim_dir / "labels.csv"),
        "--windows", "2003:5", "--cv-folds", "2", "--seed", "3", "--threads", "2",
    ]
    out = tmp_path / "multi.csv"
    code = main(
        base
        + [
            "--out", str(out), "--rule", "multivariate",
            "--grid-nir", "0.04:0.24:0.04", "--grid-ndvi", "0.05:0.45:0.1",
            "--anneal-iters", "400",
        ]
    )
    assert code == EXIT_OK
    report = read_report(out)
    all_rows = [r for r in report.rows if r.scope == "all"]
    assert {r.consecutive for r in all_rows} == {2, 3, 4, 5, 6}
    assert all(len(r.thresholds) == 2 for r in all_rows)
    assert max(r.train_tss for r in all_rows) == 1.0
    site_rows = [r for r in report.rows if r.scope == "sonora-like"]
    assert site_rows

    out2 = tmp_path / "mahl.csv"
    code = main(
        base
        + [
            "--out", str(out2), "--rule", "mahalanobis",
            "--grid", "2:20:2", "--sweep-fixed",
        ]
    )
    assert code == EXIT_OK
    report = read_report(out2)
    assert any(r.scope == "all" for r in report.rows)
    assert any(r.scope.startswith("all:fixed-L") for r in report.rows)


def test_train_mahalanobis_computes_each_index_once(tmp_path, monkeypatch):
    """Thresholds and C never change an entry's index, so training computes
    the index of each (pixel, window, date) entry once, not once per grid
    search, fold and sweep row: the index entries computed add up to the
    entries of the training sets."""
    from cmfda import detection, pipeline, training
    from test_pipeline import one_year_scenario

    pixels, labels = one_year_scenario(seed=21, n_events=6)
    series_path, labels_path = tmp_path / "series.csv", tmp_path / "labels.csv"
    write_series(series_path, {"mini": pixels})
    write_labels(
        labels_path,
        [DeforestationLabel(p.pixel_id, p.col, p.row, labels[p.pixel_id], labels[p.pixel_id])
         for p in pixels],
    )
    indexed = []
    for module in (detection, training):
        original = module.mahalanobis_series
        monkeypatch.setattr(
            module, "mahalanobis_series",
            lambda *a, original=original: indexed.append(len(a[0])) or original(*a),
        )
    datasets = []
    build = pipeline.build_training_dataset
    monkeypatch.setattr(
        pipeline, "build_training_dataset",
        lambda *a, **kw: datasets.append(build(*a, **kw)) or datasets[-1],
    )
    assert main(
        [
            "train", "--series", str(series_path), "--labels", str(labels_path),
            "--out", str(tmp_path / "r.csv"), "--rule", "mahalanobis",
            "--windows", "2003:2", "--grid", "2:20:2", "--cv-folds", "2",
            "--sweep-fixed", "--threads", "1",
        ]
    ) == EXIT_OK
    entries = sum(len(dataset.errors) for dataset, _ in datasets)
    assert len(datasets[0][0]) == len(pixels) and entries > 0
    assert sum(indexed) == entries


def test_mahalanobis_refuses_standardized_errors(tmp_path):
    """The cube covariances come from raw residuals, so the index of
    standardized errors would flag nearly every pixel: detect and train
    refuse the combination before reading any file."""
    missing = str(tmp_path / "missing.csv")
    detect = [
        "detect", "--series", missing, "--models", str(tmp_path),
        "--out", str(tmp_path / "o.csv"), "--rule", "mahalanobis",
    ]
    train = [
        "train", "--series", missing, "--labels", missing,
        "--out", str(tmp_path / "r.csv"), "--rule", "mahalanobis",
    ]
    for command in (detect, train):
        assert main(command) == EXIT_DATA
        assert main(command + ["--scheme=---"]) == EXIT_DATA
        for scheme in ("4c", "2", "IVii"):
            assert main(command + ["--scheme", scheme]) == EXIT_USAGE, (command[0], scheme)
    assert main(detect + ["--standardizer", missing]) == EXIT_USAGE
    assert main(detect + ["--rule", "multivariate", "--scheme", "4c"]) == EXIT_DATA


def test_rule_flag_conflicts_are_usage_errors(sim_dir, models_dir, tmp_path):
    args = [
        "detect", "--series", str(sim_dir / "series.csv"),
        "--models", str(models_dir), "--out", str(tmp_path / "o.csv"),
    ]
    assert main(args + ["--rule", "multivariate", "--L", "0.1"]) == EXIT_USAGE
    assert main(args + ["--rule", "univariate"]) == EXIT_USAGE  # no --L
    assert main(args + ["--consec", "9"]) == EXIT_USAGE
    assert main(args + ["--scheme", "bogus"]) == EXIT_USAGE
    assert main(args + ["--rule", "bogus"]) == EXIT_USAGE

    # a rule flag the chosen rule does not read is refused, not ignored;
    # --init refuses it before reading the (missing) series
    init = [
        "online", "--state", str(tmp_path / "state"), "--init",
        "--series", str(tmp_path / "missing.csv"), "--monitor-year", "2005",
    ]
    assert main(init) == EXIT_DATA
    for extra in (
        ["--rule", "univariate", "--L", "0.1", "--L-nir", "0.5"],
        ["--rule", "univariate", "--L", "0.1", "--L-ndvi", "0.5"],
        ["--rule", "mahalanobis", "--L-nir", "0.5"],
        ["--rule", "mahalanobis", "--L-ndvi", "0.5"],
        ["--rule", "mahalanobis", "--band", "nir"],
        ["--band", "ndvi"],
        ["--rule", "multivariate", "--band", "nir"],
    ):
        assert main(args + extra) == EXIT_USAGE, extra
        assert main(init + extra) == EXIT_USAGE, extra
    assert not (tmp_path / "state").exists()
    # a batch step takes its rule from the state: every rule flag is refused
    # before the (missing) state is read
    step = [
        "online", "--state", str(tmp_path / "state"),
        "--batch", str(sim_dir / "series.csv"), "--out", str(tmp_path / "b.csv"),
    ]
    assert main(step) == EXIT_DATA
    for extra in (
        ["--rule", "multivariate"], ["--band", "nir"], ["--L", "0.1"],
        ["--L-nir", "0.08"], ["--L-ndvi", "0.18"], ["--consec", "4"],
    ):
        assert main(step + extra) == EXIT_USAGE, extra

    # train refuses a rule it does not know and flags its rule does not read
    # before reading any file: the series here does not exist
    train = [
        "train", "--series", str(tmp_path / "missing.csv"),
        "--labels", str(sim_dir / "labels.csv"), "--out", str(tmp_path / "r.csv"),
    ]
    assert main(train + ["--rule", "univariate"]) == EXIT_DATA
    for extra in (
        ["--rule", "bogus"],
        ["--rule", "multivariate", "--band", "nir"],
        ["--rule", "mahalanobis", "--band", "nir"],
        ["--rule", "multivariate", "--grid", "0.1:0.2:0.1"],
        ["--rule", "univariate", "--grid-nir", "0.1:0.2:0.1"],
        ["--rule", "univariate", "--grid-ndvi", "0.1:0.2:0.1"],
        ["--rule", "univariate", "--anneal-iters", "100"],
        ["--rule", "mahalanobis", "--grid-nir", "0.1:0.2:0.1"],
        ["--rule", "mahalanobis", "--grid-ndvi", "0.1:0.2:0.1"],
        ["--rule", "mahalanobis", "--anneal-iters", "100"],
        ["--rule", "univariate", "--grid", "0:0.2:0.1"],
    ):
        assert main(train + extra) == EXIT_USAGE, extra


def test_cli_online_replay_matches_cli_detect(tmp_path):
    """Chapter-style loop: replaying a year of batches through the online
    command flags exactly the (pixel, date) pairs of batch detection."""
    import dataclasses

    from test_pipeline import one_year_scenario

    pixels, labels = one_year_scenario(seed=21, n_events=5)
    pixels = pixels[:25]
    site_id = "mini"

    series_path = tmp_path / "series.csv"
    write_series(series_path, {site_id: pixels})
    models_dir = tmp_path / "models"
    assert main(
        [
            "fit", "--series", str(series_path), "--out", str(models_dir),
            "--windows", "2003:1", "--bands", "nir,ndvi", "--threads", "1",
        ]
    ) == EXIT_OK
    det_path = tmp_path / "det.csv"
    assert main(
        [
            "detect", "--series", str(series_path), "--models", str(models_dir),
            "--out", str(det_path), "--threads", "1",
        ]
    ) == EXIT_OK
    _, batch_results = read_detections(det_path)
    batch_flags = {r.pixel_id: r.first_flag_date for r in batch_results if r.flagged}
    assert batch_flags  # the scenario produces events

    split = dt.date(2005, 1, 1)

    def sliced(pred):
        out = []
        for p in pixels:
            obs = tuple(o for o in p.observations if pred(o.nominal_date))
            if obs:
                out.append(dataclasses.replace(p, observations=obs))
        return out

    state = tmp_path / "state"
    history_path = tmp_path / "history.csv"
    write_series(history_path, {site_id: sliced(lambda d: d < split)})
    assert main(
        [
            "online", "--state", str(state), "--init", "--series", str(history_path),
            "--monitor-year", "2005", "--rule", "multivariate",
        ]
    ) == EXIT_OK

    batch_dates = sorted(
        {o.nominal_date for p in pixels for o in p.observations if o.nominal_date >= split}
    )
    for i, batch_date in enumerate(batch_dates):
        batch_path = tmp_path / "batch.csv"
        write_series(
            batch_path, {site_id: sliced(lambda d, b=batch_date: d == b)}
        )
        assert main(
            [
                "online", "--state", str(state), "--batch", str(batch_path),
                "--out", str(tmp_path / "step.csv"),
            ]
        ) == EXIT_OK
    _, online_results = read_detections(state / "flagged.csv")
    online_flags = {r.pixel_id: r.first_flag_date for r in online_results}
    assert online_flags == batch_flags


def test_online_smoke(sim_dir, tmp_path):
    """Init from history, feed two batches, then verify no re-flagging.
    The loop monitors raw errors, so a standardization scheme other than
    identity is a usage error at --init and at --batch."""
    sites = read_series(sim_dir / "series.csv")
    site_id, pixels = next(iter(sites.items()))
    # history: everything before 2005; batches: first dates of 2005
    history, batches = {}, []
    split = dt.date(2005, 1, 1)
    all_dates = sorted({o.nominal_date for p in pixels for o in p.observations})
    batch_dates = [d for d in all_dates if d >= split][:2]

    def slice_series(pred):
        import dataclasses

        out = []
        for p in pixels[:60]:
            obs = tuple(o for o in p.observations if pred(o.nominal_date))
            if obs:
                out.append(dataclasses.replace(p, observations=obs))
        return out

    state = tmp_path / "state"
    hist_path = tmp_path / "history.csv"
    write_series(hist_path, {site_id: slice_series(lambda d: d < split)})
    init = [
        "online", "--state", str(state), "--init",
        "--series", str(hist_path), "--monitor-year", "2005",
        "--rule", "multivariate",
    ]
    assert main(init + ["--scheme", "4c"]) == EXIT_USAGE
    assert not state.exists()
    assert main(init + ["--scheme=---"]) == EXIT_OK
    for i, batch_date in enumerate(batch_dates):
        batch_path = tmp_path / f"batch{i}.csv"
        write_series(
            batch_path, {site_id: slice_series(lambda d, b=batch_date: d == b)}
        )
        out = tmp_path / f"det{i}.csv"
        step = [
            "online", "--state", str(state),
            "--batch", str(batch_path), "--out", str(out),
        ]
        if i == 0:
            assert main(step + ["--scheme", "4c"]) == EXIT_USAGE
            assert not out.exists()
            step.append("--scheme=---")
        assert main(step) == EXIT_OK
        meta, results = read_detections(out)
        assert meta["batch"] == batch_date.isoformat()
    # state histories grew and flagged file exists
    merged = read_series(state / "history.csv")
    lengths = {len(p.observations) for p in merged[site_id]}
    assert max(lengths) == len([d for d in all_dates if d < split]) + 2
    assert (state / "flagged.csv").exists()

    # an all-cloudy batch produces no detections and no new flags
    import dataclasses

    from cmfda.core import Reliability

    next_date = [d for d in all_dates if d >= split][2]
    cloudy_pixels = [
        dataclasses.replace(
            p,
            observations=tuple(
                dataclasses.replace(o, reliability=Reliability.CLOUDY)
                for o in p.observations
                if o.nominal_date == next_date
            ),
        )
        for p in pixels[:60]
    ]
    _, flagged_before = read_detections(state / "flagged.csv")
    batch_path = tmp_path / "cloudy_batch.csv"
    write_series(batch_path, {site_id: [p for p in cloudy_pixels if p.observations]})
    out = tmp_path / "cloudy_det.csv"
    assert (
        main(["online", "--state", str(state), "--batch", str(batch_path), "--out", str(out)])
        == EXIT_OK
    )
    meta, results = read_detections(out)
    assert results == []
    _, flagged_after = read_detections(state / "flagged.csv")
    assert flagged_after == flagged_before


# --- online state: merge contract and crash safety ------------------------------


def _sliced(pixels, keep):
    out = []
    for p in pixels:
        obs = tuple(o for o in p.observations if keep(o.nominal_date))
        if obs:
            out.append(dataclasses.replace(p, observations=obs))
    return out


@pytest.fixture(scope="module")
def online_inputs(tmp_path_factory):
    """A history up to 2004 and one batch file per later nominal date."""
    from test_pipeline import one_year_scenario

    pixels, _ = one_year_scenario(seed=21, n_events=5)
    pixels = pixels[:25]
    out = tmp_path_factory.mktemp("online")
    split = dt.date(2005, 1, 1)
    write_series(out / "history.csv", {"mini": _sliced(pixels, lambda d: d < split)})
    dates = sorted(
        {o.nominal_date for p in pixels for o in p.observations if o.nominal_date >= split}
    )
    batches = []
    for date in dates:
        path = out / f"batch_{date}.csv"
        write_series(path, {"mini": _sliced(pixels, lambda d, b=date: d == b)})
        batches.append(path)
    return out / "history.csv", batches


def _init_online(history, state):
    assert main(
        [
            "online", "--state", str(state), "--init", "--series", str(history),
            "--monitor-year", "2005",
        ]
    ) == EXIT_OK


def _step(state, batch, out):
    return main(["online", "--state", str(state), "--batch", str(batch), "--out", str(out)])


def _files(state):
    return {p.name: p.read_bytes() for p in sorted(state.iterdir())}


def test_online_batch_off_cadence_leaves_state_untouched(online_inputs, tmp_path):
    """A batch date that a pixel's history already holds, or that is not its
    next 16-day date, is a data error that changes no state file: the
    batch is never sorted into place."""
    history, batches = online_inputs
    state = tmp_path / "state"
    _init_online(history, state)
    assert _step(state, batches[0], tmp_path / "first.csv") == EXIT_OK
    before = _files(state)
    for batch in (batches[0], batches[2]):
        out = tmp_path / "refused.csv"
        assert _step(state, batch, out) == EXIT_DATA
        assert _files(state) == before
        assert not out.exists()
    assert _step(state, batches[1], tmp_path / "second.csv") == EXIT_OK


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("monitor-year=2005", "monitor-year=20x5"),
     "line 1: {path}: bad value for 'monitor-year': '20x5'"),
    (lambda text: text.replace("rule=multivariate\n", ""), "{path}: missing key 'rule'"),
    (lambda text: text.replace("rule=multivariate\n", "rule\n"),
     "{path}:{line}: expected key=value, got 'rule'"),
    (lambda text: text.replace("rule=multivariate\n", "rule=multi\udcffvariate\n"),
     "{path}:{line}: not utf-8 text"),
], ids=["bad-year", "no-rule", "no-equals", "not-utf-8"])
def test_online_step_with_a_bad_state_config_is_a_data_error(
    online_inputs, tmp_path, capsys, edit, message
):
    history, batches = online_inputs
    state = tmp_path / "state"
    _init_online(history, state)
    config = state / "config.txt"
    text = config.read_text()
    assert edit(text) != text
    config.write_text(edit(text), errors="surrogateescape")  # \udcff is the byte 0xff
    capsys.readouterr()
    assert _step(state, batches[0], tmp_path / "out.csv") == EXIT_DATA
    line = text.splitlines().index("rule=multivariate") + 1
    assert message.format(path=config, line=line) in capsys.readouterr().err


def test_online_step_refuses_a_pixel_the_history_holds_under_another_site(
    online_inputs, tmp_path, capsys
):
    """A batch pixel that the history holds under another site is a data
    error that changes no state file; written, the history would hold the
    pixel under two sites and refuse every later read."""
    history, batches = online_inputs
    state = tmp_path / "state"
    _init_online(history, state)
    batch = tmp_path / "batch.csv"
    batch.write_bytes(batches[0].read_bytes().replace(b"\nmini,", b"\nother,"))
    before = _files(state)
    capsys.readouterr()
    out = tmp_path / "out.csv"
    assert _step(state, batch, out) == EXIT_DATA
    assert "is under sites 'mini' and 'other'" in capsys.readouterr().err
    assert _files(state) == before
    assert not out.exists()


def test_online_state_survives_a_failed_write(online_inputs, tmp_path, monkeypatch):
    """A step writes the batch output, then replaces flagged.csv,
    models_online.csv and, last, history.csv. A failure at any of these
    writes leaves every state file whole, and running the same batch again
    ends in the output and state files of an uninterrupted run."""
    history, batches = online_inputs
    state = tmp_path / "state"
    _init_online(history, state)
    for batch in batches:  # up to the first batch that flags a pixel
        before = tmp_path / "before"
        shutil.rmtree(before, ignore_errors=True)
        shutil.copytree(state, before)
        out = tmp_path / "out.csv"
        assert _step(state, batch, out) == EXIT_OK
        if read_detections(out)[1]:
            break
    else:
        pytest.fail("no batch flags a pixel")
    after = _files(state)
    assert "models_online.csv" in after

    trial = tmp_path / "unwritable"
    shutil.copytree(before, trial)
    assert _step(trial, batch, tmp_path / "missing" / "out.csv") == EXIT_DATA
    assert _files(trial) == _files(before)

    real_replace = os.replace
    order = ["flagged.csv", "models_online.csv", "history.csv"]
    for fail_at in range(len(order)):
        trial = tmp_path / f"trial{fail_at}"
        shutil.copytree(before, trial)
        retry_out = tmp_path / f"out{fail_at}.csv"
        targets = []

        def failing_replace(src, dst):
            targets.append(Path(dst).name)
            if len(targets) > fail_at:
                raise OSError("injected failure")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        assert _step(trial, batch, retry_out) == EXIT_DATA
        monkeypatch.setattr(os, "replace", real_replace)
        assert targets == order[:fail_at + 1]
        assert not list(trial.glob("*.tmp"))
        load_config_file(str(trial / "config.txt"))
        read_series_arrays(trial / "history.csv")
        read_detections(trial / "flagged.csv")
        if (trial / "models_online.csv").exists():
            load_models(trial / "models_online.csv")

        assert _step(trial, batch, retry_out) == EXIT_OK
        assert _files(trial) == after
        assert retry_out.read_bytes() == out.read_bytes()


def test_online_models_do_not_depend_on_hash_seed(tmp_path):
    """With two sites, the step's output files are the same under any
    string hash seed: sites are processed in sorted order."""
    from test_pipeline import one_year_scenario

    pixels, _ = one_year_scenario(seed=21, n_events=5)
    split = dt.date(2005, 5, 1)
    batch_date = min(
        o.nominal_date for p in pixels for o in p.observations if o.nominal_date >= split
    )
    halves = {"site-a": pixels[:12], "site-b": pixels[12:24]}
    write_series(
        tmp_path / "history.csv",
        {site: _sliced(p, lambda d: d < split) for site, p in halves.items()},
    )
    write_series(
        tmp_path / "batch.csv",
        {site: _sliced(p, lambda d: d == batch_date) for site, p in halves.items()},
    )
    src = str(Path(cmfda.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        state = tmp_path / f"state{seed}"
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        for argv in (
            ["--init", "--series", str(tmp_path / "history.csv"), "--monitor-year", "2005"],
            ["--batch", str(tmp_path / "batch.csv"), "--out", str(tmp_path / f"out{seed}.csv")],
        ):
            subprocess.run(
                [sys.executable, "-m", "cmfda.cli", "online", "--state", str(state), *argv],
                env=env, check=True, capture_output=True,
            )
        outputs.append(_files(state))
    assert outputs[0]["models_online.csv"]
    assert outputs[0] == outputs[1]


# --- online state: the history mirror ------------------------------------------


@pytest.fixture(scope="module")
def mirror_inputs(tmp_path_factory):
    """A history of site "west" up to 2004 and ten batches of 2005. West's
    last pixel joins at the second batch, and site "east" (sorted ahead of
    west, and parsed after it) at the third. The fourth batch is all
    cloudy; the fifth is written with every digit of its values."""
    from test_pipeline import one_year_scenario

    pixels, _ = one_year_scenario(seed=21, n_events=5)
    west, east = pixels[:8], pixels[8:14]
    out = tmp_path_factory.mktemp("mirror")
    split = dt.date(2005, 1, 1)
    write_series(out / "history.csv", {"west": _sliced(west[:-1], lambda d: d < split)})
    dates = sorted(
        {o.nominal_date for p in pixels for o in p.observations if o.nominal_date >= split}
    )[:10]
    batches = []
    for i, date in enumerate(dates):
        sites = {"west": _sliced(west if i else west[:-1], lambda d, b=date: d == b)}
        if i >= 2:
            sites["east"] = _sliced(east, lambda d, b=date: d == b)
        if i == 3:
            sites = {
                site_id: [
                    dataclasses.replace(p, observations=tuple(
                        dataclasses.replace(o, reliability=Reliability.CLOUDY)
                        for o in p.observations
                    ))
                    for p in site
                ]
                for site_id, site in sites.items()
            }
        path = out / f"batch_{date}.csv"
        with pytest.MonkeyPatch.context() as patch:
            if i == 4:
                patch.setattr(dataio, "real", lambda x: repr(float(x)))
            write_series(path, sites)
        batches.append(path)
    return out / "history.csv", batches


# The step at which the fault tests below break or remove the mirror.
MIRROR_STEP = 6


@pytest.fixture(scope="module")
def mirror_reference(mirror_inputs, tmp_path_factory):
    """An uninterrupted run over the mirror inputs: a copy of the state dir
    before each step (``before<i>``; ``before0`` is the state --init wrote)
    and each step's --out bytes and state files."""
    history, batches = mirror_inputs
    root = tmp_path_factory.mktemp("mirror_reference")
    state = root / "state"
    _init_online(history, state)
    record = []
    for i, batch in enumerate(batches):
        shutil.copytree(state, root / f"before{i}")
        assert _step(state, batch, root / "out.csv") == EXIT_OK
        record.append(((root / "out.csv").read_bytes(), _files(state)))
    return root, record


def _run_steps(state, batches, outs):
    """Each step's --out bytes and the state files after it."""
    outs.mkdir()
    record = []
    for batch in batches:
        out = outs / batch.name
        assert _step(state, batch, out) == EXIT_OK
        record.append((out.read_bytes(), _files(state)))
    return record


def _refuse_history_parse(monkeypatch, state):
    """Make any parse of the state's history.csv fail the test."""
    history = (state / "history.csv").resolve()
    parse = dataio._parse_series

    def guarded(path):
        assert Path(path).resolve() != history, "history.csv was parsed"
        return parse(path)

    monkeypatch.setattr(dataio, "_parse_series", guarded)


def test_online_steps_load_history_from_the_mirror(mirror_inputs, tmp_path, monkeypatch):
    """After --init and after every step, the mirror loads as
    read_series_arrays(history.csv) does: site and pixel order, dtypes and
    bits. A step whose mirror is valid never parses history.csv."""
    history, batches = mirror_inputs
    raw = read_series_arrays(batches[4])
    assert any(
        not np.array_equal(a.arrays.values, b.arrays.values, equal_nan=True)
        for site_id, pixels in dataio.series_as_written(raw).items()
        for a, b in zip(pixels, raw[site_id])
    ), "the fifth batch has values the history rounds"
    state = tmp_path / "state"
    _init_online(history, state)
    for batch in [None, *batches]:
        with monkeypatch.context() as patch:
            _refuse_history_parse(patch, state)
            if batch is not None:
                assert _step(state, batch, tmp_path / "out.csv") == EXIT_OK
            mirrored = dataio.read_series_mirrored(state / "history.csv", state / "history.npy")
        assert_same_sites(mirrored, read_series_arrays(state / "history.csv"))
    assert list(mirrored) == ["west", "east"]


def _nine_digit_copy(src, dst):
    """Write the series file ``src`` again at the file format's 9 digits."""
    write_series(dst, read_series(src))
    assert dst.read_bytes() != src.read_bytes()
    return dst


def test_online_step_works_on_the_batch_as_history_holds_it(
    mirror_inputs, mirror_reference, tmp_path
):
    """A step on a batch written with every digit ends in the --out and
    state files of the same step on that batch written at 9 digits."""
    _, batches = mirror_inputs
    root, record = mirror_reference
    state = tmp_path / "state"
    shutil.copytree(root / "before4", state)
    rounded = _nine_digit_copy(batches[4], tmp_path / batches[4].name)
    assert _run_steps(state, [rounded], tmp_path / "outs") == record[4:5]


def test_online_init_works_on_the_series_as_history_holds_it(tmp_path, monkeypatch):
    """--init on a series written with every digit writes the state files,
    covariances.csv among them, of --init on that series written at 9
    digits."""
    from test_pipeline import one_year_scenario

    pixels, _ = one_year_scenario(seed=21, n_events=5)
    full = tmp_path / "full.csv"
    with monkeypatch.context() as patch:
        patch.setattr(dataio, "real", lambda x: repr(float(x)))
        write_series(full, {"mini": _sliced(pixels[:12], lambda d: d < dt.date(2005, 1, 1))})
    states = []
    for series in (full, _nine_digit_copy(full, tmp_path / "rounded.csv")):
        state = tmp_path / f"state_{series.stem}"
        assert main([
            "online", "--state", str(state), "--init", "--series", str(series),
            "--monitor-year", "2005", "--rule", "mahalanobis",
        ]) == EXIT_OK
        states.append(_files(state))
    assert "covariances.csv" in states[0]
    assert states[0] == states[1]


@pytest.mark.parametrize(
    "fault", ["deleted", "truncated", "truncated_header", "other_state", "none_since_init"]
)
def test_online_step_without_a_valid_mirror_parses_history(
    mirror_inputs, mirror_reference, tmp_path, fault
):
    """A mirror deleted, truncated or taken from another state, and a state
    dir whose --init wrote none, end in the --out and state files of the
    run with valid mirrors."""
    _, batches = mirror_inputs
    root, record = mirror_reference
    start = 0 if fault == "none_since_init" else MIRROR_STEP
    state = tmp_path / "state"
    shutil.copytree(root / f"before{start}", state)
    mirror = state / "history.npy"
    if fault in ("deleted", "none_since_init"):
        mirror.unlink()
    elif fault.startswith("truncated"):
        size = 100 if fault == "truncated_header" else mirror.stat().st_size // 2
        mirror.write_bytes(mirror.read_bytes()[:size])
    else:
        shutil.copy(root / f"before{start - 1}" / "history.npy", mirror)
    assert _run_steps(state, batches[start:], tmp_path / "outs") == record[start:]


def test_online_step_reads_a_hand_edited_history(mirror_inputs, mirror_reference, tmp_path):
    """history.csv edited after its mirror was written: the steps end as
    a run whose mirror was rebuilt for the edited file. The edit, which
    drops a refit pixel's rows, changes the refits."""
    _, batches = mirror_inputs
    root, record = mirror_reference
    _, models = load_models(root / "state" / "models_online.csv")
    dropped = next(iter(models))[0].encode()
    runs = []
    for rebuilt in (False, True):
        state = tmp_path / f"state_{rebuilt}"
        shutil.copytree(root / f"before{MIRROR_STEP}", state)
        history = state / "history.csv"
        lines = history.read_bytes().splitlines(keepends=True)
        history.write_bytes(b"".join(l for l in lines if l.split(b",")[1:2] != [dropped]))
        if rebuilt:
            dataio.write_series_mirror(
                state / "history.npy", history, read_series_arrays(history)
            )
        runs.append(_run_steps(state, batches[MIRROR_STEP:], tmp_path / f"outs_{rebuilt}"))
    assert runs[0] == runs[1]
    assert runs[0][-1][1]["models_online.csv"] != record[-1][1]["models_online.csv"]


# The mirror step that flags the first pixel; MIRROR_STEP flags none.
FLAG_STEP = 8


def test_online_step_survives_a_failed_mirror_write(
    mirror_inputs, mirror_reference, tmp_path, monkeypatch, capsys
):
    """The mirror is replaced after history.csv commits the step, and
    flagged.csv before the other state files only when its bytes change:
    on a step with new flags, not on one without. When the mirror's replace
    fails, the step still exits 0 with its outputs and leaves the old
    mirror; the next step refuses it as stale and ends as an uninterrupted
    run."""
    _, batches = mirror_inputs
    root, record = mirror_reference
    real_replace = os.replace
    for step, replaced in [
        (MIRROR_STEP, ["models_online.csv", "history.csv", "history.npy"]),
        (FLAG_STEP, ["flagged.csv", "models_online.csv", "history.csv", "history.npy"]),
    ]:
        assert (b" new_flags=0" in record[step][0]) == (step == MIRROR_STEP)
        state = tmp_path / f"state{step}"
        shutil.copytree(root / f"before{step}", state)
        stale = (state / "history.npy").read_bytes()
        targets = []

        def failing_replace(src, dst):
            targets.append(Path(dst).name)
            if Path(dst).name == "history.npy":
                raise OSError("injected failure")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        out = tmp_path / f"out{step}.csv"
        assert _step(state, batches[step], out) == EXIT_OK
        monkeypatch.setattr(os, "replace", real_replace)
        assert targets == replaced
        assert "history mirror not written: injected failure" in capsys.readouterr().err
        out_bytes, files = record[step]
        assert out.read_bytes() == out_bytes
        assert _files(state) == {**files, "history.npy": stale}
        assert _run_steps(state, batches[step + 1:], tmp_path / f"outs{step}") == record[step + 1:]


def test_online_models_header_spans_the_refits(mirror_inputs, tmp_path, monkeypatch):
    """The models_online.csv header window is the envelope of the step's
    refits' own training windows: it holds each, and it ends before the
    batch date."""
    history, batches = mirror_inputs
    state = tmp_path / "state"
    _init_online(history, state)
    refits = []
    process = pipeline.online_process_batch

    def recording(*args, **kwargs):
        outcome = process(*args, **kwargs)
        refits.extend(outcome.models.values())
        return outcome

    monkeypatch.setattr(pipeline, "online_process_batch", recording)
    checked = 0
    for batch in batches:
        refits.clear()
        out = tmp_path / "out.csv"
        assert _step(state, batch, out) == EXIT_OK
        if not refits:
            continue
        train, models = load_models(state / "models_online.csv")
        assert len(models) == len(refits)
        for model in refits:
            assert train.start <= model.train_window[0] <= model.train_window[1] <= train.end
        assert train.start == min(model.train_window[0] for model in refits)
        assert train.end == max(model.train_window[1] for model in refits)
        assert train.end < dt.date.fromisoformat(read_detections(out)[0]["batch"])
        checked += 1
    assert checked


def test_online_step_refuses_and_rewrites_a_parent_format_mirror(
    mirror_inputs, mirror_reference, tmp_path, parses
):
    """A history mirror in the format that mirrors had before they became
    one block is refused though it holds the history's hash: the step
    parses history.csv and writes the mirror anew, ending as a run whose
    mirrors were valid, and the next step reads it without a parse."""
    from test_dataio import _parent_format_mirror

    _, batches = mirror_inputs
    root, record = mirror_reference
    state = tmp_path / "state"
    shutil.copytree(root / f"before{MIRROR_STEP}", state)
    _parent_format_mirror(state / "history.npy", state / "history.csv")
    parses.clear()
    steps = batches[MIRROR_STEP:MIRROR_STEP + 2]
    assert _run_steps(state, steps, tmp_path / "outs") == record[MIRROR_STEP:MIRROR_STEP + 2]
    assert [path.name for path in parses] == [
        "history.csv", steps[0].name, steps[1].name
    ]


# --- online state: the covariance mirror ---------------------------------------

# Steps of the Mahalanobis runs below.
SIGMA_STEPS = 8


def _init_mahalanobis(history, state, monitor_year="2005"):
    assert main([
        "online", "--state", str(state), "--init", "--series", str(history),
        "--monitor-year", monitor_year, "--rule", "mahalanobis",
    ]) == EXIT_OK


def _covariance_loads(monkeypatch):
    """The paths that ``load_covariances`` is called on."""
    paths = []
    load = dataio.load_covariances

    def recording(path):
        paths.append(Path(path).name)
        return load(path)

    monkeypatch.setattr(dataio, "load_covariances", recording)
    return paths


@pytest.fixture(scope="module")
def sigma_reference(online_inputs, tmp_path_factory):
    """A Mahalanobis state as --init wrote it (``init``) and a run of the
    first batches from it, with each step's --out bytes and state files;
    no step of that run parses covariances.csv."""
    history, batches = online_inputs
    root = tmp_path_factory.mktemp("sigma")
    _init_mahalanobis(history, root / "init")
    assert {"covariances.csv", "covariances.npy"} <= set(_files(root / "init"))
    shutil.copytree(root / "init", root / "state")
    with pytest.MonkeyPatch.context() as patch:
        loads = _covariance_loads(patch)
        record = _run_steps(root / "state", batches[:SIGMA_STEPS], root / "outs")
    assert loads == []
    return root, record


def _scale_covariances(path, factor):
    """Save the covariance file again with every variance and covariance
    times ``factor``: a hand edit that changes every served value."""
    table = load_covariances(path)

    def scaled(entries):
        return {key: CovarianceEntry(e.var_nir * factor, e.cov * factor, e.var_ndvi * factor, e.n)
                for key, e in entries.items()}

    save_covariances(path, CubeCovarianceTable(
        scaled(table.cubes), scaled(table.site_periods), scaled(table.sites),
        table.min_cube_samples,
    ))


def _without_covariance_mirror(record):
    return [(out, {name: data for name, data in files.items() if name != "covariances.npy"})
            for out, files in record]


@pytest.mark.parametrize("fault", ["deleted", "truncated", "other_state", "edited"])
def test_online_step_without_a_valid_covariance_mirror_parses_covariances(
    online_inputs, sigma_reference, tmp_path, monkeypatch, fault
):
    """A covariance mirror deleted, truncated or copied from another state,
    or left stale by a hand edit of covariances.csv, ends in the --out and
    state files (but the mirror) of a run whose mirror was deleted: every
    step parses covariances.csv. The edit changes the flags."""
    history, batches = online_inputs
    root, record = sigma_reference
    runs = []
    for broken in (True, False):
        state = tmp_path / f"state_{broken}"
        shutil.copytree(root / "init", state)
        if fault == "edited":
            _scale_covariances(state / "covariances.csv", 1e-4)
        mirror = state / "covariances.npy"
        if not broken or fault == "deleted":
            mirror.unlink()
        elif fault == "truncated":
            mirror.write_bytes(mirror.read_bytes()[:mirror.stat().st_size // 2])
        elif fault == "other_state":
            _init_mahalanobis(history, tmp_path / "other", monitor_year="2006")
            shutil.copy(tmp_path / "other" / "covariances.npy", mirror)
        with monkeypatch.context() as patch:
            loads = _covariance_loads(patch)
            runs.append(_run_steps(state, batches[:SIGMA_STEPS], tmp_path / f"outs_{broken}"))
        assert loads == ["covariances.csv"] * SIGMA_STEPS
    assert _without_covariance_mirror(runs[0]) == _without_covariance_mirror(runs[1])
    outs = [[out for out, _ in run] for run in (runs[0], record)]
    assert (outs[0] != outs[1]) == (fault == "edited")


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exit_1(tmp_path, sim_dir, models_dir, threads, capsys):
    series = str(sim_dir / "series.csv")
    commands = (
        ["fit", "--series", series, "--out", str(tmp_path / "m")],
        ["detect", "--series", series, "--models", str(models_dir), "--out", str(tmp_path / "d")],
        ["train", "--series", series, "--labels", str(sim_dir / "labels.csv"),
         "--out", str(tmp_path / "r.csv")],
    )
    for command in commands:
        assert main(command + ["--threads", threads]) == EXIT_USAGE, command[0]
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
    config = tmp_path / "threads.cfg"
    config.write_text(f"threads={threads}\n")
    assert main(["--config", str(config)] + commands[0]) == EXIT_USAGE
    assert not (tmp_path / "m").exists() and not (tmp_path / "d").exists()


def test_threaded_commands_never_fork(tmp_path, sim_dir, monkeypatch):
    """fit and detect run their pixel slices on threads, so they work in a
    process that cannot fork."""
    from cmfda import dataio, pipeline
    from cmfda.detection import MultivariateRule
    from cmfda.windows import make_windows

    def no_fork():
        raise OSError("fork is not allowed here")

    monkeypatch.setattr(os, "fork", no_fork)
    (pixels,) = dataio.read_series_arrays(sim_dir / "series.csv").values()
    assert len(pixels) == 625   # several slices, so the calls below run threads
    windows = make_windows(2003, 1)
    fit = pipeline.fit_pixels(pixels, windows, (Band.NIR, Band.NDVI), workers=4)
    assert len(fit.models[0]) + len(fit.skipped) == 2 * len(pixels)
    results, skipped = pipeline.detect_pixels(
        pixels, fit, MultivariateRule(0.082, 0.182, 4), windows, "site", workers=3
    )
    assert len(results) + len(skipped) == len(pixels)
    out = tmp_path / "models"
    assert main([
        "fit", "--series", str(sim_dir / "series.csv"), "--out", str(out),
        "--windows", "2003:1", "--bands", "nir", "--threads", "2",
    ]) == EXIT_OK
    assert (out / "models_2003_2004.csv").exists()


# --- fit's series mirror ----------------------------------------------------------


def _without_pixel(src, dst, pixel_id):
    """Copy the series file ``src`` without the rows of ``pixel_id``."""
    lines = src.read_bytes().splitlines(keepends=True)
    kept = [l for l in lines if l.split(b",")[1:2] != [pixel_id.encode()]]
    assert len(kept) < len(lines)
    dst.write_bytes(b"".join(kept))
    return dst


@pytest.fixture(scope="module")
def fit_mirror_scene(tmp_path_factory):
    """A series of two sites whose rows interleave in the file (sorted by
    date), with fill values and cloudy dates; a copy of it without one
    pixel; and the models dir that fit writes for the first."""
    from test_pipeline import one_year_scenario

    pixels, _ = one_year_scenario(seed=21, n_events=5)

    def with_fills(pixel, k):
        observations = tuple(
            dataclasses.replace(o, values={**o.values, Band.NIR: band_fill(Band.NIR)})
            if (i + k) % 7 == 0 else o
            for i, o in enumerate(pixel.observations)
        )
        return dataclasses.replace(pixel, observations=observations)

    root = tmp_path_factory.mktemp("fit_mirror")
    sites = {
        "west": [with_fills(p, k) for k, p in enumerate(pixels[:10])],
        "east": pixels[10:20],
    }
    write_series(root / "by_site.csv", sites)
    header, names, *rows = (root / "by_site.csv").read_bytes().splitlines(keepends=True)
    series = root / "series.csv"
    series.write_bytes(header + names + b"".join(sorted(rows, key=lambda r: r.split(b",")[4])))
    dropped = _without_pixel(series, root / "dropped.csv", sites["west"][3].pixel_id)
    models = root / "models"
    assert _fit(series, models) == EXIT_OK
    return series, dropped, models


def _fit(series, models):
    return main([
        "fit", "--series", str(series), "--out", str(models), "--windows", "2003:1",
        "--bands", "nir,ndvi", "--threads", "1",
    ])


def _detect_and_standardize(series, models, out):
    """The bytes of a shipped detect and of a 4c standardize of ``series``
    under the models in ``models``."""
    out.mkdir()
    assert main([
        "detect", "--series", str(series), "--models", str(models),
        "--out", str(out / "detect.csv"), "--threads", "1",
    ]) == EXIT_OK
    assert main([
        "standardize", "--series", str(series), "--models", str(models), "--scheme", "4c",
        "--band", "nir", "--out", str(out / "std.csv"),
    ]) == EXIT_OK
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _parsed_outputs(series, models, out):
    """:func:`_detect_and_standardize` under a copy of ``models`` without
    its mirror, so the series is parsed."""
    bare = out.parent / f"{out.name}_models"
    shutil.copytree(models, bare, ignore=shutil.ignore_patterns("series.npy"))
    return _detect_and_standardize(series, bare, out)


@pytest.fixture
def parses(monkeypatch):
    """The paths that ``_parse_series`` is called on."""
    paths = []
    parse = dataio._parse_series

    def recording(path, *args, **kwargs):
        paths.append(Path(path))
        return parse(path, *args, **kwargs)

    monkeypatch.setattr(dataio, "_parse_series", recording)
    return paths


def test_fit_mirror_loads_as_the_parse(fit_mirror_scene, monkeypatch):
    """fit leaves series.npy beside its models. It loads as
    read_series_arrays(series) does, in site and pixel order, dtypes and
    bits, and loading it parses nothing."""
    series, _, models = fit_mirror_scene
    parsed = read_series_arrays(series)
    assert list(parsed) == ["west", "east"]
    assert any(np.isnan(cp.arrays.values).any() for cp in parsed["west"])
    assert any((~cp.arrays.clear).any() for cp in parsed["east"])
    with monkeypatch.context() as patch:
        patch.setattr(dataio, "_parse_series", lambda *a, **k: pytest.fail("series parsed"))
        mirrored = dataio.read_series_mirrored(series, models / "series.npy")
    assert_same_sites(mirrored, parsed)


def test_detect_and_standardize_read_a_valid_mirror_without_parsing(
    fit_mirror_scene, tmp_path, monkeypatch
):
    """With fit's mirror valid, detect and standardize never parse the
    series, and they write what they write from a parse."""
    series, _, models = fit_mirror_scene
    with monkeypatch.context() as patch:
        patch.setattr(dataio, "_parse_series", lambda *a, **k: pytest.fail("series parsed"))
        mirrored = _detect_and_standardize(series, models, tmp_path / "mirrored")
    assert mirrored == _parsed_outputs(series, models, tmp_path / "parsed")


@pytest.mark.parametrize(
    "fault", ["deleted", "truncated", "foreign", "series_edited", "no_mirror_written"]
)
def test_detect_without_a_valid_fit_mirror_parses_the_series(
    fit_mirror_scene, tmp_path, fault, parses
):
    """A fit mirror deleted, truncated, taken from another series or left
    stale by an edit of the series, and a models dir written without one
    (as a fit that predates the mirror writes it): detect and standardize
    parse the series and write what a parse gives."""
    scene_series, dropped, scene_models = fit_mirror_scene
    series, models = tmp_path / "series.csv", tmp_path / "models"
    shutil.copy(scene_series, series)
    shutil.copytree(scene_models, models)
    mirror = models / "series.npy"
    if fault == "deleted":
        mirror.unlink()
    elif fault == "truncated":
        mirror.write_bytes(mirror.read_bytes()[: mirror.stat().st_size // 2])
    elif fault == "foreign":
        assert _fit(dropped, tmp_path / "other") == EXIT_OK
        shutil.copy(tmp_path / "other" / "series.npy", mirror)
    elif fault == "series_edited":
        shutil.copy(dropped, series)
    else:
        shutil.rmtree(models)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "write_series_mirror", lambda *a, **k: None)
            assert _fit(series, models) == EXIT_OK
        assert not mirror.exists()
        assert _files(models) == {
            name: data for name, data in _files(scene_models).items() if name != "series.npy"
        }
    parses.clear()
    outputs = _detect_and_standardize(series, models, tmp_path / "out")
    assert parses == [series, series]
    assert outputs == _parsed_outputs(series, models, tmp_path / "parsed")
    if fault in ("foreign", "series_edited"):   # the mirror's series writes other bytes
        mirrored = dropped if fault == "foreign" else scene_series
        assert outputs != _parsed_outputs(mirrored, models, tmp_path / "mirrored")


def test_fit_survives_a_failed_mirror_write(
    fit_mirror_scene, tmp_path, monkeypatch, capsys, parses
):
    """When the mirror cannot be written, fit still exits 0, with a warning,
    and writes the same model files; detect then parses the series."""
    series, _, scene_models = fit_mirror_scene
    real_replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == "series.npy":
            raise OSError("injected failure")
        real_replace(src, dst)

    models = tmp_path / "models"
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", failing_replace)
        assert _fit(series, models) == EXIT_OK
    assert "series mirror not written: injected failure" in capsys.readouterr().err
    assert _files(models) == {
        name: data for name, data in _files(scene_models).items() if name != "series.npy"
    }
    parses.clear()
    assert _detect_and_standardize(series, models, tmp_path / "out") == _parsed_outputs(
        series, scene_models, tmp_path / "parsed"
    )
    assert parses[:2] == [series, series]


def test_fit_mirror_holds_the_hash_of_the_bytes_fit_parsed(
    fit_mirror_scene, tmp_path, monkeypatch, parses
):
    """The series changes after fit parsed it and before fit writes the
    mirror. The mirror names the bytes fit parsed: detect parses the changed
    file, and uses the mirror again once the file holds those bytes."""
    scene_series, dropped, scene_models = fit_mirror_scene
    series, models = tmp_path / "series.csv", tmp_path / "models"
    shutil.copy(scene_series, series)
    fit_pixels = pipeline.fit_pixels

    def fit_then_edit(*args, **kwargs):
        shutil.copy(dropped, series)
        return fit_pixels(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "fit_pixels", fit_then_edit)
        assert _fit(series, models) == EXIT_OK
    assert series.read_bytes() == dropped.read_bytes()
    assert _files(models) == _files(scene_models)
    parses.clear()
    assert _detect_and_standardize(series, models, tmp_path / "edited") == _parsed_outputs(
        series, models, tmp_path / "edited_parsed"
    )
    assert parses[:2] == [series, series]
    shutil.copy(scene_series, series)
    parses.clear()
    _detect_and_standardize(series, models, tmp_path / "restored")
    assert parses == []
