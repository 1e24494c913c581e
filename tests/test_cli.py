import contextlib
import dataclasses
import datetime as dt
import hashlib
import os
import shutil
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import cmfda
import scalar_oracle as oracle
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
    MAX_GRID_POINTS,
    SUBCOMMANDS,
    UsageError,
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
    read_covariances_mirrored,
    read_detections,
    read_labels,
    read_report,
    read_series,
    read_series_arrays,
    save_covariances,
    save_models,
    write_covariance_mirror,
    write_labels,
    write_series,
)
from cmfda.core import Band, DeforestationLabel, Reliability, band_fill
from cmfda.detection import CovarianceEntry, CubeCovarianceTable, DetectionResult
from cmfda.standardize import KeyKind, Scheme
from conftest import assert_same_models, assert_same_sites


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


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
    # the bytes the generator wrote when it built every pixel eagerly
    assert _sha256(tmp_path / "a" / "series.csv") == (
        "ddfbf4b887b586750c9b3293295c8ac086e4dfa32050d0d3bbd72a1bcb523f98"
    )
    assert _sha256(tmp_path / "a" / "labels.csv") == (
        "86358eb2d0c879e160aed9d58f222b8857aae606211a9236becaf74d925d1733"
    )


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
    assert _sha256(out / "series.csv") == (
        "045c28d0860f890a51e2631574bb846d58ab6d4b7bd0e98ae69787695017c91e"
    )
    assert _sha256(out / "labels.csv") == (
        "208725960af2b4e7cd1cb7c1ac473146018145dd14b562cafa44ac4eb71fbbd7"
    )


@pytest.mark.parametrize("flags", [
    ["--n-events", "700"], ["--n-events", "-1"], ["--noise-sd", "nan"],
    ["--first-year", "0"], ["--first-year", "9995"],
])
def test_simulate_refuses_a_bad_scene_before_writing(tmp_path, flags, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--out", str(out), *flags]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("cmfda: data error:") and "Traceback" not in err
    assert not out.exists()


def test_simulate_places_events_after_any_first_year(tmp_path):
    out = tmp_path / "sim"
    assert main(
        ["simulate", "--out", str(out), "--first-year", "2010", "--n-events", "4", "--seed", "1"]
    ) == EXIT_OK
    deforested = {l.pixel_id for l in read_labels(out / "labels.csv") if l.z}
    assert len(deforested) == 4
    config = dataio.sonora_like_config(seed=1, n_events=4, first_year=2010)
    assert {dataio.pixel_name(config.site_id, *e.pixels[0]) for e in config.events} == deforested
    assert {e.date.year for e in config.events} <= set(range(2012, 2017))


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
    assert model_files == [   # each model file with its mirror
        f"models_{tag}.{ext}" for tag in ("2003_2004", "2004_2005", "2005_2006", "2006_2007",
                                          "2007_2008") for ext in ("csv", "npy")
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


def test_ecdf_detect_does_not_import_numpy_ma(sim_dir, models_dir, tmp_path):
    """An ECDF scheme's stages take their distinct values without loading
    numpy.ma into the command's interpreter."""
    src = str(Path(cmfda.__file__).resolve().parents[1])
    code = (
        "import sys; from cmfda.cli import main; "
        f"assert main(['detect', '--series', {str(sim_dir / 'series.csv')!r}, "
        f"'--models', {str(models_dir)!r}, '--out', {str(tmp_path / 'det.csv')!r}, "
        "'--scheme', 'IVii', '--threads', '1']) == 0; "
        "print('numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


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


def _detect(sim_dir, models_dir, out, *flags):
    assert main(["detect", "--series", str(sim_dir / "series.csv"), "--models", str(models_dir),
                 "--out", str(out), "--threads", "1", *flags]) == EXIT_OK


def test_report_refuses_a_pixel_listed_twice(sim_dir, models_dir, tmp_path, capsys):
    """A label or detection file holds one row per pixel: a second row of a
    pixel is a data error at its line, not a row that silently wins."""
    det, labels = tmp_path / "det.csv", tmp_path / "labels.csv"
    _detect(sim_dir, models_dir, det)
    label_lines = (sim_dir / "labels.csv").read_text().splitlines()
    pixel = label_lines[2].split(",")[0]
    labels.write_text("\n".join([*label_lines, f"{pixel},0,0,3,1"]) + "\n")
    report = ["report", "--detections", str(det), "--labels", str(labels)]
    assert main(report) == EXIT_DATA
    assert (f"line {len(label_lines) + 1}: {labels}: pixel {pixel!r} has a second row; "
            "the first is on line 3") in capsys.readouterr().err
    det_lines = det.read_text().splitlines()
    det.write_text("\n".join([*det_lines, f"{pixel},0,,"]) + "\n")
    report[-1] = str(sim_dir / "labels.csv")
    assert main(report) == EXIT_DATA
    assert (f"line {len(det_lines) + 1}: {det}: pixel {pixel!r} has a second row; "
            "the first is on line 3") in capsys.readouterr().err


def test_report_names_a_pixel_only_one_file_holds(sim_dir, models_dir, tmp_path, capsys):
    """Detections and labels that cover different pixels are a data error
    naming the first pixel one of them lacks, and the file that lacks it."""
    det, labels = tmp_path / "det.csv", tmp_path / "labels.csv"
    _detect(sim_dir, models_dir, det)
    full_det, full_labels = det.read_text().splitlines(), (sim_dir / "labels.csv").read_text()
    det.write_text("\n".join(full_det[:5] + full_det[6:]) + "\n")
    labels.write_text(full_labels)
    report = ["report", "--detections", str(det), "--labels", str(labels)]
    assert main(report) == EXIT_DATA
    dropped = full_det[5].split(",")[0]
    assert f"{det}: no row for pixel {dropped!r}, which {labels} holds" in capsys.readouterr().err
    det.write_text("\n".join(full_det) + "\n")
    label_lines = full_labels.splitlines()
    labels.write_text("\n".join(label_lines[:7] + label_lines[8:]) + "\n")
    assert main(report) == EXIT_DATA
    dropped = label_lines[7].split(",")[0]
    assert f"{labels}: no row for pixel {dropped!r}, which {det} holds" in capsys.readouterr().err


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


@pytest.mark.parametrize("bands", ["nir,nir", "nir,NIR", "red,nir,ndvi,Nir"])
def test_fit_refuses_a_band_named_twice(tmp_path, bands, capsys):
    """A band named twice in --bands, in any case, is a usage error raised
    before the series is read (here there is none, a data error)."""
    out = tmp_path / "models"
    command = ["fit", "--series", str(tmp_path / "missing.csv"), "--out", str(out),
               "--bands", bands]
    assert main(command) == EXIT_USAGE
    assert "--bands names nir twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "standardize", "mahalanobis"])
def test_a_band_no_model_file_holds_is_a_data_error(sim_dir, tmp_path, command, capsys):
    """Models fitted without a band the command needs are a data error that
    names the band and --models, not a run that skips every pixel."""
    models = tmp_path / "models"
    assert main(["fit", "--series", str(sim_dir / "series.csv"), "--out", str(models),
                 "--windows", "2003:2", "--bands", "nir,red"]) == EXIT_OK
    out = tmp_path / "out.csv"
    args = {
        "detect": ["detect", "--rule", "univariate", "--band", "blue", "--L", "0.1"],
        "standardize": ["standardize", "--band", "blue", "--scheme", "1"],
        "mahalanobis": ["detect", "--rule", "mahalanobis"],
    }[command]
    code = main([*args, "--series", str(sim_dir / "series.csv"), "--models", str(models),
                 "--out", str(out)])
    assert code == EXIT_DATA
    band = "NDVI" if command == "mahalanobis" else "BLUE"
    assert f"no models_*.csv file in --models {str(models)!r} holds band {band}" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_a_band_some_windows_lack_skips_their_pixels(sim_dir, models_dir, tmp_path):
    """A band that one model file holds and another lacks is no error: the
    pixels of the window that lacks it are skipped."""
    edited = tmp_path / "models"
    edited.mkdir()
    paths = sorted(models_dir.glob("models_*.csv"))
    for path in paths:
        (edited / path.name).write_text(path.read_text())
    lines = paths[0].read_text().splitlines(keepends=True)
    (edited / paths[0].name).write_text("".join(
        lines[:2] + [line for line in lines[2:] if line.split(",")[1] != str(int(Band.NDVI))]))
    det = tmp_path / "det.csv"
    _detect(sim_dir, edited, det)
    meta, results = read_detections(det)
    assert int(meta["skipped"]) > 0


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


@pytest.fixture(scope="module")
def standardizer_files(sim_dir, tmp_path_factory):
    """Models of NIR, NDVI and EVI over 2003:2, and a standardizer file of
    scheme 1 for each band and of scheme 2 for NDVI, keyed (band, scheme)."""
    out = tmp_path_factory.mktemp("standardizers")
    series = str(sim_dir / "series.csv")
    assert main([
        "fit", "--series", series, "--out", str(out / "models"), "--windows", "2003:2",
        "--bands", "nir,ndvi,evi", "--threads", "1",
    ]) == EXIT_OK
    files = {}
    for band, scheme in (("nir", "1"), ("ndvi", "1"), ("evi", "1"), ("ndvi", "2")):
        files[band, scheme] = str(out / f"std_{band}_{scheme}.csv")
        assert main([
            "standardize", "--series", series, "--models", str(out / "models"),
            "--scheme", scheme, "--band", band, "--out", files[band, scheme],
        ]) == EXIT_OK
    return out / "models", files


@pytest.mark.parametrize("rule, given, extra, message", [
    ([], [("nir", "1")], [], "no standardizer file for band NDVI, which the rule scans"),
    ([], [("nir", "1"), ("ndvi", "1"), ("evi", "1")], [],
     "a EVI standardizer, but the rule scans NIR, NDVI"),
    (["--rule", "univariate", "--band", "ndvi", "--L", "4"], [("nir", "1")], [],
     "a NIR standardizer, but the rule scans NDVI"),
    ([], [("nir", "1"), ("ndvi", "1")], ["--scheme", "IVii"],
     "--scheme does not apply with --standardizer"),
    (["--rule", "univariate", "--L", "4"], [("nir", "1")], ["--scheme", "1"],
     "--scheme does not apply with --standardizer"),
    ([], [("ndvi", "1"), ("nir", "1"), ("ndvi", "1")], [], "two standardizer files for band NDVI"),
    ([], [("nir", "1"), ("ndvi", "2")], [], "standardizer files of schemes 1 and 2"),
], ids=["missing-band", "unscanned-band", "unscanned-univariate", "with-scheme",
        "with-same-scheme", "two-for-a-band", "two-schemes"])
def test_detect_refuses_standardizers_it_would_not_apply(
    sim_dir, standardizer_files, tmp_path, capsys, rule, given, extra, message
):
    """``--standardizer`` takes one file of one scheme per band that the
    rule scans, and no other --scheme: anything else is refused (exit 1),
    and no detections file is written."""
    models, files = standardizer_files
    out = tmp_path / "det.csv"
    paths = [arg for key in given for arg in ("--standardizer", files[key])]
    assert main([
        "detect", "--series", str(sim_dir / "series.csv"), "--models", str(models),
        "--out", str(out), "--threads", "1", *rule, *paths, *extra,
    ]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_detect_applies_and_names_the_scheme_of_its_standardizers(
    sim_dir, standardizer_files, tmp_path
):
    """A file per rule band is applied as fitting their scheme in place
    would be, and the header names the files' scheme."""
    models, files = standardizer_files
    base = ["detect", "--series", str(sim_dir / "series.csv"), "--models", str(models),
            "--threads", "1"]
    runs = {
        "loaded": ["--standardizer", files["nir", "1"], "--standardizer", files["ndvi", "1"]],
        "fitted": ["--scheme", "1"],
        "raw": [],
    }
    for name, args in runs.items():
        assert main(base + ["--out", str(tmp_path / f"{name}.csv"), *args]) == EXIT_OK
    loaded, fitted, raw = (read_detections(tmp_path / f"{name}.csv") for name in runs)
    assert loaded[0]["scheme"] == "1" and raw[0]["scheme"] == "---"
    assert (tmp_path / "loaded.csv").read_bytes() == (tmp_path / "fitted.csv").read_bytes()
    assert loaded[1] != raw[1]
    out = tmp_path / "ndvi.csv"
    assert main(base + ["--out", str(out), "--rule", "univariate", "--band", "ndvi", "--L", "4",
                        "--standardizer", files["ndvi", "2"]]) == EXIT_OK
    assert read_detections(out)[0]["scheme"] == "2"


def test_standardize_reports_fallback_levels(tmp_path, capsys):
    """The summary counts, per stage, the history's keys that each fallback
    level served; on 12 pixels over one window most cubes are too sparse."""
    from cmfda.cli import _load_model_dir
    from test_pipeline import one_year_site

    pixels, _ = one_year_site(seed=21, n_events=6)
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
    from test_pipeline import one_year_site

    pixels, labels = one_year_site(seed=21, n_events=6)
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


@pytest.mark.parametrize("rule, flags, scopes, series", [
    ("univariate", ["--band", "ndvi"], 2, 1),
    ("multivariate", ["--anneal-iters", "100"], 1, 2),
    ("mahalanobis", ["--grid", "2:20:2"], 1, 1),
])
def test_train_computes_each_level_once_and_never_scans(rule, flags, scopes, series, tmp_path,
                                                         monkeypatch):
    """A pixel's level of a series at C is the same whichever search, fold,
    site or sweep row asks, so `train` calls flag_levels once per scope (each
    site for the univariate rule, all pixels for the pair rules), series (a
    band, or the index) and C, and scans no errors."""
    from cmfda import detection, pipeline, training
    from test_pipeline import one_year_site

    pixels, labels = one_year_site(seed=21, n_events=6)
    series_path, labels_path = tmp_path / "series.csv", tmp_path / "labels.csv"
    write_series(series_path, {"east": pixels[0::2], "west": pixels[1::2]})
    write_labels(
        labels_path,
        [DeforestationLabel(p.pixel_id, p.col, p.row, labels[p.pixel_id], labels[p.pixel_id])
         for p in pixels],
    )
    levels, scans = [], []
    flag_levels = training.flag_levels
    monkeypatch.setattr(training, "flag_levels", lambda errors, values, c, *rest: (
        levels.append((id(errors), id(values), c)) or flag_levels(errors, values, c, *rest)))
    for module in (detection, pipeline, training):
        scan = module.scan_window_errors
        monkeypatch.setattr(module, "scan_window_errors",
                            lambda *a, scan=scan: scans.append(a) or scan(*a))
    assert main(
        [
            "train", "--series", str(series_path), "--labels", str(labels_path),
            "--out", str(tmp_path / "r.csv"), "--rule", rule, *flags,
            "--windows", "2003:2", "--cv-folds", "2", "--sweep-fixed", "--threads", "1",
        ]
    ) == EXIT_OK
    assert len(set(levels)) == len(levels) == scopes * series * len(C_VALUES)
    assert not scans


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
        ["--monitor-year", "2009"], ["--series", str(tmp_path / "missing.csv")],
    ):
        assert main(step + extra) == EXIT_USAGE, extra
    # and --init refuses the flags of a step, before it reads the series
    for extra in (["--batch", str(sim_dir / "series.csv")], ["--out", str(tmp_path / "b.csv")]):
        assert main(init + extra) == EXIT_USAGE, extra
    assert not (tmp_path / "state").exists() and not (tmp_path / "b.csv").exists()

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


def _train_missing_series(tmp_path):
    """A train command whose series does not exist: a flag refused with
    exit 1 here was refused before any file was read."""
    return [
        "train", "--series", str(tmp_path / "missing.csv"),
        "--labels", str(tmp_path / "missing-labels.csv"), "--out", str(tmp_path / "r.csv"),
    ]


@pytest.mark.parametrize("iters", ["0", "-3", "10", "1010"])
def test_train_refuses_anneal_iters_off_the_temperature_levels(tmp_path, iters, capsys):
    assert main(_train_missing_series(tmp_path) + ["--anneal-iters", iters]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--anneal-iters must be a positive multiple of 20, got {iters}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rule, flag", [
    ("univariate", "--grid"), ("mahalanobis", "--grid"),
    ("multivariate", "--grid-nir"), ("multivariate", "--grid-ndvi"),
])
@pytest.mark.parametrize("spec", ["nan:0.3:0.01", "0.01:inf:0.01", "0.01:0.3:nan"])
def test_train_refuses_a_grid_spec_that_is_not_finite(tmp_path, rule, flag, spec, capsys):
    assert main(_train_missing_series(tmp_path) + ["--rule", rule, flag, spec]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"cmfda: error: bad grid spec {spec!r}") and "Traceback" not in err


@pytest.mark.parametrize("folds", ["1", "0", "-2"])
def test_train_refuses_cv_folds_below_two_at_once(tmp_path, folds, capsys):
    assert main(_train_missing_series(tmp_path) + ["--cv-folds", folds]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"cmfda: error: --cv-folds must be at least 2, got {folds}\n"


def _train_univariate(series, labels, out):
    return main([
        "train", "--series", str(series), "--labels", str(labels), "--out", str(out),
        "--rule", "univariate", "--band", "nir", "--windows", "2003:1",
        "--grid", "0.04:0.2:0.04", "--cv-folds", "2", "--threads", "1",
    ])


def test_train_needs_a_label_for_each_pixel_it_trains_on(sim_dir, tmp_path, capsys):
    """A fitted pixel missing from the labels file is a data error that
    names the pixel and the file, and no report is written; a pixel skipped
    for want of a model needs no label."""
    header, names, first, *rest = (sim_dir / "labels.csv").read_text().splitlines(True)
    pixel_id = first.split(",")[0]
    labels = tmp_path / "labels.csv"
    labels.write_text(header + names + "".join(rest))
    out = tmp_path / "report.csv"
    assert _train_univariate(sim_dir / "series.csv", labels, out) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"cmfda: data error: {labels}: pixel {pixel_id!r} has no label\n"
    assert not out.exists()

    # the same pixel with every date cloudy is skipped, label or not
    cloudy = tmp_path / "series.csv"
    with open(sim_dir / "series.csv") as src, open(cloudy, "w", newline="") as dst:
        for line in src:
            fields = line.split(",")
            if fields[1:2] == [pixel_id]:
                fields[6] = str(int(Reliability.CLOUDY))
            dst.write(",".join(fields))
    assert _train_univariate(cloudy, labels, out) == EXIT_OK
    assert out.exists()


def test_cli_online_replay_matches_cli_detect(tmp_path):
    """Chapter-style loop: replaying a year of batches through the online
    command flags exactly the (pixel, date) pairs of batch detection."""
    import dataclasses

    from test_pipeline import one_year_site

    pixels, labels = one_year_site(seed=21, n_events=5)
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
    from test_pipeline import one_year_site

    pixels, _ = one_year_site(seed=21, n_events=5)
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
    """A step replaces the batch output, then flagged.csv,
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
    for fail_at in range(4):
        trial = tmp_path / f"trial{fail_at}"
        shutil.copytree(before, trial)
        retry_out = tmp_path / f"out{fail_at}.csv"
        order = [retry_out.name, "flagged.csv", "models_online.csv", "history.csv"]
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
    from test_pipeline import one_year_site

    pixels, _ = one_year_site(seed=21, n_events=5)
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
    from test_pipeline import one_year_site

    pixels, _ = one_year_site(seed=21, n_events=5)
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
        if i == 4:   # the row writer, its reals written in full
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle, "real", lambda x: repr(float(x)))
                oracle.write_series(path, sites)
        else:
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

    def guarded(path, *args):
        assert Path(path).resolve() != history, "history.csv was parsed"
        return parse(path, *args)

    monkeypatch.setattr(dataio, "_parse_series", guarded)


def test_online_steps_load_history_from_the_mirror(mirror_inputs, tmp_path, monkeypatch):
    """After --init and after every step, the mirror loads as
    read_series_arrays(history.csv) does: site and pixel order, dtypes and
    bits. A step whose mirror is valid never parses history.csv."""
    history, batches = mirror_inputs
    assert _beyond_nine_digits(batches[4]), "the fifth batch has values past 9 digits"
    state = tmp_path / "state"
    _init_online(history, state)
    for batch in [None, *batches]:
        with monkeypatch.context() as patch:
            _refuse_history_parse(patch, state)
            if batch is not None:
                assert _step(state, batch, tmp_path / "out.csv") == EXIT_OK
            mirrored = dataio.read_series_file(state / "history.csv", state / "history.npy")
        assert_same_sites(mirrored.flat.sites(), read_series_arrays(state / "history.csv"))
    assert list(mirrored.flat.sites()) == ["west", "east"]


def _beyond_nine_digits(path):
    """Whether the series file ``path`` holds a real that its 9-digit text
    would change."""
    _, _, *rows = path.read_text().splitlines()
    return any(dataio.real(float(t)) != t for row in rows for t in row.split(",")[7:])


def _data_rows(path):
    """The bytes of a series file after its column-name row."""
    return path.read_bytes().split(b"\n", 2)[2]


def test_online_history_keeps_its_input_rows_verbatim(mirror_inputs, mirror_reference, tmp_path):
    """After --init and each step, history.csv is a fresh header followed
    by the data bytes of --series and of each batch, a line break put in
    only after a file that lacks a final one, and its mirror loads as a
    read of it. The inputs differ from the reference run's in line ends,
    quoting and a final newline, and one batch holds values past 9 digits:
    every --out and state file but the history's is that run's."""
    history, batches = mirror_inputs
    _, record = mirror_reference
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    edits = {
        0: lambda data: data.replace(b"\r\n", b"\n"),
        1: lambda data: data.replace(b"\nwest,", b'\n"west",'),
        6: lambda data: data.rstrip(b"\r\n"),
    }
    files = []
    for i, path in enumerate([history, *batches]):
        files.append(inputs / path.name)
        files[-1].write_bytes(edits.get(i, lambda data: data)(path.read_bytes()))
    assert _beyond_nine_digits(files[5])
    state = tmp_path / "state"
    _init_online(files[0], state)
    expected = b"#cmfda series v1\n" + ",".join(dataio.SERIES_COLUMNS).encode() + b"\r\n"
    for i, path in enumerate(files):
        if i:
            out = tmp_path / "out.csv"
            assert _step(state, path, out) == EXIT_OK
            assert out.read_bytes() == record[i - 1][0]
            assert {name: data for name, data in _files(state).items()
                    if not name.startswith("history")} == {
                name: data for name, data in record[i - 1][1].items()
                if not name.startswith("history")}
        if not expected.endswith(b"\n"):
            expected += b"\n"
        expected += _data_rows(path)
        assert (state / "history.csv").read_bytes() == expected
        mirrored = dataio.read_series_file(state / "history.csv", state / "history.npy")
        assert_same_sites(mirrored.flat.sites(), read_series_arrays(state / "history.csv"))


def test_online_step_commits_the_history_it_read(
    mirror_inputs, mirror_reference, tmp_path, monkeypatch
):
    """history.csv rewritten while a step computes on it: the step commits
    the history it read plus the batch's rows, and ends in the --out and
    state files of an uninterrupted step."""
    _, batches = mirror_inputs
    root, record = mirror_reference
    state = tmp_path / "state"
    shutil.copytree(root / f"before{MIRROR_STEP}", state)
    process = pipeline.online_process_batch

    def edit_then_process(*args, **kwargs):
        (state / "history.csv").write_bytes(b"#cmfda series v1\nedited\n")
        return process(*args, **kwargs)

    monkeypatch.setattr(pipeline, "online_process_batch", edit_then_process)
    assert _run_steps(state, batches[MIRROR_STEP:MIRROR_STEP + 1], tmp_path / "outs") == (
        record[MIRROR_STEP:MIRROR_STEP + 1]
    )


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
    dropped = models.pixel_ids[0].encode()
    runs = []
    for rebuilt in (False, True):
        state = tmp_path / f"state_{rebuilt}"
        shutil.copytree(root / f"before{MIRROR_STEP}", state)
        history = state / "history.csv"
        lines = history.read_bytes().splitlines(keepends=True)
        history.write_bytes(b"".join(l for l in lines if l.split(b",")[1:2] != [dropped]))
        if rebuilt:
            read = dataio.read_series_file(history)
            dataio.write_series_mirror(state / "history.npy", read.flat, read.sha256.hexdigest())
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
        (MIRROR_STEP, [f"out{MIRROR_STEP}.csv", "models_online.csv", "history.csv",
                       "history.npy"]),
        (FLAG_STEP, [f"out{FLAG_STEP}.csv", "flagged.csv", "models_online.csv", "history.csv",
                     "history.npy"]),
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


def test_an_online_step_reads_flagged_csv_once(
    mirror_inputs, mirror_reference, tmp_path, monkeypatch
):
    """A step opens flagged.csv once, to read it, and compares the bytes it
    would write with those: a step with no new flag leaves the file as it
    was, the very file, and one with new flags replaces it with the
    uninterrupted run's bytes."""
    import builtins

    _, batches = mirror_inputs
    root, record = mirror_reference
    real_open = builtins.open
    for step in (MIRROR_STEP, FLAG_STEP):
        state = tmp_path / f"state{step}"
        shutil.copytree(root / f"before{step}", state)
        flagged = (state / "flagged.csv").resolve()
        before, inode = flagged.read_bytes(), flagged.stat().st_ino
        opened = []

        def counting(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == flagged:
                opened.append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting)
        assert _step(state, batches[step], tmp_path / f"out{step}.csv") == EXIT_OK
        monkeypatch.setattr(builtins, "open", real_open)
        assert opened == ["rb"]
        assert flagged.read_bytes() == record[step][1]["flagged.csv"]
        assert (flagged.read_bytes() == before) == (step == MIRROR_STEP)
        assert (flagged.stat().st_ino == inode) == (step == MIRROR_STEP)


def test_an_online_step_refuses_an_out_in_its_state(online_inputs, tmp_path):
    """A step's --out may not name a file of the state directory, which the
    step would overwrite: a usage error that changes no state file."""
    history, batches = online_inputs
    state = tmp_path / "state"
    _init_online(history, state)
    before = _files(state)
    for name in ("flagged.csv", "history.csv", "config.txt", "models_online.csv"):
        assert _step(state, batches[0], state / name) == EXIT_USAGE
        assert _files(state) == before
    assert _step(state, batches[0], tmp_path / "out.csv") == EXIT_OK


def test_online_step_without_refits_keeps_models_online(
    mirror_inputs, mirror_reference, tmp_path, monkeypatch
):
    """models_online.csv holds the refits of the last step that refitted a
    pixel: a step that refits none, on the mirror step's batch made all
    cloudy, leaves it byte for byte as the step before wrote it."""
    _, batches = mirror_inputs
    root, _ = mirror_reference
    state = tmp_path / "state"
    shutil.copytree(root / f"before{MIRROR_STEP}", state)
    before = (state / "models_online.csv").read_bytes()
    header, names, *rows = batches[MIRROR_STEP].read_bytes().splitlines(keepends=True)
    cloudy = tmp_path / batches[MIRROR_STEP].name
    reliability = dataio.SERIES_COLUMNS.index("reliability")
    cloudy.write_bytes(header + names + b"".join(
        b",".join([*fields[:reliability], b"%d" % Reliability.CLOUDY, *fields[reliability + 1:]])
        for fields in (row.split(b",") for row in rows)
    ))
    refits = []
    process = pipeline.online_process_batch

    def recording(*args, **kwargs):
        outcome = process(*args, **kwargs)
        refits.append(len(outcome.models))
        return outcome

    monkeypatch.setattr(pipeline, "online_process_batch", recording)
    assert _step(state, cloudy, tmp_path / "out.csv") == EXIT_OK
    assert refits and not any(refits)
    assert (state / "models_online.csv").read_bytes() == before


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
        refits.extend(oracle.model_dict(outcome.models).values())
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

    def recording(path, *args):
        paths.append(Path(path).name)
        return load(path, *args)

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


def test_online_init_mirrors_the_covariance_file_it_wrote(online_inputs, tmp_path, monkeypatch):
    """--init writes covariances.npy from the bytes of covariances.csv as it
    wrote them, without parsing the file back: the mirror is the one that a
    parse of the file gives."""
    history, _ = online_inputs
    state = tmp_path / "state"
    with monkeypatch.context() as patch:
        loads = _covariance_loads(patch)
        _init_mahalanobis(history, state)
    assert loads == []
    write_covariance_mirror(tmp_path / "parsed.npy",
                            *read_covariances_mirrored(state / "covariances.csv", None))
    assert (state / "covariances.npy").read_bytes() == (tmp_path / "parsed.npy").read_bytes()


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


@pytest.mark.parametrize("fault", ["deleted", "truncated", "other_state", "edited"])
def test_online_step_without_a_valid_covariance_mirror_parses_covariances(
    online_inputs, sigma_reference, tmp_path, monkeypatch, fault
):
    """A covariance mirror deleted, truncated or copied from another state,
    or left stale by a hand edit of covariances.csv, ends in the --out and
    state files of a run whose mirror was deleted: the first step parses
    covariances.csv and writes its mirror again, which serves every later
    step. Unedited, the run is the run with a valid mirror; the edit
    changes the flags."""
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
        assert loads == ["covariances.csv"]
    assert runs[0] == runs[1]
    outs = [[out for out, _ in run] for run in (runs[0], record)]
    assert (outs[0] != outs[1]) == (fault == "edited")
    assert (runs[0] == record) == (fault != "edited")


@pytest.mark.parametrize("mirror", ["history.npy", "covariances.npy"])
def test_online_init_survives_a_failed_mirror_write(
    online_inputs, sigma_reference, tmp_path, monkeypatch, capsys, mirror
):
    """When --init cannot write a mirror, it warns, exits 0 and writes every
    other state file; three steps then end in the --out and state files of
    an uninterrupted run: the first step writes the missing mirror."""
    history, batches = online_inputs
    root, record = sigma_reference
    real_replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == mirror:
            raise OSError("injected failure")
        real_replace(src, dst)

    state = tmp_path / "state"
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", failing_replace)
        _init_mahalanobis(history, state)
    name = "history" if mirror == "history.npy" else "covariance"
    assert f"{name} mirror not written: injected failure" in capsys.readouterr().err
    written = _files(root / "init")
    del written[mirror]
    assert _files(state) == written
    assert _run_steps(state, batches[:3], tmp_path / "outs")[2] == record[2]


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
    from test_pipeline import one_year_site

    pixels, _ = one_year_site(seed=21, n_events=5)

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
        mirrored = dataio.read_series_file(series, models / "series.npy").flat.sites()
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


# The SHA-256 of each model file that fit writes for the models_dir scene,
# as the row-by-row writer (each real through ``real``, each row through
# csv) wrote them.
MODEL_FILE_DIGESTS = {
    "models_2003_2004.csv": "9657b96492c1ef626c7f31cc132ca7a9549e587ad8746895c5e845bf99f3ca09",
    "models_2004_2005.csv": "569202fc1abacc3a4054aba2cacbeb0062dff3d020c58828b2df9c0475f1382d",
    "models_2005_2006.csv": "67f7f10a7a7b701572b5837de452ad99d596f6cd5a637835c720b832e179c219",
    "models_2006_2007.csv": "91604c527ac1829f5fc14b86f334325b4ae982c26666d7de53fdc65c85384e0f",
    "models_2007_2008.csv": "ca230c22de082bd796bbbdc01a70eba4f72f60491855606f420fc1375e5957e6",
}


def test_fit_writes_the_model_bytes_of_the_row_writer(models_dir):
    """fit formats its model files in bulk, with the bytes that the
    row-by-row writer wrote."""
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(models_dir.glob("models_*.csv"))
    } == MODEL_FILE_DIGESTS


@pytest.fixture
def model_parses(monkeypatch):
    """The paths that ``_parse_models`` is called on."""
    paths = []
    parse = dataio._parse_models

    def recording(path, *args):
        paths.append(Path(path))
        return parse(path, *args)

    monkeypatch.setattr(dataio, "_parse_models", recording)
    return paths


MODEL_FILE = "models_2003_2004.csv"   # the one model file of fit_mirror_scene


def _without_model_mirrors(models, copy):
    shutil.copytree(models, copy, ignore=shutil.ignore_patterns("models_*.npy"))
    return copy


def test_fit_model_mirrors_load_as_the_parse(fit_mirror_scene, model_parses):
    """fit leaves models_<tag>.npy beside each model file. It loads as the
    parse of the file, in file order and bit for bit, without parsing."""
    _, _, models = fit_mirror_scene
    path = models / MODEL_FILE
    parsed = load_models(path)
    model_parses.clear()
    assert_same_models(load_models(path, models / "models_2003_2004.npy"), parsed)
    assert model_parses == []


@pytest.mark.parametrize("fault", [
    "deleted", "truncated", "foreign", "band_77", "band_4", "csv_edited", "repeated_rows",
])
def test_detect_without_a_valid_model_mirror_parses_the_models(
    fit_mirror_scene, tmp_path, fault, model_parses
):
    """A model mirror deleted, truncated, taken from another fit, holding a
    first band code that is no Band (77, 4), or left stale by an edit of its
    model file: detect and standardize parse that file and write what a
    parse gives. The edit that raises every intercept changes the outputs.
    The edit that puts a row with a raised intercept before each row does
    not: of two rows of a (pixel, band), the later serves."""
    series, dropped, scene_models = fit_mirror_scene
    models = tmp_path / "models"
    shutil.copytree(scene_models, models)
    mirror = models / "models_2003_2004.npy"
    if fault == "deleted":
        mirror.unlink()
    elif fault == "truncated":
        mirror.write_bytes(mirror.read_bytes()[: mirror.stat().st_size // 2])
    elif fault == "foreign":
        assert _fit(dropped, tmp_path / "other") == EXIT_OK
        shutil.copy(tmp_path / "other" / "models_2003_2004.npy", mirror)
    elif fault.startswith("band_"):   # the band codes are the first array, after the header line
        data = bytearray(mirror.read_bytes())
        data[data.index(b"\n") + 1] = int(fault[5:])
        mirror.write_bytes(bytes(data))
    elif fault == "repeated_rows":
        header, names, *rows = (models / MODEL_FILE).read_bytes().splitlines(keepends=True)
        raised = []
        for row in rows:
            pixel_id, band, a0, rest = row.split(b",", 3)
            raised += [b",".join([pixel_id, band, dataio.real(float(a0) + 0.3).encode(), rest]), row]
        (models / MODEL_FILE).write_bytes(header + names + b"".join(raised))
    else:   # every intercept raised, the mirror left as it was
        window, table = load_models(models / MODEL_FILE)
        save_models(models / MODEL_FILE, dataclasses.replace(
            table, coeffs=table.coeffs + [0.3, 0.0, 0.0, 0.0, 0.0]
        ), window)
    model_parses.clear()
    outputs = _detect_and_standardize(series, models, tmp_path / "out")
    assert model_parses == [models / MODEL_FILE] * 2
    bare = _without_model_mirrors(models, tmp_path / "bare")
    assert outputs == _detect_and_standardize(series, bare, tmp_path / "parsed")
    scene = _detect_and_standardize(series, scene_models, tmp_path / "scene")
    assert (outputs != scene) == (fault == "csv_edited")


def test_fit_survives_a_failed_model_mirror_write(
    fit_mirror_scene, tmp_path, monkeypatch, capsys, model_parses
):
    """When a model mirror cannot be written, fit still exits 0, with a
    warning, and writes every other file as before; detect and standardize
    then parse that model file and write the same outputs."""
    series, _, scene_models = fit_mirror_scene
    real_replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == "models_2003_2004.npy":
            raise OSError("injected failure")
        real_replace(src, dst)

    models = tmp_path / "models"
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", failing_replace)
        assert _fit(series, models) == EXIT_OK
    assert "model mirror not written: injected failure" in capsys.readouterr().err
    assert _files(models) == {
        name: data for name, data in _files(scene_models).items() if name != "models_2003_2004.npy"
    }
    model_parses.clear()
    outputs = _detect_and_standardize(series, models, tmp_path / "out")
    assert model_parses == [models / MODEL_FILE] * 2
    assert outputs == _detect_and_standardize(series, scene_models, tmp_path / "scene")


def test_detect_and_standardize_open_each_model_file_once(
    fit_mirror_scene, tmp_path, monkeypatch, model_parses
):
    """detect and standardize open each models_*.csv for reading once,
    with its mirror (and then parse nothing) and without it."""
    import builtins

    series, _, models = fit_mirror_scene
    bare = _without_model_mirrors(models, tmp_path / "bare")
    opened = []
    real_open = builtins.open

    def counting(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)   # a missing mirror is not opened
        if isinstance(file, (str, os.PathLike)) and Path(file).name.startswith("models_"):
            opened.append((Path(file).name, mode))
        return fh

    monkeypatch.setattr(builtins, "open", counting)
    for models_dir, parsed in ((models, []), (bare, [bare / MODEL_FILE] * 2)):
        opened.clear()
        model_parses.clear()
        _detect_and_standardize(series, models_dir, tmp_path / f"out_{models_dir.name}")
        mirror = [("models_2003_2004.npy", "rb")] if models_dir == models else []
        assert opened == [(MODEL_FILE, "rb"), *mirror] * 2
        assert model_parses == parsed


def test_each_command_opens_its_series_once(
    fit_mirror_scene, online_inputs, tmp_path, monkeypatch
):
    """fit, detect and standardize with fit's mirror and without it, online
    --init and a step each open --series, history.csv or --batch for
    reading once: the bytes read are hashed and parsed, or mirrored, with
    no second read."""
    import builtins

    series, _, models = fit_mirror_scene
    history, batches = online_inputs
    bare = tmp_path / "bare"
    shutil.copytree(models, bare, ignore=shutil.ignore_patterns("series.npy"))
    state = tmp_path / "state"
    inputs = {series.resolve(), history.resolve(), batches[0].resolve(),
              (state / "history.csv").resolve()}
    opened = []
    real_open = builtins.open

    def counting(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve() in inputs:
            assert "r" in mode and "+" not in mode, (file, mode)
            opened.append(Path(file).name)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    runs = {
        "fit": lambda: _fit(series, tmp_path / "fitted"),
        "detect, standardize": lambda: _detect_and_standardize(series, models, tmp_path / "hit"),
        "detect, standardize without a mirror":
            lambda: _detect_and_standardize(series, bare, tmp_path / "miss"),
        "online --init": lambda: _init_online(history, state),
        "online step": lambda: _step(state, batches[0], tmp_path / "out.csv"),
    }
    counts = {}
    for command, run in runs.items():
        opened.clear()
        run()
        counts[command] = opened.copy()
    assert counts == {
        "fit": ["series.csv"],
        "detect, standardize": ["series.csv"] * 2,
        "detect, standardize without a mirror": ["series.csv"] * 2,
        "online --init": ["history.csv"],
        "online step": ["history.csv", batches[0].name],
    }


# --- one-point grids and the grid cap ---------------------------------------------


def test_train_multivariate_on_one_point_grids(sim_dir, tmp_path, capsys):
    """A 1x1 annealing grid trains its only point."""
    out = tmp_path / "report.csv"
    assert main([
        "train", "--series", str(sim_dir / "series.csv"), "--labels", str(sim_dir / "labels.csv"),
        "--out", str(out), "--rule", "multivariate", "--windows", "2003:5",
        "--grid-nir", "0.1:0.1:0.1", "--grid-ndvi", "0.2:0.2:0.1", "--cv-folds", "2",
        "--threads", "1",
    ]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    assert {row.thresholds for row in read_report(out).rows} == {(0.1, 0.2)}


def test_parse_grid_spec_caps_the_grid_at_max_grid_points():
    assert MAX_GRID_POINTS == 100_000
    assert len(parse_grid_spec("1:100000:1")) == MAX_GRID_POINTS
    with pytest.raises(UsageError, match="bad grid spec '1:100001:1'"):
        parse_grid_spec("1:100001:1")


@pytest.mark.parametrize("rule, flag", [
    ("univariate", "--grid"), ("mahalanobis", "--grid"),
    ("multivariate", "--grid-nir"), ("multivariate", "--grid-ndvi"),
])
@pytest.mark.parametrize("spec", ["0.01:0.3:1e-300", "0.01:0.3:5e-324", "1:100001:1"])
def test_train_refuses_a_grid_past_the_cap_at_once(tmp_path, rule, flag, spec, capsys):
    start = time.perf_counter()
    assert main(_train_missing_series(tmp_path) + ["--rule", rule, flag, spec]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"cmfda: error: bad grid spec {spec!r}") and "Traceback" not in err


# --- no command builds the per-observation objects ------------------------------------


def _rows_where(src, dst, keep):
    """Write ``dst``: the header lines of the series file ``src`` and its data
    rows whose nominal date passes ``keep``."""
    head, names, *rows = src.read_text().splitlines(keepends=True)
    dst.write_text(head + names + "".join(r for r in rows if keep(r.split(",")[4])))


def test_no_command_builds_an_observation_or_a_pixel_series(tmp_path, monkeypatch):
    """Every subcommand runs with Observation and PixelSeries unconstructible."""
    def refuse(self):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(cmfda.core.Observation, "__post_init__", refuse)
    monkeypatch.setattr(cmfda.core.PixelSeries, "__post_init__", refuse)
    sim, models = tmp_path / "sim", tmp_path / "models"
    series, labels = str(sim / "series.csv"), str(sim / "labels.csv")
    assert main(["simulate", "--out", str(sim), "--seed", "3", "--n-events", "12"]) == EXIT_OK
    assert main(["fit", "--series", series, "--out", str(models), "--threads", "1"]) == EXIT_OK
    detect = ["detect", "--series", series, "--models", str(models), "--threads", "1"]
    for k, extra in enumerate((["--rule", "univariate", "--L", "0.08"],
                               ["--rule", "multivariate"], ["--rule", "mahalanobis"],
                               ["--scheme", "IVii"])):
        assert main(detect + ["--out", str(tmp_path / f"d{k}.csv")] + extra) == EXIT_OK, extra
    assert main(["standardize", "--series", series, "--models", str(models), "--scheme", "4c",
                 "--band", "nir", "--out", str(tmp_path / "std.csv")]) == EXIT_OK
    train = ["train", "--series", series, "--labels", labels, "--cv-folds", "2", "--threads", "1"]
    for rule, extra in (("univariate", ["--grid", "0.04:0.2:0.02"]),
                        ("multivariate", ["--anneal-iters", "100"]),
                        ("mahalanobis", ["--grid", "2:20:2"])):
        assert main(train + ["--rule", rule, "--out", str(tmp_path / f"{rule}.csv")] + extra) \
            == EXIT_OK, rule
    history = tmp_path / "history.csv"
    _rows_where(sim / "series.csv", history, lambda date: date < "2005")
    _init_online(history, tmp_path / "state")
    dates = sorted({row.split(",")[4] for row in (sim / "series.csv").read_text().splitlines()[2:]
                    if row.split(",")[4] >= "2005"})
    for date in dates[:2]:
        batch = tmp_path / f"batch_{date}.csv"
        _rows_where(sim / "series.csv", batch, lambda d, date=date: d == date)
        assert _step(tmp_path / "state", batch, tmp_path / f"flags_{date}.csv") == EXIT_OK
    assert main(["report", "--detections", str(tmp_path / "d1.csv"), "--labels", labels]) \
        == EXIT_OK


@pytest.mark.parametrize("scenario, make", [
    ("sonora-like", dataio.sonora_like_config), ("yucatan-like", dataio.yucatan_like_config),
])
@pytest.mark.parametrize("seed", [0, 5])
def test_simulate_writes_the_bytes_of_write_series(scenario, make, seed, tmp_path):
    """simulate's series file is write_series of the same site's pixels."""
    assert main(["simulate", "--scenario", scenario, "--seed", str(seed),
                 "--out", str(tmp_path)]) == EXIT_OK
    site, _ = dataio.generate_site(make(seed=seed))
    write_series(tmp_path / "pixels.csv", {site.site_id: site.pixels})
    assert (tmp_path / "series.csv").read_bytes() == (tmp_path / "pixels.csv").read_bytes()


# --- one file writer: every output whole or not at all ---------------------------


def _failing_replace(monkeypatch, name):
    """Make os.replace fail for a target named ``name``."""
    real_replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == name:
            raise OSError("injected failure")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)


def test_fit_leaves_a_model_file_whole_when_its_write_fails(
    fit_mirror_scene, tmp_path, monkeypatch, capsys
):
    """A model file that fit cannot replace keeps its old bytes, and no
    temporary file is left beside it."""
    series, _, _ = fit_mirror_scene
    models = tmp_path / "models"
    models.mkdir()
    (models / MODEL_FILE).write_bytes(b"old bytes\n")
    _failing_replace(monkeypatch, MODEL_FILE)
    assert _fit(series, models) == EXIT_DATA
    assert "injected failure" in capsys.readouterr().err
    assert (models / MODEL_FILE).read_bytes() == b"old bytes\n"
    assert not list(tmp_path.rglob("*.tmp"))


def test_online_step_leaves_its_out_whole_when_its_write_fails(
    online_inputs, tmp_path, monkeypatch
):
    """A step's --out that cannot be replaced keeps its old bytes, no
    temporary file is left and no state file changes."""
    history, batches = online_inputs
    state = tmp_path / "state"
    _init_online(history, state)
    before = _files(state)
    out = tmp_path / "out.csv"
    out.write_bytes(b"old bytes\n")
    _failing_replace(monkeypatch, out.name)
    assert _step(state, batches[0], out) == EXIT_DATA
    assert out.read_bytes() == b"old bytes\n"
    assert not list(tmp_path.rglob("*.tmp"))
    assert _files(state) == before


def test_detect_writes_a_fifo_in_place(sim_dir, models_dir, tmp_path):
    """An --out that exists and is not a regular file, here a FIFO, is
    written in place: it stays a FIFO and its reader gets the bytes a
    regular file gets."""
    detect = ["detect", "--series", str(sim_dir / "series.csv"), "--models", str(models_dir),
              "--threads", "1", "--out"]
    assert main(detect + [str(tmp_path / "det.csv")]) == EXIT_OK
    fifo = tmp_path / "det.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(detect + [str(fifo)]) == EXIT_OK
    finally:   # a reader still waiting for a writer sees end of file
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=60)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert got == [(tmp_path / "det.csv").read_bytes()]
    assert not list(tmp_path.rglob("*.tmp"))


# --- rule thresholds, online state and config values ----------------------------


@pytest.mark.parametrize("flags", [
    ["--rule", "univariate", "--L", "nan"], ["--L-nir", "nan"], ["--L-nir", "inf"],
    ["--rule", "mahalanobis", "--L", "inf"],
], ids=["univariate-nan", "nir-nan", "nir-inf", "mahalanobis-inf"])
def test_a_threshold_that_is_not_finite_is_refused(
    sim_dir, models_dir, tmp_path, capsys, flags
):
    """detect and online --init refuse a rule threshold that is NaN or
    infinite (exit 1) and write nothing."""
    out = tmp_path / "det.csv"
    assert main(["detect", "--series", str(sim_dir / "series.csv"), "--models", str(models_dir),
                 "--out", str(out), "--threads", "1", *flags]) == EXIT_USAGE
    assert "must be finite and positive" in capsys.readouterr().err
    assert not out.exists()
    state = tmp_path / "state"
    assert main(["online", "--state", str(state), "--init", "--series",
                 str(sim_dir / "series.csv"), "--monitor-year", "2005", *flags]) == EXIT_USAGE
    assert "must be finite and positive" in capsys.readouterr().err
    assert not state.exists()


@pytest.mark.parametrize("year, rule", [("2", "mahalanobis"), ("0", "multivariate"),
                                        ("10000", "multivariate")])
def test_online_init_refuses_a_monitored_year_off_the_calendar(
    online_inputs, tmp_path, monkeypatch, capsys, year, rule
):
    """--init refuses a monitored year outside 3..9999, whose training
    years are no dates, before it reads the series (exit 1)."""
    history, _ = online_inputs
    monkeypatch.setattr(dataio, "read_series_file", lambda *a, **k: pytest.fail("series read"))
    state = tmp_path / "state"
    assert main(["online", "--state", str(state), "--init", "--series", str(history),
                 "--monitor-year", year, "--rule", rule]) == EXIT_USAGE
    assert f"--monitor-year must be in 3..9999, got {year}" in capsys.readouterr().err
    assert not state.exists()


@pytest.mark.parametrize("old, new, message", [
    ("rule=multivariate", "rule=bogus", "{path}: unknown rule 'bogus'"),
    ("consec=4", "consec=9", "{path}: consecutive count 9 outside 2..6"),
    ("L-nir=0.082", "L-nir=-1", "{path}: thresholds must be finite and positive"),
    ("L-nir=0.082", "L-nir=nan", "{path}: thresholds must be finite and positive"),
    ("monitor-year=2005", "monitor-year=2", "line 1: {path}: bad value for 'monitor-year': '2'"),
    ("monitor-year=2005", "monitor-year=10000",
     "line 1: {path}: bad value for 'monitor-year': '10000'"),
], ids=["rule", "consec", "threshold", "nan-threshold", "year-2", "year-10000"])
def test_online_step_with_a_bad_state_rule_is_a_data_error(
    online_inputs, tmp_path, capsys, old, new, message
):
    """A state config.txt whose rule or monitored year no step can use is a
    data error naming the file (exit 2) that changes no state file."""
    history, batches = online_inputs
    state = tmp_path / "state"
    _init_online(history, state)
    config = state / "config.txt"
    text = config.read_text()
    assert old + "\n" in text
    config.write_text(text.replace(old + "\n", new + "\n"))
    before = _files(state)
    capsys.readouterr()
    out = tmp_path / "out.csv"
    assert _step(state, batches[0], out) == EXIT_DATA
    assert message.format(path=config) in capsys.readouterr().err
    assert _files(state) == before
    assert not out.exists()


@pytest.mark.parametrize("dates", [0, 2])
def test_online_batch_without_one_nominal_date_is_a_data_error(
    online_inputs, tmp_path, capsys, dates
):
    """A batch file with no nominal date or with two is a data error naming
    the file and the dates it holds (exit 2) that changes no state file."""
    history, batches = online_inputs
    state = tmp_path / "state"
    _init_online(history, state)
    before = _files(state)
    head, names, *rows = batches[0].read_bytes().splitlines(keepends=True)
    batch = tmp_path / "batch.csv"
    batch.write_bytes(b"".join([head, names] + (rows + batches[1].read_bytes().splitlines(
        keepends=True)[2:] if dates else [])))
    capsys.readouterr()
    out = tmp_path / "out.csv"
    assert _step(state, batch, out) == EXIT_DATA
    assert (f"{batch}: a batch must hold exactly one nominal date, found {dates}"
            in capsys.readouterr().err)
    assert _files(state) == before
    assert not out.exists()


TRAIN_MISSING = ["train", "--series", "missing.csv", "--labels", "missing.csv", "--out", "r.csv"]


@pytest.mark.parametrize("value", ["maybe", "ture", ""])
def test_config_refuses_a_switch_value_it_cannot_take(tmp_path, capsys, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"sweep-fixed={value}\n")
    assert main(["--config", str(config), *TRAIN_MISSING]) == EXIT_USAGE
    assert f"--config: bad value for sweep-fixed: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value, on", [
    *((text, True) for text in ("1", "true", "YES", "On")),
    *((text, False) for text in ("0", "False", "no", "OFF")),
])
def test_config_switch_values(value, on):
    args = build_parser({"sweep-fixed": value}).parse_args(TRAIN_MISSING)
    assert args.sweep_fixed is on


@pytest.mark.parametrize("scheme", ["identity", "none", "---"])
def test_detect_header_names_the_scheme_code(sim_dir, models_dir, tmp_path, scheme):
    """The detections header carries the scheme's code, not the alias
    given for it."""
    out = tmp_path / "det.csv"
    assert main(["detect", "--series", str(sim_dir / "series.csv"), "--models", str(models_dir),
                 "--out", str(out), "--threads", "1", f"--scheme={scheme}"]) == EXIT_OK
    assert read_detections(out)[0]["scheme"] == "---"


def test_config_file_named_with_an_equals_sign(sim_dir, models_dir, tmp_path):
    """--config=FILE reads the file as --config FILE does."""
    config = tmp_path / "run.cfg"
    config.write_text("rule=univariate\nband=nir\nL=0.08\nthreads=1\n")
    out = tmp_path / "det.csv"
    assert main([f"--config={config}", "detect", "--series", str(sim_dir / "series.csv"),
                 "--models", str(models_dir), "--out", str(out)]) == EXIT_OK
    meta, _ = read_detections(out)
    assert (meta["rule"], meta["band"], float(meta["L"])) == ("univariate", "NIR", 0.08)


def test_detect_refuses_a_models_dir_without_model_files(sim_dir, tmp_path, capsys):
    empty = tmp_path / "models"
    empty.mkdir()
    out = tmp_path / "det.csv"
    assert main(["detect", "--series", str(sim_dir / "series.csv"), "--models", str(empty),
                 "--out", str(out)]) == EXIT_USAGE
    assert f"no models_*.csv files in {str(empty)!r}" in capsys.readouterr().err
    assert not out.exists()
