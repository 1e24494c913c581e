import datetime as dt
import os

import pytest

from cmfda.cli import (
    DEFAULT_CONSECUTIVE,
    DEFAULT_MAHALANOBIS_THRESHOLD,
    DEFAULT_NDVI_THRESHOLD,
    DEFAULT_NIR_THRESHOLD,
    EXIT_DATA,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_grid_spec,
    parse_windows_spec,
    threshold_grid,
)
from cmfda.dataio import (
    read_detections,
    read_labels,
    read_report,
    read_series,
    write_labels,
    write_series,
)
from cmfda.core import DeforestationLabel


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


def test_data_errors_exit_2(tmp_path, models_dir):
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


def test_rule_flag_conflicts_are_usage_errors(sim_dir, models_dir, tmp_path):
    args = [
        "detect", "--series", str(sim_dir / "series.csv"),
        "--models", str(models_dir), "--out", str(tmp_path / "o.csv"),
    ]
    assert main(args + ["--rule", "multivariate", "--L", "0.1"]) == EXIT_USAGE
    assert main(args + ["--rule", "univariate"]) == EXIT_USAGE  # no --L
    assert main(args + ["--consec", "9"]) == EXIT_USAGE
    assert main(args + ["--scheme", "bogus"]) == EXIT_USAGE


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
