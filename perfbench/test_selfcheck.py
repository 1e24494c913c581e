"""Self-check of the benchmark harness at toy size.

    python3 -m pytest perfbench -q

Every workload runs end to end on tiny inputs, traced and untraced, and
must emit exactly the metrics of BENCHMARK.json with their units; a
program that drops a pixel from its detections must show in error_rate.
"""
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import scenes  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Figures each workload prints by name above its JSON line.
PRINTED = {
    "map-site": ["fit_s", "detect_s", "detect_scheme_s", "detect_tss"],
    "train-site": ["train_multivariate_s", "train_mahalanobis_s"],
    "online-monitor": ["online_init_s", "online_batch_p50_ms", "online_batch_p90_ms"],
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", scenes.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(scenes.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        text, result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        printed = "\n".join(text)
        for name in PRINTED[workload] + ["error_rate"]:
            assert f"  {name} " in printed
        for name in expected:
            assert f"  {name} " in printed
    if workload == "online-monitor":
        assert result["metrics"]["pipeline.online_process_batch.calls"]["value"] > 0
        assert result["metrics"]["harmonic.fit_arrays.calls"]["value"] > 0
    if workload == "map-site":
        assert result["metrics"]["pipeline.fit_pixels.serial_s"]["value"] > 0
        assert result["metrics"]["standardize.fit_standardizer.records"]["value"] > 0


def test_detections_missing_a_pixel_count_in_error_rate(tmp_path, monkeypatch):
    import cmfda.cli as cli
    import cmfda.dataio as dataio

    props = scenes.build("map-site", 5, tmp_path, toy=True)
    session = bench.Session(cli)
    session.new_pass()
    bench.map_site(session, tmp_path, props, toy=True)
    assert session.failures == []

    write = dataio.write_detections

    def drop_last(path, results, meta=None):
        write(path, list(results)[:-1], meta)

    monkeypatch.setattr(dataio, "write_detections", drop_last)
    session.new_pass()
    bench.map_site(session, tmp_path, props, toy=True)
    metrics = bench.command_metrics(session, session.passes)
    # both detect commands, and the report that reads the damaged file
    failed = [f.split(":")[0] for f in session.failures]
    assert failed == ["detect", "detect_scheme", "report"]
    assert metrics["error_rate"] == pytest.approx(3 / 8)


def test_check_detections_rejects_a_missing_or_unknown_pixel(tmp_path):
    path = tmp_path / "det.csv"
    path.write_text("#cmfda detections v1 skipped=0\n"
                    "pixel_id,flagged,first_flag_date,triggering_band\n"
                    "a,0,,\nb,1,2005-03-01,NIR\n")
    assert checks.check_detections(path, {"a", "b"}) == 1
    with pytest.raises(checks.InvariantError):
        checks.check_detections(path, {"a", "b", "c"})
    with pytest.raises(checks.InvariantError):
        checks.check_detections(path, {"a"})


def test_spans_link_parents_and_subtract_children():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    traced_inner = tracer._wrap(inner, "inner", None)
    traced_outer = tracer._wrap(outer, "outer", None)
    with tracer.root("cli.cmd"):
        traced_outer()
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["cli.cmd", "outer", "inner", "inner"]
    assert parents == [-1, 0, 1, 1]
    table = tracer.layer_table()
    assert table["inner"]["calls"] == 2
    assert table["outer"]["s"] >= 0.05
    assert table["outer"]["self_s"] == pytest.approx(table["outer"]["s"] - table["inner"]["s"])
    assert table["outer"]["self_s"] >= 0.009
    assert tracer.seconds_under("inner", "cli.cmd") == pytest.approx(table["inner"]["s"])
