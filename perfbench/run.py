"""Benchmark of the cmfda command line, one workload per run.

    python3 perfbench/run.py --workload map-site --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Each run builds its workload's inputs from ``--seed`` (``scenes.py``, timed
in a fresh interpreter several times: ``setup_s`` is the median), then
drives the real ``cmfda`` subcommands in-process through
``cmfda.cli.main(argv)``, one command after the other (a closed loop with
one client). The workload's commands repeat as whole passes, at least two
and as many as bring the measured command time nearest ``--seconds``;
every output is checked (``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1`` the run
also makes one traced pass (``tracing.py``) and, on ``map-site``, reruns
``fit`` and the shipped ``detect`` with ``--threads 1``; the last line then
carries the per-layer metrics. Everything else a run learns (machine
fingerprint, workload properties, per-command times, output digests, spans
with self times) is printed above that line and written under
``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import gc
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import scenes  # noqa: E402
import tracing  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPS = 3
# Two passes at least, so that one stall cannot set a run's figure alone.
MIN_PASSES, MAX_PASSES = 2, 50

WINDOWS, N_WINDOWS, N_BANDS = "2003:5", 5, 6
NIR_GRID, NDVI_GRID, MAHALANOBIS_GRID = (0.01, 0.30, 0.01), (0.01, 0.50, 0.01), (2, 20, 2)
ANNEAL_ITERS, TOY_ANNEAL_ITERS = 1000, 100


def _spec(grid) -> str:
    return ":".join(format(x, "g") for x in grid)


class Session:
    """Runs CLI commands in-process, times them and checks their outputs.

    A command fails when it raises, exits non-zero, or its check raises.
    """

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.passes: list[dict[str, list[float]]] = []
        self.wall = 0.0
        self.values: dict[str, float] = {}

    def new_pass(self) -> None:
        self.passes.append(defaultdict(list))

    def run(self, label: str, argv, check=None) -> None:
        argv = [str(a) for a in argv]
        gc.collect()
        captured = io.StringIO()
        span = self.tracer.root(f"cli.{label}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(captured):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed command; keep measuring the rest
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        self.wall += elapsed
        self.attempted += 1
        self.passes[-1][label].append(elapsed)
        problem = None if code == 0 else f"exit code {code}"
        if problem is None and check is not None:
            try:
                check(captured.getvalue())
            except Exception as exc:  # an invariant broken, or an output unreadable
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{label}: {problem}")
            print(f"perfbench: command failed: {label} {' '.join(argv)}: {problem}",
                  file=sys.stderr)


# --- workloads -------------------------------------------------------------------


def map_site(session: Session, work: Path, props: dict, toy: bool) -> None:
    series, models = work / "series.csv", work / "models"
    pixels = set(props["pixels"])
    session.run("fit", ["fit", "--series", series, "--out", models, "--windows", WINDOWS],
                lambda out: checks.check_fit(models, len(pixels), N_BANDS, N_WINDOWS))
    for label, extra in (("detect", []), ("detect_scheme", ["--scheme", "IVii"])):
        path = work / f"{label}.csv"
        session.run(label, ["detect", "--series", series, "--models", models, "--out", path, *extra],
                    lambda out, path=path: checks.check_detections(path, pixels))

    def report_check(out):
        session.values["detect_tss"] = checks.parse_report_tss(out)

    session.run("report", ["report", "--detections", work / "detect.csv",
                           "--labels", work / "labels.csv", "--out", work / "report.txt"],
                report_check)


def map_site_serial(session: Session, work: Path, props: dict) -> None:
    """``fit`` and the shipped ``detect`` again on one worker; the
    detections must equal the pooled run's byte for byte."""
    series, models = work / "series.csv", work / "models_serial"
    pixels = set(props["pixels"])
    session.run("fit_serial", ["fit", "--series", series, "--out", models,
                               "--windows", WINDOWS, "--threads", "1"],
                lambda out: checks.check_fit(models, len(pixels), N_BANDS, N_WINDOWS))
    path = work / "detect_serial.csv"

    def same_detections(out):
        checks.check_detections(path, pixels)
        if path.read_bytes() != (work / "detect.csv").read_bytes():
            raise checks.InvariantError("serial and pooled detections differ")

    session.run("detect_serial", ["detect", "--series", series, "--models", models,
                                  "--out", path, "--threads", "1"], same_detections)


def train_site(session: Session, work: Path, props: dict, toy: bool) -> None:
    import cmfda.dataio as dataio

    common = ["train", "--series", work / "series.csv", "--labels", work / "labels.csv"]
    sites = set(props["sites"])
    for rule, flags, grids in (
        ("multivariate",
         ["--cv-folds", "3", "--anneal-iters", TOY_ANNEAL_ITERS if toy else ANNEAL_ITERS,
          "--grid-nir", _spec(NIR_GRID), "--grid-ndvi", _spec(NDVI_GRID)],
         [checks.grid(*NIR_GRID), checks.grid(*NDVI_GRID)]),
        ("mahalanobis", ["--grid", _spec(MAHALANOBIS_GRID), "--cv-folds", "2"],
         [checks.grid(*MAHALANOBIS_GRID)]),
    ):
        path = work / f"train_{rule}.csv"

        def report_check(out, path=path, rule=rule, grids=grids):
            best = checks.check_train_report(path, dataio, rule, grids, sites)
            session.values[f"train_{rule}_tss"] = best

        session.run(f"train_{rule}", [*common, "--out", path, "--rule", rule, *flags,
                                      "--sweep-fixed"], report_check)


def online_monitor(session: Session, work: Path, props: dict, toy: bool) -> None:
    pixels = set(props["pixels"])
    events = {p: dt.date.fromisoformat(d) for p, d in props["events"].items()}
    scores = []
    for year, spec in props["years"].items():
        first, last = dt.date.fromisoformat(spec["first"]), dt.date.fromisoformat(spec["last"])
        positives = {p for p, d in events.items() if first <= d <= last}
        scored = pixels - {p for p, d in events.items() if d < first}
        for rule in scenes.ONLINE_RULES:
            state, outs = work / f"state_{rule}_{year}", work / f"flags_{rule}_{year}"
            shutil.rmtree(state, ignore_errors=True)
            outs.mkdir(exist_ok=True)
            session.run("online_init", ["online", "--state", state, "--init", "--series",
                                        work / spec["history"], "--monitor-year", year,
                                        "--rule", rule])
            flagged: dict[str, str] = {}

            def batch_check(out, path):
                checks.check_online_batch(path, pixels, first, last, flagged)
                checks.check_online_state(state, flagged)

            for batch in spec["batches"]:
                path = outs / batch
                session.run("online_batch", ["online", "--state", state, "--batch", work / batch,
                                             "--out", path],
                            lambda out, path=path: batch_check(out, path))
            score = checks.tss(set(flagged), positives, scored)
            if score is not None:
                scores.append(score)
    session.values["online_tss"] = statistics.fmean(scores) if scores else 0.0


PASSES = {"map-site": map_site, "train-site": train_site, "online-monitor": online_monitor}


# --- measurement -------------------------------------------------------------------


def setup(workload: str, seed: int, work: Path, reps: int, toy: bool) -> tuple[Path, list[float]]:
    """Build the inputs ``reps`` times, each in a fresh interpreter; keep the
    first copy."""
    times = []
    for rep in range(reps):
        out = work / f"setup{rep}"
        cmd = [sys.executable, str(HERE / "scenes.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out)] + (["--toy"] if toy else [])
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: input generation failed ({proc.returncode})")
        if rep:
            shutil.rmtree(out)
    return work / "setup0", times


def _median_per_pass(passes, label) -> float:
    sums = [sum(p[label]) for p in passes if label in p]
    return statistics.median(sums) if sums else 0.0


def _percentile(samples, q) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def command_metrics(session: Session, passes) -> dict[str, float]:
    """The per-command figures of the untraced passes."""
    batches = [t * 1e3 for p in passes for t in p.get("online_batch", ())]
    out = {f"{label}_s": _median_per_pass(passes, label) for label in (
        "fit", "detect", "detect_scheme",
        "train_multivariate", "train_mahalanobis", "online_init")}
    out["online_batch_p50_ms"] = _percentile(batches, 50)
    out["online_batch_p90_ms"] = _percentile(batches, 90)
    out["online_batch_samples"] = len(batches)
    out["detect_tss"] = session.values.get("detect_tss", 0.0)
    out["online_tss"] = session.values.get("online_tss", 0.0)
    out["error_rate"] = error_rate(session)
    return out


def error_rate(session: Session) -> float:
    return len(session.failures) / max(1, session.attempted)


def layer_metrics(names, tracer, serial, table, untraced_wall, traced_wall,
                  commands, workers) -> dict[str, float]:
    def get(layer, key):
        return table.get(layer, {}).get(key, 0.0)

    computed = {
        "trace.overhead_s": traced_wall - untraced_wall,
        "pool.workers": workers,
        "pool.worker_peak_rss_mb": tracer.worker_peak_rss_mb(),
        "pipeline.fit_pixels.ok_ratio":
            get("pipeline.fit_pixels", "models") / get("pipeline.fit_pixels", "fits")
            if get("pipeline.fit_pixels", "fits") else 0.0,
        "pipeline.fit_pixels.serial_s":
            serial.layer_table().get("pipeline.fit_pixels", {}).get("s", 0.0),
        "pipeline.detect_pixels.serial_s":
            serial.layer_table().get("pipeline.detect_pixels", {}).get("s", 0.0),
        "detection.estimate_cube_covariances.cube_fallback_share":
            1 - get("detection.estimate_cube_covariances", "cube_served")
            / get("detection.estimate_cube_covariances", "cube_cells")
            if get("detection.estimate_cube_covariances", "cube_cells") else 0.0,
        "standardize.transform.s":
            tracer.seconds_under("pipeline.detect_pixels", "cli.detect_scheme")
            - tracer.seconds_under("pipeline.detect_pixels", "cli.detect"),
        "cli.self_s": sum(row["self_s"] for layer, row in table.items() if layer.startswith("cli.")),
    }
    out = {}
    for name in names:
        if name in computed:
            out[name] = computed[name]
        elif name.startswith("cli."):
            out[name] = commands[name[len("cli."):]]
        else:
            layer, key = name.rsplit(".", 1)
            out[name] = get(layer, key)
    return out


def fingerprint(workers: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_sha": _git_sha(),
        "workers": workers,
        "fork_available": "fork" in multiprocessing.get_all_start_methods(),
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(args, benchmark: dict, work: Path) -> dict:
    toy = args.toy
    run_dir, setup_times = setup(args.workload, args.seed, work, 1 if toy else SETUP_REPS, toy)
    props = json.loads((run_dir / "properties.json").read_text())
    inputs = {p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*")}

    sys.path.insert(0, str(SRC))
    import cmfda.cli as cli
    import cmfda.pipeline as pipeline

    session = Session(cli)
    run_pass = PASSES[args.workload]
    walls = []
    file_digests = None
    while len(walls) < MIN_PASSES or (sum(walls) + statistics.fmean(walls) / 2 < args.seconds
                                      and len(walls) < MAX_PASSES):
        session.new_pass()
        wall0 = session.wall
        run_pass(session, run_dir, props, toy)
        walls.append(session.wall - wall0)
        if file_digests is None:
            file_digests = checks.digests(run_dir, inputs)
    commands = command_metrics(session, session.passes)
    result = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "toy": toy,
        "why": props["why"],
        "properties": {k: props[k] for k in ("n_pixels", "dates_per_pixel", "input_mb",
                                             "batch_count", "sites")},
        "fingerprint": fingerprint(pipeline.default_workers()),
        "passes": len(walls), "pass_wall_s": walls, "setup_times_s": setup_times,
        "commands": commands, "digests": file_digests,
        "output_digest": checks.tree_digest(file_digests),
    }
    metrics = {m["name"]: (result[m["name"]], m["unit"]) for m in benchmark["end_to_end"]}

    if args.trace:
        tracer = tracing.Tracer(rss_log=work / "worker_rss.txt")
        serial = tracing.Tracer()
        session.new_pass()
        wall0 = session.wall
        session.tracer = tracer
        tracer.install()
        try:
            run_pass(session, run_dir, props, toy)
        finally:
            tracer.uninstall()
        traced_wall = session.wall - wall0
        if args.workload == "map-site":
            session.tracer = serial
            serial.install()
            try:
                session.new_pass()
                map_site_serial(session, run_dir, props)
            finally:
                serial.uninstall()
        session.tracer = None
        commands["error_rate"] = error_rate(session)
        table = tracer.layer_table()
        names = [m["name"] for m in benchmark["per_layer"]]
        values = layer_metrics(names, tracer, serial, table, result["wall_s"], traced_wall,
                               commands, pipeline.default_workers())
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in benchmark["per_layer"]}
        report["layers"] = table
        OUT_ROOT.mkdir(exist_ok=True)
        spans_path = OUT_ROOT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps({"spans": tracer.dump(), "serial_spans": serial.dump()}))
        report["spans_file"] = spans_path.relative_to(ROOT).as_posix()

    report["attempted"] = session.attempted
    report["failures"] = session.failures
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return report


def print_report(report: dict) -> None:
    props, fp, cmds = report["properties"], report["fingerprint"], report["commands"]
    print(f"workload {report['workload']} seed {report['seed']}"
          f"{' (toy)' if report['toy'] else ''}: {props['n_pixels']} px,"
          f" {props['dates_per_pixel']} dates/px, {props['input_mb']:.1f} MB input,"
          f" {props['batch_count']} batches")
    print(f"why: {report['why']}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    print(f"passes: {report['passes']}; setup runs: {len(report['setup_times_s'])};"
          f" output digest {report['output_digest'][:16]} over {len(report['digests'])} files")
    print("per command (untraced median over passes):")
    for name, value in cmds.items():
        if value:
            unit = ("ms" if name.endswith("_ms") else "s" if name.endswith("_s")
                    else "count" if name.endswith("samples") else "1")
            print(f"  {name:<28} {value:12.6g} {unit}")
    print(f"  {'error_rate':<28} {cmds['error_rate']:12.6g} ratio"
          f" ({len(report['failures'])} of {report['attempted']} commands failed)")
    if "layers" in report:
        print(f"layers (traced pass; spans in {report['spans_file']}):")
        print(f"  {'layer':<44}{'calls':>9}{'total s':>11}{'self s':>11}")
        for layer, row in sorted(report["layers"].items(), key=lambda kv: -kv[1].get("s", 0)):
            if row.get("calls"):
                print(f"  {layer:<44}{int(row['calls']):>9}{row['s']:>11.4f}{row['self_s']:>11.4f}")
    print("metrics:")
    for name, m in report["metrics"].items():
        print(f"  {name:<56} {m['value']:14.6g} {m['unit']}")


def run_all(args) -> int:
    worst = 0
    for workload in scenes.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd + (["--toy"] if args.toy else [])).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cmfda benchmark runner")
    parser.add_argument("--workload", required=True, choices=(*scenes.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured command time; whole passes repeat until nearest to it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-check")
    args = parser.parse_args(argv)

    if not (SRC / "cmfda" / "__init__.py").is_file():
        print(f"perfbench: cmfda sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        report = measure(args, benchmark, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    OUT_ROOT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_ROOT / name).write_text(json.dumps(report, indent=1, default=str))
    print_report(report)
    failed = len(report["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
