"""Spans around the calls into cmfda's layers, recorded from outside.

:meth:`Tracer.install` replaces each traced function at the name its
callers look up (a module attribute, or a name one module imported from
another) with a wrapper that records a span: layer name, start, end and the
span that was open when it was called. Spans stay in memory and are written
out when the run ends. Calls made inside forked pool workers run the
wrappers too, but their spans stay in the worker and are not collected.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import resource
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _file_mb(args, kwargs, result):
    """Size of the file named by the first argument, read after the call."""
    path = kwargs.get("path", args[0] if args else None)
    return {"mb": os.path.getsize(path) / 1e6}


def _len_result(key):
    return lambda args, kwargs, result: {key: len(result)}


def _fit_counts(args, kwargs, result):
    models = sum(len(table) for table in result.models.values())
    return {"fits": models + len(result.skipped), "skipped": len(result.skipped), "models": models}


def _detect_counts(args, kwargs, result):
    results, skipped = result
    return {"pixels": len(results) + len(skipped), "flagged": sum(r.flagged for r in results),
            "skipped": len(skipped)}


def _residual_counts(args, kwargs, result):
    return {"records": sum(len(v) for v in result.values())}


def _cube_counts(args, kwargs, result):
    from cmfda.detection import N_PERIODS, N_SQUARES

    served = sum(e.n >= result.min_cube_samples for e in result.cubes.values())
    cells = len(result.sites) * N_SQUARES * N_PERIODS
    return {"cubes": len(result.cubes), "cube_cells": cells, "cube_served": served}


def _standardizer_counts(args, kwargs, result):
    records = kwargs.get("records", args[0] if args else ())
    return {"records": len(records)}


def _online_counts(args, kwargs, result):
    return {"refits": len(result.models), "new_flags": len(result.newly_flagged)}


# (module, attribute, layer, counter). A function imported by name into
# another module is listed once per module that calls it.
LAYERS = (
    ("cmfda.dataio", "read_series", "dataio.read_series", _file_mb),
    ("cmfda.dataio", "write_series", "dataio.write_series", _file_mb),
    ("cmfda.dataio", "write_detections", "dataio.write_detections", None),
    ("cmfda.dataio", "read_detections", "dataio.read_detections", None),
    ("cmfda.dataio", "load_models", "dataio.load_models", None),
    ("cmfda.dataio", "save_models", "dataio.save_models", None),
    ("cmfda.dataio", "save_covariances", "dataio.save_covariances", None),
    ("cmfda.dataio", "load_covariances", "dataio.load_covariances", None),
    ("cmfda.core", "PixelSeries.to_arrays", "core.PixelSeries.to_arrays", None),
    ("cmfda.pipeline", "compact_pixels", "pipeline.compact_pixels", _len_result("pixels")),
    ("cmfda.pipeline", "fit_pixels", "pipeline.fit_pixels", _fit_counts),
    ("cmfda.pipeline", "detect_pixels", "pipeline.detect_pixels", _detect_counts),
    ("cmfda.pipeline", "training_residuals", "pipeline.training_residuals", _residual_counts),
    ("cmfda.pipeline", "paired_residual_records", "pipeline.paired_residual_records",
     _len_result("pairs")),
    ("cmfda.pipeline", "build_training_dataset", "pipeline.build_training_dataset", None),
    ("cmfda.pipeline", "online_process_batch", "pipeline.online_process_batch", _online_counts),
    ("cmfda.pipeline", "fit_arrays", "harmonic.fit_arrays", None),
    ("cmfda.pipeline", "scan_window_errors", "detection.scan_window_errors", None),
    ("cmfda.training", "scan_window_errors", "detection.scan_window_errors", None),
    ("cmfda.detection", "mahalanobis_series", "detection.mahalanobis_series", None),
    ("cmfda.training", "mahalanobis_series", "detection.mahalanobis_series", None),
    ("cmfda.cli", "estimate_cube_covariances", "detection.estimate_cube_covariances",
     _cube_counts),
    ("cmfda.cli", "fit_standardizer", "standardize.fit_standardizer", _standardizer_counts),
    ("cmfda.training", "anneal_multivariate", "training.anneal_multivariate", None),
    ("cmfda.training", "grid_search_univariate", "training.grid_search_univariate", None),
    ("cmfda.training", "grid_search_mahalanobis", "training.grid_search_mahalanobis", None),
    ("cmfda.training", "univariate_flag_levels", "training.univariate_flag_levels", None),
    ("cmfda.training", "mahalanobis_flag_levels", "training.mahalanobis_flag_levels", None),
    ("cmfda.training", "cross_validate", "training.cross_validate", None),
    ("cmfda.training", "evaluate_rule", "training.evaluate_rule", None),
    ("cmfda.training", "sweep_fixed", "training.sweep_fixed", None),
)

# Pool worker bodies: wrapped only to read each forked worker's peak RSS.
WORKER_BODIES = (("cmfda.pipeline", "_fit_chunk"), ("cmfda.pipeline", "_detect_chunk"))


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans ``(name, start, end, parent, root)``; ``parent`` and
    ``root`` are span indices, -1 for none."""

    def __init__(self, rss_log: Path | None = None):
        self.spans: list[tuple] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._rss_log = rss_log
        self._pid = os.getpid()

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else index
        self.spans.append((name, perf_counter(), None, parent, root))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent, root = self.spans[index]
        self.spans[index] = (name, start, perf_counter(), parent, root)

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span, such as one CLI command."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, layer, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[layer][key] += value
            return result

        return traced

    def _wrap_worker(self, fn):
        tracer = self

        @functools.wraps(fn)
        def worker(*args, **kwargs):
            result = fn(*args, **kwargs)
            if os.getpid() != tracer._pid:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                with open(tracer._rss_log, "a") as fh:
                    fh.write(f"{peak}\n")
            return result

        return worker

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer, counter in LAYERS:
            owner, name = _resolve(module_name, attr)
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, counter))
        if self._rss_log is not None:
            for module_name, attr in WORKER_BODIES:
                owner, name = _resolve(module_name, attr)
                self._saved.append((owner, name, owner.__dict__[name]))
                setattr(owner, name, self._wrap_worker(owner.__dict__[name]))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def worker_peak_rss_mb(self) -> float:
        if self._rss_log is None or not self._rss_log.exists():
            return 0.0
        peaks = [int(line) for line in self._rss_log.read_text().split()]
        return max(peaks, default=0) / 1024

    # -- summaries ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, root in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for index, (name, start, end, parent, root) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive seconds, self seconds, and counts."""
        table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, self_s in zip(self.spans, self.self_times()):
            row = table[span[0]]
            row["calls"] += 1
            row["s"] += span[2] - span[1]
            row["self_s"] += self_s
        for layer, counts in self.counts.items():
            table[layer].update(counts)
        return {k: dict(v) for k, v in table.items()}

    def seconds_under(self, layer: str, root_name: str) -> float:
        """Inclusive time of ``layer`` spans under roots named ``root_name``."""
        return sum(
            end - start
            for name, start, end, parent, root in self.spans
            if name == layer and self.spans[root][0] == root_name
        )

    def dump(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent,
             "self_s": self_s}
            for i, ((name, start, end, parent, root), self_s)
            in enumerate(zip(self.spans, self.self_times()))
        ]
