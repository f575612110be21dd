"""Traced `zonefuse run`: spans around every public call, per-layer metrics.

Usage: python3 perfbench/tracer.py SPANS_JSON RUN_ID <zonefuse cli args...>

Runs the pipeline in this process through `zonefuse.cli.main`, after
wrapping the public names that `zonefuse.pipeline` and
`zonefuse.zone_cluster` call.  The wrappers replace the names bound in
those modules, so calls made through `from ... import` are caught too.
Each call records a span (name, start, end, parent) tagged with the run
id; spans stay in memory and are written to SPANS_JSON when the run
ends, together with a few counts taken from call results.

`summarize` turns one span file into the per-layer metrics; it needs
only the standard library, so the benchmark driver can import it.
"""
from __future__ import annotations

import csv
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("geo_grid", "activity_ingest", "poi_ingest", "latent_fusion",
          "zone_cluster", "zone_annotate", "pipeline")

STAGES = ("segment", "ingest-gps", "ingest-poi", "fit", "cluster", "annotate")

# span name -> name of the per-layer metric its inclusive time adds to
TIMED = {
    "geo_grid.enumerate_cells": "geo_grid.enumerate_cells_s",
    "geo_grid.GridIndex.from_csv": "geo_grid.grid_load_s",
    "activity_ingest.parse_gps": "activity_ingest.parse_gps_s",
    "activity_ingest.detect_activities": "activity_ingest.detect_activities_s",
    "activity_ingest.to_activity_infos": "activity_ingest.to_activity_infos_s",
    "activity_ingest.build_hap_matrix": "activity_ingest.build_hap_matrix_s",
    "activity_ingest.HapMatrix.save": "activity_ingest.hap_io_s",
    "activity_ingest.HapMatrix.load": "activity_ingest.hap_io_s",
    "poi_ingest.parse_pois": "poi_ingest.parse_pois_s",
    "poi_ingest.build_poi_matrix": "poi_ingest.build_poi_matrix_s",
    "poi_ingest.PoiMatrix.save": "poi_ingest.poi_io_s",
    "poi_ingest.PoiMatrix.load": "poi_ingest.poi_io_s",
    "poi_ingest.raw_poi_features": "poi_ingest.features_s",
    "poi_ingest.tfidf_transform": "poi_ingest.features_s",
    "poi_ingest.svd_features": "poi_ingest.features_s",
    "latent_fusion.fit": "latent_fusion.fit_s",
    "latent_fusion.LatentFactors.save": "latent_fusion.factors_io_s",
    "latent_fusion.LatentFactors.load": "latent_fusion.factors_io_s",
    "zone_cluster.adjacency_from_grid": "zone_cluster.adjacency_s",
    "zone_cluster.crf_fit": "zone_cluster.crf_fit_s",
    "zone_cluster.kmeans": "zone_cluster.kmeans_s",
    "zone_cluster.icm_map": "zone_cluster.icm_s",
    "zone_cluster.energy": "zone_cluster.energy_s",
    "zone_annotate.build_profiles": "zone_annotate.build_profiles_s",
    "zone_annotate.ranked_report": "zone_annotate.report_s",
    "zone_annotate.format_report": "zone_annotate.report_s",
    "zone_annotate.save_report": "zone_annotate.report_s",
    "pipeline.export_geojson": "pipeline.geojson_s",
    "pipeline.file_sha256": "pipeline.hash_s",
    **{f"pipeline.stage.{s}": f"pipeline.{s.replace('-', '_')}_s" for s in STAGES},
}


class Recorder:
    """In-memory span list with a parent stack (the pipeline is single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(self.counts, args, result)
            return result
        return traced

    def dump(self, path, exit_code: int) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "exit_code": exit_code,
                       "spans": self.spans, "counts": self.counts}, fh)


def _count(key, measure):
    def after(counts, args, result):
        counts[key] += measure(args, result)
    return after


def install(rec: Recorder) -> None:
    """Wrap the public calls of every layer the pipeline drives."""
    from zonefuse import pipeline, zone_cluster
    from zonefuse.activity_ingest import HapMatrix
    from zonefuse.geo_grid import GridIndex
    from zonefuse.latent_fusion import FitTrace, LatentFactors
    from zonefuse.poi_ingest import PoiMatrix
    from zonefuse.zone_cluster import ZoneModel

    hooks = {
        "parse_gps": _count("gps_rows",
                            lambda a, r: sum(len(p) for p in r[0].values())),
        "detect_activities": _count("stay_points", lambda a, r: len(r)),
        "to_activity_infos": _count("trip_records", lambda a, r: len(r[0])),
        "build_hap_matrix": _count("hap_nnz", lambda a, r: r.data.nnz),
        "file_sha256": _count("hash_bytes", lambda a, r: os.path.getsize(a[0])),
    }
    wrapped = {}
    for module in (pipeline, zone_cluster):
        for attr in ("parse_gps", "detect_activities", "to_activity_infos",
                     "build_hap_matrix", "enumerate_cells", "fit", "parse_pois",
                     "build_poi_matrix", "raw_poi_features", "tfidf_transform",
                     "svd_features", "build_profiles", "ranked_report",
                     "format_report", "save_report", "adjacency_from_grid",
                     "crf_fit", "kmeans", "icm_map", "energy", "save_labels",
                     "load_labels", "file_sha256", "export_geojson"):
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            if fn not in wrapped:
                layer = fn.__module__.rsplit(".", 1)[-1]
                wrapped[fn] = rec.wrap(f"{layer}.{attr}", fn, hooks.get(attr))
            setattr(module, attr, wrapped[fn])

    for cls, layer, methods in (
            (HapMatrix, "activity_ingest", ("save", "load")),
            (PoiMatrix, "poi_ingest", ("save", "load")),
            (LatentFactors, "latent_fusion", ("save", "load")),
            (FitTrace, "latent_fusion", ("to_csv",)),
            (ZoneModel, "zone_cluster", ("save",)),
            (GridIndex, "geo_grid", ("to_csv", "from_csv"))):
        for attr in methods:
            raw = cls.__dict__[attr]
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(rec.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, rec.wrap(name, raw))

    run_stage = pipeline.Pipeline.run_stage

    def traced_stage(self, stage, force=False):
        # a stage was rerun when its manifest entry changed across the call
        before = None
        if self.manifest_path.exists():
            before = json.loads(self.manifest_path.read_text())["stages"].get(stage)
        entry = rec.wrap(f"pipeline.stage.{stage}", run_stage)(self, stage, force)
        rec.counts["stages_rerun"] += entry != before
        return entry

    pipeline.Pipeline.run_stage = traced_stage
    pipeline.Pipeline.run = rec.wrap("pipeline.run", pipeline.Pipeline.run)


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder(run_id)
    install(rec)
    from zonefuse.cli import main as cli_main
    code = 1
    try:
        code = cli_main(cli_args)
    finally:
        rec.dump(spans_path, code)
    return code


# --- summary (standard library only) ------------------------------------

def _dir_bytes(path: Path, pattern: str = "**/*") -> int:
    return sum(p.stat().st_size for p in path.glob(pattern) if p.is_file())


def summarize(doc: dict, out_dir: Path, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose child took wall_s seconds."""
    spans = doc["spans"]
    counts = doc["counts"]
    m = dict.fromkeys([*TIMED.values(), *(f"{layer}.self_s" for layer in LAYERS)], 0.0)
    calls = Counter(span[0] for span in spans)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if name in TIMED:
            m[TIMED[name]] += end - start
        if parent >= 0:
            child_time[parent] += end - start
    for (name, start, end, _), inner in zip(spans, child_time):
        m[name.split(".", 1)[0] + ".self_s"] += (end - start) - inner
    attributed = sum(m[f"{layer}.self_s"] for layer in LAYERS)

    ingest_s = sum(m[f"activity_ingest.{k}_s"] for k in (
        "parse_gps", "detect_activities", "to_activity_infos", "build_hap_matrix"))
    for key in ("gps_rows", "stay_points", "trip_records", "hap_nnz"):
        m[f"activity_ingest.{key}"] = counts.get(key, 0)
    m["activity_ingest.rows_per_s"] = (counts.get("gps_rows", 0) / ingest_s
                                       if ingest_s > 0 else 0.0)

    iterations, objective = 0, 0.0
    trace_csv = out_dir / "trace.csv"
    if trace_csv.exists():
        with open(trace_csv, newline="") as fh:
            for row in csv.DictReader(fh):
                iterations, objective = int(row["iter"]), float(row["total"])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    fit_notes = manifest["stages"].get("fit", {}).get("notes", {})
    m["latent_fusion.iterations"] = iterations
    m["latent_fusion.iter_ms"] = (1000.0 * m["latent_fusion.fit_s"] / iterations
                                  if iterations else 0.0)
    m["latent_fusion.converged"] = float(fit_notes.get("stop_reason") == "converged")
    m["latent_fusion.objective"] = objective
    m["latent_fusion.factor_bytes"] = _dir_bytes(out_dir / "factors", "*.bin")

    m["zone_cluster.em_rounds"] = calls["zone_cluster.icm_map"]
    m["zone_cluster.icm_sweeps"] = (calls["zone_cluster.energy"]
                                    - calls["zone_cluster.icm_map"])
    with open(out_dir / "labels.csv", newline="") as fh:
        labels = Counter(row["label"] for row in csv.DictReader(fh))
    m["zone_cluster.largest_zone_frac"] = max(labels.values()) / sum(labels.values())

    m["pipeline.hash_bytes"] = counts.get("hash_bytes", 0)
    # manifest.json holds stage timings, so its length varies from run to run
    m["pipeline.artifact_bytes"] = (_dir_bytes(out_dir)
                                    - (out_dir / "manifest.json").stat().st_size)
    m["pipeline.stages_rerun"] = counts.get("stages_rerun", 0)

    m["trace.run_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - attributed
    m["trace.spans"] = len(spans)
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
