"""End-to-end pipeline: stage orchestration, artifacts, and GeoJSON.

Stages run in a fixed order, each reading the artifacts of the previous
ones from the output directory and writing its own.  A manifest keeps the
config hash plus per-stage timings and output file hashes, so rerunning a
finished stage with an unchanged config is skipped after verifying the
artifacts on disk still match their recorded hashes.
"""
from __future__ import annotations

import hashlib
import json
import logging
import time
from pathlib import Path

import numpy as np

from .activity_ingest import (HapMatrix, build_hap_matrix, detect_activities,
                              parse_gps, to_activity_infos)
from .config import PipelineConfig
from .errors import DataError
from .geo_grid import Box, GridIndex, decode, enumerate_cells
from .latent_fusion import LatentFactors, fit
from .poi_ingest import (CategoryTable, FeatureMatrix, PoiMatrix,
                         build_poi_matrix, parse_pois, raw_poi_features,
                         svd_features, tfidf_transform)
from .zone_annotate import build_profiles, format_report, ranked_report, save_report
from .zone_cluster import (ZoneModel, crf_fit, kmeans, lattice_adjacency,
                           load_labels, save_labels)

logger = logging.getLogger(__name__)

STAGES = ("segment", "ingest-gps", "ingest-poi", "fit", "cluster", "annotate")

# per-stage output artifacts, relative to the run directory
STAGE_OUTPUTS = {
    "segment": ("cells.csv",),
    "ingest-gps": ("hap.coo", "hap.json"),
    "ingest-poi": ("poi.coo", "poi.json"),
    "fit": ("factors/U.bin", "factors/V.bin", "factors/Q.bin", "factors/Z.bin",
            "factors/A.bin", "factors/W.bin", "factors/shapes.json", "trace.csv"),
    "cluster": ("labels.csv", "zones.geojson"),
    "annotate": ("report.csv", "report.txt"),
}

DEFAULT_PALETTE = (
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#eeca3b",
    "#b279a2", "#ff9da6", "#9d755d", "#bab0ac",
)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def export_geojson(labels, grid: GridIndex, palette=DEFAULT_PALETTE,
                   path=None) -> dict:
    """One closed-rectangle polygon feature per region, colored by label.

    Coordinates are lon-lat rings tracing each cell box counterclockwise,
    so neighbors share corner coordinates exactly and the collection tiles
    the study box.
    """
    labels = np.asarray(labels)
    if len(labels) != len(grid):
        raise ValueError(f"{len(labels)} labels for {len(grid)} regions")
    features = []
    for i, cell in enumerate(grid.cells):
        box = decode(cell)
        ring = [[box.min_lon, box.min_lat], [box.max_lon, box.min_lat],
                [box.max_lon, box.max_lat], [box.min_lon, box.max_lat],
                [box.min_lon, box.min_lat]]
        label = int(labels[i])
        features.append({
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [ring]},
            "properties": {"geohash": cell.code, "label": label,
                           "color": palette[label % len(palette)]},
        })
    collection = {"type": "FeatureCollection", "features": features}
    if path is not None:
        # one json.dumps call runs the C encoder; json.dump never does
        text = json.dumps(collection, separators=(",", ":"), sort_keys=True)
        Path(path).write_text(text + "\n")
    return collection


class Pipeline:
    """Runs stages against one config and its output directory."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        self.manifest_path = self.out / "manifest.json"
        # the grid of cells.csv, once segment built it or a stage loaded it
        self._kept_grid: GridIndex | None = None

    # --- manifest -------------------------------------------------------

    def _load_manifest(self) -> dict:
        if self.manifest_path.exists():
            with open(self.manifest_path) as fh:
                return json.load(fh)
        return {"config_hash": self.cfg.config_hash(), "stages": {}}

    def _save_manifest(self, manifest: dict) -> None:
        with open(self.manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def _is_fresh(self, manifest: dict, stage: str) -> bool:
        if manifest.get("config_hash") != self.cfg.config_hash():
            return False
        entry = manifest["stages"].get(stage)
        if entry is None:
            return False
        for rel, digest in entry["outputs"].items():
            target = self.out / rel
            if not target.exists() or file_sha256(target) != digest:
                return False
        return True

    # --- stage inputs ---------------------------------------------------

    def _require(self, stage: str, *rels: str) -> list[Path]:
        paths = []
        for rel in rels:
            p = self.out / rel
            if not p.exists():
                raise DataError(f"stage {stage!r} needs {p}; "
                                f"run the earlier stages first")
            paths.append(p)
        return paths

    def _grid(self, stage: str) -> GridIndex:
        (path,) = self._require(stage, "cells.csv")
        if self._kept_grid is None:
            self._kept_grid = GridIndex.from_csv(path)
        return self._kept_grid

    def _categories(self) -> CategoryTable:
        if self.cfg.category_path:
            return CategoryTable.from_csv(self.cfg.category_path)
        return CategoryTable.default()

    # --- stages ---------------------------------------------------------

    def _stage_segment(self) -> dict:
        cfg = self.cfg
        grid = enumerate_cells(Box(cfg.min_lat, cfg.min_lon,
                                   cfg.max_lat, cfg.max_lon), cfg.level)
        grid.to_csv(self.out / "cells.csv")
        self._kept_grid = grid
        return {"regions": len(grid)}

    def _stage_ingest_gps(self) -> dict:
        cfg = self.cfg
        grid = self._grid("ingest-gps")
        started = time.perf_counter()
        trajectories, malformed = parse_gps(cfg.gps_path,
                                            weekdays_only=cfg.weekdays_only,
                                            tz=cfg.timezone)
        parsed = time.perf_counter()
        stays = detect_activities(trajectories.points,
                                  max_distance_m=cfg.stay_distance_m,
                                  min_duration_s=cfg.stay_duration_s)
        detected = time.perf_counter()
        trips, dropped = to_activity_infos(stays, grid)
        located = time.perf_counter()
        hap = build_hap_matrix(trips, len(grid), tz=cfg.timezone)
        built = time.perf_counter()
        hap.save(self.out / "hap.coo", self.out / "hap.json")
        return {"users": len(trajectories), "malformed_rows": malformed,
                "activities": len(stays), "outside_grid": dropped,
                "trip_records": len(trips), "hap_sparsity": hap.sparsity(),
                "parse_s": parsed - started, "stays_s": detected - parsed,
                "lookup_s": located - detected, "matrix_s": built - located}

    def _stage_ingest_poi(self) -> dict:
        grid = self._grid("ingest-poi")
        categories = self._categories()
        records, rejects = parse_pois(self.cfg.poi_path, categories)
        poi = build_poi_matrix(records, grid, categories)
        poi.save(self.out / "poi.coo", self.out / "poi.json")
        return {"pois": len(records), "outside_grid": poi.dropped,
                "unknown_categories": sum(rejects.values()),
                "poi_sparsity": poi.sparsity(),
                "observed_fraction": poi.observed_fraction()}

    def _stage_fit(self) -> dict:
        self._require("fit", "poi.coo", "hap.coo")
        poi = PoiMatrix.load(self.out / "poi.coo", self.out / "poi.json")
        hap = HapMatrix.load(self.out / "hap.coo", self.out / "hap.json")
        P = poi.P.toarray().astype(np.float64)
        I = poi.observation_matrix(self.cfg.mask_mode)
        factors, trace = fit(P, I, hap.data, self.cfg.hyperparams())
        factors.save(self.out / "factors")
        trace.to_csv(self.out / "trace.csv")
        return {"iterations": trace.iters[-1], "stop_reason": trace.stop_reason,
                "objective": trace.totals[-1], "terms": trace.terms[-1],
                "relative_decrease": trace.relative_decrease}

    def _features(self, poi: PoiMatrix) -> FeatureMatrix:
        kind = self.cfg.feature
        if kind == "raw_poi":
            return raw_poi_features(poi)
        if kind == "tfidf":
            return tfidf_transform(poi)
        if kind == "svd_poi":
            return svd_features(tfidf_transform(poi), self.cfg.svd_t)
        factors = LatentFactors.load(self.out / "factors")
        if kind == "latent_v":
            return FeatureMatrix(F=factors.V, kind="latent_v")
        return FeatureMatrix(F=factors.Z, kind="latent_z")

    def _stage_cluster(self) -> dict:
        cfg = self.cfg
        grid = self._grid("cluster")
        self._require("cluster", "poi.coo")
        if cfg.feature in ("latent_v", "latent_z"):
            self._require("cluster", "factors/shapes.json")
        poi = PoiMatrix.load(self.out / "poi.coo", self.out / "poi.json")
        F = self._features(poi)
        notes = {"method": cfg.method, "feature": cfg.feature, "zones": cfg.zones}
        if cfg.method == "crf":
            model = crf_fit(F, lattice_adjacency(*grid.shape), c=cfg.zones,
                            beta=cfg.beta, seed=cfg.seed)
            labels = model.labels
            model.save(self.out / "model.json")
        else:
            labels, _ = kmeans(F, cfg.zones, seed=cfg.seed)
        save_labels(self.out / "labels.csv", grid.cells, labels)
        export_geojson(labels, grid, path=self.out / "zones.geojson")
        return notes

    def _stage_annotate(self) -> dict:
        grid = self._grid("annotate")
        self._require("annotate", "labels.csv", "poi.coo")
        codes, labels = load_labels(self.out / "labels.csv")
        if codes != [c.code for c in grid.cells]:
            raise DataError("labels.csv does not match the current grid")
        poi = PoiMatrix.load(self.out / "poi.coo", self.out / "poi.json")
        profiles = build_profiles(labels, poi)
        rows = ranked_report(profiles, self._categories())
        save_report(self.out / "report.csv", rows)
        (self.out / "report.txt").write_text(format_report(profiles, rows))
        return {"zones": len(profiles),
                "annotatable": sum(p.annotatable for p in profiles),
                "significant_rows": len(rows)}

    # --- driver ---------------------------------------------------------

    def run_stage(self, stage: str, force: bool = False) -> dict:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        self.out.mkdir(parents=True, exist_ok=True)
        self.cfg.save(self.out / "config.txt")
        manifest = self._load_manifest()
        if manifest.get("config_hash") != self.cfg.config_hash():
            manifest = {"config_hash": self.cfg.config_hash(), "stages": {}}
        if not force and self._is_fresh(manifest, stage):
            logger.info("stage %s is up to date, skipping", stage)
            return manifest["stages"][stage]
        runner = getattr(self, "_stage_" + stage.replace("-", "_"))
        started = time.perf_counter()
        try:
            notes = runner()
        except OSError as exc:
            raise DataError(f"stage {stage!r} failed: {exc}") from exc
        entry = {
            "seconds": time.perf_counter() - started,
            "outputs": {rel: file_sha256(self.out / rel)
                        for rel in STAGE_OUTPUTS[stage]},
            "notes": notes,
        }
        manifest["stages"][stage] = entry
        self._save_manifest(manifest)
        logger.info("stage %s done in %.2fs", stage, entry["seconds"])
        return entry

    def run(self, force: bool = False) -> dict:
        for stage in STAGES:
            self.run_stage(stage, force=force)
        return self._load_manifest()


def run(cfg: PipelineConfig, force: bool = False) -> dict:
    """Execute all stages for one config; returns the final manifest."""
    return Pipeline(cfg).run(force=force)
