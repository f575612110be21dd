"""End-to-end pipeline: stage orchestration, artifacts, and GeoJSON.

Stages run in a fixed order, each reading the artifacts of the previous
ones from the output directory and writing its own.  STAGE_IO declares
what every stage reads (config keys and files) and writes.  The manifest
records, per stage, the values of the keys and the sha256 of the files
it read, plus timings, the process's peak resident memory so far and the
sha256 of its outputs.  A stage is fresh, and a rerun skips it, when its
inputs are unchanged and its outputs on disk still match their recorded
hashes; so an edit reruns only the stages that read what changed, and
the stages whose input bytes changed in turn.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .activity_ingest import (HapMatrix, build_hap_matrix, detect_activities,
                              parse_gps, to_activity_infos)
from .config import PipelineConfig
from .errors import ConfigError, DataError
from .geo_grid import Box, GridIndex, enumerate_cells, load_labels, save_labels
from .latent_fusion import Hyperparams, LatentFactors, fit
from .poi_ingest import (CategoryTable, PoiMatrix, build_poi_matrix, parse_pois,
                         raw_poi_features, svd_features, tfidf_transform)
from .zone_annotate import build_profiles, format_report, ranked_report, save_report
from .zone_cluster import crf_fit, kmeans

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class StageIO:
    """The config keys a stage reads, the files it reads, and what it writes.

    A file is an artifact relative to the run directory, or one of
    INPUT_PATH_KEYS, the config keys that name an input file.
    """

    keys: tuple[str, ...]
    files: tuple[str, ...]
    outputs: tuple[str, ...]


INPUT_PATH_KEYS = ("gps_path", "poi_path", "category_path")
_HAP = ("hap.coo", "hap.json")
_POI = ("poi.coo", "poi.json")

STAGE_IO = {
    "segment": StageIO(("min_lat", "min_lon", "max_lat", "max_lon", "level"),
                       (), ("cells.csv",)),
    "ingest-gps": StageIO(("stay_distance_m", "stay_duration_s", "timezone",
                           "weekdays_only"), ("cells.csv", "gps_path"), _HAP),
    "ingest-poi": StageIO((), ("cells.csv", "poi_path", "category_path"), _POI),
    # only V, the latent vector per region, is saved: no stage reads the rest
    "fit": StageIO(tuple(f.name for f in fields(Hyperparams)), _POI + _HAP,
                   ("factors/V.bin", "factors/shapes.json", "trace.csv")),
    # plus the files of its feature and the outputs of its method, below
    "cluster": StageIO(("method", "feature", "zones", "beta", "svd_t", "seed"),
                       ("cells.csv",), ("labels.csv", "zones.geojson")),
    "annotate": StageIO((), ("cells.csv", "labels.csv", *_POI),
                        ("report.csv", "report.txt")),
}  # in run order

CLUSTER_FEATURE_FILES = {
    "raw_poi": _POI, "tfidf": _POI, "svd_poi": _POI,
    "latent_v": ("factors/shapes.json", "factors/V.bin"),
}
CLUSTER_METHOD_OUTPUTS = {"kmeans": (), "crf": ("model.json",)}

STAGES = tuple(STAGE_IO)
# per-stage output artifacts, relative to the run directory
STAGE_OUTPUTS = {stage: io.outputs for stage, io in STAGE_IO.items()}

PALETTE = (
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#eeca3b",
    "#b279a2", "#ff9da6", "#9d755d", "#bab0ac",
)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _peak_rss_mb() -> float | None:
    """The process's resident high-water mark so far, in MiB, or None
    where there is no getrusage."""
    try:
        import resource
    except ImportError:  # Windows has no getrusage
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # bytes on macOS, kB elsewhere
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


@contextmanager
def _reading(*paths: Path):
    """Map a ValueError, KeyError or TypeError raised while reading run
    artifacts to a DataError naming them: such a file is malformed, not
    the code."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {' or '.join(map(str, paths))}: {exc}") from exc


# one GeoJSON feature: its keys in sorted order, without whitespace, and
# (min_lat, min_lon, max_lat, max_lon, geohash, color, label) as 0 to 6
_FEATURE = ('{{"geometry":{{"coordinates":[[[{1},{0}],[{3},{0}],[{3},{2}],[{1},{2}],'
            '[{1},{0}]]],"type":"Polygon"}},"properties":{{"color":"{5}",'
            '"geohash":"{4}","label":{6}}},"type":"Feature"}}')


def export_geojson(labels, grid: GridIndex, path=None) -> str:
    """One closed-rectangle polygon feature per region, colored by label.

    Coordinates are lon-lat rings tracing each cell box counterclockwise,
    so neighbors share corner coordinates exactly and the collection tiles
    the study box.  Returns the FeatureCollection as JSON text, as
    `json.dumps(..., separators=(",", ":"), sort_keys=True)` would give
    it, and writes it with a trailing newline to `path` when one is given.
    The text is built from the `GridIndex.box_reprs()` strings, which
    format each corner value once per lattice row or column.
    """
    labels = np.asarray(labels).astype(np.int64)
    if len(labels) != len(grid):
        raise ValueError(f"{len(labels)} labels for {len(grid)} regions")
    colors = np.array(PALETTE, dtype=object)[labels % len(PALETTE)].tolist()
    features = map(_FEATURE.format, *grid.box_reprs(), grid.codes, colors, labels.tolist())
    text = '{"features":[' + ",".join(features) + '],"type":"FeatureCollection"}'
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


class Pipeline:
    """Runs stages against one config and its output directory."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        self.manifest_path = self.out / "manifest.json"
        # the grid of cells.csv, once segment built it or a stage loaded it
        self._kept_grid: GridIndex | None = None
        # path -> ((inode, size, mtime), sha256): each file is hashed once
        # while its stat holds, then serves every stage that reads it
        self._digests: dict[Path, tuple[tuple[int, int, int], str]] = {}

    # --- manifest -------------------------------------------------------

    def _load_manifest(self) -> dict:
        """The manifest on disk; an empty one when it is missing, is not
        JSON or has no stages, so every stage reruns and rewrites it.  A
        stage entry without dict inputs and outputs is dropped, so that
        stage reruns."""
        empty = {"config_hash": self.cfg.config_hash(), "stages": {}}
        if not self.manifest_path.exists():
            return empty
        try:
            with open(self.manifest_path) as fh:
                manifest = json.load(fh)
        except ValueError:  # not JSON, or not UTF-8
            manifest = None
        if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
            logger.warning("%s is not a readable manifest; treating the stage "
                           "cache as empty", self.manifest_path)
            return empty
        stages = manifest["stages"]
        for stage, entry in list(stages.items()):
            if not (isinstance(entry, dict) and isinstance(entry.get("inputs"), dict)
                    and isinstance(entry.get("outputs"), dict)):
                logger.warning("%s has a malformed entry for stage %s; it reruns",
                               self.manifest_path, stage)
                del stages[stage]
        return manifest

    def _save_manifest(self, manifest: dict) -> None:
        # a write that fails midway leaves the previous manifest in place
        tmp = self.manifest_path.with_name(self.manifest_path.name + ".tmp")
        try:
            with open(tmp, "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.manifest_path)
        finally:
            tmp.unlink(missing_ok=True)

    # --- stage inputs and freshness -------------------------------------

    def _io(self, stage: str) -> StageIO:
        io = STAGE_IO[stage]
        if stage != "cluster":
            return io
        return StageIO(io.keys, io.files + CLUSTER_FEATURE_FILES[self.cfg.feature],
                       io.outputs + CLUSTER_METHOD_OUTPUTS[self.cfg.method])

    def _path(self, name: str) -> Path | None:
        """Where a declared file lives; None for an unset path key."""
        if name in INPUT_PATH_KEYS:
            value = getattr(self.cfg, name)
            return Path(value) if value else None
        return self.out / name

    def _digest(self, path: Path, reread: bool = False) -> str | None:
        """sha256 of a file, None when it is missing.

        Reuses the digest this pipeline last took of the file while its
        inode, size and mtime are unchanged, unless `reread` is set.
        """
        try:
            st = path.stat()
        except FileNotFoundError:
            return None
        stamp = (st.st_ino, st.st_size, st.st_mtime_ns)
        known = self._digests.get(path)
        if reread or known is None or known[0] != stamp:
            known = self._digests[path] = (stamp, file_sha256(path))
        return known[1]

    def _inputs(self, io: StageIO) -> dict:
        """Each declared config key's value and each declared file's sha256
        ("" for the builtin category table, None for a missing file)."""
        inputs = {key: getattr(self.cfg, key) for key in io.keys}
        for name in io.files:
            path = self._path(name)
            inputs[name] = "" if path is None else self._digest(path)
        return inputs

    def _staleness(self, manifest: dict, stage: str, io: StageIO,
                   inputs: dict) -> str | None:
        """Why the stage must rerun, or None when it is fresh."""
        entry = manifest["stages"].get(stage)
        if entry is None:
            return "no entry"
        recorded = entry["inputs"]
        for name, value in inputs.items():
            if name in recorded and recorded[name] == value:
                continue
            if name in io.keys:
                return f"config key {name} changed"
            path = self._path(name)
            label = path.name if path is not None and name in INPUT_PATH_KEYS else name
            return f"input {label} {'missing' if value is None else 'changed'}"
        for rel, digest in entry["outputs"].items():
            if self._digest(self.out / rel, reread=True) != digest:
                return f"output {rel} modified or missing"
        return None

    def _require(self, stage: str, *names: str) -> None:
        for name in names:
            path = self._path(name)
            if path is not None and not path.exists():
                hint = "" if name in INPUT_PATH_KEYS else "; run the earlier stages first"
                raise DataError(f"stage {stage!r} needs {path}{hint}")

    def _grid(self) -> GridIndex:
        if self._kept_grid is None:
            with _reading(self.out / "cells.csv"):
                self._kept_grid = GridIndex.from_csv(self.out / "cells.csv")
        return self._kept_grid

    def _poi(self) -> PoiMatrix:
        coo, sidecar = self.out / "poi.coo", self.out / "poi.json"
        with _reading(coo, sidecar):
            return PoiMatrix.load(coo, sidecar)

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
        grid = self._grid()
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
        grid = self._grid()
        categories = (CategoryTable.from_csv(self.cfg.category_path)
                      if self.cfg.category_path else CategoryTable.default())
        records, rejects = parse_pois(self.cfg.poi_path, categories)
        poi = build_poi_matrix(records, grid, categories)
        poi.save(self.out / "poi.coo", self.out / "poi.json")
        return {"pois": len(records), "outside_grid": poi.dropped,
                "unknown_categories": sum(rejects.values()),
                "poi_sparsity": poi.sparsity(),
                "observed_fraction": poi.observed_fraction()}

    def _stage_fit(self) -> dict:
        poi = self._poi()
        coo, sidecar = self.out / "hap.coo", self.out / "hap.json"
        with _reading(coo, sidecar):
            hap = HapMatrix.load(coo, sidecar)
        factors, trace = fit(poi.P, poi.mask, hap.data, self.cfg.hyperparams())
        # blocks an older version saved; nothing would track them now
        for stale in (self.out / "factors").glob("*.bin"):
            stale.unlink()
        replace(factors, U=None, Z=None, A=None, W=None).save(self.out / "factors")
        trace.to_csv(self.out / "trace.csv")
        # regions with neither a venue nor a trip: nothing in the data fixes
        # their latent column
        trips = np.bincount(hap.data.col, weights=hap.data.data, minlength=poi.r)
        empty = int(np.count_nonzero(~poi.mask & (trips == 0)))
        # latent columns of venue-free regions collapsing toward zero leave
        # the clustering one blob of them
        ratio = None
        if 0 < poi.mask.sum() < poi.r:
            norms = np.linalg.norm(factors.V, axis=0)
            ratio = float(norms[~poi.mask].mean() / norms[poi.mask].mean())
            if ratio < 1e-2:
                logger.warning("the latent columns of unobserved regions have %.3g "
                               "times the mean norm of observed ones", ratio)
        return {"iterations": trace.iters[-1], "stop_reason": trace.stop_reason,
                "objective": trace.totals[-1], "terms": trace.terms[-1],
                "relative_decrease": trace.relative_decrease,
                "k_path": trace.k_path, "empty_regions": empty,
                "unobserved_norm_ratio": ratio}

    def _features(self) -> np.ndarray:
        """The configured feature, d x r."""
        kind = self.cfg.feature
        if kind == "latent_v":
            factors = self.out / "factors"
            with _reading(factors / "shapes.json", factors / "V.bin"):
                return LatentFactors.load(factors, ("V",)).V
        poi = self._poi()
        if kind == "raw_poi":
            return raw_poi_features(poi)
        if kind == "tfidf":
            return tfidf_transform(poi)
        rank = min(poi.n_categories, poi.r)
        if self.cfg.svd_t > rank:
            raise ConfigError(f"svd_t {self.cfg.svd_t} outside [1, {rank}]: "
                              f"{poi.n_categories} categories, {poi.r} regions")
        return svd_features(tfidf_transform(poi), self.cfg.svd_t)

    def _stage_cluster(self) -> dict:
        cfg = self.cfg
        grid = self._grid()
        F = self._features()
        r = F.shape[1]
        if r != len(grid):
            raise DataError(f"the {cfg.feature} feature has {r} regions but "
                            f"cells.csv has {len(grid)}; rerun the earlier stages")
        if cfg.zones > r:
            raise ConfigError(f"zones {cfg.zones} outside [1, {r}]: "
                              f"the grid has {r} regions")
        notes = {"method": cfg.method, "feature": cfg.feature, "zones": cfg.zones}
        if cfg.method == "crf":
            model = crf_fit(F, grid.shape, c=cfg.zones, beta=cfg.beta, seed=cfg.seed)
            labels = model.labels
            model.save(self.out / "model.json")
            notes.update(vars(model.stats))
        else:
            labels, _ = kmeans(F, cfg.zones, seed=cfg.seed)
            # left by an earlier crf run; nothing would track it now
            (self.out / "model.json").unlink(missing_ok=True)
        save_labels(self.out / "labels.csv", grid.codes, labels)
        export_geojson(labels, grid, path=self.out / "zones.geojson")
        sizes = np.bincount(labels, minlength=cfg.zones)
        largest = int(sizes.argmax())
        if sizes[largest] > r / 2:
            logger.warning("zone %d holds %d of the %d regions (%.1f%%)",
                           largest, sizes[largest], r, 100 * sizes[largest] / r)
        notes["zone_sizes"] = sizes.tolist()
        return notes

    def _stage_annotate(self) -> dict:
        grid = self._grid()
        with _reading(self.out / "labels.csv"):
            codes, labels = load_labels(self.out / "labels.csv")
        if codes != grid.codes:
            raise DataError("labels.csv does not match the current grid")
        poi = self._poi()
        profiles = build_profiles(labels, poi)
        rows = ranked_report(profiles, CategoryTable(names=poi.categories))
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
        io = self._io(stage)
        inputs = self._inputs(io)
        reason = "forced" if force else self._staleness(manifest, stage, io, inputs)
        if reason is None:
            logger.info("stage %s is up to date, skipping", stage)
            return manifest["stages"][stage]
        logger.info("running stage %s: %s", stage, reason)
        self._require(stage, *io.files)
        runner = getattr(self, "_stage_" + stage.replace("-", "_"))
        started = time.perf_counter()
        try:
            notes = runner()
        except OSError as exc:
            raise DataError(f"stage {stage!r} failed: {exc}") from exc
        entry = {
            "seconds": time.perf_counter() - started,
            "peak_rss_mb": _peak_rss_mb(),
            "inputs": inputs,
            "outputs": {rel: self._digest(self.out / rel, reread=True)
                        for rel in io.outputs},
            "notes": notes,
        }
        manifest["config_hash"] = self.cfg.config_hash()
        manifest["stages"][stage] = entry
        self._save_manifest(manifest)
        logger.info("stage %s done in %.2fs", stage, entry["seconds"])
        return entry

    def status(self) -> dict[str, str | None]:
        """Each stage's reason to rerun, or None when it is fresh.

        Judges every stage against the files on disk now, so a stage after
        a stale one can still turn stale when that one reruns.
        """
        manifest = self._load_manifest()
        reasons = {}
        for stage in STAGES:
            io = self._io(stage)
            reasons[stage] = self._staleness(manifest, stage, io, self._inputs(io))
        return reasons

    def run(self, force: bool = False) -> dict:
        for stage in STAGES:
            self.run_stage(stage, force=force)
        return self._load_manifest()


def run(cfg: PipelineConfig, force: bool = False) -> dict:
    """Execute all stages for one config; returns the final manifest."""
    return Pipeline(cfg).run(force=force)
