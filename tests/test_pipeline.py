"""Pipeline orchestration: staging, artifacts, resumption, GeoJSON."""
import json

import numpy as np
import pytest

from zonefuse.config import PipelineConfig, parse_pairs
from zonefuse.errors import DataError
from zonefuse.geo_grid import decode
from zonefuse.pipeline import (STAGE_OUTPUTS, STAGES, Pipeline, export_geojson,
                               file_sha256, run)
from zonefuse.synth import SynthCitySpec, city_grid, gen_synthetic_city, write_city_config
from zonefuse.zone_cluster import load_labels


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    root = tmp_path_factory.mktemp("city")
    spec = SynthCitySpec(width=8, height=8, n_zones=4, n_users=60,
                         days=1, obs_rate=0.6, seed=5)
    gen_synthetic_city(spec, root)
    write_city_config(spec, root, max_iter="30", k="4",
                      method="kmeans", feature="raw_poi")
    return root


def variant(city, name, **overrides):
    """A config sharing the city's inputs but writing to its own out dir."""
    pairs = parse_pairs((city / "config.txt").read_text())
    pairs["out_dir"] = name
    pairs.update({k: str(v) for k, v in overrides.items()})
    path = city / f"config_{name}.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()))
    return PipelineConfig.load(path)


class TestFullRun:
    def test_all_artifacts_and_manifest(self, city):
        cfg = variant(city, "full")
        manifest = run(cfg)
        out = city / "full"
        for stage in STAGES:
            assert stage in manifest["stages"]
            entry = manifest["stages"][stage]
            assert entry["seconds"] >= 0
            for rel, digest in entry["outputs"].items():
                assert (out / rel).exists()
                assert file_sha256(out / rel) == digest
        assert manifest["config_hash"] == cfg.config_hash()
        assert (out / "config.txt").exists()

    def test_stage_notes_carry_counts(self, city):
        cfg = variant(city, "full")
        manifest = run(cfg)  # fresh, so this is a no-op replay
        notes = manifest["stages"]["segment"]["notes"]
        assert notes["regions"] == 64
        gps_notes = manifest["stages"]["ingest-gps"]["notes"]
        assert gps_notes["users"] == 60
        assert gps_notes["trip_records"] > 0

    def test_labels_cover_grid(self, city):
        cfg = variant(city, "full")
        run(cfg)
        codes, labels = load_labels(city / "full" / "labels.csv")
        assert len(codes) == 64
        assert set(labels.tolist()) <= set(range(cfg.zones))

    def test_report_files(self, city):
        cfg = variant(city, "full")
        run(cfg)
        text = (city / "full" / "report.txt").read_text()
        assert "zone" in text
        header = (city / "full" / "report.csv").read_text().splitlines()[0]
        assert header == "zone,rank,category,g_value"


class TestResumption:
    def test_rerun_skips_finished_stages(self, city):
        cfg = variant(city, "resume")
        pipe = Pipeline(cfg)
        pipe.run()
        before = {rel: (city / "resume" / rel).stat().st_mtime_ns
                  for outs in STAGE_OUTPUTS.values() for rel in outs}
        pipe.run()
        after = {rel: (city / "resume" / rel).stat().st_mtime_ns
                 for outs in STAGE_OUTPUTS.values() for rel in outs}
        assert before == after

    def test_force_reruns(self, city):
        cfg = variant(city, "forced")
        pipe = Pipeline(cfg)
        pipe.run()
        t0 = (city / "forced" / "cells.csv").stat().st_mtime_ns
        pipe.run_stage("segment", force=True)
        assert (city / "forced" / "cells.csv").stat().st_mtime_ns > t0

    def test_tampered_artifact_triggers_rerun(self, city):
        cfg = variant(city, "tamper")
        pipe = Pipeline(cfg)
        pipe.run()
        target = city / "tamper" / "cells.csv"
        target.write_text(target.read_text() + "# junk\n")
        entry = pipe.run_stage("segment")
        assert file_sha256(target) == entry["outputs"]["cells.csv"]
        assert "# junk" not in target.read_text()

    def test_config_change_resets_manifest(self, city):
        cfg = variant(city, "reconf")
        Pipeline(cfg).run()
        changed = variant(city, "reconf", zones="3")
        manifest = Pipeline(changed)._load_manifest()
        # stale on-disk manifest hash no longer matches
        assert manifest["config_hash"] != changed.config_hash()
        Pipeline(changed).run_stage("segment")
        with open(city / "reconf" / "manifest.json") as fh:
            fresh = json.load(fh)
        assert fresh["config_hash"] == changed.config_hash()
        assert list(fresh["stages"]) == ["segment"]

    def test_missing_prerequisite_raises(self, city):
        cfg = variant(city, "outoforder")
        with pytest.raises(DataError, match="earlier stages"):
            Pipeline(cfg).run_stage("fit")

    def test_missing_grid_names_the_stage(self, city):
        cfg = variant(city, "nogrid")
        with pytest.raises(DataError, match="stage 'ingest-gps' needs .*cells.csv"):
            Pipeline(cfg).run_stage("ingest-gps")

    def test_unknown_stage_rejected(self, city):
        cfg = variant(city, "badstage")
        with pytest.raises(ValueError, match="unknown stage"):
            Pipeline(cfg).run_stage("polish")


class TestFeatureAndMethodVariants:
    def test_crf_on_latent_features(self, city):
        cfg = variant(city, "crf_latent", method="crf", feature="latent_v",
                      beta="0.5")
        run(cfg)
        assert (city / "crf_latent" / "model.json").exists()
        codes, labels = load_labels(city / "crf_latent" / "labels.csv")
        assert len(codes) == 64

    def test_tfidf_kmeans(self, city):
        cfg = variant(city, "tfidf", feature="tfidf")
        run(cfg)
        assert (city / "tfidf" / "labels.csv").exists()

    def test_svd_features(self, city):
        cfg = variant(city, "svd", feature="svd_poi", svd_t="3")
        run(cfg)
        assert (city / "svd" / "labels.csv").exists()

    def test_latent_cluster_needs_fit_outputs(self, city):
        cfg = variant(city, "latent_nofit", feature="latent_v")
        pipe = Pipeline(cfg)
        for stage in ("segment", "ingest-gps", "ingest-poi"):
            pipe.run_stage(stage)
        with pytest.raises(DataError, match="earlier stages"):
            pipe.run_stage("cluster")


class TestDeterminism:
    def test_forced_rerun_reproduces_artifacts(self, city):
        cfg = variant(city, "deter")
        pipe = Pipeline(cfg)
        pipe.run()
        labels_a = (city / "deter" / "labels.csv").read_bytes()
        report_a = (city / "deter" / "report.csv").read_bytes()
        pipe.run(force=True)
        assert (city / "deter" / "labels.csv").read_bytes() == labels_a
        assert (city / "deter" / "report.csv").read_bytes() == report_a


class TestAnnotateGuards:
    def test_stale_labels_rejected(self, city):
        cfg = variant(city, "stale")
        pipe = Pipeline(cfg)
        pipe.run()
        path = city / "stale" / "labels.csv"
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]  # swap two cells out of order
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises((DataError, ValueError)):
            pipe.run_stage("annotate", force=True)


class TestGeojson:
    def test_rectangles_match_cell_boxes(self, city):
        spec = SynthCitySpec(width=8, height=8, n_zones=4, n_users=0, days=1)
        grid = city_grid(spec)
        labels = np.arange(64) % 4
        collection = export_geojson(labels, grid)
        assert collection["type"] == "FeatureCollection"
        assert len(collection["features"]) == 64
        feat = collection["features"][7]
        cell = grid.cells[7]
        box = decode(cell)
        ring = feat["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]
        assert ring[0] == [box.min_lon, box.min_lat]
        assert ring[2] == [box.max_lon, box.max_lat]
        assert feat["properties"]["geohash"] == cell.code
        assert feat["properties"]["label"] == 3

    def test_neighbor_cells_share_corners(self, city):
        spec = SynthCitySpec(width=8, height=8, n_zones=4, n_users=0, days=1)
        grid = city_grid(spec)
        collection = export_geojson(np.zeros(64, dtype=int), grid)
        ring0 = collection["features"][0]["geometry"]["coordinates"][0]
        ring1 = collection["features"][1]["geometry"]["coordinates"][0]
        # column neighbors in row-major order share an edge
        assert ring0[1] == ring1[0]
        assert ring0[2] == ring1[3]

    def test_label_count_mismatch(self, city):
        spec = SynthCitySpec(width=8, height=8, n_zones=4, n_users=0, days=1)
        grid = city_grid(spec)
        with pytest.raises(ValueError, match="labels"):
            export_geojson(np.zeros(10, dtype=int), grid)

    def test_written_file_is_valid_json(self, city, tmp_path):
        spec = SynthCitySpec(width=8, height=8, n_zones=4, n_users=0, days=1)
        grid = city_grid(spec)
        path = tmp_path / "zones.geojson"
        export_geojson(np.zeros(64, dtype=int), grid, path=path)
        with open(path) as fh:
            data = json.load(fh)
        assert len(data["features"]) == 64
