"""Pipeline orchestration: staging, artifacts, resumption, GeoJSON."""
import json
import re
import shutil
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import zonefuse.latent_fusion
import zonefuse.pipeline
from zonefuse.config import PipelineConfig, parse_pairs
from zonefuse.errors import ConfigError, DataError
from zonefuse.geo_grid import Box, GridIndex, decode, enumerate_cells
from zonefuse.latent_fusion import TERM_NAMES, LatentFactors
from zonefuse.pipeline import (CLUSTER_METHOD_OUTPUTS, PALETTE, STAGE_IO, STAGE_OUTPUTS,
                               STAGES, Pipeline, export_geojson, file_sha256, run)
from zonefuse.poi_ingest import DEFAULT_CATEGORIES, PoiMatrix
from zonefuse.activity_ingest import HapMatrix
from zonefuse.synth import (SynthCitySpec, city_grid, gen_synthetic_city, planted_labels,
                            write_city_config)
from zonefuse import zone_cluster
from zonefuse.zone_cluster import ZoneModel, adjusted_rand_index, energy, load_labels


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

    def test_peak_rss_never_decreases_across_stages(self, city):
        manifest = run(variant(city, "rss"), force=True)
        peaks = [manifest["stages"][stage]["peak_rss_mb"] for stage in STAGES]
        assert peaks[0] > 0
        assert peaks == sorted(peaks)

    def test_peak_rss_is_null_without_getrusage(self, monkeypatch):
        # a None entry makes the import fail, as on Windows
        monkeypatch.setitem(sys.modules, "resource", None)
        assert zonefuse.pipeline._peak_rss_mb() is None

    def test_stage_notes_carry_counts(self, city):
        cfg = variant(city, "full")
        manifest = run(cfg)  # fresh, so this is a no-op replay
        notes = manifest["stages"]["segment"]["notes"]
        assert notes["regions"] == 64
        gps_notes = manifest["stages"]["ingest-gps"]["notes"]
        assert gps_notes["users"] == 60
        assert gps_notes["trip_records"] > 0
        for layer in ("parse_s", "stays_s", "lookup_s", "matrix_s"):
            assert gps_notes[layer] >= 0.0

    def test_fit_notes_explain_convergence(self, city):
        manifest = run(variant(city, "full"))
        notes = manifest["stages"]["fit"]["notes"]
        assert set(notes["terms"]) == set(TERM_NAMES)
        assert sum(notes["terms"].values()) == pytest.approx(notes["objective"])
        assert notes["relative_decrease"] >= 0.0
        assert notes["stop_reason"] in ("converged", "max_iter")
        assert notes["k_path"] in ("dense", "triples")

    def test_fit_notes_carry_the_unobserved_norm_ratio(self, city, caplog):
        with caplog.at_level("WARNING", logger="zonefuse.pipeline"):
            ratio = run(variant(city, "ratio"))["stages"]["fit"]["notes"][
                "unobserved_norm_ratio"]
        out = city / "ratio"
        observed = PoiMatrix.load(out / "poi.coo", out / "poi.json").mask
        norms = np.linalg.norm(LatentFactors.load(out / "factors").V, axis=0)
        assert 0 < observed.sum() < 64
        assert ratio == pytest.approx(norms[~observed].mean() / norms[observed].mean(),
                                      rel=1e-12)
        assert ("latent columns of unobserved" in caplog.text) == (ratio < 1e-2)

    def test_fit_notes_count_the_empty_regions(self, tmp_path):
        # five users leave some venue-free regions without a trip
        spec = SynthCitySpec(width=8, height=8, n_zones=4, n_users=5,
                             days=1, obs_rate=0.6, seed=5)
        gen_synthetic_city(spec, tmp_path)
        cfg = write_city_config(spec, tmp_path, max_iter="5", k="4",
                                method="kmeans", feature="raw_poi")
        notes = run(PipelineConfig.load(cfg))["stages"]["fit"]["notes"]
        out = tmp_path / "out"
        observed = PoiMatrix.load(out / "poi.coo", out / "poi.json").mask
        T = HapMatrix.load(out / "hap.coo", out / "hap.json").data.toarray()
        empty = [j for j in range(64) if not observed[j] and not T[:, j].any()]
        assert notes["empty_regions"] == len(empty) > 0

    def test_collapsed_unobserved_columns_warn(self, city, caplog, monkeypatch):
        def collapsing_fit(P, observed, T, h):
            factors, trace = zonefuse.latent_fusion.fit(P, observed, T, h)
            factors.V = np.where(observed, 1.0, 1e-3) * np.ones_like(factors.V)
            return factors, trace
        monkeypatch.setattr(zonefuse.pipeline, "fit", collapsing_fit)
        with caplog.at_level("WARNING", logger="zonefuse.pipeline"):
            notes = run(variant(city, "collapsed"))["stages"]["fit"]["notes"]
        assert notes["unobserved_norm_ratio"] == pytest.approx(1e-3, rel=1e-12)
        assert "latent columns of unobserved regions have 0.001 times" in caplog.text

    def test_unobserved_norm_ratio_needs_both_region_sets(self, city, tmp_path, caplog):
        inputs = own_inputs(city, tmp_path)
        pois = tmp_path / "pois.csv"
        pois.write_text(pois.read_text().splitlines(keepends=True)[0])  # header only
        with caplog.at_level("WARNING", logger="zonefuse.pipeline"):
            notes = run(variant(city, "novenues", **inputs))["stages"]["fit"]["notes"]
        assert notes["unobserved_norm_ratio"] is None
        assert "latent columns" not in caplog.text

    @pytest.mark.parametrize("method,feature", [("crf", "latent_v"),
                                                ("kmeans", "raw_poi")])
    def test_every_artifact_is_declared(self, city, method, feature):
        name = f"declared_{method}"
        run(variant(city, name, method=method, feature=feature))
        out = city / name
        declared = {"manifest.json", "config.txt", *CLUSTER_METHOD_OUTPUTS[method]}
        for outputs in STAGE_OUTPUTS.values():
            declared.update(outputs)
        written = {path.relative_to(out).as_posix()
                   for path in out.rglob("*") if path.is_file()}
        assert written == declared

    def test_cluster_notes_carry_zone_sizes(self, city, caplog):
        cfg = variant(city, "sizes", method="crf", feature="latent_v")
        with caplog.at_level("WARNING", logger="zonefuse.pipeline"):
            sizes = run(cfg)["stages"]["cluster"]["notes"]["zone_sizes"]
        assert len(sizes) == cfg.zones and sum(sizes) == 64
        largest = sizes.index(max(sizes))
        warned = [r.getMessage() for r in caplog.records if "holds" in r.getMessage()]
        assert warned == ([f"zone {largest} holds {sizes[largest]} of the 64 regions "
                           f"({100 * sizes[largest] / 64:.1f}%)"]
                          if sizes[largest] > 32 else [])

    def test_cluster_notes_carry_crf_diagnostics(self, city, caplog):
        cfg = variant(city, "crf_notes", method="crf", feature="latent_v")
        with caplog.at_level("WARNING", logger="zonefuse.zone_cluster"):
            notes = run(cfg)["stages"]["cluster"]["notes"]
        out = city / "crf_notes"
        model = ZoneModel.load(out / "model.json")
        V = LatentFactors.load(out / "factors").V
        assert notes["em_rounds"] >= 1
        # each ICM call sweeps at least once, and the last leaves nothing to change
        assert notes["icm_sweeps"] >= notes["em_rounds"] + 1
        assert notes["stop_reason"] == "converged"
        assert notes["energy"] == energy(model.labels, V, model, (8, 8))
        assert not [r for r in caplog.records if r.name == "zonefuse.zone_cluster"]
        # the diagnostics stay out of model.json
        assert set(json.loads((out / "model.json").read_text())) == {
            "beta", "labels", "means", "n_zones", "variances"}

    @pytest.mark.parametrize("cap,reason", [("CRF_MAX_ROUNDS", "max_rounds"),
                                            ("ICM_MAX_SWEEPS", "max_sweeps")])
    def test_crf_stopped_at_a_cap_warns(self, city, caplog, monkeypatch, cap, reason):
        monkeypatch.setattr(zone_cluster, cap, 1)
        cfg = variant(city, f"capped_{cap}", method="crf", feature="latent_v")
        with caplog.at_level("WARNING", logger="zonefuse.zone_cluster"):
            notes = run(cfg)["stages"]["cluster"]["notes"]
        assert notes["stop_reason"] == reason
        if reason == "max_rounds":
            assert notes["em_rounds"] == 1
            assert "CRF fit stopped at its cap of 1 EM rounds" in caplog.text
        else:
            assert notes["icm_sweeps"] == notes["em_rounds"]
            assert "ICM stopped at its cap of 1 sweeps" in caplog.text

    def test_one_zone_over_half_the_regions_warns(self, city, caplog):
        cfg = variant(city, "one_zone", zones=1)
        with caplog.at_level("WARNING", logger="zonefuse.pipeline"):
            notes = run(cfg)["stages"]["cluster"]["notes"]
        assert notes["zone_sizes"] == [64]
        assert "zone 0 holds 64 of the 64 regions (100.0%)" in caplog.text

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
        before = run(cfg)["stages"]
        changed = variant(city, "reconf", zones="3")
        assert Pipeline(changed).status()["cluster"] == "config key zones changed"
        fresh = run(changed)
        assert fresh["config_hash"] == changed.config_hash()
        # only the stages that read zones, or the labels, rerun
        for stage in ("segment", "ingest-gps", "ingest-poi", "fit"):
            assert fresh["stages"][stage] == before[stage]
        for stage in ("cluster", "annotate"):
            assert fresh["stages"][stage] != before[stage]
        assert fresh["stages"]["cluster"]["inputs"]["zones"] == 3

    def test_missing_prerequisite_raises(self, city):
        cfg = variant(city, "outoforder")
        with pytest.raises(DataError, match="earlier stages"):
            Pipeline(cfg).run_stage("fit")

    def test_missing_grid_names_the_stage(self, city):
        cfg = variant(city, "nogrid")
        with pytest.raises(DataError, match="stage 'ingest-gps' needs .*cells.csv"):
            Pipeline(cfg).run_stage("ingest-gps")

    def test_grid_is_loaded_once_per_pipeline(self, city, monkeypatch):
        loads = []
        load = GridIndex.from_csv

        def counted(cls, path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(GridIndex, "from_csv", classmethod(counted))
        cfg = variant(city, "gridonce")
        Pipeline(cfg).run(force=True)
        assert loads == []  # segment's grid serves the later stages
        pipe = Pipeline(cfg)
        for stage in STAGES[1:]:
            pipe.run_stage(stage, force=True)
        assert len(loads) == 1
        # a segment rerun replaces the kept grid
        loaded = pipe._grid("annotate")
        pipe.run_stage("segment", force=True)
        assert pipe._grid("annotate") is not loaded
        assert len(loads) == 1

    def test_unknown_stage_rejected(self, city):
        cfg = variant(city, "badstage")
        with pytest.raises(ValueError, match="unknown stage"):
            Pipeline(cfg).run_stage("polish")


def reran(cfg) -> list[str]:
    """Run every stage of cfg; return those whose manifest entry changed."""
    before = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())["stages"]
    after = run(cfg)["stages"]
    return [stage for stage in STAGES if after[stage] != before.get(stage)]


def own_inputs(city, tmp_path) -> dict:
    """Copies of the city's input files, for tests that edit them."""
    copies = {}
    for key, name in (("gps_path", "gps.csv"), ("poi_path", "pois.csv")):
        shutil.copy(city / name, tmp_path / name)
        copies[key] = str(tmp_path / name)
    return copies


class TestStageCache:
    def test_every_config_key_but_out_dir_is_declared(self):
        declared = {name for io in STAGE_IO.values() for name in io.keys + io.files}
        assert {f.name for f in fields(PipelineConfig)} - declared == {"out_dir"}

    def test_beta_edit_reruns_only_cluster_and_annotate(self, city):
        fused = {"method": "crf", "feature": "latent_v"}
        cfg = variant(city, "retune", beta="1.0", **fused)
        run(cfg)
        out = city / "retune"
        kept = ["cells.csv", "hap.coo", "poi.coo",
                *(p.relative_to(out) for p in (out / "factors").iterdir())]
        mtimes = {rel: (out / rel).stat().st_mtime_ns for rel in kept}
        assert reran(variant(city, "retune", beta="0.3", **fused)) == \
            ["cluster", "annotate"]
        assert {rel: (out / rel).stat().st_mtime_ns for rel in kept} == mtimes
        run(variant(city, "retune_forced", beta="0.3", **fused), force=True)
        for name in ("labels.csv", "report.csv", "zones.geojson"):
            assert (out / name).read_bytes() == \
                (city / "retune_forced" / name).read_bytes()

    def test_truncated_pois_rerun_poi_ingest_and_later(self, city, tmp_path):
        inputs = own_inputs(city, tmp_path)
        cfg = variant(city, "poicut", **inputs)
        run(cfg)
        pois = tmp_path / "pois.csv"
        lines = pois.read_text().splitlines(keepends=True)
        pois.write_text("".join(lines[:len(lines) // 2]))
        status = Pipeline(cfg).status()
        assert status["ingest-poi"] == "input pois.csv changed"
        assert status["segment"] is None and status["ingest-gps"] is None
        assert reran(cfg) == ["ingest-poi", "fit", "cluster", "annotate"]

    def test_stay_edit_reruns_fit_when_hap_changes(self, city):
        cfg = variant(city, "stays")
        run(cfg)
        hap = (city / "stays" / "hap.coo").read_bytes()
        changed = variant(city, "stays", stay_duration_s="3600")
        assert Pipeline(changed).status()["ingest-gps"] == \
            "config key stay_duration_s changed"
        # raw_poi clustering reads no factors, so the edit stops at fit
        assert reran(changed) == ["ingest-gps", "fit"]
        assert (city / "stays" / "hap.coo").read_bytes() != hap

    def test_identical_upstream_rewrite_keeps_later_stages(self, city):
        cfg = variant(city, "rewrite")
        pipe = Pipeline(cfg)
        pipe.run()
        cells = (city / "rewrite" / "cells.csv").read_bytes()
        pipe.run_stage("segment", force=True)
        assert (city / "rewrite" / "cells.csv").read_bytes() == cells
        assert all(reason is None for reason in Pipeline(cfg).status().values())
        assert reran(cfg) == []

    def test_status_reasons(self, city):
        cfg = variant(city, "why")
        assert set(Pipeline(cfg).status().values()) == {"no entry"}
        assert not (city / "why").exists()  # status writes nothing
        run(cfg)
        (city / "why" / "hap.coo").unlink()
        status = Pipeline(cfg).status()
        assert status["ingest-gps"] == "output hap.coo modified or missing"
        assert status["fit"] == "input hap.coo missing"
        assert status["segment"] is None

    def test_crf_model_is_tracked_and_kmeans_removes_it(self, city):
        cfg = variant(city, "model", method="crf", feature="latent_v")
        manifest = run(cfg)
        model = city / "model" / "model.json"
        assert file_sha256(model) == manifest["stages"]["cluster"]["outputs"]["model.json"]
        model.unlink()
        assert Pipeline(cfg).status()["cluster"] == \
            "output model.json modified or missing"
        assert reran(cfg)[0] == "cluster"
        assert model.exists()
        run(variant(city, "model", method="kmeans", feature="latent_v"))
        assert not model.exists()

    def test_failed_manifest_write_keeps_previous(self, city, monkeypatch):
        cfg = variant(city, "atomic")
        pipe = Pipeline(cfg)
        pipe.run()
        out = city / "atomic"
        before = (out / "manifest.json").read_bytes()

        def dump_then_fail(obj, fh, **kwargs):
            fh.write('{"stages": {')
            raise RuntimeError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(RuntimeError, match="disk full"):
            pipe.run_stage("segment", force=True)
        assert (out / "manifest.json").read_bytes() == before
        assert not list(out.glob("*.tmp"))

    @pytest.mark.parametrize("name,text", [("truncated", '{"stages": {'),
                                           ("nostages", "[]")])
    def test_unreadable_manifest_is_an_empty_cache(self, city, caplog, name, text):
        cfg = variant(city, name)
        run(cfg)
        out = city / name
        (out / "manifest.json").write_text(text)
        with caplog.at_level("WARNING", logger="zonefuse.pipeline"):
            assert set(Pipeline(cfg).status().values()) == {"no entry"}
        assert str(out / "manifest.json") in caplog.text
        manifest = run(cfg)
        assert set(manifest["stages"]) == set(STAGES)
        assert json.loads((out / "manifest.json").read_text()) == manifest
        run(variant(city, name + "_fresh"), force=True)
        for stage in STAGES:
            for rel in STAGE_OUTPUTS[stage]:
                if not rel.startswith("factors/") and rel != "trace.csv":
                    assert (out / rel).read_bytes() == \
                        (city / (name + "_fresh") / rel).read_bytes(), rel

    @pytest.mark.parametrize("name,entry", [
        ("entry_not_dict", 5),
        ("entry_no_outputs", "drop outputs"),
    ])
    def test_malformed_stage_entry_marks_that_stage_stale(self, city, caplog,
                                                          name, entry):
        cfg = variant(city, name)
        run(cfg)
        path = city / name / "manifest.json"
        manifest = json.loads(path.read_text())
        if entry == "drop outputs":
            del manifest["stages"]["fit"]["outputs"]
        else:
            manifest["stages"]["fit"] = entry
        path.write_text(json.dumps(manifest))
        with caplog.at_level("WARNING", logger="zonefuse.pipeline"):
            status = Pipeline(cfg).status()
        assert status["fit"] == "no entry"
        assert all(status[stage] is None for stage in STAGES if stage != "fit")
        assert "malformed entry for stage fit" in caplog.text
        entry = Pipeline(cfg).run_stage("fit")
        assert set(entry["outputs"]) == set(STAGE_OUTPUTS["fit"])
        assert json.loads(path.read_text())["stages"]["fit"] == entry
        assert all(reason is None for reason in Pipeline(cfg).status().values())

    def test_fit_entry_recording_mask_mode_is_fresh(self, city):
        # an output directory built when fit still read a mask_mode key
        cfg = variant(city, "maskmode", method="crf", feature="latent_v")
        run(cfg)
        path = city / "maskmode" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["stages"]["fit"]["inputs"]["mask_mode"] = "column"
        path.write_text(json.dumps(manifest))
        assert Pipeline(cfg).status()["fit"] is None
        before = json.loads(path.read_text())["stages"]
        run(cfg)
        assert json.loads(path.read_text())["stages"] == before

    def test_each_file_hashed_once_per_pipeline(self, city, monkeypatch):
        cfg = variant(city, "hashonce", method="crf", feature="latent_v")
        run(cfg)
        hashed = []
        monkeypatch.setattr(zonefuse.pipeline, "file_sha256",
                            lambda path: hashed.append(path) or file_sha256(path))
        Pipeline(cfg).run()
        assert len(hashed) == len(set(hashed))
        assert Path(cfg.gps_path) in hashed


class TestFeatureAndMethodVariants:
    def test_crf_on_latent_features(self, city):
        cfg = variant(city, "crf_latent", method="crf", feature="latent_v",
                      beta="0.5")
        run(cfg)
        assert (city / "crf_latent" / "model.json").exists()
        codes, labels = load_labels(city / "crf_latent" / "labels.csv")
        assert len(codes) == 64

    def test_cluster_reads_only_its_factor_block(self, city):
        cfg = variant(city, "onlyv", method="crf", feature="latent_v")
        pipe = Pipeline(cfg)
        pipe.run()
        labels = (city / "onlyv" / "labels.csv").read_bytes()
        factors = city / "onlyv" / "factors"
        assert sorted(path.name for path in factors.iterdir()) == ["V.bin", "shapes.json"]
        pipe.run_stage("cluster", force=True)
        assert (city / "onlyv" / "labels.csv").read_bytes() == labels

    def test_fit_writes_no_Q_block(self, city):
        cfg = variant(city, "noq", method="crf", feature="latent_v")
        manifest = run(cfg)
        assert sorted(manifest["stages"]["fit"]["outputs"]) == [
            "factors/V.bin", "factors/shapes.json", "trace.csv"]
        factors = city / "noq" / "factors"
        assert not (factors / "Q.bin").exists()
        shapes = json.loads((factors / "shapes.json").read_text())["shapes"]
        assert sorted(shapes) == ["V"]
        V = LatentFactors.load(factors, ("V",)).V
        assert V.shape == (4, 64)
        loaded = LatentFactors.load(factors)
        assert loaded.Q is None and np.array_equal(loaded.V, V)
        # blocks left by an older version go at the next fit
        for name in ("Q", "U", "Z", "A", "W"):
            (factors / f"{name}.bin").write_bytes(b"")
        Pipeline(cfg).run_stage("fit", force=True)
        assert sorted(path.name for path in factors.iterdir()) == ["V.bin", "shapes.json"]
        shapes = json.loads((factors / "shapes.json").read_text())["shapes"]
        assert list(shapes) == ["V"]

    def test_shapes_without_V_is_a_data_error(self, city):
        cfg = variant(city, "nov", method="crf", feature="latent_v")
        run(cfg)
        shapes = city / "nov" / "factors" / "shapes.json"
        for text in ('{"shapes": {}}\n', '{"shapes": {"V": 5}}\n'):
            shapes.write_text(text)
            with pytest.raises(DataError, match="malformed .*shapes.json"):
                Pipeline(cfg).run_stage("cluster")
        (city / "nov" / "poi.json").write_text("[]\n")
        with pytest.raises(DataError, match="malformed .*poi.json"):
            Pipeline(cfg).run_stage("fit")

    @pytest.mark.parametrize("method,feature", [("crf", "latent_v"),
                                                ("kmeans", "raw_poi")])
    def test_cluster_rejects_features_of_another_grid(self, city, method, feature):
        name = f"regrid_{method}"
        run(variant(city, name, method=method, feature=feature))
        labels = (city / name / "labels.csv").read_bytes()
        pipe = Pipeline(variant(city, name, method=method, feature=feature, level="5"))
        pipe.run_stage("segment")
        with pytest.raises(DataError, match=f"{feature} feature has 64 regions "
                                            "but cells.csv has .*earlier stages"):
            pipe.run_stage("cluster")
        assert (city / name / "labels.csv").read_bytes() == labels

    @pytest.mark.parametrize("method,feature,key,value,bound", [
        ("crf", "latent_v", "zones", 100, "[1, 64]"),
        ("kmeans", "raw_poi", "zones", 100, "[1, 64]"),
        ("kmeans", "svd_poi", "svd_t", 50, "[1, 28]"),  # 28 categories
    ])
    def test_out_of_range_cluster_settings_are_config_errors(
            self, city, method, feature, key, value, bound):
        name = f"range_{method}_{feature}"
        run(variant(city, name, method=method, feature=feature))
        labels = (city / name / "labels.csv").read_bytes()
        pipe = Pipeline(variant(city, name, method=method, feature=feature,
                                **{key: value}))
        with pytest.raises(ConfigError, match=re.escape(f"{key} {value} outside {bound}")):
            pipe.run_stage("cluster")
        assert (city / name / "labels.csv").read_bytes() == labels

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

    def test_report_names_the_categories_of_the_poi_matrix(self, city, tmp_path):
        table = tmp_path / "categories.csv"
        table.write_text("id,name\n" + "".join(
            f"{i + 1},{name}\n" for i, name in enumerate(DEFAULT_CATEGORIES)))
        cfg = variant(city, "renamed", category_path=str(table))
        run(cfg)
        report = (city / "renamed" / "report.csv").read_bytes()
        # an edited table reaches the report only through a new poi.json
        table.write_text("id,name\n" + "".join(
            f"{i + 1},renamed {i + 1}\n" for i in range(len(DEFAULT_CATEGORIES))))
        Pipeline(cfg).run_stage("annotate", force=True)
        assert (city / "renamed" / "report.csv").read_bytes() == report


class TestGeojson:
    def test_rectangles_match_cell_boxes(self, city):
        spec = SynthCitySpec(width=8, height=8, n_zones=4, n_users=0, days=1)
        grid = city_grid(spec)
        labels = np.arange(64) % 4
        collection = json.loads(export_geojson(labels, grid))
        assert collection["type"] == "FeatureCollection"
        assert len(collection["features"]) == 64
        feat = collection["features"][7]
        code = grid.codes[7]
        box = decode(code)
        ring = feat["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]
        assert ring[0] == [box.min_lon, box.min_lat]
        assert ring[2] == [box.max_lon, box.max_lat]
        assert feat["properties"]["geohash"] == code
        assert feat["properties"]["label"] == 3

    def test_neighbor_cells_share_corners(self, city):
        spec = SynthCitySpec(width=8, height=8, n_zones=4, n_users=0, days=1)
        grid = city_grid(spec)
        collection = json.loads(export_geojson(np.zeros(64, dtype=int), grid))
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

    def test_bytes_match_json_dumps_of_the_feature_dicts(self, tmp_path):
        # a non-square grid, and more labels than palette colors so they wrap
        grid = enumerate_cells(Box(35.70, -78.70, 35.80, -78.55), 6)
        n_rows, n_cols = grid.shape
        assert n_rows != n_cols
        labels = np.arange(len(grid)) % (len(PALETTE) + 3)
        features = []
        for code, label, (lat0, lon0, lat1, lon1) in zip(grid.codes, labels.tolist(),
                                                          grid.boxes().tolist()):
            ring = [[lon0, lat0], [lon1, lat0], [lon1, lat1], [lon0, lat1], [lon0, lat0]]
            features.append({
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {"geohash": code, "label": int(label),
                               "color": PALETTE[int(label) % len(PALETTE)]},
            })
        want = json.dumps({"type": "FeatureCollection", "features": features},
                          separators=(",", ":"), sort_keys=True)
        path = tmp_path / "zones.geojson"
        assert export_geojson(labels, grid, path=path) == want
        assert path.read_text() == want + "\n"


@pytest.fixture(scope="module")
def fused_city(tmp_path_factory):
    """A 16x16 city with venues in a tenth of its regions, run through the
    fused pipeline with the synth weights; its seed is one no weight was
    chosen on."""
    root = tmp_path_factory.mktemp("fused")
    spec = SynthCitySpec(width=16, height=16, n_zones=4, n_users=600,
                         obs_rate=0.10, seed=11)
    gen_synthetic_city(spec, root)
    cfg = write_city_config(spec, root, feature="latent_v", method="crf")
    return root, run(PipelineConfig.load(cfg))


class TestFusedRecovery:
    def test_fused_features_recover_the_planted_zones(self, fused_city):
        # venue-free regions keep latent columns as long as the others',
        # so the zones are found from activity where no venue is seen
        root, manifest = fused_city
        _, labels = load_labels(root / "out" / "labels.csv")
        assert adjusted_rand_index(labels, planted_labels(16, 16, 4)) >= 0.5
        assert manifest["stages"]["fit"]["notes"]["unobserved_norm_ratio"] >= 0.1

    def test_dense_and_triples_k_agree_on_the_city(self, fused_city):
        root, manifest = fused_city
        out = root / "out"
        hap = HapMatrix.load(out / "hap.coo", out / "hap.json")
        Tn, _ = zonefuse.latent_fusion._unit_columns(hap.data)
        Z = np.random.default_rng(0).normal(size=(10, Tn.shape[1]))
        dense = zonefuse.latent_fusion._dense_k(Tn)(Z)
        triples = zonefuse.latent_fusion._triples_k(Tn)(Z)
        assert np.abs(dense - triples).max() <= 1e-12 * np.abs(dense).max()
        assert manifest["stages"]["fit"]["notes"]["k_path"] == "dense"
