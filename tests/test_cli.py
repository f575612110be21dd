"""CLI verbs, overrides, and exit codes."""
import json

import pytest

import zonefuse.pipeline
from zonefuse.cli import STAGE_VERBS, main
from zonefuse.config import PipelineConfig
from zonefuse.errors import DivergenceError
from zonefuse.geo_grid import load_labels


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_city")
    code = main(["synth", "--out", str(root), "--width", "6", "--height", "6",
                 "--users", "30", "--obs-rate", "0.6", "--seed", "2"])
    assert code == 0
    return root


class TestSynthVerb:
    def test_city_files_written(self, city):
        for name in ("gps.csv", "pois.csv", "truth_labels.csv", "config.txt"):
            assert (city / name).exists()

    def test_invalid_spec_is_config_error(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path), "--obs-rate", "0"])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestRunVerb:
    def test_full_run_exit_zero(self, city):
        code = main(["run", "--config", str(city / "config.txt"),
                     "--set", "max_iter=20", "--set", "k=4",
                     "--set", "method=kmeans", "--set", "feature=raw_poi"])
        assert code == 0
        assert (city / "out" / "labels.csv").exists()
        assert (city / "out" / "report.csv").exists()

    def test_out_dir_and_seed_overrides(self, city):
        code = main(["run", "--config", str(city / "config.txt"),
                     "--set", "max_iter=20", "--set", "k=4",
                     "--set", "method=kmeans", "--set", "feature=raw_poi",
                     "--out-dir", "alt", "--seed", "11"])
        assert code == 0
        cfg = PipelineConfig.load(city / "alt" / "config.txt")
        assert cfg.seed == 11

    def test_single_stage_verb(self, city, tmp_path):
        code = main(["segment", "--config", str(city / "config.txt"),
                     "--out-dir", str(tmp_path / "seg")])
        assert code == 0
        assert (tmp_path / "seg" / "cells.csv").exists()
        assert not (tmp_path / "seg" / "hap.coo").exists()


class TestStatusVerb:
    def test_fresh_then_stale_with_reason(self, city, tmp_path, capsys):
        base = ["--config", str(city / "config.txt"), "--out-dir",
                str(tmp_path / "st"), "--set", "max_iter=20", "--set", "k=4",
                "--set", "method=kmeans", "--set", "feature=raw_poi"]
        assert main(["status"] + base) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{stage}: stale (no entry)" for stage in STAGE_VERBS]
        assert main(["run"] + base) == 0
        capsys.readouterr()
        assert main(["status"] + base) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{stage}: fresh" for stage in STAGE_VERBS]
        assert main(["status"] + base + ["--set", "zones=3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[4] == "cluster: stale (config key zones changed)"
        assert lines[:4] + lines[5:] == [
            f"{stage}: fresh" for stage in STAGE_VERBS if stage != "cluster"]

    @pytest.mark.parametrize("text", ['{"stages": {', "[]"])
    def test_unreadable_manifest_reads_as_stale(self, city, tmp_path, capsys, text):
        base = ["--config", str(city / "config.txt"), "--set", "max_iter=20",
                "--set", "k=4", "--set", "method=kmeans", "--set", "feature=raw_poi"]
        out = tmp_path / "bad"
        assert main(["run"] + base + ["--out-dir", str(out)]) == 0
        (out / "manifest.json").write_text(text)
        capsys.readouterr()
        assert main(["status"] + base + ["--out-dir", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{stage}: stale (no entry)" for stage in STAGE_VERBS]
        assert main(["run"] + base + ["--out-dir", str(out)]) == 0
        assert main(["run"] + base + ["--out-dir", str(tmp_path / "fresh")]) == 0
        for name in ("cells.csv", "hap.coo", "poi.coo", "labels.csv",
                     "zones.geojson", "report.csv", "report.txt"):
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        capsys.readouterr()
        assert main(["status"] + base + ["--out-dir", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{stage}: fresh" for stage in STAGE_VERBS]


class TestExitCodes:
    def test_unknown_key_exits_two(self, city, capsys):
        code = main(["run", "--config", str(city / "config.txt"),
                     "--set", "no_such=1"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.txt")])
        assert code == 2
        capsys.readouterr()

    def test_bad_set_syntax_exits_two(self, city):
        code = main(["run", "--config", str(city / "config.txt"),
                     "--set", "justakey"])
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["beta", "lambda1", "epsilon", "stay_distance_m"])
    def test_non_finite_setting_exits_two(self, city, tmp_path, capsys, key, value):
        # NaN passes every range check, so it is rejected by name first
        code = main(["run", "--config", str(city / "config.txt"),
                     "--out-dir", str(tmp_path / "nf"), "--set", f"{key}={value}"])
        assert code == 2
        assert f"config error: {key} " in capsys.readouterr().err
        assert not (tmp_path / "nf").exists()

    def test_unknown_timezone_exits_two_before_any_stage(self, city, tmp_path, capsys):
        base = ["--config", str(city / "config.txt"), "--out-dir", str(tmp_path / "tz"),
                "--set", "timezone=Mars/Phobos"]
        for verb in ("run", "status"):
            assert main([verb] + base) == 2
            assert "config error: unrecognized timezone 'Mars/Phobos'" in capsys.readouterr().err
            assert not (tmp_path / "tz" / "cells.csv").exists()

    def test_stage_out_of_order_exits_three(self, city, tmp_path, capsys):
        code = main(["fit", "--config", str(city / "config.txt"),
                     "--out-dir", str(tmp_path / "empty")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("method,feature", [("crf", "latent_v"),
                                                ("kmeans", "raw_poi")])
    def test_cluster_on_another_grid_exits_three(self, city, tmp_path, capsys,
                                                 method, feature):
        base = ["--config", str(city / "config.txt"), "--out-dir", str(tmp_path / "g"),
                "--set", "max_iter=20", "--set", "k=4",
                "--set", f"method={method}", "--set", f"feature={feature}"]
        assert main(["run"] + base) == 0
        labels = (tmp_path / "g" / "labels.csv").read_bytes()
        assert main(["segment"] + base + ["--set", "level=5"]) == 0
        capsys.readouterr()
        assert main(["cluster"] + base + ["--set", "level=5"]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "cells.csv" in err and feature in err
        assert (tmp_path / "g" / "labels.csv").read_bytes() == labels

    @pytest.mark.parametrize("verb,name", [("annotate", "labels.csv"),
                                           ("cluster", "factors/V.bin"),
                                           ("annotate", "poi.json")])
    def test_malformed_artifact_exits_three(self, city, tmp_path, capsys,
                                            verb, name):
        base = ["--config", str(city / "config.txt"), "--out-dir", str(tmp_path / "m"),
                "--set", "max_iter=20", "--set", "k=4",
                "--set", "method=crf", "--set", "feature=latent_v"]
        assert main(["run"] + base) == 0
        path = tmp_path / "m" / name
        data = path.read_bytes()
        if name == "labels.csv":  # the first row's column_index becomes x
            header, first, rest = data.split(b"\n", 2)
            code, _, label = first.split(b",")
            data = b"\n".join((header, b",".join((code, b"x", label)), rest))
        else:  # cut short
            data = data[:64]
        path.write_bytes(data)
        capsys.readouterr()
        assert main([verb] + base) == 3
        err = capsys.readouterr().err
        assert "data error" in err and path.name in err

    def test_one_dimensional_factor_shape_exits_three(self, city, tmp_path, capsys):
        base = ["--config", str(city / "config.txt"), "--out-dir", str(tmp_path / "v"),
                "--set", "max_iter=20", "--set", "k=4",
                "--set", "method=crf", "--set", "feature=latent_v"]
        assert main(["run"] + base) == 0
        shapes = tmp_path / "v" / "factors" / "shapes.json"
        # the same values, recorded as one dimension
        shapes.write_text(json.dumps({"shapes": {"V": [4 * 36]}}))
        capsys.readouterr()
        assert main(["cluster"] + base) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "shapes.json" in err and "not a matrix" in err

    @pytest.mark.parametrize("method,feature,setting,bound", [
        ("crf", "latent_v", "zones=100", "[1, 36]"),
        ("kmeans", "raw_poi", "zones=100", "[1, 36]"),
        ("kmeans", "svd_poi", "svd_t=50", "[1, 28]"),
    ])
    def test_out_of_range_cluster_setting_exits_two(self, city, tmp_path, capsys,
                                                    method, feature, setting, bound):
        base = ["--config", str(city / "config.txt"), "--out-dir", str(tmp_path / "r"),
                "--set", "max_iter=20", "--set", "k=4",
                "--set", f"method={method}", "--set", f"feature={feature}"]
        assert main(["run"] + base) == 0
        labels = (tmp_path / "r" / "labels.csv").read_bytes()
        capsys.readouterr()
        assert main(["cluster"] + base + ["--set", setting]) == 2
        key, value = setting.split("=")
        assert f"config error: {key} {value} outside {bound}" in capsys.readouterr().err
        assert (tmp_path / "r" / "labels.csv").read_bytes() == labels

    def test_divergent_solver_exits_four(self, city, tmp_path, capsys,
                                         monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("objective became non-finite at iteration 3")

        monkeypatch.setattr(zonefuse.pipeline, "fit", diverge)
        code = main(["run", "--config", str(city / "config.txt"),
                     "--out-dir", str(tmp_path / "diverge")])
        assert code == 4
        assert "numeric error" in capsys.readouterr().err


class TestDeterministicFlag:
    def test_byte_identical_outputs(self, city, tmp_path):
        base = ["run", "--config", str(city / "config.txt"),
                "--set", "max_iter=20", "--set", "k=4", "--threads", "1"]
        assert main(base + ["--out-dir", str(tmp_path / "r1")]) == 0
        assert main(base + ["--out-dir", str(tmp_path / "r2"), "--force"]) == 0
        for name in ("labels.csv", "report.csv"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b

    def test_labels_readable(self, city):
        codes, labels = load_labels(city / "out" / "labels.csv")
        assert len(codes) == 36
