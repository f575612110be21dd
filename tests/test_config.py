"""Config parsing, validation, and path resolution."""
import pytest

from zonefuse.config import PipelineConfig, parse_pairs
from zonefuse.errors import ConfigError

REQUIRED = {
    "min_lat": "35.0", "min_lon": "-79.0",
    "max_lat": "35.5", "max_lon": "-78.5",
    "out_dir": "out",
}


def make(**overrides):
    pairs = dict(REQUIRED)
    pairs.update({k: str(v) for k, v in overrides.items()})
    return PipelineConfig.from_pairs(pairs)


class TestParsePairs:
    def test_basic_lines(self):
        pairs = parse_pairs("a=1\nb = two \n")
        assert pairs == {"a": "1", "b": "two"}

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\na=1\n  # indented comment\nb=2\n"
        assert parse_pairs(text) == {"a": "1", "b": "2"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_pairs("a=1\na=2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_pairs("just some words\n")

    def test_value_may_contain_equals(self):
        assert parse_pairs("a=x=y\n") == {"a": "x=y"}


class TestValidation:
    def test_defaults_fill_in(self):
        cfg = make()
        assert cfg.level == 6
        assert cfg.method == "crf"
        assert cfg.feature == "latent_v"
        assert cfg.k == 10

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            make(no_such_option="1")

    def test_missing_required_key(self):
        pairs = dict(REQUIRED)
        del pairs["max_lat"]
        with pytest.raises(ConfigError, match="max_lat"):
            PipelineConfig.from_pairs(pairs)

    def test_empty_bbox_rejected(self):
        with pytest.raises(ConfigError, match="extent"):
            make(max_lat="35.0")

    def test_level_bounds(self):
        with pytest.raises(ConfigError, match="level"):
            make(level=0)
        with pytest.raises(ConfigError, match="level"):
            make(level=13)

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="method"):
            make(method="dbscan")

    def test_bad_feature(self):
        with pytest.raises(ConfigError, match="feature"):
            make(feature="wavelet")

    def test_feature_aliases(self):
        assert make(feature="tfidf").feature == "tfidf"
        assert make(feature="svd_poi").feature == "svd_poi"

    def test_bad_numeric_value(self):
        with pytest.raises(ConfigError, match="zones"):
            make(zones="four")

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="boolean"):
            make(weekdays_only="maybe")

    def test_boolean_spellings(self):
        assert make(weekdays_only="true").weekdays_only is True
        assert make(weekdays_only="0").weekdays_only is False
        assert make(weekdays_only="Yes").weekdays_only is True

    def test_solver_params_validated(self):
        # hyperparameter errors surface as config errors
        with pytest.raises(ConfigError):
            make(k="0")

    def test_zone_and_beta_bounds(self):
        with pytest.raises(ConfigError, match="zones"):
            make(zones=0)
        with pytest.raises(ConfigError, match="beta"):
            make(beta="-0.5")


class TestRoundTrip:
    def test_text_round_trip(self):
        cfg = make(lambda3="0.25", weekdays_only="true", zones="5")
        again = PipelineConfig.from_pairs(parse_pairs(cfg.to_text()))
        assert again == cfg

    def test_hash_stable_and_sensitive(self):
        a = make()
        b = make()
        assert a.config_hash() == b.config_hash()
        c = make(zones="5")
        assert c.config_hash() != a.config_hash()

    def test_save_load(self, tmp_path):
        cfg = make(seed="7")
        path = tmp_path / "config.txt"
        cfg.save(path)
        loaded = PipelineConfig.load(path)
        assert loaded.seed == 7
        assert loaded.zones == cfg.zones

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            PipelineConfig.load(tmp_path / "nope.txt")


class TestPathResolution:
    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "city"
        sub.mkdir()
        path = sub / "config.txt"
        lines = [f"{k}={v}" for k, v in REQUIRED.items()]
        lines += ["gps_path=data/gps.csv"]
        path.write_text("\n".join(lines) + "\n")
        cfg = PipelineConfig.load(path)
        assert cfg.gps_path == str((sub / "data" / "gps.csv").resolve())
        assert cfg.out_dir == str((sub / "out").resolve())

    def test_absolute_paths_kept(self, tmp_path):
        cfg = PipelineConfig.from_pairs(
            dict(REQUIRED, gps_path="/data/gps.csv"), base_dir=tmp_path)
        assert cfg.gps_path == "/data/gps.csv"

    def test_no_base_dir_keeps_relative(self):
        cfg = make(gps_path="gps.csv")
        assert cfg.gps_path == "gps.csv"

    def test_empty_category_path_untouched(self, tmp_path):
        cfg = PipelineConfig.from_pairs(dict(REQUIRED), base_dir=tmp_path)
        assert cfg.category_path == ""


class TestHyperparams:
    def test_values_forwarded(self):
        cfg = make(k="7", lambda3="0.5", epsilon="0.002", max_iter="100")
        h = cfg.hyperparams()
        assert h.k == 7
        assert h.lambda3 == 0.5
        assert h.epsilon == 0.002
        assert h.max_iter == 100
        assert h.seed == cfg.seed
