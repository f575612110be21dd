"""Synthetic city generator: layout, rates, and emitted files."""
import numpy as np
import pytest

from zonefuse.config import PipelineConfig
from zonefuse.geo_grid import GeoPoint, cell_spans, load_labels
from zonefuse.synth import (SIM_START_EPOCH, SynthCitySpec, city_grid,
                            default_poi_dists, default_trip_rates, gen_gps,
                            gen_pois, gen_synthetic_city, planted_labels,
                            write_city_config)
from test_geo_grid import column_of_point


def small_spec(**overrides):
    kw = dict(width=4, height=4, n_zones=4, n_users=10, days=1, seed=3)
    kw.update(overrides)
    return SynthCitySpec(**kw)


class TestSpecValidation:
    def test_defaults_materialize(self):
        spec = SynthCitySpec()
        assert spec.poi_dists.shape[0] == 4
        assert spec.trip_rates.shape == (4, 4, 24)

    def test_too_many_zones(self):
        with pytest.raises(ValueError, match="zone count"):
            SynthCitySpec(width=2, height=2, n_zones=5)

    def test_bad_obs_rate(self):
        with pytest.raises(ValueError, match="observation rate"):
            SynthCitySpec(obs_rate=0.0)

    def test_bad_days(self):
        with pytest.raises(ValueError, match="days"):
            SynthCitySpec(days=0)

    def test_poi_dist_shape_checked(self):
        with pytest.raises(ValueError, match="poi_dists"):
            SynthCitySpec(n_zones=4, poi_dists=np.ones((3, 5)))

    def test_negative_rates_rejected(self):
        rates = default_trip_rates(4)
        rates[0, 0, 0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            SynthCitySpec(trip_rates=rates)


class TestDefaults:
    def test_poi_dists_rows_normalized_except_last(self):
        dists = default_poi_dists(4)
        sums = dists.sum(axis=1)
        assert np.allclose(sums[:-1], 1.0)
        assert sums[-1] == 0.0

    def test_poi_dists_zone_supports_differ(self):
        dists = default_poi_dists(4)
        for a in range(3):
            for b in range(a + 1, 3):
                assert not np.array_equal(dists[a] > 0, dists[b] > 0)

    def test_trip_rates_nonnegative_with_active_self_loops(self):
        rates = default_trip_rates(4)
        assert (rates >= 0).all()
        for z in range(4):
            assert (rates[z, z] > 0).all()

    def test_trip_rates_have_commute_peaks(self):
        rates = default_trip_rates(4)
        # morning flow into the work zone beats the midnight level
        assert rates[2, 1, 8] > rates[2, 1, 0] + 1.0
        assert rates[1, 2, 17] > rates[1, 2, 3] + 1.0


class TestPlantedLabels:
    def test_quadrants_for_four_zones(self):
        labels = planted_labels(4, 4, 4)
        expected = np.array([0, 0, 1, 1,
                             0, 0, 1, 1,
                             2, 2, 3, 3,
                             2, 2, 3, 3])
        assert np.array_equal(labels, expected)

    def test_stripes_otherwise(self):
        labels = planted_labels(6, 2, 3).reshape(2, 6)
        assert np.array_equal(labels[0], [0, 0, 1, 1, 2, 2])
        assert np.array_equal(labels[0], labels[1])

    def test_every_zone_populated(self):
        for n in (2, 3, 4, 5):
            labels = planted_labels(8, 8, n)
            assert set(labels.tolist()) == set(range(n))


class TestCityGrid:
    def test_cell_count_and_snapping(self):
        spec = small_spec()
        grid = city_grid(spec)
        assert len(grid) == 16
        lat_span, lon_span = cell_spans(spec.level)
        assert grid.bbox.max_lat - grid.bbox.min_lat == pytest.approx(4 * lat_span)
        assert grid.bbox.max_lon - grid.bbox.min_lon == pytest.approx(4 * lon_span)

    def test_origin_point_in_first_cell(self):
        spec = small_spec()
        grid = city_grid(spec)
        col = column_of_point(grid, GeoPoint(spec.origin_lat, spec.origin_lon))
        assert col == 0


class TestGenPois:
    def test_pois_only_from_poi_bearing_zones(self):
        spec = small_spec(obs_rate=1.0)
        grid = city_grid(spec)
        labels = planted_labels(4, 4, 4)
        rng = np.random.default_rng(0)
        pois = gen_pois(spec, grid, labels, rng)
        assert pois
        seen = set()
        for lat, lon, cat in pois:
            col = column_of_point(grid, GeoPoint(lat, lon))
            assert col is not None
            seen.add(col)
        # with every region selected, exactly the non-empty-zone regions emit
        expected = {j for j in range(16) if labels[j] != 3}
        assert seen == expected

    def test_categories_follow_zone_support(self):
        spec = small_spec(obs_rate=1.0)
        grid = city_grid(spec)
        labels = planted_labels(4, 4, 4)
        pois = gen_pois(spec, grid, labels, np.random.default_rng(1))
        allowed = {z: set(np.flatnonzero(spec.poi_dists[z])) for z in range(4)}
        from zonefuse.poi_ingest import DEFAULT_CATEGORIES
        cat_index = {name: i for i, name in enumerate(DEFAULT_CATEGORIES)}
        for lat, lon, cat in pois:
            z = labels[column_of_point(grid, GeoPoint(lat, lon))]
            assert cat_index[cat] in allowed[z]


class TestGenGps:
    def test_rows_inside_grid_and_time_window(self):
        spec = small_spec()
        grid = city_grid(spec)
        labels = planted_labels(4, 4, 4)
        rows = gen_gps(spec, grid, labels, np.random.default_rng(0))
        assert rows
        end = SIM_START_EPOCH + spec.days * 86400 + 10800
        for user, lat, lon, ts in rows:
            assert grid.bbox.contains(GeoPoint(lat, lon))
            assert SIM_START_EPOCH <= ts < end

    def test_per_user_times_strictly_increase(self):
        spec = small_spec()
        grid = city_grid(spec)
        rows = gen_gps(spec, grid, planted_labels(4, 4, 4),
                       np.random.default_rng(0))
        last = {}
        for user, lat, lon, ts in rows:
            if user in last:
                assert ts > last[user]
            last[user] = ts
        assert len(last) == spec.n_users

    def test_zero_rates_pin_users_in_place(self):
        rates = np.zeros((4, 4, 24))
        spec = small_spec(trip_rates=rates, n_users=3)
        grid = city_grid(spec)
        rows = gen_gps(spec, grid, planted_labels(4, 4, 4),
                       np.random.default_rng(2))
        regions = {}
        for user, lat, lon, ts in rows:
            col = column_of_point(grid, GeoPoint(lat, lon))
            regions.setdefault(user, set()).add(col)
        for cols in regions.values():
            assert len(cols) == 1


class TestCityFiles:
    def test_files_written_and_truth_matches(self, tmp_path):
        spec = small_spec()
        paths = gen_synthetic_city(spec, tmp_path)
        for key in ("gps", "pois", "truth"):
            assert paths[key].exists()
        cells, labels = load_labels(paths["truth"])
        assert len(cells) == 16
        assert np.array_equal(labels, planted_labels(4, 4, 4))

    def test_generation_is_deterministic(self, tmp_path):
        spec_a = small_spec(seed=9)
        spec_b = small_spec(seed=9)
        a = gen_synthetic_city(spec_a, tmp_path / "a")
        b = gen_synthetic_city(spec_b, tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = gen_synthetic_city(small_spec(seed=1), tmp_path / "a")
        b = gen_synthetic_city(small_spec(seed=2), tmp_path / "b")
        assert a["gps"].read_bytes() != b["gps"].read_bytes()


class TestWriteCityConfig:
    def test_config_loads_and_points_at_city(self, tmp_path):
        spec = small_spec()
        gen_synthetic_city(spec, tmp_path)
        path = write_city_config(spec, tmp_path)
        cfg = PipelineConfig.load(path)
        assert cfg.gps_path == str(tmp_path / "gps.csv")
        assert cfg.out_dir == str(tmp_path / "out")
        assert cfg.zones == spec.n_zones
        grid = city_grid(spec)
        assert cfg.min_lat == grid.bbox.min_lat
        assert cfg.max_lon == grid.bbox.max_lon

    def test_overrides_land_in_config(self, tmp_path):
        spec = small_spec()
        gen_synthetic_city(spec, tmp_path)
        path = write_city_config(spec, tmp_path, beta="2.5", max_iter="50")
        cfg = PipelineConfig.load(path)
        assert cfg.beta == 2.5
        assert cfg.max_iter == 50
