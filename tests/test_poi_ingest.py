import math

import numpy as np
import pytest
import scipy.sparse as sp

from zonefuse.errors import DataError
from zonefuse.geo_grid import Box, decode, enumerate_cells
from zonefuse.poi_ingest import (
    DEFAULT_CATEGORIES,
    CategoryTable,
    FeatureMatrix,
    PoiMatrix,
    PoiRecord,
    build_poi_matrix,
    parse_pois,
    raw_poi_features,
    svd_features,
    tfidf_transform,
)


@pytest.fixture
def grid():
    return enumerate_cells(Box(35.76, -78.66, 35.781, -78.615), 6)


def make_poi_matrix(P_dense, categories=None):
    P = sp.csr_array(np.asarray(P_dense, dtype=float))
    mask = np.asarray(P_dense).sum(axis=0) > 0
    names = categories or [f"cat{i}" for i in range(P.shape[0])]
    return PoiMatrix(P=P, mask=mask, categories=names)


class TestCategoryTable:
    def test_default_has_28_categories(self):
        table = CategoryTable.default()
        assert len(table) == 28
        assert table.names[0] == "fast food"
        assert table.names[-1] == "park/lake(camping site)"

    def test_resolve_by_name_and_id(self):
        table = CategoryTable.default()
        assert table.resolve("coffee bar") == 1
        assert table.resolve("  Coffee  Bar ") == 1
        assert table.resolve("2") == 1
        assert table.resolve("28") == 27
        assert table.resolve("space elevator") is None

    def test_from_csv(self, tmp_path):
        f = tmp_path / "cats.csv"
        f.write_text("id,name\n10,alpha\n20,beta\n")
        table = CategoryTable.from_csv(f)
        assert table.names == ["alpha", "beta"]
        assert table.resolve("beta") == 1
        assert table.resolve("10") == 0
        assert table.resolve("2") is None

    def test_from_csv_rejects_duplicates(self, tmp_path):
        f = tmp_path / "cats.csv"
        f.write_text("id,name\n1,alpha\n2,alpha\n")
        with pytest.raises(DataError):
            CategoryTable.from_csv(f)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            CategoryTable(names=[])


class TestParsePois:
    def test_known_categories_resolve(self, tmp_path):
        f = tmp_path / "pois.csv"
        f.write_text("lat,lon,category\n"
                     "35.77,-78.64,fast food\n"
                     "35.77,-78.64,coffee bar\n"
                     "35.78,-78.65,2\n")
        records, rejects = parse_pois(f, CategoryTable.default())
        assert rejects == {}
        assert [r.category for r in records] == [0, 1, 1]

    def test_unknown_category_reported(self, tmp_path):
        f = tmp_path / "pois.csv"
        f.write_text("lat,lon,category\n"
                     "35.77,-78.64,fast food\n"
                     "35.77,-78.64,hoverboard rental\n")
        records, rejects = parse_pois(f, CategoryTable.default())
        assert len(records) == 1
        assert rejects == {"hoverboard rental": 1}

    def test_malformed_row_raises(self, tmp_path):
        f = tmp_path / "pois.csv"
        f.write_text("lat,lon,category\nnot_a_lat,-78.64,fuel\n")
        with pytest.raises(DataError):
            parse_pois(f, CategoryTable.default())

    def test_bad_header_raises(self, tmp_path):
        f = tmp_path / "pois.csv"
        f.write_text("x,y,z\n1,2,3\n")
        with pytest.raises(DataError):
            parse_pois(f, CategoryTable.default())


class TestBuildPoiMatrix:
    def test_counts_land_in_region_columns(self, grid):
        c3 = decode(grid.cells[3]).center()
        records = [PoiRecord(c3.lat, c3.lon, 0), PoiRecord(c3.lat, c3.lon, 0)]
        poi = build_poi_matrix(records, grid, CategoryTable.default())
        assert poi.P.shape == (28, len(grid))
        dense = poi.P.toarray()
        assert dense[0, 3] == 2
        assert dense.sum() == 2
        assert poi.mask[3]
        assert poi.mask.sum() == 1

    def test_outside_grid_dropped(self, grid):
        poi = build_poi_matrix([PoiRecord(40.0, -78.64, 0)], grid,
                               CategoryTable.default())
        assert poi.P.nnz == 0
        assert poi.dropped == 1

    def test_sparsity_and_observed_fraction(self, grid):
        c0 = decode(grid.cells[0]).center()
        poi = build_poi_matrix([PoiRecord(c0.lat, c0.lon, 5)], grid,
                               CategoryTable.default())
        assert poi.sparsity() == pytest.approx(1.0 - 1.0 / (28 * len(grid)))
        assert poi.observed_fraction() == pytest.approx(1.0 / len(grid))

    def test_category_out_of_range_rejected(self, grid):
        with pytest.raises(ValueError):
            build_poi_matrix([PoiRecord(35.77, -78.64, 99)], grid,
                             CategoryTable.default())

    def test_save_load_round_trip(self, grid, tmp_path):
        c1 = decode(grid.cells[1]).center()
        c4 = decode(grid.cells[4]).center()
        records = [PoiRecord(c1.lat, c1.lon, 2), PoiRecord(c4.lat, c4.lon, 7),
                   PoiRecord(c4.lat, c4.lon, 7)]
        poi = build_poi_matrix(records, grid, CategoryTable.default())
        poi.save(tmp_path / "poi.coo", tmp_path / "poi.json")
        loaded = PoiMatrix.load(tmp_path / "poi.coo", tmp_path / "poi.json")
        assert np.array_equal(loaded.P.toarray(), poi.P.toarray())
        assert np.array_equal(loaded.mask, poi.mask)
        assert loaded.categories == poi.categories
        assert loaded.P.dtype == np.float64

    def test_empty_matrix_round_trip(self, grid, tmp_path):
        poi = build_poi_matrix([], grid, CategoryTable.default())
        poi.save(tmp_path / "poi.coo", tmp_path / "poi.json")
        assert (tmp_path / "poi.coo").read_bytes() == b""
        loaded = PoiMatrix.load(tmp_path / "poi.coo", tmp_path / "poi.json")
        assert loaded.P.shape == (28, len(grid)) and loaded.P.nnz == 0
        assert loaded.P.dtype == np.float64
        assert not loaded.mask.any()


class TestObservationMatrix:
    def test_column_mode_includes_zeros_of_observed_regions(self):
        poi = make_poi_matrix([[2, 0, 0], [0, 0, 0]])
        I = poi.observation_matrix("column")
        assert np.array_equal(I, [[1, 0, 0], [1, 0, 0]])

    def test_elementwise_mode_marks_nonzeros_only(self):
        poi = make_poi_matrix([[2, 0, 0], [1, 0, 0]])
        I = poi.observation_matrix("elementwise")
        assert np.array_equal(I, [[1, 0, 0], [1, 0, 0]])
        poi2 = make_poi_matrix([[2, 0, 0], [0, 0, 0]])
        assert np.array_equal(poi2.observation_matrix("elementwise"),
                              [[1, 0, 0], [0, 0, 0]])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_poi_matrix([[1]]).observation_matrix("diagonal")


def oracle_tfidf(P):
    """Definition-by-loops TF-IDF for comparison."""
    P = np.asarray(P, dtype=float)
    n_cat, r = P.shape
    observed = [j for j in range(r) if P[:, j].sum() > 0]
    n = len(observed)
    out = np.zeros_like(P)
    for c in range(n_cat):
        df = sum(1 for j in observed if P[c, j] > 0)
        idf = math.log(n / (1.0 + df)) + 1.0
        for j in observed:
            out[c, j] = (P[c, j] / P[:, j].sum()) * idf
    return out


class TestTfidf:
    def test_hand_worked_instance(self):
        poi = make_poi_matrix([[2, 0], [1, 1]])
        F = tfidf_transform(poi).F
        idf0 = math.log(2 / 2) + 1.0
        idf1 = math.log(2 / 3) + 1.0
        assert F[0, 0] == pytest.approx((2 / 3) * idf0)
        assert F[1, 0] == pytest.approx((1 / 3) * idf1)
        assert F[0, 1] == pytest.approx(0.0)
        assert F[1, 1] == pytest.approx(1.0 * idf1)

    def test_matches_loop_oracle_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            P = rng.integers(0, 4, size=(6, 9)).astype(float)
            P[:, rng.integers(0, 9)] = 0.0  # force an unobserved column
            F = tfidf_transform(make_poi_matrix(P)).F
            assert np.allclose(F, oracle_tfidf(P), atol=1e-12)

    def test_unobserved_columns_stay_zero(self):
        poi = make_poi_matrix([[3, 0, 1], [0, 0, 2]])
        F = tfidf_transform(poi).F
        assert np.all(F[:, 1] == 0.0)

    def test_rarer_category_gets_larger_idf(self):
        # cat0 in one of three observed regions, cat1 in all three
        poi = make_poi_matrix([[1, 0, 0], [1, 1, 1]])
        F = tfidf_transform(poi).F
        idf0 = F[0, 0] / (1 / 2)
        idf1 = F[1, 1] / 1.0
        assert idf0 > idf1

    def test_all_unobserved(self):
        F = tfidf_transform(make_poi_matrix([[0, 0], [0, 0]])).F
        assert np.all(F == 0.0)

    def test_kind_is_tfidf(self):
        assert tfidf_transform(make_poi_matrix([[1]])).kind == "tfidf"


class TestSvdFeatures:
    def test_planted_rank_two_reconstruction(self):
        rng = np.random.default_rng(5)
        F = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 9))
        feat = svd_features(FeatureMatrix(F=F, kind="tfidf"), t=2)
        u, s, vt = np.linalg.svd(F, full_matrices=False)
        # recover the basis actually used, signs and all
        recon = np.zeros_like(F)
        for i in range(2):
            ui = u[:, i]
            j = int(np.argmax(np.abs(ui)))
            if ui[j] < 0:
                ui = -ui
            recon += np.outer(ui, feat.F[i, :])
        assert np.linalg.norm(F - recon) < 1e-8

    def test_eckart_young_error(self):
        rng = np.random.default_rng(8)
        F = rng.normal(size=(7, 11))
        u, s, vt = np.linalg.svd(F, full_matrices=False)
        for t in (1, 3, 5):
            feat = svd_features(FeatureMatrix(F=F, kind="tfidf"), t=t)
            # rebuild the rank-t approximation from the returned rows
            basis = np.linalg.lstsq(feat.F.T, F.T, rcond=None)[0].T
            err = np.linalg.norm(F - basis @ feat.F)
            assert err == pytest.approx(math.sqrt((s[t:] ** 2).sum()), rel=1e-9)

    def test_singular_values_non_increasing(self):
        rng = np.random.default_rng(9)
        F = rng.normal(size=(8, 12))
        feat = svd_features(FeatureMatrix(F=F, kind="tfidf"), t=6)
        assert np.all(np.diff(feat.singular_values) <= 1e-12)

    def test_error_monotone_in_rank(self):
        rng = np.random.default_rng(10)
        F = rng.normal(size=(6, 10))
        u, s, vt = np.linalg.svd(F, full_matrices=False)
        errors = [math.sqrt((s[t:] ** 2).sum()) for t in (1, 2, 3, 4)]
        assert errors == sorted(errors, reverse=True)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        F = rng.normal(size=(5, 9))
        a = svd_features(FeatureMatrix(F=F, kind="tfidf"), t=3)
        b = svd_features(FeatureMatrix(F=F, kind="tfidf"), t=3)
        assert np.array_equal(a.F, b.F)

    def test_rank_beyond_min_dimension_rejected(self):
        F = FeatureMatrix(F=np.ones((3, 5)), kind="tfidf")
        with pytest.raises(ValueError):
            svd_features(F, t=4)
        with pytest.raises(ValueError):
            svd_features(F, t=0)

    def test_kind_is_svd_poi(self):
        F = FeatureMatrix(F=np.ones((3, 5)), kind="raw_poi")
        assert svd_features(F, t=2).kind == "svd_poi"


class TestFeatureMatrix:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FeatureMatrix(F=np.ones((2, 2)), kind="wavelet")

    def test_raw_poi_features(self):
        poi = make_poi_matrix([[2, 0], [1, 1]])
        feat = raw_poi_features(poi)
        assert feat.kind == "raw_poi"
        assert np.array_equal(feat.F, [[2, 0], [1, 1]])
