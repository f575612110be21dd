import csv
import math
import re

import numpy as np
import pytest

from zonefuse.errors import DataError
from zonefuse.geo_grid import Box, GeoPoint, decode, enumerate_cells
from zonefuse.poi_ingest import (
    DEFAULT_CATEGORIES,
    POI_DTYPE,
    CategoryTable,
    PoiMatrix,
    build_poi_matrix,
    parse_pois,
    raw_poi_features,
    svd_features,
    tfidf_transform,
)
from zonefuse.sparse_io import CHUNK_LINES


@pytest.fixture
def grid():
    return enumerate_cells(Box(35.76, -78.66, 35.781, -78.615), 6)


def poi_records(*rows):
    """A POI_DTYPE record array of (lat, lon, category) rows."""
    return np.array(list(rows), dtype=POI_DTYPE).view(np.recarray)


def make_poi_matrix(P_dense, categories=None):
    P = np.asarray(P_dense, dtype=float)
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
        assert records.category.tolist() == [0, 1, 1]

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


def oracle_categories(path):
    """The row loop CategoryTable.from_csv replaced: csv.DictReader, one
    int() per id.  Returns (names, lookup)."""
    names, lookup = [], {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"id", "name"}.issubset(reader.fieldnames):
            raise DataError(f"{path}: header must contain ['id', 'name']")
        for row in reader:
            try:
                cid = str(int(row["id"]))
            except (TypeError, ValueError):
                raise DataError(f"{path}: bad category id {row['id']!r}") from None
            name = CategoryTable._norm(row["name"] or "")
            if not name or cid in lookup or name in lookup:
                raise DataError(f"{path}: duplicate or empty category row {row}")
            idx = len(names)
            names.append(row["name"].strip())
            lookup[name] = idx
            lookup[cid] = idx
    return names, lookup


def oracle_parse_pois(path, categories):
    """The row loop parse_pois replaced: csv.DictReader and one GeoPoint
    per row.  Returns ([(lat, lon, category), ...], rejects)."""
    records, rejects = [], {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"lat", "lon", "category"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise DataError(f"{path}: header must contain {sorted(expected)}")
        for i, row in enumerate(reader):
            try:
                lat = float(row["lat"])
                lon = float(row["lon"])
                GeoPoint(lat, lon)
                raw = (row["category"] or "").strip()
                if not raw:
                    raise ValueError("missing category")
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}: malformed row {i + 2}: {exc}") from None
            idx = categories.resolve(raw)
            if idx is None:
                rejects[raw] = rejects.get(raw, 0) + 1
            else:
                records.append((lat, lon, idx))
    return records, rejects


def where(error: DataError) -> str:
    """The part of a DataError both readers word alike: the row number, or
    the header check."""
    return re.search(r"malformed row \d+|header must contain \[.*\]", str(error)).group()


def crlf_copy(path):
    copy = path.with_name("crlf_" + path.name)
    copy.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return copy


POI_CASES = {
    "quoted": ('lat,lon,category',
               ['"35.77","-78.64","coffee bar"', '35.77,-78.64,"fast food, drive-in"',
                '35.77,-78.64,"pets/veterinary"', '35.78,"-78.6""5",fuel']),
    "quoted_comma_only": ('lat,lon,category',
                          ['35.77,-78.64,"fast food, drive-in"', '35.77,-78.64,fuel']),
    "multi_line_field": ('lat,lon,category',
                         ['35.77,-78.64,"coffee\nbar"', '35.77,-78.64,"hover\nboard"',
                          '35.78,-78.65,fuel']),
    "blank_lines": ('lat,lon,category',
                    ['', '35.77,-78.64,fuel', '', '', '35.78,-78.64,hotel', '']),
    "long_rows": ('lat,lon,category',
                  ['35.77,-78.64,fuel,extra', '35.78,-78.64,hotel,,,', '35.79,-78.64,theater']),
    "short_row": ('lat,lon,category', ['35.77,-78.64,fuel', '', '35.78,-78.64']),
    "very_short_row": ('lat,lon,category', ['35.77,-78.64,fuel', '35.78']),
    "reordered": ('category,lon,lat', ['fuel,-78.64,35.77', '3,-78.65,35.78']),
    "duplicated_columns": ('lat,lon,category,lat,category',
                           ['0,-78.64,fuel,35.77,hotel', '95,-78.64,,35.78,2']),
    "duplicated_short": ('lat,lon,category,lat', ['35.77,-78.64,fuel']),
    "numeric_ids": ('lat,lon,category',
                    ['35.77,-78.64,2', '35.77,-78.64, 28 ', '35.77,-78.64,29',
                     '35.77,-78.64,02', '35.77,-78.64,0', '35.77,-78.64,29']),
    "padded_names": ('lat,lon,category',
                     ['35.77,-78.64,  Coffee  Bar ', '35.77,-78.64,FAST FOOD',
                      '35.77,-78.64, space elevator ', '35.77,-78.64,space elevator']),
    "loose_floats": ('lat,lon,category',
                     [' 35.77 ,-78.64,fuel', '1_0,1e1,fuel', '90,180,fuel', '-90,-180,fuel',
                      '-0.0,0,fuel']),
    "missing_category": ('lat,lon,category', ['35.77,-78.64,fuel', '35.77,-78.64,  ']),
    "several_malformed": ('lat,lon,category',
                          ['35.77,-78.64,fuel', '35.77,-78.64,', '95,-78.64,fuel',
                           'x,-78.64,fuel']),
    "missing_header_column": ('lat,lon,kind', ['35.77,-78.64,fuel']),
    "header_only": ('lat,lon,category', []),
    **{f"coordinate_{name}": ('lat,lon,category',
                              ['35.77,-78.64,fuel', f'{lat},{lon},fuel', '35.77,-78.64,hotel'])
       for name, lat, lon in (("nan", "nan", "-78.64"), ("inf", "35.77", "inf"),
                              ("neg_inf", "-inf", "-78.64"), ("lat_range", "90.5", "-78.64"),
                              ("lon_range", "35.77", "-180.5"), ("overflow", "1e400", "0"),
                              ("hex", "0x10", "-78.64"), ("empty", "", "-78.64"),
                              ("word", "35.77", "west"))},
}


def write_rows(path, header, rows):
    path.write_text("\n".join([header, *rows]) + "\n")


def check_pois(path, categories):
    """parse_pois against the row loop: the records, the rejects in order,
    or the row a DataError names."""
    try:
        want, want_rejects = oracle_parse_pois(path, categories)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            parse_pois(path, categories)
        assert where(got.value) == where(exc)
        return
    records, rejects = parse_pois(path, categories)
    assert records.dtype == POI_DTYPE
    assert records.tolist() == want
    assert list(rejects.items()) == list(want_rejects.items())


class TestParsePoisMatchesRowLoop:
    @pytest.mark.parametrize("case", sorted(POI_CASES))
    def test_crafted_file(self, tmp_path, case):
        f = tmp_path / "pois.csv"
        write_rows(f, *POI_CASES[case])
        for path in (f, crlf_copy(f)):
            check_pois(path, CategoryTable.default())

    def test_empty_file(self, tmp_path):
        f = tmp_path / "pois.csv"
        f.write_bytes(b"")
        check_pois(f, CategoryTable.default())
        with pytest.raises(DataError, match=r"header must contain \['category', 'lat', 'lon'\]"):
            parse_pois(f, CategoryTable.default())

    def test_custom_table(self, tmp_path):
        table = tmp_path / "cats.csv"
        table.write_text('id,name\n10,alpha\n20,"beta, gamma"\n')
        f = tmp_path / "pois.csv"
        write_rows(f, "lat,lon,category", ["1,2,alpha", '1,2,"beta,  gamma"', "1,2,20",
                                           "1,2,2", "1,2,1"])
        check_pois(f, CategoryTable.from_csv(table))

    @pytest.mark.parametrize("bad_row", [None, 100, CHUNK_LINES - 1, CHUNK_LINES + 5,
                                         2 * CHUNK_LINES + 1])
    def test_file_longer_than_a_chunk(self, tmp_path, bad_row):
        # blank lines and a quoted field spanning the first chunk boundary
        # shift the line a row starts on, but not its row number
        rng = np.random.default_rng(11)
        names = DEFAULT_CATEGORIES + ["hoverboard rental", "space elevator"]
        rows = [f"{35.7 + rng.uniform(0, 0.1)!r},{-78.7 + rng.uniform(0, 0.1)!r},"
                f"{names[int(rng.integers(0, len(names)))]}"
                for _ in range(2 * CHUNK_LINES + 300)]
        rows[CHUNK_LINES - 2] = '35.75,-78.65,"coffee\nbar"'
        if bad_row is not None:
            rows[bad_row] = "95.0,-78.65,fuel"
        for at in (7, 5000, 6000, 6001):
            rows.insert(at, "")
        f = tmp_path / "pois.csv"
        write_rows(f, "lat,lon,category", rows)
        for path in (f, crlf_copy(f)):
            check_pois(path, CategoryTable.default())


CATEGORY_CASES = {
    "plain": ("id,name", ["10,alpha", "20,beta"]),
    "quoted_comma": ("id,name", ['1,"pets, vets"', '2,"multi\nline"', '3,"say ""hi"""']),
    "reordered": ("name,id", ["alpha,10", "beta,20"]),
    "duplicated_columns": ("id,name,id", ["x,alpha,1", "y,beta,2"]),
    "padded": ("id,name", [" 7 ,  Alpha  Beta ", "+8,gamma", "1_0,delta", "007,eps"]),
    "blank_lines": ("id,name", ["", "1,alpha", "", "2,beta", ""]),
    "long_rows": ("id,name", ["1,alpha,extra", "2,beta,,"]),
    "header_only": ("id,name", []),
    "bad_id": ("id,name", ["1,alpha", "x,beta"]),
    "float_id": ("id,name", ["1.0,alpha"]),
    "empty_id": ("id,name", [",alpha"]),
    "short_row": ("id,name", ["1,alpha", "2"]),
    "empty_name": ("id,name", ["1,alpha", "2,   "]),
    "duplicate_name": ("id,name", ["1,Alpha", "2, alpha "]),
    "duplicate_id": ("id,name", ["1,alpha", "01,beta"]),
    "id_equals_earlier_name": ("id,name", ["1,2", "2,beta"]),
    "missing_header_column": ("id,label", ["1,alpha"]),
}


def check_categories(path):
    """CategoryTable.from_csv against the row loop: the names and lookup,
    or the same error."""
    try:
        want = oracle_categories(path)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            CategoryTable.from_csv(path)
        assert ("header" in str(got.value)) == ("header" in str(exc))
        return
    if not want[0]:
        with pytest.raises(ValueError, match="empty"):
            CategoryTable.from_csv(path)
        return
    table = CategoryTable.from_csv(path)
    assert (table.names, table.lookup) == want
    assert list(table.lookup) == list(want[1])


class TestCategoriesMatchRowLoop:
    @pytest.mark.parametrize("case", sorted(CATEGORY_CASES))
    def test_crafted_file(self, tmp_path, case):
        f = tmp_path / "cats.csv"
        write_rows(f, *CATEGORY_CASES[case])
        for path in (f, crlf_copy(f)):
            check_categories(path)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "cats.csv"
        f.write_bytes(b"")
        check_categories(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read category table"):
            CategoryTable.from_csv(tmp_path / "absent.csv")
        with pytest.raises(DataError, match="cannot read POI file"):
            parse_pois(tmp_path / "absent.csv", CategoryTable.default())


class TestBuildPoiMatrix:
    def test_counts_land_in_region_columns(self, grid):
        c3 = decode(grid.codes[3]).center()
        records = poi_records((c3.lat, c3.lon, 0), (c3.lat, c3.lon, 0))
        poi = build_poi_matrix(records, grid, CategoryTable.default())
        assert poi.P.shape == (28, len(grid))
        dense = poi.P
        assert dense[0, 3] == 2
        assert dense.sum() == 2
        assert poi.mask[3]
        assert poi.mask.sum() == 1

    def test_outside_grid_dropped(self, grid):
        poi = build_poi_matrix(poi_records((40.0, -78.64, 0)), grid,
                               CategoryTable.default())
        assert np.count_nonzero(poi.P) == 0
        assert poi.dropped == 1

    def test_sparsity_and_observed_fraction(self, grid):
        c0 = decode(grid.codes[0]).center()
        poi = build_poi_matrix(poi_records((c0.lat, c0.lon, 5)), grid,
                               CategoryTable.default())
        assert poi.sparsity() == pytest.approx(1.0 - 1.0 / (28 * len(grid)))
        assert poi.observed_fraction() == pytest.approx(1.0 / len(grid))

    def test_category_out_of_range_rejected(self, grid):
        with pytest.raises(ValueError):
            build_poi_matrix(poi_records((35.77, -78.64, 99)), grid,
                             CategoryTable.default())

    def test_save_load_round_trip(self, grid, tmp_path):
        c1 = decode(grid.codes[1]).center()
        c4 = decode(grid.codes[4]).center()
        records = poi_records((c1.lat, c1.lon, 2), (c4.lat, c4.lon, 7),
                              (c4.lat, c4.lon, 7))
        poi = build_poi_matrix(records, grid, CategoryTable.default())
        poi.save(tmp_path / "poi.coo", tmp_path / "poi.json")
        loaded = PoiMatrix.load(tmp_path / "poi.coo", tmp_path / "poi.json")
        assert np.array_equal(loaded.P, poi.P)
        assert np.array_equal(loaded.mask, poi.mask)
        assert loaded.categories == poi.categories
        assert loaded.P.dtype == np.float64

    def test_empty_matrix_round_trip(self, grid, tmp_path):
        poi = build_poi_matrix(poi_records(), grid, CategoryTable.default())
        poi.save(tmp_path / "poi.coo", tmp_path / "poi.json")
        assert (tmp_path / "poi.coo").read_bytes() == b""
        loaded = PoiMatrix.load(tmp_path / "poi.coo", tmp_path / "poi.json")
        assert loaded.P.shape == (28, len(grid)) and np.count_nonzero(loaded.P) == 0
        assert loaded.P.dtype == np.float64
        assert not loaded.mask.any()


class TestPoiMatrix:
    def test_P_must_be_a_2d_array(self):
        import scipy.sparse as sp
        for P in (np.ones(3), [[1.0, 0.0, 2.0]], sp.csr_array(np.ones((1, 3)))):
            with pytest.raises(ValueError, match="2-d array"):
                PoiMatrix(P=P, mask=np.ones(3, dtype=bool), categories=["a"])

    def test_P_is_held_as_float64(self):
        poi = PoiMatrix(P=np.array([[1, 0, 2]]), mask=np.array([True, False, True]),
                        categories=["a"])
        assert poi.P.dtype == np.float64


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
        F = tfidf_transform(poi)
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
            F = tfidf_transform(make_poi_matrix(P))
            assert np.allclose(F, oracle_tfidf(P), atol=1e-12)

    def test_unobserved_columns_stay_zero(self):
        poi = make_poi_matrix([[3, 0, 1], [0, 0, 2]])
        F = tfidf_transform(poi)
        assert np.all(F[:, 1] == 0.0)

    def test_rarer_category_gets_larger_idf(self):
        # cat0 in one of three observed regions, cat1 in all three
        poi = make_poi_matrix([[1, 0, 0], [1, 1, 1]])
        F = tfidf_transform(poi)
        idf0 = F[0, 0] / (1 / 2)
        idf1 = F[1, 1] / 1.0
        assert idf0 > idf1

    def test_all_unobserved(self):
        F = tfidf_transform(make_poi_matrix([[0, 0], [0, 0]]))
        assert np.all(F == 0.0)


class TestSvdFeatures:
    def test_planted_rank_two_reconstruction(self):
        rng = np.random.default_rng(5)
        F = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 9))
        feat = svd_features(F, t=2)
        u, s, vt = np.linalg.svd(F, full_matrices=False)
        # recover the basis actually used, signs and all
        recon = np.zeros_like(F)
        for i in range(2):
            ui = u[:, i]
            j = int(np.argmax(np.abs(ui)))
            if ui[j] < 0:
                ui = -ui
            recon += np.outer(ui, feat[i, :])
        assert np.linalg.norm(F - recon) < 1e-8

    def test_eckart_young_error(self):
        rng = np.random.default_rng(8)
        F = rng.normal(size=(7, 11))
        u, s, vt = np.linalg.svd(F, full_matrices=False)
        for t in (1, 3, 5):
            feat = svd_features(F, t=t)
            # rebuild the rank-t approximation from the returned rows
            basis = np.linalg.lstsq(feat.T, F.T, rcond=None)[0].T
            err = np.linalg.norm(F - basis @ feat)
            assert err == pytest.approx(math.sqrt((s[t:] ** 2).sum()), rel=1e-9)

    def test_singular_values_non_increasing(self):
        rng = np.random.default_rng(9)
        F = rng.normal(size=(8, 12))
        norms = np.linalg.norm(svd_features(F, t=6), axis=1)
        # the norm of each returned row is its singular value
        assert np.allclose(norms, np.linalg.svd(F, compute_uv=False)[:6])
        assert np.all(np.diff(norms) <= 1e-12)

    def test_error_monotone_in_rank(self):
        rng = np.random.default_rng(10)
        F = rng.normal(size=(6, 10))
        u, s, vt = np.linalg.svd(F, full_matrices=False)
        errors = [math.sqrt((s[t:] ** 2).sum()) for t in (1, 2, 3, 4)]
        assert errors == sorted(errors, reverse=True)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        F = rng.normal(size=(5, 9))
        a = svd_features(F, t=3)
        b = svd_features(F, t=3)
        assert np.array_equal(a, b)

    def test_rank_beyond_min_dimension_rejected(self):
        F = np.ones((3, 5))
        with pytest.raises(ValueError):
            svd_features(F, t=4)
        with pytest.raises(ValueError):
            svd_features(F, t=0)


class TestRawPoiFeatures:
    def test_raw_poi_features(self):
        poi = make_poi_matrix([[2, 0], [1, 1]])
        feat = raw_poi_features(poi)
        assert np.array_equal(feat, [[2, 0], [1, 1]])
        assert not np.shares_memory(feat, poi.P)
