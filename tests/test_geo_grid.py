import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from zonefuse.geo_grid import (
    Box,
    CellId,
    GeoPoint,
    GridIndex,
    cell_spans,
    decode,
    encode,
    enumerate_cells,
    haversine_m,
)

ORACLE_BASE32 = "0123456789bcdefghjkmnpqrstuvwxyz"


def oracle_encode(lat: float, lon: float, level: int) -> str:
    """Reference geohash via exact rational arithmetic.

    Computes the axis cell indices as exact floors (clamped into the last
    cell at the world edge) and interleaves bits starting with longitude.
    Independent of the bisection loop in the implementation.
    """
    total = 5 * level
    lat_bits = total // 2
    lon_bits = total - lat_bits
    lat_idx = (Fraction(lat) + 90) * (1 << lat_bits) // 180
    lon_idx = (Fraction(lon) + 180) * (1 << lon_bits) // 360
    lat_idx = min(lat_idx, (1 << lat_bits) - 1)
    lon_idx = min(lon_idx, (1 << lon_bits) - 1)
    lat_bin = format(lat_idx, f"0{lat_bits}b")
    lon_bin = format(lon_idx, f"0{lon_bits}b")
    bits = "".join(lon_bin[i // 2] if i % 2 == 0 else lat_bin[i // 2]
                   for i in range(total))
    return "".join(ORACLE_BASE32[int(bits[j:j + 5], 2)] for j in range(0, total, 5))


def random_points(n: int, seed: int) -> list[GeoPoint]:
    rng = np.random.default_rng(seed)
    lats = rng.uniform(-90.0, 90.0, size=n)
    lons = rng.uniform(-180.0, 180.0, size=n)
    return [GeoPoint(float(a), float(b)) for a, b in zip(lats, lons)]


class TestEncode:
    def test_canonical_vector(self):
        assert encode(GeoPoint(57.64911, 10.40744), 11).code == "u4pruydqqvj"

    def test_origin_level_one(self):
        assert encode(GeoPoint(0.0, 0.0), 1).code == "s"

    def test_matches_exact_arithmetic_oracle(self):
        pts = random_points(60, seed=7)
        for level in range(1, 13):
            for p in pts[: 60 if level < 9 else 20]:
                assert encode(p, level).code == oracle_encode(p.lat, p.lon, level)

    def test_boundary_points_lower_inclusive(self):
        # Points exactly on bisection midlines belong to the upper cell.
        for p in [GeoPoint(0.0, 0.0), GeoPoint(45.0, 90.0), GeoPoint(-45.0, -90.0)]:
            for level in (1, 3, 6):
                assert encode(p, level).code == oracle_encode(p.lat, p.lon, level)
        # Cell corners off the midlines, and the points one ulp either side.
        for level in (6, 12):
            box = decode(encode(GeoPoint(57.64911, 10.40744), level))
            for lat in (box.min_lat, box.max_lat):
                for lon in (box.min_lon, box.max_lon):
                    for a in (np.nextafter(lat, -90.0), lat, np.nextafter(lat, 90.0)):
                        for b in (np.nextafter(lon, -180.0), lon, np.nextafter(lon, 180.0)):
                            p = GeoPoint(float(a), float(b))
                            assert encode(p, level).code == oracle_encode(p.lat, p.lon, level)

    def test_world_edges_clamp(self):
        for p in [GeoPoint(90.0, 0.0), GeoPoint(90.0, 180.0),
                  GeoPoint(-90.0, -180.0), GeoPoint(10.0, 180.0)]:
            for level in (1, 4, 7):
                cell = encode(p, level)
                assert cell.code == oracle_encode(p.lat, p.lon, level)
                box = decode(cell)
                assert box.min_lat <= p.lat <= box.max_lat

    def test_level_validation(self):
        with pytest.raises(ValueError):
            encode(GeoPoint(1.0, 1.0), 0)
        with pytest.raises(ValueError):
            encode(GeoPoint(1.0, 1.0), 13)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, -181.0)
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0.0)


class TestDecode:
    def test_round_trip_containment(self):
        pts = random_points(120, seed=11)
        for level in range(1, 13):
            for p in pts:
                assert decode(encode(p, level)).contains(p)

    def test_box_spans(self):
        for level in range(1, 13):
            lat_span, lon_span = cell_spans(level)
            p = GeoPoint(35.78, -78.64)
            box = decode(encode(p, level))
            assert box.max_lat - box.min_lat == pytest.approx(lat_span, rel=1e-12)
            assert box.max_lon - box.min_lon == pytest.approx(lon_span, rel=1e-12)

    def test_level_six_angular_size(self):
        lat_span, lon_span = cell_spans(6)
        assert lon_span == 0.010986328125
        assert lat_span == 0.0054931640625

    def test_level_three_cell_is_square_in_degrees(self):
        lat_span, lon_span = cell_spans(3)
        assert lat_span == lon_span == 1.40625

    def test_center_reencodes_to_same_cell(self):
        for p in random_points(40, seed=3):
            for level in (2, 5, 8):
                cell = encode(p, level)
                assert encode(decode(cell).center(), level) == cell

    def test_invalid_code_rejected(self):
        with pytest.raises(ValueError):
            decode("9wa")  # 'a' is not in the alphabet
        with pytest.raises(ValueError):
            decode("")

    def test_accepts_string_or_cellid(self):
        assert decode("s") == decode(CellId.of("s"))


class TestPrefixRefinement:
    def test_prefixes_nest(self):
        for p in random_points(50, seed=5):
            codes = [encode(p, level).code for level in range(1, 13)]
            for a, b in zip(codes, codes[1:]):
                assert b.startswith(a)

    def test_child_box_inside_parent_box(self):
        for p in random_points(20, seed=9):
            parent = decode(encode(p, 4))
            child = decode(encode(p, 5))
            assert parent.min_lat <= child.min_lat and child.max_lat <= parent.max_lat
            assert parent.min_lon <= child.min_lon and child.max_lon <= parent.max_lon


class TestCellId:
    def test_code_level_mismatch(self):
        with pytest.raises(ValueError):
            CellId("9wg", 4)

    def test_bad_alphabet(self):
        with pytest.raises(ValueError):
            CellId.of("9oi")


class TestEnumerateCells:
    def test_single_cell_bbox(self):
        box = decode(encode(GeoPoint(35.78, -78.64), 6))
        grid = enumerate_cells(box, 6)
        assert len(grid) == 1
        assert grid.codes == [encode(GeoPoint(35.78, -78.64), 6).code]

    def test_level3_cell_holds_32_level4_cells(self):
        box = decode(encode(GeoPoint(35.78, -78.64), 3))
        grid = enumerate_cells(box, 4)
        assert len(grid) == 32

    def test_all_cells_overlap_bbox(self):
        bbox = Box(35.7, -78.7, 35.9, -78.5)
        grid = enumerate_cells(bbox, 5)
        for code in grid.codes:
            b = decode(code)
            assert b.min_lat < bbox.max_lat and b.max_lat > bbox.min_lat
            assert b.min_lon < bbox.max_lon and b.max_lon > bbox.min_lon

    def test_row_major_order(self):
        bbox = Box(35.7, -78.7, 35.8, -78.6)
        grid = enumerate_cells(bbox, 6)
        boxes = [decode(c) for c in grid.codes]
        lats = [b.min_lat for b in boxes]
        assert lats == sorted(lats)
        lat_span, lon_span = cell_spans(6)
        n_cols = sum(1 for b in boxes if b.min_lat == boxes[0].min_lat)
        for i, b in enumerate(boxes):
            r, c = divmod(i, n_cols)
            assert b.min_lat == pytest.approx(boxes[0].min_lat + r * lat_span, abs=1e-12)
            assert b.min_lon == pytest.approx(boxes[0].min_lon + c * lon_span, abs=1e-12)

    def test_flush_upper_edge_excluded(self):
        # bbox covering exactly 2x2 cells yields 4 cells, not 9.
        base = decode(encode(GeoPoint(10.0, 20.0), 6))
        lat_span, lon_span = cell_spans(6)
        bbox = Box(base.min_lat, base.min_lon,
                   base.min_lat + 2 * lat_span, base.min_lon + 2 * lon_span)
        assert len(enumerate_cells(bbox, 6)) == 4

    def test_empty_bbox_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cells(Box(35.8, -78.7, 35.7, -78.6), 6)
        with pytest.raises(ValueError):
            enumerate_cells(Box(35.7, -78.7, 35.7, -78.6), 6)

    def test_index_is_consistent(self):
        grid = enumerate_cells(Box(35.7, -78.7, 35.8, -78.6), 6)
        for i, code in enumerate(grid.codes):
            box = decode(code)
            assert code == encode(box.center(), 6).code
            assert grid.column_of_point(box.center()) == i
            assert grid.column_of_point(GeoPoint(box.min_lat, box.min_lon)) == i

    def test_column_of_point_matches_encode(self):
        # cell edges, centers and points just outside the grid on both axes
        grid = enumerate_cells(Box(35.7, -78.7, 35.8, -78.6), 6)
        column = {code: i for i, code in enumerate(grid.codes)}
        first, last = decode(grid.codes[0]), decode(grid.codes[-1])
        lat_span, lon_span = cell_spans(6)
        lats = np.arange(first.min_lat - lat_span, last.max_lat + 1.5 * lat_span, lat_span / 2)
        lons = np.arange(first.min_lon - lon_span, last.max_lon + 1.5 * lon_span, lon_span / 2)
        for lat in lats:
            for lon in lons:
                p = GeoPoint(float(lat), float(lon))
                assert grid.column_of_point(p) == column.get(encode(p, 6).code)

    @pytest.mark.parametrize("bbox, level", [
        (Box(35.7, -78.7, 35.8, -78.6), 6),
        # flush with the north-east corner of the world
        (Box(78.75, 168.75, 90.0, 180.0), 3),
    ])
    def test_columns_of_points_match_encode(self, bbox, level):
        grid = enumerate_cells(bbox, level)
        lat_span, lon_span = cell_spans(level)
        column = {code: i for i, code in enumerate(grid.codes)}
        first, last = decode(grid.codes[0]), decode(grid.codes[-1])
        rng = np.random.default_rng(level)
        # random points in and around the grid, every exact cell edge,
        # the bbox's north and east edges, and the world's edges
        lats = list(rng.uniform(first.min_lat - lat_span,
                                min(90.0, last.max_lat + lat_span), 300))
        lons = list(rng.uniform(first.min_lon - lon_span,
                                min(180.0, last.max_lon + lon_span), 300))
        edge_lats = [first.min_lat + i * lat_span for i in range(grid.shape[0] + 1)]
        edge_lons = [first.min_lon + j * lon_span for j in range(grid.shape[1] + 1)]
        for lat in edge_lats + [bbox.max_lat, 90.0, -90.0]:
            for lon in edge_lons + [bbox.max_lon, 180.0, -180.0]:
                lats.append(lat)
                lons.append(lon)
        cols = grid.columns_of_points(lats, lons)
        expected = [column.get(encode(GeoPoint(float(a), float(b)), level).code, -1)
                    for a, b in zip(lats, lons)]
        assert cols.tolist() == expected
        assert (cols >= 0).any() and (cols == -1).any()

    @pytest.mark.parametrize("bbox, level", [
        (Box(35.7, -78.7, 35.8, -78.6), 6),
        (Box(-33.95, 151.1, -33.8, 151.3), 5),
        # flush with the north-east corner of the world
        (Box(78.75, 168.75, 90.0, 180.0), 3),
        # level 12: 60 code bits
        (Box(57.64911, 10.40744, 57.649112, 10.407442), 12),
    ])
    def test_codes_and_boxes_match_oracle_and_decode(self, bbox, level):
        grid = enumerate_cells(bbox, level)
        boxes = grid.boxes()
        assert boxes.shape == (len(grid), 4) and boxes.dtype == np.float64
        for code, row in zip(grid.codes, boxes.tolist()):
            b = decode(code)
            assert row == [b.min_lat, b.min_lon, b.max_lat, b.max_lon]
            center = b.center()
            assert code == oracle_encode(center.lat, center.lon, level)

    def test_columns_of_points_reject_invalid_points(self):
        grid = enumerate_cells(Box(35.7, -78.7, 35.8, -78.6), 6)
        for lat, lon in ((float("nan"), -78.65), (35.75, float("inf")), (90.5, 0.0)):
            with pytest.raises(ValueError):
                grid.columns_of_points([35.75, lat], [-78.65, lon])


class TestNeighbors8:
    """The grid's 8-neighbourhood, computed here from its shape."""

    @pytest.fixture
    def grid(self):
        return enumerate_cells(Box(35.70, -78.70, 35.80, -78.55), 6)

    def neighbors8(self, code, grid):
        n_rows, n_cols = grid.shape
        row, col = divmod(grid.codes.index(code), n_cols)
        return [grid.codes[r * n_cols + c]
                for r in (row - 1, row, row + 1) for c in (col - 1, col, col + 1)
                if (r, c) != (row, col) and 0 <= r < n_rows and 0 <= c < n_cols]

    def test_interior_cell_has_8(self, grid):
        boxes = [decode(c) for c in grid.codes]
        n_cols = sum(1 for b in boxes if b.min_lat == boxes[0].min_lat)
        n_rows = len(grid) // n_cols
        interior = grid.codes[(n_rows // 2) * n_cols + n_cols // 2]
        nbrs = self.neighbors8(interior, grid)
        assert len(nbrs) == 8
        assert len(set(nbrs)) == 8
        assert interior not in nbrs

    def test_corner_cell_has_3(self, grid):
        assert len(self.neighbors8(grid.codes[0], grid)) == 3
        assert len(self.neighbors8(grid.codes[-1], grid)) == 3

    def test_symmetry(self, grid):
        for code in grid.codes[:40]:
            for nbr in self.neighbors8(code, grid):
                assert code in self.neighbors8(nbr, grid)

    def test_neighbors_touch(self, grid):
        boxes = [decode(c) for c in grid.codes]
        n_cols = sum(1 for b in boxes if b.min_lat == boxes[0].min_lat)
        code = grid.codes[n_cols + 1]
        box = decode(code)
        lat_span, lon_span = cell_spans(6)
        for nbr in self.neighbors8(code, grid):
            nb = decode(nbr)
            assert abs(nb.min_lat - box.min_lat) <= lat_span * (1 + 1e-9)
            assert abs(nb.min_lon - box.min_lon) <= lon_span * (1 + 1e-9)


class TestHaversine:
    def test_zero_distance(self):
        p = GeoPoint(35.78, -78.64)
        assert haversine_m(p, p) == 0.0

    def test_one_degree_latitude(self):
        d = haversine_m(GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0))
        assert d == pytest.approx(math.pi * 6_371_000.0 / 180.0, rel=1e-9)

    def test_symmetry(self):
        a, b = GeoPoint(35.78, -78.64), GeoPoint(36.0, -78.2)
        assert haversine_m(a, b) == pytest.approx(haversine_m(b, a), rel=1e-12)

    def test_known_city_pair_scale(self):
        # Raleigh to Durham is roughly 32 km.
        d = haversine_m(GeoPoint(35.7796, -78.6382), GeoPoint(35.9940, -78.8986))
        assert 25_000 < d < 40_000


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        grid = enumerate_cells(Box(35.70, -78.70, 35.76, -78.62), 6)
        path = tmp_path / "cells.csv"
        grid.to_csv(path)
        loaded = GridIndex.from_csv(path)
        assert loaded.level == grid.level
        assert loaded.codes == grid.codes
        assert (loaded.origin, loaded.shape) == (grid.origin, grid.shape)

    def test_bytes_match_csv_writer(self, tmp_path):
        for bbox, level in ((Box(35.70, -78.70, 35.80, -78.55), 6),
                            (Box(-33.9, 151.1, -33.7, 151.3), 7),
                            (Box(0.0, -0.5, 0.3, 0.5), 6)):
            grid = enumerate_cells(bbox, level)
            want = io.StringIO(newline="")
            w = csv.writer(want)
            w.writerow(["column_index", "geohash", "min_lat", "min_lon", "max_lat", "max_lon"])
            for i, (code, box) in enumerate(zip(grid.codes, grid.boxes().tolist())):
                w.writerow([i, code, *map(repr, box)])
            path = tmp_path / "cells.csv"
            grid.to_csv(path)
            assert path.read_bytes() == want.getvalue().encode()

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("column_index,geohash,min_lat,min_lon,max_lat,max_lon\n")
        with pytest.raises(ValueError):
            GridIndex.from_csv(path)

    def rewritten(self, tmp_path, edit):
        """A to_csv manifest with its data rows edited, column indices kept."""
        grid = enumerate_cells(Box(35.70, -78.70, 35.76, -78.62), 6)
        path = tmp_path / "cells.csv"
        grid.to_csv(path)
        header, *rows = path.read_text().splitlines()
        rows = edit([row.split(",", 1)[1] for row in rows])
        path.write_text("\n".join([header, *(f"{i},{row}" for i, row in enumerate(rows))]) + "\n")
        return path

    def test_missing_row_rejected(self, tmp_path):
        path = self.rewritten(tmp_path, lambda rows: rows[:5] + rows[6:])
        with pytest.raises(ValueError, match="rectangle"):
            GridIndex.from_csv(path)

    def test_swapped_rows_rejected(self, tmp_path):
        path = self.rewritten(tmp_path, lambda rows: rows[:3] + [rows[4], rows[3]] + rows[5:])
        with pytest.raises(ValueError, match="rectangle"):
            GridIndex.from_csv(path)

    def test_row_without_every_field_rejected(self, tmp_path):
        path = self.rewritten(tmp_path, lambda rows: rows[:3] + [rows[3].rsplit(",", 1)[0]]
                              + rows[4:])
        with pytest.raises(ValueError, match="row 3 has 5 fields, expected 6"):
            GridIndex.from_csv(path)
