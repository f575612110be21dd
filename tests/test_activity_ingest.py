import datetime as dt

import numpy as np
import pytest

from zonefuse.activity_ingest import (
    KIND_ARRIVING,
    KIND_LEAVING,
    ActivityInfo,
    HapMatrix,
    HumanActivity,
    TrajPoint,
    build_hap_matrix,
    detect_activities,
    parse_gps,
    parse_timezone,
    to_activity_infos,
)
from zonefuse.errors import ConfigError, DataError
from zonefuse.geo_grid import Box, GeoPoint, enumerate_cells, haversine_m


def oracle_detect(points, dr, tr):
    """Reference stay detection written directly from the definition.

    For each anchor, find the first point beyond dr by forward search;
    the span ends just before it.  Kept structurally different from the
    implementation's extension loop.
    """
    out = []
    k = 0
    n = len(points)
    while k < n:
        beyond = None
        for i in range(k + 1, n):
            d = haversine_m(GeoPoint(points[k].lat, points[k].lon),
                            GeoPoint(points[i].lat, points[i].lon))
            if d > dr:
                beyond = i
                break
        m = (beyond - 1) if beyond is not None else n - 1
        if points[m].t - points[k].t >= tr:
            span = points[k:m + 1]
            out.append((sum(p.lat for p in span) / len(span),
                        sum(p.lon for p in span) / len(span),
                        points[k].t, points[m].t))
        k = m + 1
    return out


def random_walk(seed, n, step_scale=0.002):
    rng = np.random.default_rng(seed)
    lat, lon, t = 35.78, -78.64, 0.0
    pts = []
    for _ in range(n):
        pts.append(TrajPoint(lat, lon, t))
        lat += float(rng.normal(0, step_scale))
        lon += float(rng.normal(0, step_scale))
        t += float(rng.uniform(60, 900))
    return pts


STAY_EXAMPLE = [
    TrajPoint(35.7800, -78.6400, 0.0),
    TrajPoint(35.7803, -78.6400, 900.0),
    TrajPoint(35.7800, -78.6404, 1800.0),
    TrajPoint(35.8300, -78.6400, 2100.0),  # ~5.5 km jump
]


class TestDetectActivities:
    def test_three_points_then_jump(self):
        acts = detect_activities(STAY_EXAMPLE, max_distance_m=200.0, min_duration_s=1200.0)
        assert len(acts) == 1
        a = acts[0]
        assert a.t_a == 0.0
        assert a.t_l == 1800.0
        assert a.lat == pytest.approx((35.7800 + 35.7803 + 35.7800) / 3)
        assert a.lon == pytest.approx((-78.6400 - 78.6400 - 78.6404) / 3)

    def test_single_point_yields_nothing(self):
        assert detect_activities([TrajPoint(35.78, -78.64, 0.0)]) == []

    def test_identical_points_spanning_twice_min_duration(self):
        pts = [TrajPoint(35.78, -78.64, 600.0 * i) for i in range(5)]
        acts = detect_activities(pts, min_duration_s=1200.0)
        assert len(acts) == 1
        assert acts[0].lat == 35.78 and acts[0].lon == -78.64
        assert acts[0].t_a == 0.0 and acts[0].t_l == 2400.0

    def test_short_dwell_not_emitted(self):
        pts = [TrajPoint(35.78, -78.64, 0.0), TrajPoint(35.78, -78.64, 600.0)]
        assert detect_activities(pts, min_duration_s=1200.0) == []

    def test_matches_definition_oracle_on_random_walks(self):
        for seed in range(25):
            pts = random_walk(seed, n=60)
            acts = detect_activities(pts, 200.0, 1200.0)
            ref = oracle_detect(pts, 200.0, 1200.0)
            assert len(acts) == len(ref)
            for a, (lat, lon, ta, tl) in zip(acts, ref):
                assert a.lat == pytest.approx(lat)
                assert a.lon == pytest.approx(lon)
                assert a.t_a == ta and a.t_l == tl

    def test_activities_disjoint_and_ordered(self):
        for seed in range(10):
            acts = detect_activities(random_walk(seed, n=80), 200.0, 1200.0)
            for a, b in zip(acts, acts[1:]):
                assert a.t_l < b.t_a or a.t_l <= b.t_a
                assert a.t_a <= b.t_a

    def test_no_retroactive_change_when_far_point_appended(self):
        base = detect_activities(STAY_EXAMPLE, 200.0, 1200.0)
        extended = detect_activities(
            STAY_EXAMPLE + [TrajPoint(35.9000, -78.6400, 2400.0)], 200.0, 1200.0)
        assert extended[:len(base)] == base

    def test_unsorted_input_rejected(self):
        pts = [TrajPoint(35.78, -78.64, 100.0), TrajPoint(35.78, -78.64, 0.0)]
        with pytest.raises(ValueError):
            detect_activities(pts)

    def test_empty_input(self):
        assert detect_activities([]) == []


class TestHumanActivity:
    def test_leave_before_arrival_rejected(self):
        with pytest.raises(ValueError):
            HumanActivity(35.78, -78.64, t_a=100.0, t_l=50.0)


@pytest.fixture
def grid():
    # 4x4 grid of level-6 cells around Raleigh
    return enumerate_cells(Box(35.76, -78.66, 35.781, -78.615), 6)


class TestToActivityInfos:
    def test_pair_yields_leaving_and_arriving(self, grid):
        from zonefuse.geo_grid import decode
        c0 = decode(grid.cells[0]).center()
        c5 = decode(grid.cells[5]).center()
        acts = [HumanActivity(c0.lat, c0.lon, t_a=0.0, t_l=1000.0),
                HumanActivity(c5.lat, c5.lon, t_a=2500.0, t_l=4000.0)]
        infos, dropped = to_activity_infos(acts, grid)
        assert dropped == 0
        assert infos == [ActivityInfo(KIND_LEAVING, 0, 5, 1000.0),
                         ActivityInfo(KIND_ARRIVING, 0, 5, 2500.0)]

    def test_single_activity_yields_nothing(self, grid):
        from zonefuse.geo_grid import decode
        c = decode(grid.cells[0]).center()
        infos, dropped = to_activity_infos(
            [HumanActivity(c.lat, c.lon, 0.0, 1000.0)], grid)
        assert infos == [] and dropped == 0

    def test_origin_outside_grid_dropped(self, grid):
        from zonefuse.geo_grid import decode
        inside = decode(grid.cells[3]).center()
        acts = [HumanActivity(40.0, -78.64, 0.0, 1000.0),
                HumanActivity(inside.lat, inside.lon, 2000.0, 3500.0)]
        infos, dropped = to_activity_infos(acts, grid)
        assert infos == []
        assert dropped == 1

    def test_trip_count(self, grid):
        from zonefuse.geo_grid import decode
        centers = [decode(c).center() for c in grid.cells[:4]]
        acts = [HumanActivity(c.lat, c.lon, 1000.0 * i, 1000.0 * i + 500.0)
                for i, c in enumerate(centers)]
        infos, dropped = to_activity_infos(acts, grid)
        assert dropped == 0
        assert len(infos) == 2 * (len(acts) - 1)


def epoch_at(iso: str) -> float:
    return dt.datetime.fromisoformat(iso).timestamp()


class TestBuildHapMatrix:
    def test_single_leaving_record(self):
        # 13:30 local under UTC-05:00
        t = epoch_at("2018-03-15T13:30:00-05:00")
        hap = build_hap_matrix([ActivityInfo(KIND_LEAVING, 0, 1, t)], r=2,
                               tz="UTC-05:00")
        assert hap.data.shape == (96, 2)
        dense = hap.data.toarray()
        assert dense.sum() == 1
        assert dense[13 * 2 + 0, 1] == 1

    def test_arriving_block_offset(self):
        t = epoch_at("2018-03-15T05:10:00+00:00")
        hap = build_hap_matrix([ActivityInfo(KIND_ARRIVING, 1, 0, t)], r=2)
        dense = hap.data.toarray()
        assert dense.sum() == 1
        assert dense[24 * 2 + 5 * 2 + 1, 0] == 1

    def test_row_index_helper_agrees(self):
        t = epoch_at("2018-03-15T22:45:00+00:00")
        hap = build_hap_matrix([ActivityInfo(KIND_LEAVING, 3, 2, t)], r=5)
        assert hap.data.toarray()[hap.row_index(KIND_LEAVING, 22, 3), 2] == 1

    def test_empty_infos(self):
        hap = build_hap_matrix([], r=3)
        assert hap.data.shape == (144, 3)
        assert hap.data.nnz == 0
        assert hap.sparsity() == 1.0

    def test_total_equals_record_count(self):
        rng = np.random.default_rng(0)
        infos = []
        for _ in range(200):
            kind = KIND_LEAVING if rng.random() < 0.5 else KIND_ARRIVING
            infos.append(ActivityInfo(kind, int(rng.integers(0, 6)),
                                      int(rng.integers(0, 6)),
                                      float(rng.uniform(0, 4e8))))
        hap = build_hap_matrix(infos, r=6)
        assert hap.data.sum() == 200

    def test_order_independence(self):
        rng = np.random.default_rng(1)
        infos = [ActivityInfo(KIND_LEAVING, int(rng.integers(0, 4)),
                              int(rng.integers(0, 4)), float(rng.uniform(0, 4e8)))
                 for _ in range(50)]
        a = build_hap_matrix(infos, r=4).data.toarray()
        perm = [infos[i] for i in rng.permutation(50)]
        b = build_hap_matrix(perm, r=4).data.toarray()
        assert np.array_equal(a, b)

    def test_region_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_hap_matrix([ActivityInfo(KIND_LEAVING, 0, 9, 0.0)], r=4)

    def test_nonpositive_region_count_rejected(self):
        with pytest.raises(ValueError):
            build_hap_matrix([], r=0)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        infos = [ActivityInfo(KIND_ARRIVING, int(rng.integers(0, 3)),
                              int(rng.integers(0, 3)), float(rng.uniform(0, 4e8)))
                 for _ in range(30)]
        hap = build_hap_matrix(infos, r=3, tz="UTC-05:00")
        hap.save(tmp_path / "hap.coo", tmp_path / "hap.json")
        loaded = HapMatrix.load(tmp_path / "hap.coo", tmp_path / "hap.json")
        assert loaded.r == 3 and loaded.s == 24 and loaded.tz == "UTC-05:00"
        assert np.array_equal(loaded.data.toarray(), hap.data.toarray())
        assert loaded.data.dtype == np.float64

    def test_empty_matrix_round_trip(self, tmp_path):
        hap = build_hap_matrix([], r=3)
        hap.save(tmp_path / "hap.coo", tmp_path / "hap.json")
        assert (tmp_path / "hap.coo").read_bytes() == b""
        loaded = HapMatrix.load(tmp_path / "hap.coo", tmp_path / "hap.json")
        assert loaded.data.shape == (144, 3) and loaded.data.nnz == 0
        assert loaded.data.dtype == np.float64

    def test_coo_file_is_sorted(self, tmp_path):
        rng = np.random.default_rng(3)
        infos = [ActivityInfo(KIND_LEAVING, int(rng.integers(0, 4)),
                              int(rng.integers(0, 4)), float(rng.uniform(0, 4e8)))
                 for _ in range(40)]
        hap = build_hap_matrix(infos, r=4)
        hap.save(tmp_path / "hap.coo", tmp_path / "hap.json")
        triples = [tuple(map(int, line.split()))
                   for line in (tmp_path / "hap.coo").read_text().splitlines()]
        assert triples == sorted(triples)


class TestParseTimezone:
    def test_utc(self):
        assert parse_timezone("UTC").utcoffset(None) == dt.timedelta(0)

    def test_fixed_offsets(self):
        assert parse_timezone("UTC-05:00").utcoffset(None) == dt.timedelta(hours=-5)
        assert parse_timezone("+02:30").utcoffset(None) == dt.timedelta(hours=2, minutes=30)
        assert parse_timezone("-05").utcoffset(None) == dt.timedelta(hours=-5)

    def test_iana_name(self):
        zone = parse_timezone("America/New_York")
        t = dt.datetime(2018, 3, 15, 18, 30, tzinfo=dt.timezone.utc)
        assert t.astimezone(zone).hour == 14

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_timezone("Mars/Olympus_Mons")
        with pytest.raises(ConfigError):
            parse_timezone("UTC+99:00")


def write_gps(path, rows, header="user_id,lat,lon,timestamp"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


class TestParseGps:
    def test_iso_timestamps(self, tmp_path):
        f = tmp_path / "gps.csv"
        write_gps(f, [
            "u1,35.78,-78.64,2018-03-15T13:30:00Z",
            "u1,35.79,-78.65,2018-03-15T12:00:00Z",
            "u2,35.70,-78.60,2018-03-15T09:00:00-05:00",
        ])
        users, malformed = parse_gps(f)
        assert malformed == 0
        assert set(users) == {"u1", "u2"}
        assert [p.t for p in users["u1"]] == sorted(p.t for p in users["u1"])
        assert users["u1"][0].lat == 35.79

    def test_epoch_timestamps(self, tmp_path):
        f = tmp_path / "gps.csv"
        write_gps(f, ["u1,35.78,-78.64,1521120600", "u1,35.78,-78.64,1521117000"])
        users, malformed = parse_gps(f)
        assert malformed == 0
        assert [p.t for p in users["u1"]] == [1521117000.0, 1521120600.0]

    def test_malformed_rows_counted_and_skipped(self, tmp_path):
        f = tmp_path / "gps.csv"
        write_gps(f, [
            "u1,35.78,-78.64,1521120600",
            "u1,not_a_lat,-78.64,1521120601",
            "u1,95.0,-78.64,1521120602",
            "u1,35.78,-78.64,1521120603",
        ])
        users, malformed = parse_gps(f)
        assert malformed == 2
        assert len(users["u1"]) == 2

    def test_mostly_malformed_aborts(self, tmp_path):
        f = tmp_path / "gps.csv"
        write_gps(f, [
            "u1,bad,-78.64,1521120600",
            "u1,bad,-78.64,1521120601",
            "u1,35.78,-78.64,1521120602",
        ])
        with pytest.raises(DataError):
            parse_gps(f)

    def test_missing_header_rejected(self, tmp_path):
        f = tmp_path / "gps.csv"
        write_gps(f, ["u1,35.78,-78.64,1521120600"], header="a,b,c,d")
        with pytest.raises(DataError):
            parse_gps(f)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            parse_gps(tmp_path / "nope.csv")

    def test_weekday_filter(self, tmp_path):
        f = tmp_path / "gps.csv"
        # 2018-03-17 is a Saturday, 2018-03-15 a Thursday
        write_gps(f, [
            "u1,35.78,-78.64,2018-03-15T13:30:00Z",
            "u1,35.78,-78.64,2018-03-17T13:30:00Z",
        ])
        users, _ = parse_gps(f, weekdays_only=True)
        assert len(users["u1"]) == 1

    def test_weekday_filter_respects_timezone(self, tmp_path):
        f = tmp_path / "gps.csv"
        # 01:00 UTC Saturday is 20:00 Friday under UTC-05:00
        write_gps(f, ["u1,35.78,-78.64,2018-03-17T01:00:00Z"])
        users_utc, _ = parse_gps(f, weekdays_only=True, tz="UTC")
        assert users_utc == {}
        users_est, _ = parse_gps(f, weekdays_only=True, tz="UTC-05:00")
        assert len(users_est["u1"]) == 1
