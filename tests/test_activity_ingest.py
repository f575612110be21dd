import csv
import datetime as dt
import functools
import json
import operator
import tracemalloc

import numpy as np
import pytest

from zonefuse.activity_ingest import (
    KIND_ARRIVING,
    KIND_LEAVING,
    KINDS,
    POINT_DTYPE,
    STAY_DTYPE,
    TRIP_DTYPE,
    HapMatrix,
    build_hap_matrix,
    detect_activities,
    local_hour_weekday,
    parse_gps,
    parse_timezone,
    to_activity_infos,
)
from zonefuse.errors import ConfigError, DataError
from zonefuse.geo_grid import Box, GeoPoint, enumerate_cells, haversine_m


def records(rows, dtype):
    """A record array with one row per tuple."""
    return np.rec.array(np.array([tuple(r) for r in rows], dtype=dtype))


def track(rows, user=0):
    """One user's (lat, lon, t) points as detect_activities takes them."""
    return records([(user, *r) for r in rows], POINT_DTYPE)


def stays(rows):
    """One user's (lat, lon, t_a, t_l) stays as to_activity_infos takes them."""
    return records([(0, *r) for r in rows], STAY_DTYPE)


def trips(rows):
    """(kind name, origin, dest, t) trip records as build_hap_matrix takes them."""
    return records([(KINDS.index(kind), *rest) for kind, *rest in rows], TRIP_DTYPE)


def trip_rows(trip_records):
    return [(KINDS[k], o, d, t) for k, o, d, t in trip_records.tolist()]


def fold(values):
    """Left-to-right float sum; the builtin sum compensates from Python 3.12."""
    return functools.reduce(operator.add, values)


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
            out.append((fold(p.lat for p in span) / len(span),
                        fold(p.lon for p in span) / len(span),
                        points[k].t, points[m].t))
        k = m + 1
    return out


def random_walk(seed, n, step_scale=0.002):
    rng = np.random.default_rng(seed)
    lat, lon, t = 35.78, -78.64, 0.0
    pts = []
    for _ in range(n):
        pts.append((lat, lon, t))
        lat += float(rng.normal(0, step_scale))
        lon += float(rng.normal(0, step_scale))
        t += float(rng.uniform(60, 900))
    return track(pts)


STAY_ROWS = [
    (35.7800, -78.6400, 0.0),
    (35.7803, -78.6400, 900.0),
    (35.7800, -78.6404, 1800.0),
    (35.8300, -78.6400, 2100.0),  # ~5.5 km jump
]
STAY_EXAMPLE = track(STAY_ROWS)


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
        assert len(detect_activities(track([(35.78, -78.64, 0.0)]))) == 0

    def test_identical_points_spanning_twice_min_duration(self):
        pts = track([(35.78, -78.64, 600.0 * i) for i in range(5)])
        acts = detect_activities(pts, min_duration_s=1200.0)
        assert len(acts) == 1
        assert acts[0].lat == 35.78 and acts[0].lon == -78.64
        assert acts[0].t_a == 0.0 and acts[0].t_l == 2400.0

    def test_centroid_adds_left_to_right(self):
        # 0.1 added ten times is 0.9999999999999999, not the exact 1.0 a
        # compensated sum gives
        pts = track([(0.1, 0.1, 600.0 * i) for i in range(10)])
        acts = detect_activities(pts)
        expected = fold([0.1] * 10) / 10
        assert expected == 0.09999999999999999
        assert acts.lat.tolist() == acts.lon.tolist() == [expected]

    def test_short_dwell_not_emitted(self):
        pts = track([(35.78, -78.64, 0.0), (35.78, -78.64, 600.0)])
        assert len(detect_activities(pts, min_duration_s=1200.0)) == 0

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
            track(STAY_ROWS + [(35.9000, -78.6400, 2400.0)]), 200.0, 1200.0)
        assert extended[:len(base)] == base

    def test_unsorted_input_rejected(self):
        pts = track([(35.78, -78.64, 100.0), (35.78, -78.64, 0.0)])
        with pytest.raises(ValueError):
            detect_activities(pts)

    def test_empty_input(self):
        assert len(detect_activities(track([]))) == 0


class TestHumanActivity:
    def test_leave_before_arrival_rejected(self, grid):
        with pytest.raises(ValueError):
            to_activity_infos(stays([(35.78, -78.64, 100.0, 50.0)]), grid)


@pytest.fixture
def grid():
    # 4x4 grid of level-6 cells around Raleigh
    return enumerate_cells(Box(35.76, -78.66, 35.781, -78.615), 6)


class TestToActivityInfos:
    def test_pair_yields_leaving_and_arriving(self, grid):
        from zonefuse.geo_grid import decode
        c0 = decode(grid.codes[0]).center()
        c5 = decode(grid.codes[5]).center()
        acts = stays([(c0.lat, c0.lon, 0.0, 1000.0),
                      (c5.lat, c5.lon, 2500.0, 4000.0)])
        infos, dropped = to_activity_infos(acts, grid)
        assert dropped == 0
        assert trip_rows(infos) == [(KIND_LEAVING, 0, 5, 1000.0),
                                    (KIND_ARRIVING, 0, 5, 2500.0)]

    def test_single_activity_yields_nothing(self, grid):
        from zonefuse.geo_grid import decode
        c = decode(grid.codes[0]).center()
        infos, dropped = to_activity_infos(
            stays([(c.lat, c.lon, 0.0, 1000.0)]), grid)
        assert len(infos) == 0 and dropped == 0

    def test_origin_outside_grid_dropped(self, grid):
        from zonefuse.geo_grid import decode
        inside = decode(grid.codes[3]).center()
        acts = stays([(40.0, -78.64, 0.0, 1000.0),
                      (inside.lat, inside.lon, 2000.0, 3500.0)])
        infos, dropped = to_activity_infos(acts, grid)
        assert len(infos) == 0
        assert dropped == 1

    def test_trip_count(self, grid):
        from zonefuse.geo_grid import decode
        centers = [decode(c).center() for c in grid.codes[:4]]
        acts = stays([(c.lat, c.lon, 1000.0 * i, 1000.0 * i + 500.0)
                      for i, c in enumerate(centers)])
        infos, dropped = to_activity_infos(acts, grid)
        assert dropped == 0
        assert len(infos) == 2 * (len(acts) - 1)


def epoch_at(iso: str) -> float:
    return dt.datetime.fromisoformat(iso).timestamp()


def row_index(hap, kind: str, hour: int, origin: int) -> int:
    """The row of T that counts (kind, local hour, origin region)."""
    return KINDS.index(kind) * hap.s * hap.r + hour * hap.r + origin


class TestBuildHapMatrix:
    def test_single_leaving_record(self):
        # 13:30 local under UTC-05:00
        t = epoch_at("2018-03-15T13:30:00-05:00")
        hap = build_hap_matrix(trips([(KIND_LEAVING, 0, 1, t)]), r=2,
                               tz="UTC-05:00")
        assert hap.data.shape == (96, 2)
        dense = hap.data.toarray()
        assert dense.sum() == 1
        assert dense[13 * 2 + 0, 1] == 1

    def test_arriving_block_offset(self):
        t = epoch_at("2018-03-15T05:10:00+00:00")
        hap = build_hap_matrix(trips([(KIND_ARRIVING, 1, 0, t)]), r=2)
        dense = hap.data.toarray()
        assert dense.sum() == 1
        assert dense[24 * 2 + 5 * 2 + 1, 0] == 1

    def test_row_index_helper_agrees(self):
        t = epoch_at("2018-03-15T22:45:00+00:00")
        hap = build_hap_matrix(trips([(KIND_LEAVING, 3, 2, t)]), r=5)
        assert hap.data.toarray()[row_index(hap, KIND_LEAVING, 22, 3), 2] == 1

    def test_empty_infos(self):
        hap = build_hap_matrix(trips([]), r=3)
        assert hap.data.shape == (144, 3)
        assert hap.data.nnz == 0
        assert hap.sparsity() == 1.0

    def test_total_equals_record_count(self):
        rng = np.random.default_rng(0)
        infos = []
        for _ in range(200):
            kind = KIND_LEAVING if rng.random() < 0.5 else KIND_ARRIVING
            infos.append((kind, int(rng.integers(0, 6)),
                          int(rng.integers(0, 6)),
                          float(rng.uniform(0, 4e8))))
        hap = build_hap_matrix(trips(infos), r=6)
        assert hap.data.toarray().sum() == 200

    def test_order_independence(self):
        rng = np.random.default_rng(1)
        infos = [(KIND_LEAVING, int(rng.integers(0, 4)),
                  int(rng.integers(0, 4)), float(rng.uniform(0, 4e8)))
                 for _ in range(50)]
        a = build_hap_matrix(trips(infos), r=4).data.toarray()
        perm = [infos[i] for i in rng.permutation(50)]
        b = build_hap_matrix(trips(perm), r=4).data.toarray()
        assert np.array_equal(a, b)

    def test_region_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_hap_matrix(trips([(KIND_LEAVING, 0, 9, 0.0)]), r=4)

    def test_nonpositive_region_count_rejected(self):
        with pytest.raises(ValueError):
            build_hap_matrix(trips([]), r=0)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        infos = [(KIND_ARRIVING, int(rng.integers(0, 3)),
                  int(rng.integers(0, 3)), float(rng.uniform(0, 4e8)))
                 for _ in range(30)]
        hap = build_hap_matrix(trips(infos), r=3, tz="UTC-05:00")
        hap.save(tmp_path / "hap.coo", tmp_path / "hap.json")
        loaded = HapMatrix.load(tmp_path / "hap.coo", tmp_path / "hap.json")
        assert loaded.r == 3 and loaded.s == 24 and loaded.tz == "UTC-05:00"
        assert np.array_equal(loaded.data.toarray(), hap.data.toarray())
        for name in ("row", "col", "data"):
            assert np.array_equal(getattr(loaded.data, name), getattr(hap.data, name))
        assert loaded.data.data.dtype == np.float64

    @pytest.mark.parametrize("key,value", [("s", 12), ("kinds", ["arriving", "leaving"])])
    def test_load_rejects_another_row_layout(self, tmp_path, key, value):
        build_hap_matrix(trips([]), r=3).save(tmp_path / "hap.coo", tmp_path / "hap.json")
        meta = json.loads((tmp_path / "hap.json").read_text())
        meta[key] = value
        (tmp_path / "hap.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="differs"):
            HapMatrix.load(tmp_path / "hap.coo", tmp_path / "hap.json")

    def test_empty_matrix_round_trip(self, tmp_path):
        hap = build_hap_matrix(trips([]), r=3)
        hap.save(tmp_path / "hap.coo", tmp_path / "hap.json")
        assert (tmp_path / "hap.coo").read_bytes() == b""
        loaded = HapMatrix.load(tmp_path / "hap.coo", tmp_path / "hap.json")
        assert loaded.data.shape == (144, 3) and loaded.data.nnz == 0
        assert loaded.data.data.dtype == np.float64

    def test_coo_file_is_sorted(self, tmp_path):
        rng = np.random.default_rng(3)
        infos = [(KIND_LEAVING, int(rng.integers(0, 4)),
                  int(rng.integers(0, 4)), float(rng.uniform(0, 4e8)))
                 for _ in range(40)]
        hap = build_hap_matrix(trips(infos), r=4)
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


def oracle_parse_gps(path, weekdays_only=False, tz="UTC"):
    """The row loop parse_gps replaced: csv.DictReader and one float() per field.

    Returns ({user: [(lat, lon, t), ...] sorted by t}, malformed rows).
    """
    import csv

    def parse_timestamp(raw, epoch_mode):
        if epoch_mode:
            return float(raw)
        s = raw.strip()
        if s.endswith(("Z", "z")):
            s = s[:-1] + "+00:00"
        stamp = dt.datetime.fromisoformat(s)
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=dt.timezone.utc)
        return stamp.timestamp()

    zone = parse_timezone(tz)
    users = {}
    malformed = 0
    total = 0
    epoch_mode = None
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"user_id", "lat", "lon", "timestamp"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise DataError("header")
        for row in reader:
            total += 1
            try:
                raw_ts = row["timestamp"]
                if raw_ts is None:
                    raise ValueError("missing timestamp")
                if epoch_mode is None:
                    try:
                        float(raw_ts)
                        epoch_mode = True
                    except ValueError:
                        parse_timestamp(raw_ts, epoch_mode=False)
                        epoch_mode = False
                t = parse_timestamp(raw_ts, epoch_mode)
                lat = float(row["lat"])
                lon = float(row["lon"])
                GeoPoint(lat, lon)
                user = row["user_id"]
                if not user:
                    raise ValueError("missing user_id")
            except (TypeError, ValueError, KeyError):
                malformed += 1
                continue
            if weekdays_only and dt.datetime.fromtimestamp(t, zone).weekday() >= 5:
                continue
            users.setdefault(user, []).append((lat, lon, t))
    if total > 0 and malformed * 2 > total:
        raise DataError("mostly malformed")
    for pts in users.values():
        pts.sort(key=lambda p: p[2])
    return users, malformed


def big_gps_file(path):
    """More than two chunks of rows: seven users, repeated times, and a
    blank line, a short row, a CRLF line and a quoted field spanning two
    lines, one of them across the first chunk boundary."""
    rng = np.random.default_rng(7)
    lines = ["user_id,lat,lon,timestamp"]
    for i in range(9500):
        user = f"u{int(rng.integers(0, 7))}"
        t = 1521000000 + int(rng.integers(0, 3000)) * 60
        lines.append(f"{user},{35.7 + rng.uniform(0, 0.1)!r},{-78.7 + rng.uniform(0, 0.1)!r},{t}")
    lines[4096] = '"u\n9",35.75,-78.65,1521000000'
    lines[5000] = ""
    lines[6000] = "u1,35.75"
    lines[7000] += "\r"
    lines[8192] = 'u2,"35.75",-78.65,"15210\n00060"'
    path.write_text("\n".join(lines) + "\n")


PARSE_CASES = {
    "quoted": ('user_id,lat,lon,timestamp',
               ['"u1","35.78","-78.64","1521120600"', '"u,2",35.78,-78.64,1521120601',
                '"u\n3",35.79,-78.65,1521120602', 'u1,"35.7""8",-78.64,1521120603']),
    "reordered": ('timestamp,lon,user_id,lat',
                  ['1521120600,-78.64,u1,35.78', '1521117000,-78.65,u1,35.79',
                   '1521117000,-78.66,u2,35.70']),
    "extra_columns": ('id,user_id,lat,lon,speed,timestamp,lat',
                      ['1,u1,0,-78.64,3.5,1521120600,35.78', '2,u2,0,-78.65,,1521117000,35.79',
                       '3,u1,0,-78.66,1,1521117000,95.0']),
    "short_and_long_rows": ('user_id,lat,lon,timestamp',
                            ['u1,35.78,-78.64,1521120600', 'u1,35.78', 'u1',
                             'u2,35.78,-78.64,1521120600,extra,fields',
                             'u2,35.79,-78.64,1521120700', 'u3,35.79,-78.64,1521120800']),
    "empty_user": ('user_id,lat,lon,timestamp',
                   [',35.78,-78.64,1521120600', 'u1,35.78,-78.64,1521120600',
                    ' ,35.78,-78.64,1521120601', 'u1,35.79,-78.64,1521120602']),
    "coordinates": ('user_id,lat,lon,timestamp',
                    ['u1,nan,-78.64,1521120600', 'u1,35.78,inf,1521120601',
                     'u1,-inf,-78.64,1521120602', 'u1,90.5,-78.64,1521120603',
                     'u1,35.78,-180.5,1521120604', 'u1, 35.78 ,-78.64,1521120605',
                     'u1,1_0,1e1,1521120606', 'u1,90,180,1521120607', 'u1,-90,-180,1521120608',
                     'u1,35.78,-78.64,1521120609', 'u1,0x10,-78.64,1521120610',
                     'u1,35.78,-78.64, 1521120611.5', 'u1,35.78,-78.64,1521120612',
                     'u1,35.78,-78.64,1521120613']),
    "iso": ('user_id,lat,lon,timestamp',
            ['u1,35.78,-78.64,2018-03-15T13:30:00Z', 'u1,35.79,-78.65,2018-03-15T12:00:00z',
             'u2,35.70,-78.60,2018-03-15T09:00:00-05:00', 'u2,35.70,-78.60, 2018-03-15T09:00:00 ',
             'u3,35.70,-78.60,2018-03-15T09:00:00.250+05:30', 'u3,35.71,-78.60,2018-03-15',
             'u3,35.72,-78.60,1521120600']),
    "first_row_malformed_iso": ('user_id,lat,lon,timestamp',
                                ['u1,bad,-78.64,2018-03-15T13:30:00Z',
                                 'u1,35.78,-78.64,2018-03-15T14:30:00Z',
                                 'u1,35.78,-78.64,2018-03-15T15:30:00Z',
                                 'u1,35.78,-78.64,1521120600']),
    "first_row_unparseable": ('user_id,lat,lon,timestamp',
                              ['u1,35.78,-78.64,garbage', 'u1,35.78', 'u1,35.78,-78.64,1521120600',
                               'u1,35.78,-78.64,1521120660',
                               'u1,35.78,-78.64,2018-03-15T15:30:00Z']),
    "weekend": ('user_id,lat,lon,timestamp',
                ['u1,35.78,-78.64,2018-03-15T13:30:00Z', 'u1,35.78,-78.64,2018-03-17T13:30:00Z',
                 'u2,35.78,-78.64,2018-03-17T01:00:00Z', 'u3,35.78,-78.64,2018-03-18T23:30:00Z',
                 'u3,35.78,-78.64,2018-03-16T23:30:00Z']),
    "mostly_malformed": ('user_id,lat,lon,timestamp',
                         ['u1,bad,-78.64,1521120600', 'u1,35.78,-78.64,1521120600',
                          'u1,35.78,bad,1521120600']),
    "no_rows": ('user_id,lat,lon,timestamp', []),
}


def crlf_copy(path):
    """A copy of a text file with Windows line endings."""
    copy = path.with_name("crlf_" + path.name)
    copy.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return copy


class TestParseGpsMatchesRowLoop:
    """parse_gps against the per-row csv.DictReader loop it replaced."""

    @staticmethod
    def check(path, **kwargs):
        try:
            ref_users, ref_malformed = oracle_parse_gps(path, **kwargs)
        except DataError:
            with pytest.raises(DataError):
                parse_gps(path, **kwargs)
            return
        users, malformed = parse_gps(path, **kwargs)
        assert malformed == ref_malformed
        assert list(users) == sorted(ref_users)
        assert {u: [(p.lat, p.lon, p.t) for p in users[u]] for u in users} == ref_users
        assert len(users.points) == sum(len(p) for p in ref_users.values())

    @pytest.mark.parametrize("case", sorted(PARSE_CASES))
    def test_crafted_file(self, tmp_path, case):
        header, rows = PARSE_CASES[case]
        f = tmp_path / "gps.csv"
        write_gps(f, rows, header=header)
        for path in (f, crlf_copy(f)):
            for tz in ("UTC", "UTC+8", "America/New_York"):
                self.check(path, weekdays_only=True, tz=tz)
            self.check(path)

    def test_file_longer_than_a_chunk(self, tmp_path):
        f = tmp_path / "gps.csv"
        big_gps_file(f)
        for path in (f, crlf_copy(f)):
            self.check(path)
            self.check(path, weekdays_only=True, tz="UTC-05:00")

    def test_bare_carriage_return_in_a_field(self, tmp_path):
        f = tmp_path / "gps.csv"
        write_gps(f, ["u1,35.78,-78.64,1521120600", '"u\r2",35.78,-78.64,1521120601',
                      "u1,35.7\r8,-78.64,1521120602", "u1,35.78,-78.64,1521120603\r",
                      "u3,35.79,-78.64,1521120604"])
        for path in (f, crlf_copy(f)):
            self.check(path)

    def test_crlf_lines_skip_the_csv_module(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        f = tmp_path / "gps.csv"
        write_gps(f, [f"u{i % 5},{35.7 + rng.uniform(0, 0.1)!r},-78.6,{1521000000 + i}"
                      for i in range(9000)])
        f = crlf_copy(f)
        reader, calls = csv.reader, []
        monkeypatch.setattr(csv, "reader",
                            lambda *args: calls.append(args) or reader(*args))
        parse_gps(f)
        assert len(calls) == 1  # the header row only
        monkeypatch.undo()
        self.check(f)

    def test_non_finite_or_undatable_times_are_malformed(self, tmp_path):
        # the row loop kept these and failed later, in the weekday filter
        # or the hour buckets
        f = tmp_path / "gps.csv"
        write_gps(f, ["u1,35.78,-78.64,1521120600", "u1,35.78,-78.64,inf",
                      "u1,35.78,-78.64,nan", "u1,35.78,-78.64,1e20",
                      "u1,35.78,-78.64,1521120660", "u1,35.78,-78.64,1521120720"])
        users, malformed = parse_gps(f, weekdays_only=True)
        assert malformed == 3
        assert [p.t for p in users["u1"]] == [1521120600.0, 1521120660.0, 1521120720.0]


def oracle_by_user(points, dr, tr):
    return [stay for u in np.unique(points.user)
            for stay in oracle_detect(points[points.user == u], dr, tr)]


class TestDetectActivitiesAtScale:
    """Long trajectories: stays longer than the vectorized passes, and none."""

    @staticmethod
    def check(points, dr=200.0, tr=1200.0):
        acts = detect_activities(points, dr, tr)
        ref = oracle_by_user(points, dr, tr)
        assert [(a.lat, a.lon, a.t_a, a.t_l) for a in acts] == ref
        return acts

    def test_stationary_user(self):
        rng = np.random.default_rng(0)
        jitter = rng.uniform(-1e-4, 1e-4, size=(5000, 2))
        pts = track([(35.78 + a, -78.64 + b, 60.0 * i) for i, (a, b) in enumerate(jitter)])
        assert len(self.check(pts)) == 1

    def test_always_moving_user(self):
        pts = track([(35.78 + 0.003 * i, -78.64, 600.0 * i) for i in range(5000)])
        assert len(self.check(pts)) == 0

    def test_stays_never_cross_users(self):
        rows = []
        for user in range(4):
            walk = random_walk(user, n=300, step_scale=0.0005)
            rows += [(user, p.lat, p.lon, p.t) for p in walk]
        acts = self.check(records(rows, POINT_DTYPE))
        assert set(acts.user.tolist()) == {0, 1, 2, 3}

    def test_radius_equal_to_a_distance(self):
        # numpy's sin and cos put this pair one ulp further apart than
        # haversine_m does (on x86-64 with numpy 2.4)
        a = (35.78051614318667, -78.64052060065737, 0.0)
        b = (35.781242229352664, -78.63743668152684, 1300.0)
        d = haversine_m(GeoPoint(*a[:2]), GeoPoint(*b[:2]))
        # a point exactly at the radius is within it
        assert len(detect_activities(track([a, b]), d, 1200.0)) == 1
        assert len(detect_activities(track([a, b]), np.nextafter(d, 0.0), 1200.0)) == 0

    def test_stays_around_the_pass_cap(self):
        # stays of lengths on both sides of STAY_PASSES and of the
        # doubling scan windows, each ended by a jump
        rows, t, lat = [], 0.0, 35.70
        for length in (1, 2, 31, 32, 33, 34, 35, 64, 65, 66, 97, 98, 99, 161, 200, 3):
            for _ in range(length):
                rows.append((lat, -78.64, t))
                t += 60.0
            lat += 0.01
        acts = self.check(track(rows), tr=60.0)
        assert len(acts) == 15

    def test_stays_of_mixed_lengths_in_one_call(self):
        # centroids summed together over stays of very different lengths,
        # jittered so that the order of the additions shows
        rng = np.random.default_rng(5)
        rows, t, lat = [], 0.0, 35.70
        for length in (257, 3, 256, 700, 2, 1):
            for _ in range(length):
                rows.append((lat + rng.uniform(-1e-4, 1e-4),
                             -78.64 + rng.uniform(-1e-4, 1e-4), t))
                t += 60.0
            lat += 0.01
        acts = self.check(track(rows), tr=60.0)
        assert len(acts) == 5

    def test_users_out_of_order_rejected(self):
        pts = records([(1, 35.78, -78.64, 0.0), (0, 35.78, -78.64, 10.0)], POINT_DTYPE)
        with pytest.raises(ValueError):
            detect_activities(pts)


# what one chunk of CSV lines takes while it is split and converted,
# about 3 MB for 4096 lines of the trace below
CHUNK_ALLOWANCE = 3_000_000


@pytest.fixture(scope="module")
def long_trace(tmp_path_factory):
    """240k fixes, in time order across 480 users: one a minute, each
    user dwelling 30 fixes at a place, jittered by about 10 m."""
    rng = np.random.default_rng(11)
    users, fixes = 480, 500
    n = users * fixes
    user = np.arange(n) % users
    step = np.arange(n) // users
    place = step // 30 + user
    lat = 35.70 + 0.002 * (place % 50) + rng.uniform(-1e-4, 1e-4, n)
    lon = -78.70 + 0.002 * (place % 37) + rng.uniform(-1e-4, 1e-4, n)
    t = 1520000000 + 60 * step
    path = tmp_path_factory.mktemp("long_trace") / "gps.csv"
    with open(path, "w") as fh:
        fh.write("user_id,lat,lon,timestamp\n")
        fh.writelines(map("u{},{!r},{!r},{}\n".format, user.tolist(), lat.tolist(),
                          lon.tolist(), t.tolist()))
    order = np.lexsort((t, user))
    points = np.rec.fromarrays([user[order], lat[order], lon[order], t[order]],
                               dtype=POINT_DTYPE)
    return path, points


def traced_peak(fn, *args):
    """fn(*args), and how far its allocations peaked above those before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


class TestIngestMemory:
    """The ingest temporaries are bounded by the points, not copies of them."""

    def test_parse_peak(self, long_trace):
        path, points = long_trace
        (trajectories, _), peak = traced_peak(parse_gps, path)
        assert len(trajectories.points) == len(points)
        assert peak <= 2.2 * len(points) * POINT_DTYPE.itemsize + CHUNK_ALLOWANCE

    def test_detect_activities_peak(self, long_trace):
        _, points = long_trace
        stays, peak = traced_peak(detect_activities, points)
        assert len(stays) > 0
        assert peak <= 1.6 * points.nbytes + CHUNK_ALLOWANCE


def near_boundaries(rng):
    """Random epochs, and epochs within a microsecond of hour and day edges."""
    t = list(rng.uniform(-2e9, 4e9, 2000))
    for edge in rng.integers(-500000, 1000000, 200) * 3600:
        for dt_s in (-1e-6, -6e-7, -5e-7, -4e-7, -1e-7, 0.0, 1e-7, 4e-7, 5e-7, 1e-6):
            t.append(float(edge) + dt_s)
    return np.array(t)


class TestLocalHourWeekday:
    @pytest.mark.parametrize("tz", ["UTC", "UTC+8", "UTC-05:00", "UTC+05:30"])
    def test_fixed_offsets_match_datetime(self, tz):
        zone = parse_timezone(tz)
        t = near_boundaries(np.random.default_rng(0))
        hour, weekday = local_hour_weekday(t, zone)
        stamps = [dt.datetime.fromtimestamp(x, zone) for x in t.tolist()]
        assert hour.tolist() == [s.hour for s in stamps]
        assert weekday.tolist() == [s.weekday() for s in stamps]

    def test_iana_zone_across_dst_switch(self):
        # New York moved from UTC-5 to UTC-4 at 07:00 UTC on 2018-03-11
        before = epoch_at("2018-03-11T06:30:00+00:00")  # 01:30 EST
        after = epoch_at("2018-03-11T07:30:00+00:00")   # 03:30 EDT
        hap = build_hap_matrix(trips([(KIND_LEAVING, 0, 1, before),
                                      (KIND_ARRIVING, 1, 0, after)]),
                               r=2, tz="America/New_York")
        dense = hap.data.toarray()
        assert dense.sum() == 2
        assert dense[row_index(hap, KIND_LEAVING, 1, 0), 1] == 1
        assert dense[row_index(hap, KIND_ARRIVING, 3, 1), 0] == 1

    def test_unknown_kind_and_undatable_time_rejected(self):
        bad_kind = records([(2, 0, 1, 0.0)], TRIP_DTYPE)
        with pytest.raises(ValueError):
            build_hap_matrix(bad_kind, r=2)
        with pytest.raises(ValueError):
            build_hap_matrix(trips([(KIND_LEAVING, 0, 1, float("nan"))]), r=2)
