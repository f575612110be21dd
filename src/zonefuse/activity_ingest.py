"""GPS trajectory ingestion into the human activity pattern matrix.

Raw GPS points are reduced to activities (stays of at least a minimum
duration within a maximum roaming radius), consecutive activities of one
user become leaving/arriving trip records, and trip records are counted
into a sparse matrix with one row per (kind, local hour, origin region)
and one column per destination region.

Each step works on all users at once, on numpy record arrays rather than
one object per point: the points of every user sorted by (user, time)
(`POINT_DTYPE`), the stays found in them (`STAY_DTYPE`) and the trips
between consecutive stays (`TRIP_DTYPE`).
"""
from __future__ import annotations

import json
import logging
import re
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone, tzinfo
from itertools import compress
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataError
from .geo_grid import EARTH_RADIUS_M, GeoPoint, GridIndex, haversine_m, valid_points
from .sparse_io import (CooMatrix, convert_fields, open_table, read_columns, read_coo,
                        save_coo)

logger = logging.getLogger(__name__)

KIND_LEAVING = "leaving"
KIND_ARRIVING = "arriving"
KINDS = (KIND_LEAVING, KIND_ARRIVING)

DEFAULT_STAY_DISTANCE_M = 200.0
DEFAULT_STAY_DURATION_S = 1200.0

HOURS_PER_DAY = 24

# t is epoch seconds UTC; user indexes the sorted distinct user ids
POINT_DTYPE = np.dtype([("user", np.int64), ("lat", np.float64),
                        ("lon", np.float64), ("t", np.float64)])
# a stay: centroid, arrival time t_a and leave time t_l
STAY_DTYPE = np.dtype([("user", np.int64), ("lat", np.float64), ("lon", np.float64),
                       ("t_a", np.float64), ("t_l", np.float64)])
# a trip record: kind indexes KINDS; leaving records are timed at the
# departure, arriving records at the arrival
TRIP_DTYPE = np.dtype([("kind", np.int8), ("origin", np.int64),
                       ("dest", np.int64), ("t", np.float64)])

GPS_COLUMNS = ("user_id", "lat", "lon", "timestamp")
# the stay scan checks offsets 1..STAY_PASSES for every point at once;
# only an anchor whose stay outlasts them is scanned further on its own
STAY_PASSES = 32
# anchors per batch of those passes, so that their temporaries take a
# few MB however long the traces are
STAY_BLOCK = 16384

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# epoch seconds that datetime.fromtimestamp turns into a date under any
# UTC offset: years 1 to 9999, less a day at each end
_T_MIN = (datetime(1, 1, 2, tzinfo=timezone.utc) - _EPOCH).total_seconds()
_T_MAX = (datetime(9999, 12, 31, tzinfo=timezone.utc) - _EPOCH).total_seconds()


def parse_timezone(name: str) -> tzinfo:
    """Resolve a config timezone: 'UTC', a fixed offset, or an IANA name."""
    s = name.strip()
    if s.upper() == "UTC" or s == "":
        return timezone.utc
    m = re.fullmatch(r"(?:UTC)?([+-])(\d{1,2}):?(\d{2})?", s)
    if m:
        hours = int(m.group(2))
        minutes = int(m.group(3) or 0)
        if hours > 14 or minutes > 59:
            raise ConfigError(f"timezone offset {name!r} out of range")
        delta = timedelta(hours=hours, minutes=minutes)
        return timezone(delta if m.group(1) == "+" else -delta)
    try:
        from zoneinfo import ZoneInfo

        return ZoneInfo(s)
    except Exception as exc:
        raise ConfigError(f"unrecognized timezone {name!r}") from exc


def local_hour_weekday(t: np.ndarray, zone: tzinfo) -> tuple[np.ndarray, np.ndarray]:
    """Local hour and weekday (Monday 0) of epoch seconds under a zone.

    Both equal what `datetime.fromtimestamp(t, zone)` reads.  Fixed UTC
    offsets take integer arithmetic on the seconds; any other zone goes
    through one datetime per time.
    """
    t = np.asarray(t, dtype=np.float64)
    if isinstance(zone, timezone):
        # fromtimestamp rounds to the microsecond, half to even, before
        # it splits off the whole seconds
        frac, whole = np.modf(t)
        micros = np.round(frac * 1e6)
        seconds = whole.astype(np.int64) + (micros >= 1e6) - (micros < 0)
        seconds += int(zone.utcoffset(None).total_seconds())
        days, second_of_day = np.divmod(seconds, 86400)
        # 1970-01-01 was a Thursday
        return second_of_day // 3600, (days + 3) % 7
    stamps = [datetime.fromtimestamp(x, zone) for x in t.tolist()]
    return (np.array([d.hour for d in stamps], dtype=np.int64),
            np.array([d.weekday() for d in stamps], dtype=np.int64))


def _iso_seconds(raw: str) -> float:
    """Epoch seconds of an ISO-8601 timestamp; a naive one is UTC."""
    s = raw.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _is_epoch(stamps: list[str]) -> bool | None:
    """Whether the first timestamp that parses at all is epoch seconds."""
    for raw in stamps:
        try:
            float(raw)
            return True
        except ValueError:
            pass
        try:
            _iso_seconds(raw)
            return False
        except ValueError:
            pass
    return None


class Trajectories(Mapping):
    """The GPS points of every user in one record array.

    `points` (POINT_DTYPE) is sorted by user, then time, keeping file
    order among equal times; its `user` field indexes `users`, the
    distinct user ids in sorted order.  As a mapping, a user id reads
    that user's points, a view into `points`.
    """

    def __init__(self, users: list[str], points: np.recarray):
        self.users = users
        self.points = points
        bounds = np.searchsorted(points.user, np.arange(len(users) + 1)).tolist()
        self._spans = {u: (bounds[i], bounds[i + 1]) for i, u in enumerate(users)}

    def __getitem__(self, user: str) -> np.recarray:
        lo, hi = self._spans[user]
        return self.points[lo:hi]

    def __iter__(self):
        return iter(self.users)

    def __len__(self) -> int:
        return len(self.users)


def _read_points(fh, path, weekdays_only: bool,
                 zone: tzinfo) -> tuple[np.recarray, dict[str, int], int, int]:
    """The kept rows of an open GPS CSV, in file order.

    Returns (points, user codes, rows read, malformed rows): the `user`
    field of `points` holds each id's code in `codes`, numbered in
    first-seen order.
    """
    # every row ends at a line break (\n, \r or both) or at the end of
    # the file, so counting them bounds the row count; the capacity that
    # malformed or weekend rows leave is never written, so never resident
    capacity = 1
    for block in iter(lambda: fh.read(1 << 16), ""):
        capacity += block.count("\n")
        if "\r" in block:
            capacity += block.count("\r")
    fh.seek(0)
    points = np.recarray(capacity, dtype=POINT_DTYPE)
    filled = 0
    codes: dict[str, int] = {}
    malformed = 0
    total = 0
    epoch_mode: bool | None = None
    for users, lats, lons, stamps in read_columns(fh, path, GPS_COLUMNS):
        total += len(users)
        if epoch_mode is None:
            epoch_mode = _is_epoch(stamps)
        if epoch_mode is None:
            malformed += len(users)
            continue
        t, ok = convert_fields(stamps, float if epoch_mode else _iso_seconds)
        lat, ok_lat = convert_fields(lats, float)
        lon, ok_lon = convert_fields(lons, float)
        ok &= ok_lat & ok_lon & valid_points(lat, lon) & (t >= _T_MIN) & (t <= _T_MAX)
        ok &= np.fromiter(map(bool, users), bool, len(users))
        malformed += len(users) - int(np.count_nonzero(ok))
        if weekdays_only:
            ok[ok] = local_hour_weekday(t[ok], zone)[1] < 5
        users = list(compress(users, ok))
        for u in dict.fromkeys(users):
            codes.setdefault(u, len(codes))
        if filled + len(users) > capacity:
            raise DataError(f"{path} grew while it was read")
        rows = points[filled:filled + len(users)]
        rows.user = np.fromiter(map(codes.__getitem__, users), np.int64, len(users))
        rows.lat, rows.lon, rows.t = lat[ok], lon[ok], t[ok]
        filled += len(users)
        # the chunk's strings are not held while the next chunk is read
        del users, lats, lons, stamps
    return points[:filled], codes, total, malformed


def parse_gps(path, weekdays_only: bool = False,
              tz: str = "UTC") -> tuple[Trajectories, int]:
    """Read a GPS CSV into the time-sorted trajectories of all users.

    Expects a header row naming user_id, lat, lon and timestamp.
    Timestamps are either ISO-8601 or epoch seconds; the format is
    detected once per file from the first parseable row.  A row is
    malformed when a field fails to parse, the coordinates are not a
    valid GeoPoint, the user id is empty, or the time is not finite or
    beyond the dates datetime can represent.  Malformed rows are counted
    and skipped, but a file more than half malformed raises DataError.

    The rows go straight into one record array sized by the file's line
    breaks, which is then sorted in place, one field at a time.

    Returns (trajectories, number of malformed rows).
    """
    zone = parse_timezone(tz)
    with open_table(path, "GPS file") as fh:
        points, codes, total, malformed = _read_points(fh, path, weekdays_only, zone)
    if total > 0 and malformed * 2 > total:
        raise DataError(f"{path}: {malformed} of {total} rows malformed")
    if malformed:
        logger.info("parse_gps skipped %d of %d malformed rows", malformed, total)
    names = sorted(codes)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[codes[name] for name in names]] = np.arange(len(names))
    user, t = points.user, points.t
    user[:] = rank[user]
    order = np.lexsort((t, user))
    for name in POINT_DTYPE.names:
        points[name] = points[name][order]
    return Trajectories(names, points), malformed


def detect_activities(points: np.ndarray,
                      max_distance_m: float = DEFAULT_STAY_DISTANCE_M,
                      min_duration_s: float = DEFAULT_STAY_DURATION_S) -> np.recarray:
    """Detect the stays in the trajectories of all users.

    `points` has the fields of POINT_DTYPE, sorted by (user, t).  Each
    user's points are scanned with an anchor point: the stay span
    extends while points remain within max_distance_m of the anchor, an
    activity is emitted when the span lasts at least min_duration_s, and
    the scan resumes at the first point beyond the radius.  Centroids
    are arithmetic means, each stay's points added left to right, so they
    do not depend on the Python version (the builtin sum compensates its
    float additions from 3.12 on).

    Returns a STAY_DTYPE record array in (user, time) order.
    """
    user, lat, lon, t = (points[name] for name in POINT_DTYPE.names)
    n = len(t)
    same_user = user[1:] == user[:-1]
    if np.any(user[1:] < user[:-1]):
        raise ValueError("points are not sorted by user")
    if np.any(same_user & (t[1:] < t[:-1])):
        raise ValueError("trajectory points are not time-sorted")

    # a user's points are [starts[u], stops[u])
    starts = np.flatnonzero(np.concatenate(([True], ~same_user)))
    stops = np.append(starts[1:], n)

    def end_of(i: np.ndarray) -> np.ndarray:
        """One past the last point of each i's user."""
        return stops[np.searchsorted(starts, i, side="right") - 1]

    def beyond(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Whether haversine_m(point i, point j) > max_distance_m."""
        phi_i, phi_j = np.radians(lat[i]), np.radians(lat[j])
        dlmb = np.radians(lon[j] - lon[i])
        h = (np.sin((phi_j - phi_i) / 2.0) ** 2
             + np.cos(phi_i) * np.cos(phi_j) * np.sin(dlmb / 2.0) ** 2)
        d = 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))
        far = d > max_distance_m
        # numpy's sin and cos may round differently from the math
        # module's, so a distance this close to the radius is decided
        # by haversine_m itself
        for c in np.flatnonzero(np.abs(d - max_distance_m)
                                <= 1e-6 * (1.0 + max_distance_m)).tolist():
            a, b = int(i[c]), int(j[c])
            far[c] = haversine_m(GeoPoint(lat[a], lon[a]),
                                 GeoPoint(lat[b], lon[b])) > max_distance_m
        return far

    # nxt[i]: the first later point of i's user beyond the radius from i,
    # or the user's end; -1 while unknown.  The passes run over blocks of
    # STAY_BLOCK anchors, so their temporaries do not grow with n.
    nxt = np.full(n, -1, dtype=np.int64)
    for lo in range(0, n, STAY_BLOCK):
        i = np.arange(lo, min(lo + STAY_BLOCK, n))
        end = end_of(i)
        for offset in range(1, STAY_PASSES + 1):
            j = i + offset
            done = j >= end
            nxt[i[done]] = end[done]
            i, j, end = i[~done], j[~done], end[~done]
            far = beyond(i, j)
            nxt[i[far]] = j[far]
            i, end = i[~far], end[~far]
            if not i.size:
                break

    def first_beyond(k: int) -> int:
        """nxt[k] for an anchor still within the radius after the passes."""
        lo, stop = k + STAY_PASSES + 1, int(end_of(k))
        width = 2 * STAY_PASSES
        while lo < stop:
            j = np.arange(lo, min(lo + width, stop))
            far = beyond(np.full(j.size, k), j)
            if far.any():
                return int(j[far.argmax()])
            lo += width
            width *= 2
        return stop

    # the chain of anchors is sequential; a memoryview and an int array
    # keep it from boxing one Python int per point
    nxt_at = memoryview(nxt)
    anchors = array("q")
    k = 0
    while k < n:
        anchors.append(k)
        if nxt_at[k] < 0:
            nxt_at[k] = first_beyond(k)
        k = nxt_at[k]
    first = np.frombuffer(anchors, dtype=np.int64)
    last = nxt[first] - 1
    lasting = t[last] - t[first] >= min_duration_s
    first, last = first[lasting], last[lasting]

    size = last + 1 - first
    stays = np.recarray(len(first), dtype=STAY_DTYPE)
    stays.user = user[first]
    # a centroid is its stay's points added left to right, over their
    # count.  Longest first, the stays longer than o are a prefix, and
    # pass o adds point first + o to each of them at once
    desc = np.argsort(-size, kind="stable")
    size, head = size[desc], first[desc]
    # longer[o]: the number of stays longer than o
    longer = len(size) - np.cumsum(np.bincount(size))
    for name, column in (("lat", lat), ("lon", lon)):
        sums = np.zeros(len(size))
        for offset, c in enumerate(longer.tolist()):
            sums[:c] += column[head[:c] + offset]
        stays[name][desc] = sums / size
    stays.t_a = t[first]
    stays.t_l = t[last]
    return stays


def to_activity_infos(stays: np.ndarray,
                      grid: GridIndex) -> tuple[np.recarray, int]:
    """Turn the stays of all users into leaving/arriving trip records.

    `stays` has the fields of STAY_DTYPE in (user, time) order.  Stays
    whose centroid falls outside the grid are dropped first and counted;
    each remaining consecutive pair (a, b) of one user yields a leaving
    record timed at a's departure, then an arriving record timed at b's
    arrival.

    Returns (TRIP_DTYPE record array, number of stays dropped).
    """
    late = np.flatnonzero(stays["t_l"] < stays["t_a"])
    if late.size:
        raise ValueError(f"leave time {stays['t_l'][late[0]]} "
                         f"before arrival {stays['t_a'][late[0]]}")
    cols = grid.columns_of_points(stays["lat"], stays["lon"])
    inside = cols >= 0
    located = stays[inside]
    cols = cols[inside]
    dropped = len(stays) - len(located)
    # a: each located stay followed by a located stay of the same user
    a = np.flatnonzero(located["user"][1:] == located["user"][:-1])
    trips = np.recarray(2 * len(a), dtype=TRIP_DTYPE)
    trips.kind[0::2] = KINDS.index(KIND_LEAVING)
    trips.kind[1::2] = KINDS.index(KIND_ARRIVING)
    trips.origin = np.repeat(cols[a], 2)
    trips.dest = np.repeat(cols[a + 1], 2)
    trips.t[0::2] = located["t_l"][a]
    trips.t[1::2] = located["t_a"][a + 1]
    return trips, dropped


@dataclass
class HapMatrix:
    """Sparse trip-count matrix of shape (2 * s * r, r).

    Row layout: the leaving block (s * r rows) then the arriving block,
    each ordered hour-major with the origin region inside the hour, so
    row = kind_offset + hour * r + origin.  Column is the destination
    region.
    """

    data: CooMatrix
    r: int
    tz: str = "UTC"
    s: ClassVar[int] = HOURS_PER_DAY
    kinds: ClassVar[tuple[str, str]] = KINDS

    @property
    def q(self) -> int:
        return 2 * self.s * self.r

    def sparsity(self) -> float:
        return 1.0 - self.data.nnz / float(self.q * self.r)

    def save(self, coo_path, sidecar_path) -> None:
        save_coo(coo_path, self.data)
        sidecar = {"r": self.r, "s": self.s, "q": self.q, "kinds": list(self.kinds),
                   "timezone": self.tz, "nnz": int(self.data.nnz)}
        with open(sidecar_path, "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, coo_path, sidecar_path) -> "HapMatrix":
        with open(sidecar_path) as fh:
            meta = json.load(fh)
        if meta["s"] != cls.s or tuple(meta["kinds"]) != cls.kinds:
            raise ValueError(f"{sidecar_path}: layout s={meta['s']}, kinds="
                             f"{meta['kinds']} differs from s={cls.s}, "
                             f"kinds={list(cls.kinds)}")
        shape = (meta["q"], meta["r"])
        data = CooMatrix.from_triples(*read_coo(coo_path, shape), shape)
        return cls(data=data, r=meta["r"], tz=meta["timezone"])


def build_hap_matrix(trips: np.ndarray, r: int, tz: str = "UTC") -> HapMatrix:
    """Count trip records into the activity matrix.

    `trips` has the fields of TRIP_DTYPE.  The hour bucket is the
    local-time hour of each record under tz.
    """
    if r <= 0:
        raise ValueError(f"region count {r} must be positive")
    zone = parse_timezone(tz)
    s = HOURS_PER_DAY
    kind = np.asarray(trips["kind"], dtype=np.int64)
    origin = np.asarray(trips["origin"], dtype=np.int64)
    dest = np.asarray(trips["dest"], dtype=np.int64)
    t = np.asarray(trips["t"], dtype=np.float64)
    valid = ((kind >= 0) & (kind < len(KINDS)) & (origin >= 0) & (origin < r)
             & (dest >= 0) & (dest < r) & (t >= _T_MIN) & (t <= _T_MAX))
    if not valid.all():
        raise ValueError(f"trip {trips[np.argmin(valid)]}: unknown kind, region "
                         f"outside [0, {r}) or a time that is not a date")
    hour, _ = local_hour_weekday(t, zone)
    rows = kind * (s * r) + hour * r + origin
    data = CooMatrix.from_triples(rows, dest, np.ones(len(t)), (2 * s * r, r))
    return HapMatrix(data=data, r=r, tz=tz)
