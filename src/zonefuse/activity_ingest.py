"""GPS trajectory ingestion into the human activity pattern matrix.

Raw per-user GPS points are reduced to activities (stays of at least a
minimum duration within a maximum roaming radius), consecutive activities
become leaving/arriving trip records, and trip records are counted into a
sparse matrix with one row per (kind, local hour, origin region) and one
column per destination region.
"""
from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone, tzinfo

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .geo_grid import GeoPoint, GridIndex, haversine_m
from .sparse_io import load_coo, save_coo

logger = logging.getLogger(__name__)

KIND_LEAVING = "leaving"
KIND_ARRIVING = "arriving"
KINDS = (KIND_LEAVING, KIND_ARRIVING)

DEFAULT_STAY_DISTANCE_M = 200.0
DEFAULT_STAY_DURATION_S = 1200.0

HOURS_PER_DAY = 24


@dataclass(frozen=True)
class TrajPoint:
    """One GPS record; t is epoch seconds UTC."""

    lat: float
    lon: float
    t: float


@dataclass(frozen=True)
class HumanActivity:
    """A detected stay: centroid location, arrival and leave times."""

    lat: float
    lon: float
    t_a: float
    t_l: float

    def __post_init__(self):
        if self.t_l < self.t_a:
            raise ValueError(f"leave time {self.t_l} before arrival {self.t_a}")


@dataclass(frozen=True)
class ActivityInfo:
    """One trip record: kind is 'leaving' (timed at departure) or 'arriving'."""

    kind: str
    origin: int
    dest: int
    t: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown activity kind {self.kind!r}")


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


def _parse_timestamp(raw: str, epoch_mode: bool) -> float:
    if epoch_mode:
        return float(raw)
    s = raw.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def parse_gps(path, weekdays_only: bool = False,
              tz: str = "UTC") -> tuple[dict[str, list[TrajPoint]], int]:
    """Read a GPS CSV into per-user time-sorted trajectories.

    Expects a header row user_id,lat,lon,timestamp.  Timestamps are either
    ISO-8601 or epoch seconds; the format is detected once per file from
    the first parseable row.  Malformed rows are counted and skipped, but
    a file more than half malformed raises DataError.

    Returns (trajectories keyed by user id, number of malformed rows).
    """
    zone = parse_timezone(tz)
    users: dict[str, list[TrajPoint]] = {}
    malformed = 0
    total = 0
    epoch_mode: bool | None = None
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read GPS file {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        expected = {"user_id", "lat", "lon", "timestamp"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise DataError(f"{path}: header must contain {sorted(expected)}")
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
                        _parse_timestamp(raw_ts, epoch_mode=False)
                        epoch_mode = False
                t = _parse_timestamp(raw_ts, epoch_mode)
                lat = float(row["lat"])
                lon = float(row["lon"])
                GeoPoint(lat, lon)
                user = row["user_id"]
                if not user:
                    raise ValueError("missing user_id")
            except (TypeError, ValueError, KeyError):
                malformed += 1
                continue
            if weekdays_only and datetime.fromtimestamp(t, zone).weekday() >= 5:
                continue
            users.setdefault(user, []).append(TrajPoint(lat, lon, t))
    if total > 0 and malformed * 2 > total:
        raise DataError(f"{path}: {malformed} of {total} rows malformed")
    if malformed:
        logger.info("parse_gps skipped %d of %d malformed rows", malformed, total)
    for pts in users.values():
        pts.sort(key=lambda p: p.t)
    return users, malformed


def detect_activities(points: list[TrajPoint],
                      max_distance_m: float = DEFAULT_STAY_DISTANCE_M,
                      min_duration_s: float = DEFAULT_STAY_DURATION_S) -> list[HumanActivity]:
    """Detect stays in one time-sorted trajectory.

    Scans with an anchor point: the stay span extends while points remain
    within max_distance_m of the anchor, an activity is emitted when the
    span lasts at least min_duration_s, and the scan resumes at the first
    point beyond the radius.  Centroids are arithmetic means.
    """
    acts: list[HumanActivity] = []
    n = len(points)
    k = 0
    while k < n:
        anchor = GeoPoint(points[k].lat, points[k].lon)
        m = k
        while m + 1 < n:
            nxt = points[m + 1]
            if nxt.t < points[m].t:
                raise ValueError("trajectory points are not time-sorted")
            if haversine_m(anchor, GeoPoint(nxt.lat, nxt.lon)) > max_distance_m:
                break
            m += 1
        if points[m].t - points[k].t >= min_duration_s:
            span = points[k:m + 1]
            acts.append(HumanActivity(
                lat=sum(p.lat for p in span) / len(span),
                lon=sum(p.lon for p in span) / len(span),
                t_a=points[k].t,
                t_l=points[m].t,
            ))
        k = m + 1
    return acts


def to_activity_infos(activities: list[HumanActivity],
                      grid: GridIndex) -> tuple[list[ActivityInfo], int]:
    """Turn one user's activity sequence into leaving/arriving trip records.

    Activities whose centroid falls outside the grid are dropped first and
    counted; each remaining consecutive pair (a, b) yields a leaving record
    timed at a's departure and an arriving record timed at b's arrival.
    """
    dropped = 0
    located: list[tuple[HumanActivity, int]] = []
    for act in activities:
        col = grid.column_of_point(GeoPoint(act.lat, act.lon))
        if col is None:
            dropped += 1
        else:
            located.append((act, col))
    infos: list[ActivityInfo] = []
    for (a, ca), (b, cb) in zip(located, located[1:]):
        infos.append(ActivityInfo(KIND_LEAVING, ca, cb, a.t_l))
        infos.append(ActivityInfo(KIND_ARRIVING, ca, cb, b.t_a))
    return infos, dropped


@dataclass
class HapMatrix:
    """Sparse trip-count matrix of shape (2 * s * r, r).

    Row layout: the leaving block (s * r rows) then the arriving block,
    each ordered hour-major with the origin region inside the hour, so
    row = kind_offset + hour * r + origin.  Column is the destination
    region.
    """

    data: sp.csr_array
    r: int
    s: int = HOURS_PER_DAY
    kinds: tuple[str, str] = KINDS
    tz: str = "UTC"

    @property
    def q(self) -> int:
        return 2 * self.s * self.r

    def row_index(self, kind: str, hour: int, origin: int) -> int:
        if kind not in self.kinds:
            raise ValueError(f"unknown kind {kind!r}")
        if not 0 <= hour < self.s:
            raise ValueError(f"hour {hour} outside [0, {self.s})")
        if not 0 <= origin < self.r:
            raise ValueError(f"origin {origin} outside [0, {self.r})")
        return self.kinds.index(kind) * self.s * self.r + hour * self.r + origin

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
        data = load_coo(coo_path, (meta["q"], meta["r"]))
        return cls(data=data, r=meta["r"], s=meta["s"], kinds=tuple(meta["kinds"]),
                   tz=meta["timezone"])


def build_hap_matrix(infos: list[ActivityInfo], r: int,
                     tz: str = "UTC") -> HapMatrix:
    """Count trip records into the activity matrix.

    The hour bucket is the local-time hour of each record under tz.
    """
    if r <= 0:
        raise ValueError(f"region count {r} must be positive")
    zone = parse_timezone(tz)
    s = HOURS_PER_DAY
    rows = np.empty(len(infos), dtype=np.int64)
    cols = np.empty(len(infos), dtype=np.int64)
    for i, info in enumerate(infos):
        if not (0 <= info.origin < r and 0 <= info.dest < r):
            raise ValueError(f"region index out of range in {info}")
        hour = datetime.fromtimestamp(info.t, zone).hour
        offset = 0 if info.kind == KIND_LEAVING else s * r
        rows[i] = offset + hour * r + info.origin
        cols[i] = info.dest
    data = sp.coo_array((np.ones(len(infos)), (rows, cols)), shape=(2 * s * r, r))
    return HapMatrix(data=sp.csr_array(data), r=r, s=s, tz=tz)
