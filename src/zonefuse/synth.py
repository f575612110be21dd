"""Seeded synthetic city generator.

Builds a rectangular geohash grid with planted functional zones, then
writes the three inputs the pipeline ingests: a POI table drawn from
per-zone category distributions over a Bernoulli-chosen subset of
regions, a GPS log simulated as per-user stay sequences whose region
transitions follow a zone-pair hourly rate table, and the ground-truth
labels.  One planted zone can carry an all-zero POI distribution; its
regions then never produce POIs, which reproduces the situation where
most of the map has activity data but no venue data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .config import PipelineConfig
from .geo_grid import Box, GridIndex, cell_spans, enumerate_cells, save_labels
from .poi_ingest import DEFAULT_CATEGORIES

SIM_START_EPOCH = 1520208000  # 2018-03-05 00:00:00 UTC, a Monday

METERS_PER_DEG_LAT = 111320.0

# stays jitter a few tens of meters; successive stays in one region sit on
# opposite sides of the center so they read as separate visits
POINT_JITTER_M = 30.0
STAY_OFFSET_LON_M = 220.0
STAY_OFFSET_LAT_M = 100.0
CELL_MARGIN = 0.25

STAY_SECONDS = (1800.0, 7200.0)
TRAVEL_SECONDS = (600.0, 1500.0)
POINT_STEP_S = 600.0


@dataclass
class SynthCitySpec:
    """Layout and rates for one synthetic city."""

    width: int = 32
    height: int = 32
    n_zones: int = 4
    poi_dists: np.ndarray = field(default=None)   # n_zones x n_categories
    trip_rates: np.ndarray = field(default=None)  # n_zones x n_zones x 24
    obs_rate: float = 0.10
    n_users: int = 2000
    seed: int = 0
    level: int = 6
    days: int = 2
    # the same for every city: the point the grid snaps to, the mean POI
    # count of a selected region and the trip anchors of each zone
    origin_lat: ClassVar[float] = 35.78
    origin_lon: ClassVar[float] = -78.68
    pois_per_region: ClassVar[float] = 12.0
    anchors_per_zone: ClassVar[int] = 3

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must be at least 1x1")
        if not 2 <= self.n_zones <= self.width * self.height:
            raise ValueError(f"zone count {self.n_zones} unusable on this grid")
        if not 0.0 < self.obs_rate <= 1.0:
            raise ValueError(f"observation rate {self.obs_rate} outside (0, 1]")
        if self.n_users < 0 or self.days < 1:
            raise ValueError("need a non-negative user count and >= 1 days")
        if self.poi_dists is None:
            self.poi_dists = default_poi_dists(self.n_zones)
        self.poi_dists = np.asarray(self.poi_dists, dtype=np.float64)
        if self.trip_rates is None:
            self.trip_rates = default_trip_rates(self.n_zones)
        self.trip_rates = np.asarray(self.trip_rates, dtype=np.float64)
        if self.poi_dists.shape[0] != self.n_zones:
            raise ValueError("poi_dists rows must match n_zones")
        if self.trip_rates.shape != (self.n_zones, self.n_zones, 24):
            raise ValueError("trip_rates must be n_zones x n_zones x 24")
        if (self.poi_dists < 0).any() or (self.trip_rates < 0).any():
            raise ValueError("rates and distributions must be non-negative")


def default_poi_dists(n_zones: int) -> np.ndarray:
    """Distinct category mixes per zone; the last zone has no POIs at all."""
    n_cat = len(DEFAULT_CATEGORIES)
    blocks = {
        # commercial core: food, shopping, finance, entertainment
        0: {0: 6, 1: 4, 2: 4, 10: 3, 11: 3, 13: 2, 15: 5, 16: 2, 17: 2, 18: 2},
        # work / education: schools, light industry, logistics, auto trades
        1: {3: 3, 9: 6, 14: 2, 23: 3, 24: 3, 25: 5, 26: 4},
        # residential / outer: daily needs, care, recreation
        2: {4: 4, 5: 6, 6: 4, 7: 3, 8: 2, 12: 2, 19: 2, 20: 3, 21: 2, 27: 3},
    }
    dists = np.zeros((n_zones, n_cat))
    for z in range(n_zones - 1):
        for c, w in blocks[z % len(blocks)].items():
            dists[z, c] = w
        dists[z] /= dists[z].sum()
    return dists  # last zone row stays zero


def default_trip_rates(n_zones: int) -> np.ndarray:
    """Hourly zone-to-zone rates with commute and leisure rhythms.

    Every zone keeps a distinct self-loop profile so zones are separable
    from activity alone, including the POI-free last zone.
    """
    hours = np.arange(24)
    rates = np.zeros((n_zones, n_zones, 24))

    def bump(center, width=1.5, height=1.0):
        return height * np.exp(-0.5 * ((hours - center) / width) ** 2)

    for z in range(n_zones):
        # staggered base rhythms: each zone idles at a characteristic hour
        rates[z, z] = 0.3 + bump(6 + 4 * (z % 4), width=2.0, height=1.2)
    if n_zones >= 3:
        home, work, shop = 2 % n_zones, 1 % n_zones, 0
        rates[home, work] += bump(8, height=3.0)
        rates[work, home] += bump(17, height=2.5)
        rates[home, shop] += bump(11, height=1.5) + bump(19, height=1.5)
        rates[shop, home] += bump(13, height=1.5) + bump(21, height=1.5)
        rates[work, shop] += bump(12, height=1.0)
        rates[shop, work] += bump(13, height=1.0)
    if n_zones >= 4:
        # the POI-free zone trades with the work zone off-peak
        rates[3, 1] += bump(5, height=1.0) + bump(22, height=0.8)
        rates[1, 3] += bump(6, height=0.8)
    return rates


def planted_labels(width: int, height: int, n_zones: int) -> np.ndarray:
    """Row-major ground-truth labels: quadrants for 4 zones, vertical
    stripes otherwise.  Zones are contiguous blocks either way."""
    rows, cols = np.divmod(np.arange(height * width), width)
    if n_zones == 4:
        return ((cols >= width // 2) + 2 * (rows >= height // 2)).astype(np.int64)
    return np.minimum(cols * n_zones // width, n_zones - 1).astype(np.int64)


def city_grid(spec: SynthCitySpec) -> GridIndex:
    """The spec's grid, snapped so the bbox is flush with cell edges."""
    lat_span, lon_span = cell_spans(spec.level)
    lat0 = -90.0 + math.floor((spec.origin_lat + 90.0) / lat_span) * lat_span
    lon0 = -180.0 + math.floor((spec.origin_lon + 180.0) / lon_span) * lon_span
    bbox = Box(lat0, lon0, lat0 + spec.height * lat_span,
               lon0 + spec.width * lon_span)
    grid = enumerate_cells(bbox, spec.level)
    if grid.shape != (spec.height, spec.width):
        raise AssertionError(f"snapped grid has shape {grid.shape}, "
                             f"expected {(spec.height, spec.width)}")
    return grid


def _cell_frames(grid: GridIndex) -> np.ndarray:
    """Per-cell (center_lat, center_lon, usable half spans in degrees)."""
    lo, hi = np.hsplit(grid.boxes(), 2)  # (min_lat, min_lon), (max_lat, max_lon)
    return np.hstack([(lo + hi) / 2.0, (hi - lo) * (0.5 - CELL_MARGIN)])


def _meters_to_deg(m_lat: float, m_lon: float, at_lat: float) -> tuple[float, float]:
    return (m_lat / METERS_PER_DEG_LAT,
            m_lon / (METERS_PER_DEG_LAT * math.cos(math.radians(at_lat))))


def gen_pois(spec: SynthCitySpec, grid: GridIndex, labels: np.ndarray,
             rng: np.random.Generator) -> list[tuple[float, float, str]]:
    """Draw POIs for a Bernoulli subset of regions from the zone mixes.

    Regions of an all-zero-distribution zone yield nothing even when
    selected, so the realized observed fraction sits below the nominal
    rate when such a zone exists."""
    frames = _cell_frames(grid)
    pois: list[tuple[float, float, str]] = []
    selected = rng.random(len(grid)) < spec.obs_rate
    for j in np.flatnonzero(selected):
        dist = spec.poi_dists[labels[j]]
        total = dist.sum()
        if total <= 0.0:
            continue
        count = 1 + rng.poisson(spec.pois_per_region)
        cats = rng.choice(len(dist), size=count, p=dist / total)
        lat_c, lon_c, half_lat, half_lon = frames[j]
        lats = lat_c + rng.uniform(-half_lat, half_lat, size=count)
        lons = lon_c + rng.uniform(-half_lon, half_lon, size=count)
        for c, lat, lon in zip(cats, lats, lons):
            pois.append((float(lat), float(lon), DEFAULT_CATEGORIES[int(c)]))
    return pois


def gen_gps(spec: SynthCitySpec, grid: GridIndex, labels: np.ndarray,
            rng: np.random.Generator) -> list[tuple[str, float, float, int]]:
    """Simulate per-user stay sequences as (user, lat, lon, epoch) rows.

    Each stay emits points every few minutes with jitter far below the
    stay radius; transitions pick the next zone from the hourly rate
    table (all-zero rows keep the user in place).  Within the chosen
    zone, trips route through a handful of fixed anchor regions, the way
    real flows concentrate on malls, campuses, and transit hubs: a user
    at an ordinary region heads to one of the target zone's anchors, and
    a user at an anchor heads to a uniform region of the target zone.
    Rows come out time-sorted per user.
    """
    frames = _cell_frames(grid)
    zone_regions = [np.flatnonzero(labels == z) for z in range(spec.n_zones)]
    anchors = [rng.choice(regions,
                          size=min(spec.anchors_per_zone, len(regions)),
                          replace=False)
               for regions in zone_regions]
    is_anchor = np.zeros(len(grid), dtype=bool)
    for zone_anchors in anchors:
        is_anchor[zone_anchors] = True
    end_epoch = SIM_START_EPOCH + spec.days * 86400
    rows: list[tuple[str, float, float, int]] = []
    for u in range(spec.n_users):
        user = f"u{u:05d}"
        cur = int(rng.integers(len(grid)))
        t = SIM_START_EPOCH + float(rng.uniform(0.0, 3600.0))
        side = 1.0
        while t < end_epoch:
            lat_c, lon_c, _, _ = frames[cur]
            dlat_off, dlon_off = _meters_to_deg(
                float(rng.uniform(-STAY_OFFSET_LAT_M, STAY_OFFSET_LAT_M)),
                side * STAY_OFFSET_LON_M, lat_c)
            duration = float(rng.uniform(*STAY_SECONDS))
            n_pts = int(duration // POINT_STEP_S) + 1
            jit = rng.uniform(-POINT_JITTER_M, POINT_JITTER_M, size=(n_pts, 2))
            for i in range(n_pts):
                djl, djn = _meters_to_deg(jit[i, 0], jit[i, 1], lat_c)
                rows.append((user, float(lat_c + dlat_off + djl),
                             float(lon_c + dlon_off + djn),
                             int(t + i * POINT_STEP_S)))
            t += duration
            hour = int(t // 3600) % 24
            rates = spec.trip_rates[labels[cur], :, hour]
            total = rates.sum()
            if total > 0.0:
                z_next = int(rng.choice(spec.n_zones, p=rates / total))
                pool = zone_regions[z_next] if is_anchor[cur] else anchors[z_next]
                cur = int(rng.choice(pool))
            side = -side
            t += float(rng.uniform(*TRAVEL_SECONDS))
    return rows


def gen_synthetic_city(spec: SynthCitySpec, out_dir) -> dict[str, Path]:
    """Write gps.csv, pois.csv, and truth_labels.csv under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = city_grid(spec)
    labels = planted_labels(spec.width, spec.height, spec.n_zones)
    rng = np.random.default_rng(spec.seed)

    pois = gen_pois(spec, grid, labels, rng)
    poi_path = out / "pois.csv"
    with open(poi_path, "w") as fh:
        fh.write("lat,lon,category\n")
        for lat, lon, cat in pois:
            fh.write(f"{lat!r},{lon!r},{cat}\n")

    gps = gen_gps(spec, grid, labels, rng)
    gps_path = out / "gps.csv"
    with open(gps_path, "w") as fh:
        fh.write("user_id,lat,lon,timestamp\n")
        for user, lat, lon, ts in gps:
            fh.write(f"{user},{lat!r},{lon!r},{ts}\n")

    truth_path = out / "truth_labels.csv"
    save_labels(truth_path, grid.codes, labels)
    return {"gps": gps_path, "pois": poi_path, "truth": truth_path}


def write_city_config(spec: SynthCitySpec, city_dir,
                      **overrides) -> Path:
    """Write a ready-to-run config next to the generated city files.

    Besides the grid geometry, the config pins solver weights chosen for
    these cities (lambda1 on held-out seeds); the library defaults suit
    the small matrices of the tests.  Any keyword override wins.
    """
    city_dir = Path(city_dir)
    bbox = city_grid(spec).bbox
    pairs = {
        "min_lat": repr(bbox.min_lat), "min_lon": repr(bbox.min_lon),
        "max_lat": repr(bbox.max_lat), "max_lon": repr(bbox.max_lon),
        "level": str(spec.level),
        "gps_path": "gps.csv", "poi_path": "pois.csv",
        "out_dir": "out",
        "zones": str(spec.n_zones),
        "seed": str(spec.seed),
        "lambda1": "3", "lambda2": "1e-3", "lambda3": "1e-3",
        "lambda4": "1.0", "lambda5": "3.0",
    }
    for key, value in overrides.items():
        pairs[key] = str(value)
    path = city_dir / "config.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()))
    # validate what we just wrote before handing it to the caller
    PipelineConfig.load(path)
    return path
