"""Geohash grid segmentation of a study area.

A study area is cut into a regular grid by encoding every location to a
base-32 geohash string of a fixed length (the grid level).  Each distinct
string names one rectangular cell; the cells of the study bounding box are
enumerated row-major and assigned stable column indices that the rest of
the pipeline uses to address regions.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

_BASE32 = "0123456789bcdefghjkmnpqrstuvwxyz"
_BASE32_INDEX = {ch: i for i, ch in enumerate(_BASE32)}

EARTH_RADIUS_M = 6_371_000.0

MIN_LEVEL = 1
MAX_LEVEL = 12


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 coordinate pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinate ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True)
class CellId:
    """A grid cell named by its geohash code; level equals the code length."""

    code: str
    level: int

    def __post_init__(self):
        if not MIN_LEVEL <= self.level <= MAX_LEVEL:
            raise ValueError(f"level {self.level} outside [{MIN_LEVEL}, {MAX_LEVEL}]")
        if len(self.code) != self.level:
            raise ValueError(f"code {self.code!r} has length {len(self.code)}, expected {self.level}")
        for ch in self.code:
            if ch not in _BASE32_INDEX:
                raise ValueError(f"code {self.code!r} contains non-base32 character {ch!r}")

    @classmethod
    def of(cls, code: str) -> "CellId":
        return cls(code, len(code))


@dataclass(frozen=True)
class Box:
    """A latitude/longitude axis-aligned rectangle."""

    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def contains(self, p: GeoPoint) -> bool:
        return (self.min_lat <= p.lat <= self.max_lat
                and self.min_lon <= p.lon <= self.max_lon)

    def center(self) -> GeoPoint:
        return GeoPoint((self.min_lat + self.max_lat) / 2.0,
                        (self.min_lon + self.max_lon) / 2.0)


def _bit_split(level: int) -> tuple[int, int]:
    """Number of (lat, lon) bits at a level; interleaving starts with lon."""
    total = 5 * level
    lat_bits = total // 2
    return lat_bits, total - lat_bits


def cell_spans(level: int) -> tuple[float, float]:
    """Angular (lat, lon) extent in degrees of one cell at a level."""
    lat_bits, lon_bits = _bit_split(level)
    return 180.0 / (1 << lat_bits), 360.0 / (1 << lon_bits)


def _axis_index(value: float, lo: float, hi: float, bits: int) -> int:
    # Bisection with >= keeps boundary points in the upper cell, so every
    # cell is half-open lower-inclusive; the world edge clamps into the
    # last cell because no midpoint exceeds it.
    idx = 0
    for _ in range(bits):
        mid = (lo + hi) / 2.0
        idx <<= 1
        if value >= mid:
            idx |= 1
            lo = mid
        else:
            hi = mid
    return idx


def _cell_coords(p: GeoPoint, level: int) -> tuple[int, int]:
    """Integer (row, col) of the cell containing p at a level."""
    lat_bits, lon_bits = _bit_split(level)
    return (_axis_index(p.lat, -90.0, 90.0, lat_bits),
            _axis_index(p.lon, -180.0, 180.0, lon_bits))


def _coords_to_code(lat_idx: int, lon_idx: int, level: int) -> str:
    lat_bits, lon_bits = _bit_split(level)
    bits = 0
    li, gi = lat_bits - 1, lon_bits - 1
    for i in range(5 * level):
        bits <<= 1
        if i % 2 == 0:
            bits |= (lon_idx >> gi) & 1
            gi -= 1
        else:
            bits |= (lat_idx >> li) & 1
            li -= 1
    chars = []
    for i in range(level):
        shift = 5 * (level - 1 - i)
        chars.append(_BASE32[(bits >> shift) & 0x1F])
    return "".join(chars)


def _code_to_coords(code: str) -> tuple[int, int]:
    bits = 0
    for ch in code:
        try:
            bits = (bits << 5) | _BASE32_INDEX[ch]
        except KeyError:
            raise ValueError(f"invalid geohash character {ch!r} in {code!r}") from None
    level = len(code)
    lat_idx = lon_idx = 0
    for i in range(5 * level):
        bit = (bits >> (5 * level - 1 - i)) & 1
        if i % 2 == 0:
            lon_idx = (lon_idx << 1) | bit
        else:
            lat_idx = (lat_idx << 1) | bit
    return lat_idx, lon_idx


def encode(p: GeoPoint, level: int) -> CellId:
    """Encode a point to the geohash cell containing it.

    Args:
        p: the point to encode.
        level: geohash string length, 1 to 12.

    Returns:
        The CellId of the half-open (lower-inclusive) cell containing p.

    Examples:
        >>> encode(GeoPoint(57.64911, 10.40744), 11).code
        'u4pruydqqvj'
        >>> encode(GeoPoint(0.0, 0.0), 1).code
        's'
    """
    if not MIN_LEVEL <= level <= MAX_LEVEL:
        raise ValueError(f"level {level} outside [{MIN_LEVEL}, {MAX_LEVEL}]")
    lat_idx, lon_idx = _cell_coords(p, level)
    return CellId(_coords_to_code(lat_idx, lon_idx, level), level)


def decode(cell: CellId | str) -> Box:
    """Return the bounding box of a geohash cell."""
    code = cell.code if isinstance(cell, CellId) else cell
    if not MIN_LEVEL <= len(code) <= MAX_LEVEL:
        raise ValueError(f"code {code!r} has unsupported length {len(code)}")
    lat_idx, lon_idx = _code_to_coords(code)
    lat_span, lon_span = cell_spans(len(code))
    min_lat = -90.0 + lat_idx * lat_span
    min_lon = -180.0 + lon_idx * lon_span
    return Box(min_lat, min_lon, min_lat + lat_span, min_lon + lon_span)


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters on a spherical earth."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = phi2 - phi1
    dlmb = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


@dataclass
class GridIndex:
    """The enumerated cells of a study bounding box at one level.

    The cells form a full rectangle of shape (n_rows, n_cols) whose
    south-west cell sits at integer (row, col) `origin` on the level's
    lattice.  Cells are listed row-major: latitude rows south to north,
    each row west to east.  The list position of a cell is its region
    column index everywhere else in the pipeline.
    """

    bbox: Box
    level: int
    origin: tuple[int, int]
    shape: tuple[int, int]
    cells: list[CellId] = field(init=False)
    index: dict[CellId, int] = field(init=False)

    def __post_init__(self):
        self.cells = _rectangle_cells(self.level, self.origin, self.shape)
        self.index = {c: i for i, c in enumerate(self.cells)}

    def __len__(self) -> int:
        return len(self.cells)

    def column_of(self, cell: CellId) -> int | None:
        return self.index.get(cell)

    def column_of_point(self, p: GeoPoint) -> int | None:
        row, col = _cell_coords(p, self.level)
        row -= self.origin[0]
        col -= self.origin[1]
        n_rows, n_cols = self.shape
        if 0 <= row < n_rows and 0 <= col < n_cols:
            return row * n_cols + col
        return None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["column_index", "geohash", "min_lat", "min_lon", "max_lat", "max_lon"])
            for i, cell in enumerate(self.cells):
                box = decode(cell)
                w.writerow([i, cell.code, repr(box.min_lat), repr(box.min_lon),
                            repr(box.max_lat), repr(box.max_lon)])

    @classmethod
    def from_csv(cls, path) -> "GridIndex":
        """Reload a grid written by to_csv.

        The first and last cells fix the rectangle; a file listing any
        other cells or order than that rectangle row-major is rejected.
        """
        codes: list[str] = []
        with open(path, newline="") as fh:
            for i, row in enumerate(csv.DictReader(fh)):
                if int(row["column_index"]) != i:
                    raise ValueError(f"{path}: column_index out of order at row {i}")
                codes.append(row["geohash"])
        if not codes:
            raise ValueError(f"{path}: empty cell manifest")
        first, last = CellId.of(codes[0]), CellId.of(codes[-1])
        row0, col0 = _code_to_coords(first.code)
        row1, col1 = _code_to_coords(last.code)
        shape = (row1 - row0 + 1, col1 - col0 + 1)
        # checked before building, so a corrupt corner cannot ask for a
        # rectangle far larger than the file
        if (last.level != first.level or min(shape) < 1
                or shape[0] * shape[1] != len(codes)):
            raise ValueError(f"{path}: cells do not form a row-major rectangle")
        sw, ne = decode(first), decode(last)
        grid = cls(bbox=Box(sw.min_lat, sw.min_lon, ne.max_lat, ne.max_lon),
                   level=first.level, origin=(row0, col0), shape=shape)
        if [c.code for c in grid.cells] != codes:
            raise ValueError(f"{path}: cells do not form a row-major rectangle")
        return grid


def _rectangle_cells(level: int, origin: tuple[int, int],
                     shape: tuple[int, int]) -> list[CellId]:
    """The cells of a lattice rectangle, row-major from its south-west cell."""
    row0, col0 = origin
    n_rows, n_cols = shape
    return [CellId(_coords_to_code(lat_idx, lon_idx, level), level)
            for lat_idx in range(row0, row0 + n_rows)
            for lon_idx in range(col0, col0 + n_cols)]


def enumerate_cells(bbox: Box, level: int) -> GridIndex:
    """Enumerate all cells overlapping a bounding box, row-major.

    A cell is included when its half-open box overlaps the bbox with
    positive area, so a bbox flush with cell edges yields exactly the
    tiling cells and nothing beyond them.

    Args:
        bbox: study area; must have positive extent on both axes.
        level: geohash level of the grid.

    Returns:
        A GridIndex whose cells tile the bbox.
    """
    if not MIN_LEVEL <= level <= MAX_LEVEL:
        raise ValueError(f"level {level} outside [{MIN_LEVEL}, {MAX_LEVEL}]")
    if not (bbox.min_lat < bbox.max_lat and bbox.min_lon < bbox.max_lon):
        raise ValueError("empty bounding box")
    sw = GeoPoint(bbox.min_lat, bbox.min_lon)
    ne = GeoPoint(bbox.max_lat, bbox.max_lon)
    lat_lo, lon_lo = _cell_coords(sw, level)
    lat_hi, lon_hi = _cell_coords(ne, level)
    lat_span, lon_span = cell_spans(level)
    # Midpoints in the bisection are exact dyadic multiples of the cell
    # span, so an upper bbox edge flush with a cell boundary compares
    # equal here and that zero-overlap cell is dropped.
    if lat_hi > lat_lo and -90.0 + lat_hi * lat_span >= ne.lat:
        lat_hi -= 1
    if lon_hi > lon_lo and -180.0 + lon_hi * lon_span >= ne.lon:
        lon_hi -= 1
    return GridIndex(bbox=bbox, level=level, origin=(lat_lo, lon_lo),
                     shape=(lat_hi - lat_lo + 1, lon_hi - lon_lo + 1))
