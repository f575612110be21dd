"""Geohash grid segmentation of a study area.

A study area is cut into a regular grid by encoding every location to a
base-32 geohash string of a fixed length (the grid level).  Each distinct
string names one rectangular cell; the cells of the study bounding box are
enumerated row-major and assigned stable column indices that the rest of
the pipeline uses to address regions.

The region tables, `cells.csv` and the `labels.csv` of a labeling, are
written and read here, one row per region in column order.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

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


def valid_points(lat, lon) -> np.ndarray:
    """Mask of the (lat, lon) pairs that make a valid GeoPoint."""
    # NaN fails every comparison, infinities the ranges
    return (lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)


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


def _axis_indices(values, lo: float, hi: float, bits: int) -> np.ndarray:
    """Lattice index along one axis of each value in an array.

    Every cell is half-open lower-inclusive, so a point on a cell edge
    belongs to the upper cell; the world edge clamps into the last cell.
    """
    values = np.asarray(values, dtype=np.float64)
    n = 1 << bits
    span = (hi - lo) / n
    idx = np.clip(np.floor((values - lo) / span), 0, n - 1).astype(np.int64)
    # the quotient can round across an edge by one cell; the edges
    # lo + i * span are exact in float64, so comparing with them settles it
    idx -= values < lo + idx * span
    idx += (idx < n - 1) & (values >= lo + (idx + 1) * span)
    return idx


def _cell_coords(lat, lon, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer (row, col) arrays of the cells holding each point at a level."""
    lat_bits, lon_bits = _bit_split(level)
    return (_axis_indices(lat, -90.0, 90.0, lat_bits),
            _axis_indices(lon, -180.0, 180.0, lon_bits))


def _codes(rows: np.ndarray, cols: np.ndarray, level: int) -> list[str]:
    """Geohash codes of the lattice cells (rows[i], cols[i]) at a level.

    The bits interleave starting with longitude: one row of code bits per
    cell, longitude bits in the even columns, each five read as a digit.
    """
    lat_bits, lon_bits = _bit_split(level)
    bits = np.empty((len(rows), 5 * level), dtype=np.int64)
    bits[:, 0::2] = (cols[:, None] >> np.arange(lon_bits - 1, -1, -1)) & 1
    bits[:, 1::2] = (rows[:, None] >> np.arange(lat_bits - 1, -1, -1)) & 1
    digits = bits.reshape(-1, level, 5) @ np.array([16, 8, 4, 2, 1])
    chars = np.frombuffer(_BASE32.encode(), dtype=np.uint8)[digits]
    return chars.view(f"S{level}").ravel().astype(f"U{level}").tolist()


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
    rows, cols = _cell_coords([p.lat], [p.lon], level)
    return CellId(_codes(rows, cols, level)[0], level)


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
    lattice.  `codes` lists the cells' geohash codes row-major: latitude
    rows south to north, each row west to east.  The list position of a
    code is its region column index everywhere else in the pipeline.
    """

    bbox: Box
    level: int
    origin: tuple[int, int]
    shape: tuple[int, int]
    codes: list[str] = field(init=False)

    def __post_init__(self):
        self.codes = _codes(*self._coords(), self.level)

    def _coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Lattice (row, col) of every cell, row-major."""
        rows, cols = np.indices(self.shape, dtype=np.int64).reshape(2, -1)
        return rows + self.origin[0], cols + self.origin[1]

    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """min_lat and max_lat of each lattice row, south to north, and
        min_lon and max_lon of each column, west to east.

        The float operations are those of `decode`, so each value equals
        the one `decode` gives for a cell of that row or column.
        """
        lat_span, lon_span = cell_spans(self.level)
        min_lat = -90.0 + np.arange(self.origin[0], self.origin[0] + self.shape[0]) * lat_span
        min_lon = -180.0 + np.arange(self.origin[1], self.origin[1] + self.shape[1]) * lon_span
        return min_lat, min_lat + lat_span, min_lon, min_lon + lon_span

    def boxes(self) -> np.ndarray:
        """(n, 4) min_lat, min_lon, max_lat, max_lon of every cell, row-major,
        each value equal to the one `decode` gives for that cell."""
        min_lat, max_lat, min_lon, max_lon = self._edges()
        n_rows, n_cols = self.shape
        return np.column_stack([np.repeat(min_lat, n_cols), np.tile(min_lon, n_rows),
                                np.repeat(max_lat, n_cols), np.tile(max_lon, n_rows)])

    def box_reprs(self) -> tuple[list[str], list[str], list[str], list[str]]:
        """The repr of every cell's min_lat, min_lon, max_lat and max_lon,
        as four row-major lists, the `boxes()` values as text.

        Each corner value belongs to one lattice row or one column, so it
        is formatted once for that row or column.
        """
        min_lat, max_lat, min_lon, max_lon = (list(map(repr, a.tolist()))
                                              for a in self._edges())
        n_rows, n_cols = self.shape

        def by_row(texts: list[str]) -> list[str]:
            return np.repeat(np.array(texts, dtype=object), n_cols).tolist()

        return by_row(min_lat), min_lon * n_rows, by_row(max_lat), max_lon * n_rows

    def __len__(self) -> int:
        return len(self.codes)

    def columns_of_points(self, lat, lon) -> np.ndarray:
        """Column of the cell holding each point, or -1 outside the grid.

        Cells are located by `_cell_coords`, so cell edges and the world
        edge fall as they do for `encode`.  Raises ValueError when a pair
        is not a valid GeoPoint.
        """
        lat = np.asarray(lat, dtype=np.float64)
        lon = np.asarray(lon, dtype=np.float64)
        bad = np.flatnonzero(~valid_points(lat, lon))
        if bad.size:
            GeoPoint(float(lat[bad[0]]), float(lon[bad[0]]))  # raises, naming it
        row, col = _cell_coords(lat, lon, self.level)
        row, col = row - self.origin[0], col - self.origin[1]
        n_rows, n_cols = self.shape
        inside = (row >= 0) & (row < n_rows) & (col >= 0) & (col < n_cols)
        return np.where(inside, row * n_cols + col, -1)

    def to_csv(self, path) -> None:
        """Write cells.csv: column index, geohash and `box_reprs()` per cell."""
        _write_table(path, ("column_index", "geohash", "min_lat", "min_lon",
                            "max_lat", "max_lon"),
                     range(len(self)), self.codes, *self.box_reprs())

    @classmethod
    def from_csv(cls, path) -> "GridIndex":
        """Reload a grid written by to_csv.

        The first and last cells fix the rectangle; a file listing any
        other cells or order than that rectangle row-major is rejected,
        as `_read_table` rejects a malformed table.
        """
        (codes,) = _read_table(path, "geohash")
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
        if grid.codes != codes:
            raise ValueError(f"{path}: cells do not form a row-major rectangle")
        return grid


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
    rows, cols = _cell_coords([sw.lat, ne.lat], [sw.lon, ne.lon], level)
    (lat_lo, lat_hi), (lon_lo, lon_hi) = rows.tolist(), cols.tolist()
    lat_span, lon_span = cell_spans(level)
    # Cell edges are exact multiples of the cell span, so an upper bbox
    # edge flush with a cell boundary compares equal here and that
    # zero-overlap cell is dropped.
    if lat_hi > lat_lo and -90.0 + lat_hi * lat_span >= ne.lat:
        lat_hi -= 1
    if lon_hi > lon_lo and -180.0 + lon_hi * lon_span >= ne.lon:
        lon_hi -= 1
    return GridIndex(bbox=bbox, level=level, origin=(lat_lo, lon_lo),
                     shape=(lat_hi - lat_lo + 1, lon_hi - lon_lo + 1))


def _write_table(path, header: tuple[str, ...], *columns) -> None:
    """Write a region table: the header, then one row per region from the
    columns' values, in the bytes `csv.writer` would give (CRLF line
    ends; no field needs quoting)."""
    row = ",".join(["{}"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(row.format, *columns))


def _read_table(path, *names: str) -> list[list[str]]:
    """The named columns of a region table, as text.

    Raises ValueError when a row does not hold one value per header
    field, or when a row's column_index, read by int(), is not its
    position among the rows.  Blank lines hold no row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = list(filter(None, reader))
    at = {name: j for j, name in enumerate(header)}
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i} has {len(row)} fields, "
                             f"expected {len(header)}")
        if int(row[at["column_index"]]) != i:
            raise ValueError(f"{path}: column_index out of order at row {i}")
    return [[row[at[name]] for row in rows] for name in names]


def save_labels(path, codes: list[str], labels) -> None:
    """Write labels.csv from the regions' geohash codes, in column order,
    and their labels: geohash, column index and label per region."""
    if len(codes) != len(labels):
        raise ValueError("code list and labels differ in length")
    _write_table(path, ("geohash", "column_index", "label"), codes, range(len(codes)),
                 np.asarray(labels).astype(np.int64).tolist())


def load_labels(path) -> tuple[list[str], np.ndarray]:
    """The geohash codes and labels of a labels.csv, in column order."""
    codes, labels = _read_table(path, "geohash", "label")
    return codes, np.array(labels, dtype=np.int64)
