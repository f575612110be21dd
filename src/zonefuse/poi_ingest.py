"""POI ingestion into category-by-region count matrices and features.

POIs carry a category from a fixed table.  Counts land in a category x
region matrix P whose columns are observed only where at least one POI
exists; the rest of the pipeline treats unobserved columns as missing,
not zero.  Features are plain d x r arrays, one column per region: the
raw counts, the TF-IDF reweighting of P, and a truncated-SVD compression
of any such array.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import DataError
from .geo_grid import GridIndex, valid_points
from .sparse_io import convert_fields, open_table, read_columns, read_coo, save_coo

logger = logging.getLogger(__name__)

DEFAULT_CATEGORIES = [
    "fast food",
    "coffee bar",
    "eateries",
    "fuel",
    "convenience store",
    "grocery",
    "supermarkets",
    "pharmacy",
    "amusement",
    "tutoring school",
    "shopping mall",
    "shopping center",
    "home improvement",
    "personal care",
    "fitness",
    "financial service",
    "theater",
    "hotel",
    "electronics store",
    "pets/veterinary",
    "retirement",
    "auto dealers",
    "auto rental",
    "auto service",
    "auto supply",
    "machinery",
    "shipping store",
    "park/lake(camping site)",
]

FEATURE_KINDS = ("raw_poi", "tfidf", "svd_poi", "latent_v")

# a POI: its coordinates and the index of its category in the table
POI_DTYPE = np.dtype([("lat", np.float64), ("lon", np.float64), ("category", np.int64)])


@dataclass
class CategoryTable:
    """Ordered category names with lookup by name or numeric id."""

    names: list[str]
    lookup: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.names:
            raise ValueError("category table is empty")
        if not self.lookup:
            self.lookup = {}
            for i, name in enumerate(self.names):
                self.lookup[self._norm(name)] = i
                self.lookup[str(i + 1)] = i

    @staticmethod
    def _norm(name: str) -> str:
        return " ".join(name.strip().lower().split())

    def __len__(self) -> int:
        return len(self.names)

    def resolve(self, raw: str) -> int | None:
        return self.lookup.get(self._norm(raw))

    @classmethod
    def default(cls) -> "CategoryTable":
        return cls(names=list(DEFAULT_CATEGORIES))

    @classmethod
    def from_csv(cls, path) -> "CategoryTable":
        """Read an `id,name` table of distinct integer ids and names."""
        names: list[str] = []
        lookup: dict[str, int] = {}
        with open_table(path, "category table") as fh:
            for ids, raws in read_columns(fh, path, ("id", "name")):
                for raw_id, raw in zip(ids, raws):
                    try:
                        cid = str(int(raw_id))
                    except ValueError:
                        raise DataError(f"{path}: bad category id {raw_id!r}") from None
                    name = cls._norm(raw)
                    if not name or cid in lookup or name in lookup:
                        raise DataError(f"{path}: duplicate or empty category "
                                        f"{raw_id!r}, {raw!r}")
                    lookup[name] = lookup[cid] = len(names)
                    names.append(raw.strip())
        return cls(names=names, lookup=lookup)


def parse_pois(path, categories: CategoryTable) -> tuple[np.recarray, dict[str, int]]:
    """Read a POI CSV (lat,lon,category) against a category table.

    The category field may be a name or a numeric id.  Rows with unknown
    categories are skipped and counted by stripped name in the returned
    rejection map; the first structurally broken row (bad coordinates,
    missing fields) raises DataError since POI files are curated
    reference data.  The kept rows come back as a POI_DTYPE record array.
    """
    parts = [np.empty(0, dtype=POI_DTYPE)]
    rejects: dict[str, int] = {}
    rows = 0
    with open_table(path, "POI file") as fh:
        for lats, lons, raws in read_columns(fh, path, ("lat", "lon", "category")):
            lat, ok_lat = convert_fields(lats, float)
            lon, ok_lon = convert_fields(lons, float)
            located = ok_lat & ok_lon & valid_points(lat, lon)
            raws = list(map(str.strip, raws))
            ok = located & np.fromiter(map(bool, raws), bool, len(raws))
            if not ok.all():
                i = int(np.argmin(ok))
                reason = ("missing category" if located[i]
                          else f"bad coordinates ({lats[i]!r}, {lons[i]!r})")
                raise DataError(f"{path}: malformed row {rows + i + 2}: {reason}")
            rows += len(raws)
            index = {raw: categories.resolve(raw) for raw in dict.fromkeys(raws)}
            category = np.fromiter((-1 if index[raw] is None else index[raw]
                                    for raw in raws), np.int64, len(raws))
            for raw in compress(raws, category < 0):
                rejects[raw] = rejects.get(raw, 0) + 1
            kept = np.rec.fromarrays((lat, lon, category), dtype=POI_DTYPE)
            parts.append(kept[category >= 0])
    if rejects:
        logger.info("parse_pois rejected %d rows with unknown categories",
                    sum(rejects.values()))
    return np.concatenate(parts).view(np.recarray), rejects


@dataclass
class PoiMatrix:
    """POI counts (category x region) with per-column observation flags.

    P is a dense float64 array: a category table by a city grid is small
    (28 x 4096 is 0.9 MB), and every reader of P wants it dense.
    """

    P: np.ndarray
    mask: np.ndarray
    categories: list[str]
    dropped: int = 0

    def __post_init__(self):
        if not isinstance(self.P, np.ndarray) or self.P.ndim != 2:
            got = (f"shape {self.P.shape}" if isinstance(self.P, np.ndarray)
                   else type(self.P).__name__)
            raise ValueError(f"P must be a 2-d array, got {got}")
        self.P = self.P.astype(np.float64, copy=False)

    @property
    def r(self) -> int:
        return self.P.shape[1]

    @property
    def n_categories(self) -> int:
        return self.P.shape[0]

    def sparsity(self) -> float:
        return 1.0 - np.count_nonzero(self.P) / float(self.P.size)

    def observed_fraction(self) -> float:
        return float(self.mask.mean()) if self.mask.size else 0.0

    def save(self, coo_path, sidecar_path) -> None:
        save_coo(coo_path, self.P)
        sidecar = {"r": int(self.r), "n_categories": int(self.n_categories),
                   "categories": list(self.categories), "nnz": int(np.count_nonzero(self.P)),
                   "dropped": int(self.dropped)}
        with open(sidecar_path, "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, coo_path, sidecar_path) -> "PoiMatrix":
        with open(sidecar_path) as fh:
            meta = json.load(fh)
        shape = (meta["n_categories"], meta["r"])
        rows, cols, vals = read_coo(coo_path, shape)
        P = np.zeros(shape)
        np.add.at(P, (rows, cols), vals)
        mask = (P > 0).any(axis=0)
        return cls(P=P, mask=mask, categories=list(meta["categories"]),
                   dropped=int(meta.get("dropped", 0)))


def build_poi_matrix(records: np.ndarray, grid: GridIndex,
                     categories: CategoryTable) -> PoiMatrix:
    """Count POIs, with the fields of POI_DTYPE, into a category x region
    matrix over the grid.

    Records outside the grid are dropped and counted on the result.
    """
    n_cat = len(categories)
    r = len(grid)
    category = records["category"]
    bad = np.flatnonzero((category < 0) | (category >= n_cat))
    if bad.size:
        raise ValueError(f"category index {category[bad[0]]} outside table of {n_cat}")
    cols = grid.columns_of_points(records["lat"], records["lon"])
    inside = cols >= 0
    rows = category[inside]
    dropped = len(records) - len(rows)
    P = np.bincount(rows * r + cols[inside], minlength=n_cat * r)
    P = P.reshape(n_cat, r).astype(np.float64)
    mask = (P > 0).any(axis=0)
    if dropped:
        logger.info("build_poi_matrix dropped %d POIs outside the grid", dropped)
    return PoiMatrix(P=P, mask=mask, categories=list(categories.names), dropped=dropped)


def raw_poi_features(poi: PoiMatrix) -> np.ndarray:
    """POI counts as dense d x r features (the no-preprocessing baseline)."""
    return poi.P.copy()


def tfidf_transform(poi: PoiMatrix) -> np.ndarray:
    """TF-IDF reweighting of the POI matrix, as d x r features.

    tf(c, j) is the count share of category c within region j's POIs and
    idf(c) = ln(N / (1 + df(c))) + 1 over the N observed regions, df being
    the number of observed regions containing c.  Unobserved columns stay
    zero.
    """
    P = poi.P
    out = np.zeros_like(P)
    obs = poi.mask
    n_obs = int(obs.sum())
    if n_obs == 0:
        return out
    col_sums = P[:, obs].sum(axis=0)
    # an observed region has at least one POI by construction
    tf = P[:, obs] / col_sums
    df = (P[:, obs] > 0).sum(axis=1)
    idf = np.log(n_obs / (1.0 + df)) + 1.0
    out[:, obs] = tf * idf[:, None]
    return out


def svd_features(F: np.ndarray, t: int) -> np.ndarray:
    """Rank-t truncated SVD compression of d x r features.

    Returns the t leading right singular rows scaled by their singular
    values, so columns remain region embeddings and the norm of row i is
    the i-th singular value.  Signs are fixed by making the
    largest-magnitude entry of each left singular vector positive, which
    keeps the output deterministic.
    """
    d = min(F.shape)
    if not 1 <= t <= d:
        raise ValueError(f"rank {t} outside [1, {d}]")
    u, s, vt = np.linalg.svd(F, full_matrices=False)
    for i in range(t):
        j = int(np.argmax(np.abs(u[:, i])))
        if u[j, i] < 0:
            u[:, i] = -u[:, i]
            vt[i, :] = -vt[i, :]
    return s[:t, None] * vt[:t, :]
