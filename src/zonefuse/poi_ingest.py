"""POI ingestion into sparse category-by-region matrices and features.

POIs carry a category from a fixed table.  Counts land in a category x
region matrix P whose columns are observed only where at least one POI
exists; the rest of the pipeline treats unobserved columns as missing,
not zero.  Two derived feature maps are provided: the TF-IDF reweighting
of P and a truncated-SVD compression of any feature matrix.
"""
from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .geo_grid import GeoPoint, GridIndex
from .sparse_io import load_coo, save_coo

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

FEATURE_KINDS = ("raw_poi", "tfidf", "svd_poi", "latent_v", "latent_z")


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
        names: list[str] = []
        lookup: dict[str, int] = {}
        try:
            fh = open(path, newline="")
        except OSError as exc:
            raise DataError(f"cannot read category table {path}: {exc}") from exc
        with fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"id", "name"}.issubset(reader.fieldnames):
                raise DataError(f"{path}: header must contain ['id', 'name']")
            for row in reader:
                try:
                    cid = str(int(row["id"]))
                except (TypeError, ValueError):
                    raise DataError(f"{path}: bad category id {row['id']!r}") from None
                name = cls._norm(row["name"] or "")
                if not name or cid in lookup or name in lookup:
                    raise DataError(f"{path}: duplicate or empty category row {row}")
                idx = len(names)
                names.append(row["name"].strip())
                lookup[name] = idx
                lookup[cid] = idx
        return cls(names=names, lookup=lookup)


@dataclass(frozen=True)
class PoiRecord:
    """A point of interest with its resolved category index."""

    lat: float
    lon: float
    category: int


def parse_pois(path, categories: CategoryTable) -> tuple[list[PoiRecord], dict[str, int]]:
    """Read a POI CSV (lat,lon,category) against a category table.

    The category field may be a name or a numeric id.  Rows with unknown
    categories are skipped and reported in the returned rejection map;
    structurally broken rows (bad coordinates, missing fields) raise
    DataError since POI files are curated reference data.
    """
    records: list[PoiRecord] = []
    rejects: dict[str, int] = {}
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read POI file {path}: {exc}") from exc
    with fh:
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
                records.append(PoiRecord(lat, lon, idx))
    if rejects:
        logger.info("parse_pois rejected %d rows with unknown categories",
                    sum(rejects.values()))
    return records, rejects


@dataclass
class PoiMatrix:
    """Sparse POI counts (category x region) with per-column observation flags."""

    P: sp.csr_array
    mask: np.ndarray
    categories: list[str]
    dropped: int = 0

    @property
    def r(self) -> int:
        return self.P.shape[1]

    @property
    def n_categories(self) -> int:
        return self.P.shape[0]

    def observation_matrix(self, mode: str = "column") -> np.ndarray:
        """Dense 0/1 matrix of observed entries.

        Column mode marks every entry of an observed region, including its
        zeros; elementwise mode marks only nonzero counts.
        """
        if mode == "column":
            return np.tile(self.mask.astype(np.float64), (self.n_categories, 1))
        if mode == "elementwise":
            return (self.P.toarray() > 0).astype(np.float64)
        raise ValueError(f"unknown observation mode {mode!r}")

    def sparsity(self) -> float:
        return 1.0 - self.P.nnz / float(self.P.shape[0] * self.P.shape[1])

    def observed_fraction(self) -> float:
        return float(self.mask.mean()) if self.mask.size else 0.0

    def save(self, coo_path, sidecar_path) -> None:
        save_coo(coo_path, self.P)
        sidecar = {"r": int(self.r), "n_categories": int(self.n_categories),
                   "categories": list(self.categories), "nnz": int(self.P.nnz),
                   "dropped": int(self.dropped)}
        with open(sidecar_path, "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, coo_path, sidecar_path) -> "PoiMatrix":
        with open(sidecar_path) as fh:
            meta = json.load(fh)
        P = load_coo(coo_path, (meta["n_categories"], meta["r"]))
        mask = np.asarray((P > 0).sum(axis=0)).ravel() > 0
        return cls(P=P, mask=mask, categories=list(meta["categories"]),
                   dropped=int(meta.get("dropped", 0)))


def build_poi_matrix(records: list[PoiRecord], grid: GridIndex,
                     categories: CategoryTable) -> PoiMatrix:
    """Count POIs into a category x region matrix over the grid.

    Records outside the grid are dropped and counted on the result.
    """
    n_cat = len(categories)
    r = len(grid)
    rows, cols = [], []
    dropped = 0
    for rec in records:
        if not 0 <= rec.category < n_cat:
            raise ValueError(f"category index {rec.category} outside table of {n_cat}")
        col = grid.column_of_point(GeoPoint(rec.lat, rec.lon))
        if col is None:
            dropped += 1
        else:
            rows.append(rec.category)
            cols.append(col)
    data = sp.coo_array((np.ones(len(rows)), (rows, cols)), shape=(n_cat, r))
    P = sp.csr_array(data)
    mask = np.asarray((P > 0).sum(axis=0)).ravel() > 0
    if dropped:
        logger.info("build_poi_matrix dropped %d POIs outside the grid", dropped)
    return PoiMatrix(P=P, mask=mask, categories=list(categories.names), dropped=dropped)


@dataclass
class FeatureMatrix:
    """A dense feature map over regions; columns are region vectors."""

    F: np.ndarray
    kind: str
    singular_values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        self.F = np.asarray(self.F, dtype=np.float64)
        if self.F.ndim != 2:
            raise ValueError(f"feature matrix must be 2-d, got shape {self.F.shape}")

    @property
    def r(self) -> int:
        return self.F.shape[1]


def raw_poi_features(poi: PoiMatrix) -> FeatureMatrix:
    """POI counts as dense features (the no-preprocessing baseline)."""
    return FeatureMatrix(F=poi.P.toarray(), kind="raw_poi")


def tfidf_transform(poi: PoiMatrix) -> FeatureMatrix:
    """TF-IDF reweighting of the POI matrix.

    tf(c, j) is the count share of category c within region j's POIs and
    idf(c) = ln(N / (1 + df(c))) + 1 over the N observed regions, df being
    the number of observed regions containing c.  Unobserved columns stay
    zero.
    """
    P = poi.P.toarray().astype(np.float64)
    out = np.zeros_like(P)
    obs = poi.mask
    n_obs = int(obs.sum())
    if n_obs == 0:
        return FeatureMatrix(F=out, kind="tfidf")
    col_sums = P[:, obs].sum(axis=0)
    # an observed region has at least one POI by construction
    tf = P[:, obs] / col_sums
    df = (P[:, obs] > 0).sum(axis=1)
    idf = np.log(n_obs / (1.0 + df)) + 1.0
    out[:, obs] = tf * idf[:, None]
    return FeatureMatrix(F=out, kind="tfidf")


def svd_features(f: FeatureMatrix, t: int) -> FeatureMatrix:
    """Rank-t truncated SVD compression of a feature matrix.

    Returns the t leading right singular rows scaled by their singular
    values, so columns remain region embeddings.  Signs are fixed by
    making the largest-magnitude entry of each left singular vector
    positive, which keeps the output deterministic.
    """
    d = min(f.F.shape)
    if not 1 <= t <= d:
        raise ValueError(f"rank {t} outside [1, {d}]")
    u, s, vt = np.linalg.svd(f.F, full_matrices=False)
    for i in range(t):
        j = int(np.argmax(np.abs(u[:, i])))
        if u[j, i] < 0:
            u[:, i] = -u[:, i]
            vt[i, :] = -vt[i, :]
    rows = s[:t, None] * vt[:t, :]
    return FeatureMatrix(F=rows, kind="svd_poi", singular_values=s[:t].copy())
