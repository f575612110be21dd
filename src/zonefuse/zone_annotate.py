"""Zone annotation from POI category distributions.

Each zone gets a mean raw-count category vector PR, its max-normalized
form NPR, and a significance difference G that contrasts the zone's NPR
against the other annotatable zones:

    G_s = (n - 1) * NPR_s - sum_{j != s} NPR_j        (n annotatable zones)

Positive G entries mark the categories that distinguish the zone; they
are reported ranked by value.  Zones whose members carry no POIs at all
have no defined NPR and are reported as missing POI information rather
than annotated.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .poi_ingest import CategoryTable, PoiMatrix


@dataclass
class ZoneProfile:
    """Per-zone category statistics; npr and g stay None for zones whose
    members carry no POIs."""

    label: int
    member_count: int
    pr: np.ndarray
    npr: np.ndarray | None = None
    g: np.ndarray | None = None

    @property
    def annotatable(self) -> bool:
        return self.npr is not None


def zone_pr(labels: np.ndarray, poi: PoiMatrix, s: int) -> np.ndarray:
    """Mean raw POI count vector over the member regions of zone s."""
    labels = np.asarray(labels)
    members = np.flatnonzero(labels == s)
    if members.size == 0:
        raise ValueError(f"zone {s} has no member regions")
    return poi.P[:, members].mean(axis=1)


def zone_npr(pr: np.ndarray) -> np.ndarray:
    """PR normalized by its maximum; the peak category maps to exactly 1."""
    pr = np.asarray(pr, dtype=np.float64)
    top = pr.max() if pr.size else 0.0
    if top <= 0.0:
        raise ValueError("all-zero PR vector has no defined normalization")
    return pr / top


def zone_g(nprs: list[np.ndarray]) -> list[np.ndarray]:
    """Significance differences over the annotatable zones.

    The per-zone vectors sum to zero componentwise, and adding one
    constant vector to every NPR leaves the result unchanged.
    """
    n = len(nprs)
    if n < 2:
        raise ValueError(f"need at least 2 annotatable zones, got {n}")
    stack = np.asarray(nprs, dtype=np.float64)
    total = stack.sum(axis=0)
    return [(n - 1) * stack[s] - (total - stack[s]) for s in range(n)]


def build_profiles(labels: np.ndarray, poi: PoiMatrix) -> list[ZoneProfile]:
    """PR, NPR, and G for every zone present in the labeling.

    Zones with an all-zero PR are excluded from the G computation (their
    NPR is undefined) and come back with npr = g = None.
    """
    labels = np.asarray(labels)
    profiles = []
    for s in np.unique(labels):
        pr = zone_pr(labels, poi, int(s))
        profile = ZoneProfile(label=int(s),
                              member_count=int((labels == s).sum()), pr=pr)
        if pr.max() > 0.0:
            profile.npr = zone_npr(pr)
        profiles.append(profile)
    annotatable = [p for p in profiles if p.annotatable]
    if len(annotatable) >= 2:
        for p, g in zip(annotatable, zone_g([p.npr for p in annotatable])):
            p.g = g
    return profiles


@dataclass
class ReportRow:
    zone: int
    rank: int
    category_index: int
    category: str
    g_value: float


def ranked_report(profiles: list[ZoneProfile],
                  categories: CategoryTable) -> list[ReportRow]:
    """Ranked significant categories: per zone, G > 0 sorted descending,
    ties broken by category index.  Zones without G contribute no rows."""
    rows: list[ReportRow] = []
    for p in sorted(profiles, key=lambda q: q.label):
        if p.g is None:
            continue
        positive = [(float(p.g[c]), c) for c in range(len(p.g)) if p.g[c] > 0.0]
        positive.sort(key=lambda t: (-t[0], t[1]))
        for rank, (value, c) in enumerate(positive, start=1):
            rows.append(ReportRow(zone=p.label, rank=rank, category_index=c,
                                  category=categories.names[c], g_value=value))
    return rows


def save_report(path, rows: list[ReportRow]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["zone", "rank", "category", "g_value"])
        for row in rows:
            w.writerow([row.zone, row.rank, row.category, repr(row.g_value)])


def format_report(profiles: list[ZoneProfile], rows: list[ReportRow]) -> str:
    """Human-readable table: one block per zone listing its significant
    categories, with unannotatable zones flagged explicitly."""
    by_zone: dict[int, list[ReportRow]] = {}
    for row in rows:
        by_zone.setdefault(row.zone, []).append(row)
    lines = []
    for p in sorted(profiles, key=lambda q: q.label):
        lines.append(f"zone {p.label} ({p.member_count} regions)")
        if not p.annotatable:
            lines.append("  no POI information")
        elif p.g is None:
            lines.append("  not ranked (fewer than 2 annotatable zones)")
        elif not by_zone.get(p.label):
            lines.append("  no significant categories")
        else:
            for row in by_zone[p.label]:
                lines.append(f"  {row.rank:2d}. {row.category:<24s} {row.g_value:.3f}")
    return "\n".join(lines) + "\n"
