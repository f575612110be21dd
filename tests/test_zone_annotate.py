import numpy as np
import pytest

from zonefuse.poi_ingest import CategoryTable, PoiMatrix
from zonefuse.zone_annotate import (
    ReportRow,
    build_profiles,
    format_report,
    ranked_report,
    save_report,
    zone_g,
    zone_npr,
    zone_pr,
)


def poi_from_dense(P: np.ndarray) -> PoiMatrix:
    P = np.asarray(P, dtype=np.float64)
    mask = (P.sum(axis=0) > 0).astype(bool)
    names = [f"cat {i + 1}" for i in range(P.shape[0])]
    return PoiMatrix(P=P, mask=mask, categories=names)


class TestZonePr:
    def test_single_region_zone(self):
        poi = poi_from_dense([[2.0], [0.0], [1.0]])
        pr = zone_pr(np.array([0]), poi, 0)
        assert np.array_equal(pr, [2.0, 0.0, 1.0])

    def test_mean_of_two_regions(self):
        poi = poi_from_dense([[2.0, 0.0], [0.0, 2.0]])
        pr = zone_pr(np.array([0, 0]), poi, 0)
        assert np.array_equal(pr, [1.0, 1.0])

    def test_all_zero_zone_gives_zero_vector(self):
        poi = poi_from_dense([[0.0, 3.0], [0.0, 1.0]])
        pr = zone_pr(np.array([0, 1]), poi, 0)
        assert np.array_equal(pr, [0.0, 0.0])

    def test_empty_zone_rejected(self):
        poi = poi_from_dense([[1.0]])
        with pytest.raises(ValueError):
            zone_pr(np.array([0]), poi, 1)

    def test_selects_only_members(self):
        poi = poi_from_dense([[4.0, 1.0, 0.0], [0.0, 1.0, 6.0]])
        pr = zone_pr(np.array([0, 1, 0]), poi, 0)
        assert np.array_equal(pr, [2.0, 3.0])


class TestZoneNpr:
    def test_direct_division(self):
        assert np.allclose(zone_npr(np.array([2.0, 0.0, 1.0])), [1.0, 0.0, 0.5])

    def test_uniform(self):
        assert np.array_equal(zone_npr(np.array([5.0, 5.0])), [1.0, 1.0])

    def test_peak_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pr = rng.uniform(0.0, 9.0, size=7) + 1e-9
            assert zone_npr(pr).max() == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            zone_npr(np.zeros(2))


class TestZoneG:
    def test_identical_nprs_cancel(self):
        npr = np.array([1.0, 0.4])
        g = zone_g([npr, npr.copy()])
        assert np.allclose(g[0], 0.0)
        assert np.allclose(g[1], 0.0)

    def test_three_zone_hand_example(self):
        g = zone_g([np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                    np.array([1.0, 1.0])])
        assert np.allclose(g[0], [1.0, -2.0])
        assert np.allclose(g[1], [-2.0, 1.0])
        assert np.allclose(g[2], [1.0, 1.0])

    def test_sum_is_zero(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5):
            nprs = [zone_npr(rng.uniform(0.1, 1.0, size=6)) for _ in range(n)]
            total = np.sum(zone_g(nprs), axis=0)
            assert np.all(np.abs(total) <= 1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        nprs = [rng.uniform(0.0, 1.0, size=5) for _ in range(4)]
        shift = rng.uniform(-2.0, 2.0, size=5)
        g0 = zone_g(nprs)
        g1 = zone_g([npr + shift for npr in nprs])
        for a, b in zip(g0, g1):
            assert np.allclose(a, b)

    def test_single_zone_rejected(self):
        with pytest.raises(ValueError):
            zone_g([np.array([1.0])])


class TestBuildProfiles:
    def test_zero_poi_zone_excluded_from_g(self):
        # zone 1 has no POIs at all: NPR undefined, G computed over the rest
        P = np.array([[4.0, 0.0, 0.0, 2.0],
                      [0.0, 0.0, 0.0, 2.0]])
        labels = np.array([0, 1, 1, 2])
        profiles = build_profiles(labels, poi_from_dense(P))
        by_label = {p.label: p for p in profiles}
        assert not by_label[1].annotatable
        assert by_label[1].g is None
        assert by_label[0].annotatable and by_label[2].annotatable
        g0, g2 = zone_g([by_label[0].npr, by_label[2].npr])
        assert np.allclose(by_label[0].g, g0)
        assert np.allclose(by_label[2].g, g2)

    def test_member_counts(self):
        P = np.array([[1.0, 1.0, 1.0]])
        profiles = build_profiles(np.array([0, 0, 1]), poi_from_dense(P))
        assert [p.member_count for p in profiles] == [2, 1]

    def test_one_annotatable_zone_gets_no_g(self):
        P = np.array([[3.0, 0.0], [1.0, 0.0]])
        profiles = build_profiles(np.array([0, 1]), poi_from_dense(P))
        by_label = {p.label: p for p in profiles}
        assert by_label[0].annotatable
        assert by_label[0].g is None
        assert not by_label[1].annotatable


class TestRankedReport:
    def table(self, n):
        return CategoryTable(names=[f"cat {i + 1}" for i in range(n)])

    def test_descending_with_index_tie_break(self):
        P = np.array([[9.0, 0.0],
                      [6.0, 0.0],
                      [6.0, 0.0],
                      [0.0, 9.0]])
        profiles = build_profiles(np.array([0, 1]), poi_from_dense(P))
        rows = ranked_report(profiles, self.table(4))
        zone0 = [r for r in rows if r.zone == 0]
        assert [r.category_index for r in zone0] == [0, 1, 2]
        assert [r.rank for r in zone0] == [1, 2, 3]
        assert zone0[0].g_value >= zone0[1].g_value == zone0[2].g_value

    def test_rows_are_positive_g_permutation(self):
        rng = np.random.default_rng(7)
        P = rng.poisson(1.0, size=(6, 12)).astype(float)
        P[:, 3] = 0.0
        labels = rng.integers(0, 3, size=12)
        labels[3] = 2
        profiles = build_profiles(labels, poi_from_dense(P))
        rows = ranked_report(profiles, self.table(6))
        for p in profiles:
            if p.g is None:
                continue
            want = {c for c in range(len(p.g)) if p.g[c] > 0.0}
            got = [r.category_index for r in rows if r.zone == p.label]
            assert set(got) == want
            values = [r.g_value for r in rows if r.zone == p.label]
            assert values == sorted(values, reverse=True)

    def test_no_positive_g_gives_empty_list(self):
        # identical columns give identical NPRs, so every G is zero
        P = np.array([[2.0, 2.0], [1.0, 1.0]])
        profiles = build_profiles(np.array([0, 1]), poi_from_dense(P))
        assert ranked_report(profiles, self.table(2)) == []

    def test_report_csv_round_trip(self, tmp_path):
        P = np.array([[9.0, 0.0], [0.0, 9.0], [3.0, 1.0]])
        profiles = build_profiles(np.array([0, 1]), poi_from_dense(P))
        rows = ranked_report(profiles, self.table(3))
        path = tmp_path / "report.csv"
        save_report(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "zone,rank,category,g_value"
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == str(rows[0].zone)
        assert float(first[3]) == rows[0].g_value

    def test_format_marks_missing_poi_zone(self):
        P = np.array([[5.0, 0.0, 1.0], [0.0, 0.0, 4.0]])
        labels = np.array([0, 1, 2])
        profiles = build_profiles(labels, poi_from_dense(P))
        rows = ranked_report(profiles, self.table(2))
        text = format_report(profiles, rows)
        assert "zone 1" in text
        assert "no POI information" in text
        assert "cat 1" in text


class TestReportRowShape:
    def test_fields(self):
        row = ReportRow(zone=0, rank=1, category_index=4, category="cat 5",
                        g_value=0.25)
        assert (row.zone, row.rank, row.category, row.g_value) == (0, 1, "cat 5", 0.25)
