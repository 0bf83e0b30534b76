"""Ranking measures against hand values and brute-force oracles."""

import math

import numpy as np
import pytest

from conftest import segmented_catalog
from segue.catalog import Catalog, CatalogError, Track
from segue.similarity import (
    Metric,
    NeighbourGap,
    StartSections,
    cosine_distance,
    dcg_similarity,
    l2_distance,
    nearest_neighbour_gap,
    rank_candidates,
    score,
)


class TestCosineDistance:
    def test_identical_vectors(self):
        v = np.array([0.3, 0.7, 0.1])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_vectors(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_hand_value(self):
        a, b = np.array([0.8, 0.1]), np.array([0.1, 0.8])
        assert cosine_distance(a, b) == pytest.approx(1.0 - 0.16 / 0.65, abs=1e-12)

    def test_zero_norm_vector_is_maximally_dissimilar(self):
        assert cosine_distance(np.zeros(3), np.array([0.5, 0.5, 0.5])) == 1.0

    def test_symmetric_and_bounded_for_nonnegative_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)
            d = cosine_distance(a, b)
            assert d == cosine_distance(b, a)
            assert 0.0 <= d <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_distance(np.zeros(2), np.zeros(3))


class TestL2Distance:
    def test_identical_vectors(self):
        v = np.array([0.4, 0.4])
        assert l2_distance(v, v) == 0.0

    def test_unit_basis_vectors(self):
        assert l2_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(math.sqrt(2))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rng.uniform(0, 1, 5), rng.uniform(0, 1, 5)
            oracle = math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))
            assert l2_distance(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            a, b, c = (rng.uniform(0, 1, 4) for _ in range(3))
            assert l2_distance(a, c) <= l2_distance(a, b) + l2_distance(b, c) + 1e-12


class TestDcgSimilarity:
    def test_candidate_on_top_dimension_scores_one(self):
        assert dcg_similarity(np.array([0.9, 0.1]), np.array([1.0, 0.0]), 2) == pytest.approx(1.0)

    def test_zero_candidate_scores_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert dcg_similarity(rng.uniform(0, 1, 6), np.zeros(6)) == 0.0

    def test_mass_on_top_dimension_beats_mass_below(self):
        pred = np.array([0.9, 0.1])
        top = dcg_similarity(pred, np.array([1.0, 0.0]), 2)
        bottom = dcg_similarity(pred, np.array([0.0, 1.0]), 2)
        assert top == pytest.approx(1.0)
        assert bottom == pytest.approx(1.0 / math.log2(3), abs=1e-12)
        assert top > bottom

    def test_prediction_ties_break_to_lower_dimension(self):
        pred = np.array([0.5, 0.5])
        # dimension 0 ranks first, so candidate mass there gets the full discount
        assert dcg_similarity(pred, np.array([1.0, 0.0]), 2) == pytest.approx(1.0)
        assert dcg_similarity(pred, np.array([0.0, 1.0]), 2) == pytest.approx(1.0 / math.log2(3))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            pred, candidate = rng.uniform(0, 1, 7), rng.uniform(0, 1, 7)
            depth = int(rng.integers(1, 8))
            order = sorted(range(7), key=lambda d: (-pred[d], d))
            oracle = sum(
                float(candidate[order[i - 1]]) / math.log2(i + 1) for i in range(1, depth + 1)
            )
            assert dcg_similarity(pred, candidate, depth) == pytest.approx(oracle, abs=1e-12)

    def test_monotone_in_candidate_values(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            pred, candidate = rng.uniform(0, 1, 8), rng.uniform(0, 1, 8)
            base = dcg_similarity(pred, candidate)
            bumped = candidate.copy()
            bumped[rng.integers(0, 8)] += rng.uniform(0, 0.5)
            assert dcg_similarity(pred, bumped) >= base - 1e-12

    def test_positive_scaling_of_prediction_changes_nothing(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            pred, candidate = rng.uniform(0, 1, 8), rng.uniform(0, 1, 8)
            scale = float(rng.uniform(0.01, 50))
            depth = int(rng.integers(1, 9))
            assert dcg_similarity(pred, candidate, depth) == pytest.approx(
                dcg_similarity(pred * scale, candidate, depth), abs=1e-12
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        pred, candidate = rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)
        permutation = rng.permutation(6)
        # a strict ordering has no ties, so permuting both sides is score-neutral
        assert dcg_similarity(pred, candidate) == pytest.approx(
            dcg_similarity(pred[permutation], candidate[permutation]), abs=1e-12
        )

    def test_depth_out_of_range(self):
        with pytest.raises(ValueError, match="depth"):
            dcg_similarity(np.zeros(4), np.zeros(4), 5)
        with pytest.raises(ValueError, match="depth"):
            dcg_similarity(np.zeros(4), np.zeros(4), 0)


def brute_force_ranking(pred, catalog, metric):
    """Score every candidate independently, then sort by orientation and id."""
    rows = []
    for track in catalog:
        value = score(pred, track.sections[0], metric)
        rows.append((track.id, value))
    reverse = metric.higher_is_better
    return sorted(rows, key=lambda item: (-item[1] if reverse else item[1], item[0]))


class TestRankCandidates:
    @pytest.fixture
    def catalog(self):
        rng = np.random.default_rng(10)
        return segmented_catalog(
            {f"t{i:02d}": rng.uniform(0, 1, (int(rng.integers(2, 5)), 6)) for i in range(20)}
        )

    def test_single_candidate_wins_any_metric(self):
        catalog = segmented_catalog({"only": np.array([[0.5, 0.5, 0.5]])})
        for kind in ("cosine", "l2", "dcg"):
            ranked = rank_candidates(np.array([0.9, 0.1, 0.1]), catalog, Metric(kind))
            assert ranked.best[0] == "only"

    def test_exact_match_ranks_first_under_distances(self, catalog):
        pred = catalog.tracks["t07"].sections[0].copy()
        for kind in ("cosine", "l2"):
            assert rank_candidates(pred, catalog, Metric(kind)).best[0] == "t07"

    def test_matches_brute_force_for_every_metric(self, catalog):
        rng = np.random.default_rng(11)
        pred = rng.uniform(0, 1, 6)
        for metric in (Metric("cosine"), Metric("l2"), Metric("dcg"), Metric("dcg", dcg_depth=3)):
            ranked = rank_candidates(pred, catalog, metric)
            assert ranked.entries == brute_force_ranking(pred, catalog, metric)

    def test_ties_break_by_ascending_id(self):
        vec = np.array([0.2, 0.8])
        catalog = segmented_catalog({"zz": vec[None, :], "aa": vec[None, :]})
        ranked = rank_candidates(np.array([0.5, 0.5]), catalog, Metric("cosine"))
        assert [track_id for track_id, _ in ranked.entries] == ["aa", "zz"]

    def test_excluded_tracks_are_not_candidates(self, catalog):
        pred = np.full(6, 0.5)
        ranked = rank_candidates(pred, catalog, Metric("l2"), exclude={"t00", "t01"})
        assert len(ranked.entries) == 18
        assert not {"t00", "t01"} & {track_id for track_id, _ in ranked.entries}

    def test_no_candidates_rejected(self, catalog):
        with pytest.raises(ValueError, match="no candidate"):
            rank_candidates(np.zeros(6), catalog, Metric("l2"), exclude=set(catalog.track_ids))

    def test_unsegmented_catalog_rejected(self, catalog):
        raw = Catalog.from_tracks(Track(id=t.id, frames=t.frames) for t in catalog)
        with pytest.raises(CatalogError, match="not segmented"):
            rank_candidates(np.zeros(6), raw, Metric("l2"))

    def test_wrong_length_prediction_rejected(self, catalog):
        for bad in (np.zeros(5), np.zeros(7)):
            with pytest.raises(ValueError, match="mismatch"):
                rank_candidates(bad, catalog, Metric("cosine"))
            with pytest.raises(ValueError, match="mismatch"):
                nearest_neighbour_gap(bad, catalog, Metric("cosine"))


class TestNearestNeighbourGap:
    def test_exact_neighbour_has_zero_distance(self):
        vec = np.array([0.6, 0.3, 0.1])
        catalog = segmented_catalog({"hit": vec[None, :], "miss": np.array([[0.1, 0.1, 0.9]])})
        gap = nearest_neighbour_gap(vec, catalog, Metric("cosine"))
        assert gap.best_id == "hit"
        assert gap.best_cosine_distance == pytest.approx(0.0, abs=1e-12)
        assert not gap.no_near_neighbour()

    def test_all_orthogonal_candidates_fire_the_event(self):
        catalog = segmented_catalog({
            "a": np.array([[0.0, 1.0, 0.0]]),
            "b": np.array([[0.0, 0.0, 1.0]]),
        })
        gap = nearest_neighbour_gap(np.array([1.0, 0.0, 0.0]), catalog, Metric("cosine"))
        assert gap.best_cosine_distance == pytest.approx(1.0)
        assert gap.no_near_neighbour()

    def test_prediction_inside_cluster_does_not_fire(self):
        rng = np.random.default_rng(12)
        center = np.array([0.8, 0.8, 0.1, 0.1])
        catalog = segmented_catalog({
            f"t{i}": np.clip(center + 0.05 * rng.standard_normal(4), 0, 1)[None, :]
            for i in range(8)
        })
        gap = nearest_neighbour_gap(center, catalog, Metric("dcg"))
        assert gap.best_cosine_distance < 0.5
        assert not gap.no_near_neighbour()

    def test_margin_is_best_against_median(self):
        catalog = segmented_catalog({
            "near": np.array([[1.0, 0.0]]),
            "mid": np.array([[0.5, 0.5]]),
            "far": np.array([[0.0, 1.0]]),
        })
        gap = nearest_neighbour_gap(np.array([1.0, 0.0]), catalog, Metric("cosine"))
        assert gap.best_id == "near"
        assert gap.margin == pytest.approx(gap.median_score - gap.best_score)
        assert gap.margin > 0

    def test_no_candidates_rejected(self):
        catalog = segmented_catalog({"a": np.array([[0.2, 0.8]]), "b": np.array([[0.8, 0.2]])})
        with pytest.raises(ValueError, match="no candidate"):
            nearest_neighbour_gap(np.array([0.5, 0.5]), catalog, Metric("l2"), exclude={"a", "b"})


def brute_force_gap(pred, catalog, metric, exclude):
    """Score candidates one at a time, then sort, take the median."""
    starts = {track.id: track.sections[0] for track in catalog if track.id not in exclude}
    rows = [(track_id, score(pred, start, metric)) for track_id, start in starts.items()]
    reverse = metric.higher_is_better
    ordered = sorted(rows, key=lambda item: (-item[1] if reverse else item[1], item[0]))
    best_id, best_score = ordered[0]
    median = float(np.median([value for _, value in rows]))
    gap = NeighbourGap(
        best_id=best_id,
        best_score=best_score,
        median_score=median,
        margin=best_score - median if reverse else median - best_score,
        best_cosine_distance=min(cosine_distance(pred, start) for start in starts.values()),
        runner_up_gap=abs(best_score - ordered[1][1]) if len(ordered) > 1 else math.inf,
    )
    return ordered, gap


def test_one_pass_ranking_matches_scoring_one_candidate_at_a_time():
    """Seeded cases: shapes, exclusions, duplicate and all-zero starts."""
    rng = np.random.default_rng(14)
    for case in range(50):
        dim = int(rng.integers(2, 51))
        count = int(rng.integers(1, 41))
        vectors = {
            f"t{i:02d}": rng.uniform(0, 1, (int(rng.integers(1, 4)), dim)) for i in range(count)
        }
        ids = list(vectors)
        rng.shuffle(ids)  # catalog order is not id order
        vectors = {track_id: vectors[track_id] for track_id in ids}
        if count > 2:
            vectors[ids[1]][0] = vectors[ids[0]][0]  # duplicate start: ties break by id
            vectors[ids[2]][0] = 0.0  # all-zero start: cosine distance 1
        catalog = segmented_catalog(vectors)
        exclude = {track_id for track_id in ids[1:] if rng.uniform() < 0.3}
        if case % 5 == 0:
            pred = catalog.tracks[ids[0]].sections[0].copy()
        else:
            pred = rng.uniform(0, 1, dim)
        depth = int(rng.integers(1, dim + 1))
        for metric in (Metric("cosine"), Metric("l2"), Metric("dcg"), Metric("dcg", depth)):
            ordered, expected = brute_force_gap(pred, catalog, metric, exclude)
            gap = nearest_neighbour_gap(pred, catalog, metric, exclude=exclude)
            ranked = rank_candidates(pred, catalog, metric, exclude=exclude)
            assert gap == expected, (case, metric)
            assert ranked.entries == ordered, (case, metric)
            assert ranked.best == (gap.best_id, gap.best_score)
    # A tie for the best score, where the smaller id comes later in catalog order;
    # then the same tie with the smaller id excluded. "t0" is smaller still but not tied.
    start = np.array([[0.6, 0.2, 0.2]])
    catalog = segmented_catalog({
        "t7": start, "t4": np.array([[0.1, 0.8, 0.1]]), "t1": start.copy(),
        "t0": np.array([[0.3, 0.3, 0.3]]),
    })
    for exclude, winner in ((set(), "t1"), ({"t1"}, "t7")):
        for metric in (Metric("cosine"), Metric("l2"), Metric("dcg"), Metric("dcg", 2)):
            ordered, expected = brute_force_gap(start[0], catalog, metric, exclude)
            gap = nearest_neighbour_gap(start[0], catalog, metric, exclude=exclude)
            assert gap == expected, (exclude, metric)
            assert gap.best_id == winner, (exclude, metric)
            assert rank_candidates(start[0], catalog, metric, exclude=exclude).entries == ordered


class TestRunnerUpGap:
    """The best score's lead over the second-best candidate."""

    def test_matches_a_brute_force_ranking(self):
        rng = np.random.default_rng(15)
        for case in range(20):
            dim, count = int(rng.integers(2, 20)), int(rng.integers(2, 30))
            catalog = segmented_catalog({f"t{i:02d}": rng.uniform(0, 1, (2, dim)) for i in range(count)})
            exclude = {f"t{i:02d}" for i in range(1, count) if rng.uniform() < 0.3}
            pred = rng.uniform(0, 1, dim)
            starts = StartSections.of(catalog)
            for metric in (Metric("cosine"), Metric("l2"), Metric("dcg")):
                gap, _ = starts.gap(pred, metric, starts.mask(exclude))
                _, expected = brute_force_gap(pred, catalog, metric, exclude)
                assert gap == expected
                assert gap.runner_up_gap == expected.runner_up_gap, (case, metric)

    def test_tie_leads_by_zero_and_a_sole_candidate_by_infinity(self):
        catalog = segmented_catalog({"b": np.array([[0.2, 0.8]]), "a": np.array([[0.2, 0.8]])})
        starts = StartSections.of(catalog)
        pred = np.array([0.5, 0.5])
        gap, best = starts.gap(pred, Metric("l2"), starts.mask(set()))
        assert (gap.best_id, best, gap.runner_up_gap) == ("a", 1, 0.0)
        gap, _ = starts.gap(pred, Metric("l2"), starts.mask({"a"}))
        assert (gap.best_id, gap.runner_up_gap) == ("b", math.inf)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_prediction_rejected(bad):
    catalog = segmented_catalog({"a": np.array([[0.2, 0.8]]), "b": np.array([[0.7, 0.3]])})
    pred = np.array([0.5, bad])
    for metric in (Metric("cosine"), Metric("l2"), Metric("dcg")):
        with pytest.raises(ValueError, match="non-finite"):
            nearest_neighbour_gap(pred, catalog, metric)
        with pytest.raises(ValueError, match="non-finite"):
            rank_candidates(pred, catalog, metric)
