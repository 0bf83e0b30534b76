"""Standardization and the synthetic catalog generator."""

import numpy as np
import pytest

from conftest import segmented_catalog
from segue.catalog import STD_FLOOR
from segue.features import (
    STRONG_LEVEL,
    WEAK_LEVEL,
    SynthSpec,
    fit_standardizer,
    generate_synthetic_catalog,
    standardize_catalog,
)


class TestStandardizer:
    def test_identical_vectors_map_to_zero(self):
        catalog = segmented_catalog({
            "a": np.array([[0.4, 0.6], [0.4, 0.6]]),
            "b": np.array([[0.4, 0.6]]),
        })
        stats = fit_standardizer(catalog)
        # the epsilon floor divides rounding noise in (v - mean) by 1e-8, so
        # "all zeros" holds to amplified machine epsilon, not exactly
        np.testing.assert_allclose(stats.apply(np.array([0.4, 0.6])), [0.0, 0.0], atol=1e-6)
        assert (stats.std < STD_FLOOR).all()

    def test_two_opposite_vectors_standardize_to_plus_minus_one(self):
        # mean 0.5, population stddev 0.5 per dimension
        catalog = segmented_catalog({"a": np.array([[0.0, 1.0], [1.0, 0.0]])})
        stats = fit_standardizer(catalog)
        np.testing.assert_allclose(stats.apply(np.array([0.0, 1.0])), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(stats.apply(np.array([1.0, 0.0])), [1.0, -1.0], atol=1e-12)

    def test_invert_after_apply_is_identity(self):
        rng = np.random.default_rng(4)
        catalog = segmented_catalog({
            f"t{i}": rng.uniform(0, 1, (int(rng.integers(2, 6)), 8)) for i in range(5)
        })
        stats = fit_standardizer(catalog)
        for track in catalog:
            vectors = track.segment_matrix()
            np.testing.assert_allclose(stats.invert(stats.apply(vectors)), vectors, atol=1e-9)

    def test_pooled_statistics_after_apply(self):
        rng = np.random.default_rng(8)
        catalog = segmented_catalog({f"t{i}": rng.uniform(0, 1, (6, 5)) for i in range(6)})
        standardized = standardize_catalog(catalog)
        pooled = np.vstack([t.segment_matrix() for t in standardized])
        np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(pooled.std(axis=0), 1.0, atol=1e-6)

    def test_standardized_catalog_carries_stats(self):
        catalog = segmented_catalog({
            "a": np.array([[0.1, 0.9], [0.5, 0.5]]),
            "b": np.array([[0.9, 0.1]]),
        })
        standardized = standardize_catalog(catalog)
        assert standardized.standardized
        assert standardized.stats is not None
        original = catalog.tracks["a"].segments[0].features
        recovered = standardized.to_original_space(standardized.tracks["a"].segments[0].features)
        np.testing.assert_allclose(recovered, original, atol=1e-9)

    def test_restandardizing_rejected(self):
        catalog = segmented_catalog({"a": np.array([[0.1, 0.9], [0.5, 0.5]])})
        with pytest.raises(ValueError, match="already standardized"):
            standardize_catalog(standardize_catalog(catalog))

    def test_unsegmented_catalog_rejected(self):
        from segue.catalog import Catalog, Track

        catalog = Catalog.from_tracks([Track(id="a", frames=np.array([[0.1], [0.2]]))])
        with pytest.raises(ValueError, match="segmented"):
            fit_standardizer(catalog)

    def test_single_vector_rejected(self):
        catalog = segmented_catalog({"a": np.array([[0.5, 0.5]])})
        with pytest.raises(ValueError, match="2 segment vectors"):
            fit_standardizer(catalog)


class TestSyntheticCatalog:
    def test_noiseless_strong_dims_sit_exactly_at_level(self):
        spec = SynthSpec(track_count=4, cluster_count=2, dimension=10, strong_dims=3,
                         weak_dims=3, noise=0.0, seed=2, segment_range=(2, 3),
                         frames_per_segment=(5, 8))
        catalog = generate_synthetic_catalog(spec)
        for track in catalog:
            strong = np.isclose(track.frames, STRONG_LEVEL).all(axis=0)
            weak = np.isclose(track.frames, WEAK_LEVEL).all(axis=0)
            assert strong.sum() == 3
            assert weak.sum() == 3
            assert (track.frames[:, strong] == STRONG_LEVEL).all()

    def test_same_seed_is_bit_identical(self):
        spec = SynthSpec(track_count=6, cluster_count=3, dimension=12, strong_dims=2,
                         weak_dims=2, seed=77, segment_range=(2, 4), frames_per_segment=(6, 9))
        first = generate_synthetic_catalog(spec)
        second = generate_synthetic_catalog(spec)
        assert first.track_ids == second.track_ids
        for track_id in first.track_ids:
            np.testing.assert_array_equal(
                first.tracks[track_id].frames, second.tracks[track_id].frames
            )

    def test_different_seeds_differ(self):
        base = dict(track_count=4, cluster_count=2, dimension=8, strong_dims=2, weak_dims=2,
                    segment_range=(2, 3), frames_per_segment=(5, 6))
        first = generate_synthetic_catalog(SynthSpec(seed=1, **base))
        second = generate_synthetic_catalog(SynthSpec(seed=2, **base))
        assert any(
            not np.array_equal(first.tracks[tid].frames, second.tracks[tid].frames)
            for tid in first.track_ids
        )

    def test_clusters_are_more_similar_within_than_across(self):
        spec = SynthSpec(track_count=20, cluster_count=2, dimension=16, strong_dims=4,
                         weak_dims=4, noise=0.02, seed=13, segment_range=(3, 5),
                         frames_per_segment=(10, 16))
        catalog = generate_synthetic_catalog(spec)
        means = {track.id: track.frames.mean(axis=0) for track in catalog}
        clusters = {track_id: spec.cluster_of(i) for i, track_id in enumerate(catalog.track_ids)}

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        intra, inter = [], []
        ids = catalog.track_ids
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                sim = cosine(means[ids[i]], means[ids[j]])
                (intra if clusters[ids[i]] == clusters[ids[j]] else inter).append(sim)
        assert np.mean(intra) > np.mean(inter)

    def test_track_ids_are_zero_padded(self):
        spec = SynthSpec(track_count=3, cluster_count=1, dimension=4, strong_dims=1,
                         weak_dims=1, segment_range=(2, 2), frames_per_segment=(4, 4))
        assert generate_synthetic_catalog(spec).track_ids == ["t00", "t01", "t02"]

    @pytest.mark.parametrize("kwargs", [
        dict(strong_dims=5, weak_dims=5, dimension=8),
        dict(track_count=0),
        dict(cluster_count=5, track_count=3),
        dict(segment_range=(3, 2)),
        dict(noise=-0.1),
    ])
    def test_infeasible_specs_rejected(self, kwargs):
        base = dict(track_count=4, cluster_count=2, dimension=12, strong_dims=2, weak_dims=2)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SynthSpec(**base)

    def test_values_stay_in_unit_interval_under_heavy_noise(self):
        spec = SynthSpec(track_count=3, cluster_count=1, dimension=6, strong_dims=2,
                         weak_dims=2, noise=0.5, seed=9, segment_range=(2, 3),
                         frames_per_segment=(8, 10))
        catalog = generate_synthetic_catalog(spec)
        for track in catalog:
            assert track.frames.min() >= 0.0 and track.frames.max() <= 1.0
