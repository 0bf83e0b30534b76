"""Standardization and the synthetic catalog generator."""

import numpy as np
import pytest

from dataclasses import replace

from conftest import segmented_catalog
from segue.catalog import Catalog, CatalogError, build_training_sequences
from segue.features import (
    STD_FLOOR,
    STRONG_LEVEL,
    WEAK_LEVEL,
    StandardizationStats,
    SynthSpec,
    fit_standardizer,
    fold_standardizer,
    generate_synthetic_catalog,
)
from segue.rnn import forward, init_model, predict_next
from segue.segmentation import segment_catalog


class TestStandardizer:
    def test_identical_vectors_map_to_zero(self):
        catalog = segmented_catalog({
            "a": np.array([[0.4, 0.6], [0.4, 0.6]]),
            "b": np.array([[0.4, 0.6]]),
        })
        stats = fit_standardizer(catalog)
        # a constant dimension's scale is infinite, so rounding noise in
        # (v - mean) is not amplified and the z-scores are exactly zero
        np.testing.assert_array_equal(stats.apply(np.array([0.4, 0.6])), [0.0, 0.0])
        assert (stats.std < STD_FLOOR).all()

    def test_two_opposite_vectors_standardize_to_plus_minus_one(self):
        # mean 0.5, population stddev 0.5 per dimension
        catalog = segmented_catalog({"a": np.array([[0.0, 1.0], [1.0, 0.0]])})
        stats = fit_standardizer(catalog)
        np.testing.assert_allclose(stats.apply(np.array([0.0, 1.0])), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(stats.apply(np.array([1.0, 0.0])), [1.0, -1.0], atol=1e-12)

    def test_pooled_statistics_after_apply(self):
        # each track is one vector twice, so its one window row is that vector,
        # and the statistics, pooled over both copies, are those of the rows
        rng = np.random.default_rng(8)
        catalog = segmented_catalog({
            f"t{i}": np.repeat(rng.uniform(0, 1, (1, 5)), 2, axis=0) for i in range(36)
        })
        pairs = build_training_sequences(catalog, 3, fit_standardizer(catalog))
        real = np.vstack([pair.window[pair.mask] for pair in pairs])
        assert real.shape == (36, 5)
        np.testing.assert_allclose(real.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(real.std(axis=0), 1.0, atol=1e-6)

    def test_windows_keep_padding_zero_and_targets_identical(self):
        rng = np.random.default_rng(5)
        catalog = segmented_catalog({f"t{i}": rng.uniform(0, 1, (4, 3)) for i in range(3)})
        plain = build_training_sequences(catalog, 3)
        standardized = build_training_sequences(catalog, 3, fit_standardizer(catalog))
        for before, after in zip(plain, standardized, strict=True):
            assert (after.window[~after.mask] == 0.0).all()
            assert (after.mask == before.mask).all()
            # the same raw row of the track's sections, neither copied nor z-scored
            assert np.shares_memory(after.target, before.target)
            assert np.array_equal(after.target, before.target)

    def test_unsegmented_catalog_rejected(self):
        from segue.catalog import Catalog, Track

        catalog = Catalog.from_tracks([Track(id="a", frames=np.array([[0.1], [0.2]]))])
        with pytest.raises(CatalogError, match="^catalog is not segmented$"):
            fit_standardizer(catalog)

    def test_single_vector_rejected(self):
        catalog = segmented_catalog({"a": np.array([[0.5, 0.5]])})
        with pytest.raises(ValueError, match="2 segment vectors"):
            fit_standardizer(catalog)


def _stats_with_floored_dimension(rng, dim, floored, level):
    mean = rng.uniform(0.2, 0.8, dim)
    std = rng.uniform(0.05, 0.3, dim)
    mean[floored], std[floored] = level, 0.0
    return StandardizationStats(mean=mean, std=std)


def _oracle_windows(rng, dim, floored, level):
    """Raw (4, 7, D) windows and masks: all real, left-padded, gapped, fully masked.

    The floored dimension sits at ``level`` in every real row, as it did in
    the segment vectors its zero deviation was fitted on.
    """
    windows = rng.uniform(0, 1, (4, 7, dim))
    windows[..., floored] = level
    mask = np.ones((4, 7), dtype=bool)
    mask[1, :3] = False  # left padding
    mask[2, [1, 4]] = False  # gaps
    mask[3] = False  # fully masked
    windows[~mask] = 0.0
    return windows, mask


def _fold_gap(layers, level):
    """Largest |folded model on raw windows - model on z-scored windows|, and the model."""
    rng = np.random.default_rng(20 + layers)
    dim, floored = 6, 2
    stats = _stats_with_floored_dimension(rng, dim, floored, level)
    model = init_model(layers, 5, dim, seed=layers)
    before = model.copy()
    raw, mask = _oracle_windows(rng, dim, floored, level)
    # z-scored real rows, zero padding: what the window builder writes, here
    # also on gapped and fully masked windows, which no track gives
    z = np.where(mask[..., None], stats.apply(raw), 0.0)
    folded = fold_standardizer(model, stats)
    assert model.equals(before)  # the fold works on a copy
    gap = np.abs(forward(folded, raw, mask) - forward(model, z, mask)).max()
    return gap, model, floored


class TestFoldStandardizer:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_folded_model_on_raw_equals_model_on_z_scores(self, layers):
        # the floored dimension is a tag that never occurs (level 0), so its
        # folded column and bias share are both exactly zero
        gap, _, _ = _fold_gap(layers, level=0.0)
        assert gap <= 1e-12

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_floored_dimension_at_a_nonzero_level(self, layers):
        """The model sees z = 0 in the floored column; its folded column and
        bias share are both exactly zero, whatever the level, so the gap is
        the rounding of the other columns' fold alone."""
        gap, _, _ = _fold_gap(layers, level=0.8)
        assert gap <= 1e-12

    def test_constant_dimension_is_ignored_after_folding(self):
        # Dimension 0 is 0.3 in every section: its std is rounding noise, not 0.
        spec = SynthSpec(track_count=8, dimension=8, strong_dims=2, weak_dims=2, seed=3)
        tracks = []
        for track in segment_catalog(generate_synthetic_catalog(spec)):
            sections = track.sections.copy()
            sections[:, 0] = 0.3
            tracks.append(replace(track, sections=sections))
        catalog = Catalog.from_tracks(tracks)
        stats = fit_standardizer(catalog)
        assert 0.0 < stats.std[0] <= STD_FLOOR
        model = init_model(2, 8, 8, seed=3)
        model.context_length = 4
        folded = fold_standardizer(model, stats)
        w_x, folded_w_x = model.layers[0].w_x, folded.layers[0].w_x
        assert (folded_w_x[:, 0] == 0.0).all()
        # the other columns are divided by their std exactly as before
        assert np.array_equal(folded_w_x[:, 1:], w_x[:, 1:] / stats.std[1:])
        history = catalog.tracks["t00"].sections
        base = predict_next(folded, history)
        for dim, moved in ((0, False), (1, True)):
            nudged = history.copy()
            nudged[:, dim] += 0.01
            assert (not np.array_equal(predict_next(folded, nudged), base)) == moved


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
        dict(strong_dims=0),
    ])
    def test_infeasible_specs_rejected(self, kwargs):
        base = dict(track_count=4, cluster_count=2, dimension=12, strong_dims=2, weak_dims=2)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SynthSpec(**base)

    @pytest.mark.parametrize("noise", [float("inf"), float("nan"), -0.1])
    def test_noise_must_be_finite_and_non_negative(self, noise):
        # infinite noise used to clamp every frame value to 0 or 1
        with pytest.raises(ValueError, match=f"^noise must be finite and >= 0, not {noise}$"):
            SynthSpec(noise=noise)

    def test_strong_dimensions_overlap_when_clusters_do_not_fit_apart(self):
        # 3 clusters x 3 strong dimensions need 9 > 8: each cluster draws its own set
        spec = SynthSpec(track_count=6, cluster_count=3, dimension=8, strong_dims=3,
                         weak_dims=2, seed=4, segment_range=(2, 3), frames_per_segment=(4, 6))
        catalog = generate_synthetic_catalog(spec)
        rebuilt = Catalog.from_tracks(list(catalog))  # every check of the walk passes
        assert rebuilt.dimension == 8 and rebuilt.track_ids == catalog.track_ids
        assert all(track.frames.shape[1] == 8 for track in catalog)

    def test_values_stay_in_unit_interval_under_heavy_noise(self):
        spec = SynthSpec(track_count=3, cluster_count=1, dimension=6, strong_dims=2,
                         weak_dims=2, noise=0.5, seed=9, segment_range=(2, 3),
                         frames_per_segment=(8, 10))
        catalog = generate_synthetic_catalog(spec)
        for track in catalog:
            assert track.frames.min() >= 0.0 and track.frames.max() <= 1.0
