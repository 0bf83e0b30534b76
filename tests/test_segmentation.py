"""Segmentation against brute-force oracles and planted block structure."""

import logging
import math

import numpy as np
import pytest

from conftest import one_hot_block_track
from segue.catalog import Catalog, Track
from segue.segmentation import (
    SegmentationParams,
    checkerboard_kernel,
    novelty_curve,
    pick_peaks,
    segment_catalog,
    segment_track,
    self_similarity,
)


def ssm_oracle(frames: np.ndarray) -> np.ndarray:
    """Double-loop cosine similarity, scalar arithmetic only."""
    count = frames.shape[0]
    out = np.zeros((count, count))
    for i in range(count):
        for j in range(count):
            if i == j:
                out[i][j] = 1.0
                continue
            dot = sum(float(frames[i][d]) * float(frames[j][d]) for d in range(frames.shape[1]))
            norm_i = math.sqrt(sum(float(v) ** 2 for v in frames[i]))
            norm_j = math.sqrt(sum(float(v) ** 2 for v in frames[j]))
            out[i][j] = dot / (norm_i * norm_j) if norm_i > 0 and norm_j > 0 else 0.0
    return out


def kernel_oracle(size: int, sigma: float) -> np.ndarray:
    """Element-by-element evaluation of the tapered sign kernel."""
    center = (size - 1) / 2.0
    out = np.zeros((size, size))
    for u in range(size):
        for v in range(size):
            sign = (1.0 if u > center else -1.0) * (1.0 if v > center else -1.0)
            taper = math.exp(-((u - center) ** 2 + (v - center) ** 2) / (2.0 * sigma**2))
            out[u][v] = sign * taper
    return out


def novelty_oracle(matrix: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Naive correlation of the kernel along the diagonal with edge replication."""
    frames = matrix.shape[0]
    size = kernel.shape[0]
    half = size // 2
    values = np.zeros(frames)
    for t in range(frames):
        acc = 0.0
        for u in range(size):
            for v in range(size):
                i = min(max(t - half + u, 0), frames - 1)
                j = min(max(t - half + v, 0), frames - 1)
                acc += kernel[u][v] * matrix[i][j]
        values[t] = max(0.0, acc)
    return values


class TestSelfSimilarity:
    def test_identical_frames_give_all_ones(self):
        frames = np.tile([0.2, 0.4, 0.6], (5, 1))
        np.testing.assert_allclose(self_similarity(frames), np.ones((5, 5)), atol=1e-12)

    def test_alternating_orthogonal_frames_give_checkerboard(self):
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        frames = np.stack([e1, e2, e1, e2, e1, e2])
        expected = np.array([[1.0 if (i - j) % 2 == 0 else 0.0 for j in range(6)] for i in range(6)])
        np.testing.assert_allclose(self_similarity(frames), expected, atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        frames = rng.uniform(0, 1, (5, 7))
        np.testing.assert_allclose(self_similarity(frames), ssm_oracle(frames), atol=1e-12)

    def test_zero_norm_frame(self):
        frames = np.array([[0.0, 0.0], [0.5, 0.5], [0.0, 0.0]])
        matrix = self_similarity(frames)
        assert matrix[0][0] == 1.0 and matrix[2][2] == 1.0
        assert matrix[0][1] == 0.0 and matrix[0][2] == 0.0

    def test_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(6)
        matrix = self_similarity(rng.uniform(0, 1, (12, 4)))
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-9)
        np.testing.assert_allclose(np.diag(matrix), 1.0, atol=0)
        assert matrix.min() >= -1.0 and matrix.max() <= 1.0

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="2 frames"):
            self_similarity(np.array([[0.5, 0.5]]))


class TestCheckerboardKernel:
    def test_smallest_kernel_without_taper(self):
        kernel = checkerboard_kernel(2, sigma=1e9)
        np.testing.assert_allclose(kernel, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    @pytest.mark.parametrize("size,sigma", [(2, 0.5), (4, 1.0), (8, 2.0), (16, 4.0), (16, 1e6)])
    def test_entries_sum_to_zero(self, size, sigma):
        assert abs(checkerboard_kernel(size, sigma).sum()) <= 1e-12

    def test_size_four_matches_scripted_evaluation(self):
        np.testing.assert_allclose(checkerboard_kernel(4, 1.0), kernel_oracle(4, 1.0), atol=1e-12)

    def test_reflection_symmetry(self):
        kernel = checkerboard_kernel(6, 1.5)
        np.testing.assert_allclose(kernel, kernel[::-1, ::-1], atol=1e-12)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError, match="even"):
            checkerboard_kernel(5, 1.0)


class TestNoveltyCurve:
    def test_homogeneous_similarity_gives_zero_novelty(self):
        params = SegmentationParams(kernel_size=8)
        values = novelty_curve(np.ones((30, 30)), params)
        np.testing.assert_allclose(values, 0.0, atol=1e-12)

    def test_two_block_structure_peaks_at_boundary(self):
        e1, e2 = np.zeros(3), np.zeros(3)
        e1[0] = 1.0
        e2[1] = 1.0
        frames = np.vstack([np.tile(e1, (10, 1)), np.tile(e2, (10, 1))])
        params = SegmentationParams(kernel_size=16)
        values = novelty_curve(self_similarity(frames), params)
        assert int(np.argmax(values)) == 10
        assert np.sum(values == values.max()) == 1

    def test_matches_naive_oracle_on_random_input(self):
        rng = np.random.default_rng(17)
        matrix = self_similarity(rng.uniform(0, 1, (25, 6)))
        params = SegmentationParams(kernel_size=8)
        kernel = checkerboard_kernel(8, params.effective_sigma)
        np.testing.assert_allclose(
            novelty_curve(matrix, params), novelty_oracle(matrix, kernel), atol=1e-10
        )

    def test_kernel_larger_than_track(self):
        with pytest.raises(ValueError, match="kernel"):
            novelty_curve(np.ones((10, 10)), SegmentationParams(kernel_size=16))


class TestPickPeaks:
    def test_constant_curve_has_no_peaks(self):
        assert pick_peaks(np.full(30, 0.7), SegmentationParams()) == []

    def test_single_spike(self):
        values = np.zeros(30)
        values[10] = 1.0
        assert pick_peaks(values, SegmentationParams(peak_threshold=0.5)) == [10]

    def test_minimum_distance_keeps_earlier_peak(self):
        values = np.zeros(30)
        values[10] = 1.0
        values[12] = 0.9
        params = SegmentationParams(peak_threshold=0.5, min_segment_length=4)
        assert pick_peaks(values, params) == [10]

    def test_spike_below_threshold_ignored(self):
        values = np.zeros(30)
        values[10] = 0.4
        assert pick_peaks(values, SegmentationParams(peak_threshold=0.5)) == []

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pick_peaks(np.array([]), SegmentationParams())


class TestSegmentTrack:
    def test_homogeneous_track_yields_one_segment(self):
        frames = np.tile([0.3, 0.6, 0.1], (20, 1))
        track = segment_track(Track(id="t", frames=frames))
        assert len(track.segments) == 1
        assert track.segments[0].start == 0
        np.testing.assert_allclose(track.segments[0].features, [0.3, 0.6, 0.1], atol=1e-12)

    def test_two_block_track_recovers_blocks(self):
        track, _ = one_hot_block_track("t", [0, 1], [10, 10], dimension=3)
        segmented = segment_track(track, SegmentationParams(kernel_size=16))
        assert len(segmented.segments) == 2
        assert segmented.segments[1].start == 10
        np.testing.assert_allclose(segmented.segments[0].features, [1.0, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(segmented.segments[1].features, [0.0, 1.0, 0.0], atol=1e-9)

    def test_seven_block_track_recovers_all_boundaries(self):
        rng = np.random.default_rng(23)
        dims = [int(d) for d in rng.permutation(8)[:7]]
        lengths = [int(rng.integers(32, 49)) for _ in range(7)]
        track, planted = one_hot_block_track("t", dims, lengths, dimension=8)
        segmented = segment_track(track)
        found = [seg.start for seg in segmented.segments[1:]]
        assert len(segmented.segments) == 7
        for boundary in planted:
            assert any(abs(boundary - f) <= 2 for f in found)

    def test_boundaries_strictly_increasing_from_zero(self):
        rng = np.random.default_rng(31)
        frames = rng.uniform(0, 1, (60, 5))
        segmented = segment_track(Track(id="t", frames=frames))
        starts = [seg.start for seg in segmented.segments]
        assert starts[0] == 0
        assert all(a < b for a, b in zip(starts, starts[1:]))
        assert starts[-1] < 60

    def test_dimension_permutation_leaves_boundaries_unchanged(self):
        rng = np.random.default_rng(37)
        track, _ = one_hot_block_track("t", [2, 5, 0], [40, 40, 40], dimension=6)
        noisy = Track(id="t", frames=np.clip(track.frames + 0.01 * rng.standard_normal(track.frames.shape), 0, 1))
        permutation = rng.permutation(6)
        permuted = Track(id="t", frames=noisy.frames[:, permutation])
        base = segment_track(noisy)
        other = segment_track(permuted)
        assert [s.start for s in base.segments] == [s.start for s in other.segments]
        np.testing.assert_allclose(
            self_similarity(noisy.frames), self_similarity(permuted.frames), atol=1e-12
        )

    def test_single_frame_track_becomes_one_section(self):
        track = segment_track(Track(id="t", frames=np.array([[0.5, 1.0]])))
        assert [seg.start for seg in track.segments] == [0]
        np.testing.assert_array_equal(track.segments[0].features, [0.5, 1.0])

    def test_track_shorter_than_kernel_becomes_one_logged_section(self, caplog):
        frames = np.random.default_rng(43).uniform(0, 1, (10, 4))
        with caplog.at_level(logging.INFO, logger="segue.segmentation"):
            track = segment_track(Track(id="short-one", frames=frames), SegmentationParams(kernel_size=16))
        assert [seg.start for seg in track.segments] == [0]
        np.testing.assert_array_equal(track.segments[0].features, np.clip(frames.mean(axis=0), 0, 1))
        assert [r.levelno for r in caplog.records if "short-one" in r.getMessage()] == [logging.INFO]

    def test_short_tracks_do_not_abort_the_catalog(self):
        long_track, planted = one_hot_block_track("long", [0, 1], [20, 20], dimension=3)
        catalog = Catalog.from_tracks([
            long_track,
            Track(id="one", frames=np.array([[0.1, 0.2, 0.3]])),
            Track(id="ten", frames=np.tile([0.4, 0.5, 0.6], (10, 1))),
        ])
        segmented = segment_catalog(catalog)
        assert segmented.track_ids == ["long", "one", "ten"]
        assert [seg.start for seg in segmented.tracks["long"].segments] == [0] + planted
        assert [len(segmented.tracks[t].segments) for t in ("one", "ten")] == [1, 1]
