"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; ``-v`` alone gives the same verdicts through test names.
"""

import json
import time

import numpy as np
import pytest

from conftest import one_hot_block_track, segmented_catalog
from test_rnn import forward_oracle, scalar_sigmoid, step_oracle, zeroed
from test_segmentation import kernel_oracle, novelty_oracle, ssm_oracle

from segue import cli
from segue.catalog import Catalog, Track, TrainingPair, build_training_sequences, save_catalog
from segue.features import SynthSpec, generate_synthetic_catalog
from segue.model import load_model, save_model
from segue.playlist import export_transition_matrix, generate
from segue.rnn import (
    LstmState,
    TrainConfig,
    forward,
    init_model,
    loss_and_gradients,
    lstm_step,
    train,
    zero_state,
)
from segue.segmentation import (
    SegmentationParams,
    checkerboard_kernel,
    novelty_curve,
    segment_catalog,
)
from segue.similarity import Metric, dcg_similarity, rank_candidates, score


def report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# criterion 1: BPTT gradients vs central finite differences
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    worst = 0.0
    step = 1e-5
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        hidden = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 4))
        context = int(rng.integers(1, 4))
        model = init_model(2, hidden, dim, seed=seed)
        window = rng.uniform(0, 1, (context, dim))
        pad = int(rng.integers(0, context))
        window[:pad] = 0.0
        mask = np.ones(context, dtype=bool)
        mask[:pad] = False
        target = rng.uniform(0, 1, dim)
        batch = [TrainingPair(window, mask, target)]
        _, grads = loss_and_gradients(model, batch)

        def loss_only():
            residual = forward(model, window, mask) - target
            return float(residual @ residual) / dim

        for name, array in model.parameter_items():
            flat, grad = array.reshape(-1), grads[name].reshape(-1)
            for index in range(flat.size):
                original = flat[index]
                flat[index] = original + step
                plus = loss_only()
                flat[index] = original - step
                minus = loss_only()
                flat[index] = original
                numeric = (plus - minus) / (2 * step)
                denom = max(abs(grad[index]) + abs(numeric), 1e-6)
                worst = max(worst, abs(grad[index] - numeric) / denom)
    elapsed = time.monotonic() - started
    report(
        "1 (gradient correctness)",
        worst <= 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.2e} over 20 instances in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: LSTM step and forward vs direct-formula oracle
# ---------------------------------------------------------------------------


def test_criterion_2_lstm_step_oracle():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        hidden = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 4))
        model = init_model(2, hidden, dim, seed=seed)
        state = LstmState(
            hidden=[rng.uniform(-1, 1, hidden) for _ in range(2)],
            cell=[rng.uniform(-1, 1, hidden) for _ in range(2)],
        )
        x = rng.uniform(0, 1, dim)
        h, new_state = lstm_step(x, state, model)
        oracle_h, oracle_c = step_oracle(model, x, state.hidden, state.cell)
        worst = max(worst, float(np.abs(h - np.array(oracle_h[-1])).max()))
        for layer in range(2):
            worst = max(worst, float(np.abs(new_state.cell[layer] - np.array(oracle_c[layer])).max()))
        window = rng.uniform(0, 1, (int(rng.integers(1, 4)), dim))
        mask = np.ones(window.shape[0], dtype=bool)
        worst = max(
            worst, float(np.abs(forward(model, window, mask) - forward_oracle(model, window, mask)).max())
        )

    # analytic zero-parameter case: every pre-activation is 0, so every gate
    # sits exactly at sigmoid(0) = 1/2 and the state stays identically zero
    from segue.rnn import sigmoid

    model = zeroed(init_model(2, 4, 3, seed=0))
    h, state = lstm_step(np.array([0.4, 0.9, 0.2]), zero_state(model), model)
    zero_exact = (h == 0.0).all() and all((c == 0.0).all() for c in state.cell)
    gate_half = bool(np.all(sigmoid(np.zeros(4)) == 0.5))
    prediction = forward(model, np.zeros((2, 3)))
    projection_half = bool(np.all(prediction == 0.5))

    report(
        "2 (LSTM step oracle)",
        worst <= 1e-12 and zero_exact and gate_half and projection_half,
        f"max abs deviation {worst:.2e}; zero-parameter case exact",
    )


# ---------------------------------------------------------------------------
# criterion 3: planted-boundary recovery
# ---------------------------------------------------------------------------


def test_criterion_3_segmentation_recovery():
    started = time.monotonic()
    rng = np.random.default_rng(123)
    dimension = 12
    tracks: list[Track] = []
    planted: dict[str, list[int]] = {}
    homogeneous: list[str] = []
    for i in range(50):
        if i % 10 == 0:
            track_id = f"h{i:02d}"
            frames = np.zeros((int(rng.integers(40, 80)), dimension))
            frames[:, int(rng.integers(0, dimension))] = 1.0
            tracks.append(Track(id=track_id, frames=frames))
            homogeneous.append(track_id)
            continue
        block_count = int(rng.integers(2, 7))
        dims = [int(d) for d in rng.permutation(dimension)[:block_count]]
        lengths = [int(rng.integers(32, 51)) for _ in range(block_count)]
        track_id = f"b{i:02d}"
        track, boundaries = one_hot_block_track(track_id, dims, lengths, dimension)
        tracks.append(track)
        planted[track_id] = boundaries
    catalog = segment_catalog(Catalog.from_tracks(tracks))

    total = missed = 0
    for track_id, boundaries in planted.items():
        found = [seg.start for seg in catalog.tracks[track_id].segments[1:]]
        total += len(boundaries)
        for boundary in boundaries:
            if not any(abs(boundary - f) <= 2 for f in found):
                missed += 1
    single = all(len(catalog.tracks[tid].segments) == 1 for tid in homogeneous)
    elapsed = time.monotonic() - started
    report(
        "3 (segmentation recovery)",
        missed == 0 and single and elapsed < 10.0,
        f"{total - missed}/{total} boundaries within +-2; homogeneous single-segment {single}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: novelty against naive double loops (SSM, then correlation)
# ---------------------------------------------------------------------------


def test_criterion_4_ssm_novelty_oracles():
    rng = np.random.default_rng(4000)
    worst_novelty = worst_kernel = 0.0
    for _ in range(5):
        frames = rng.uniform(0, 1, (int(rng.integers(10, 25)), int(rng.integers(3, 7))))
        params = SegmentationParams(kernel_size=8)
        kernel = checkerboard_kernel(8, params.effective_sigma)
        expected = novelty_oracle(ssm_oracle(frames), kernel)
        worst_novelty = max(
            worst_novelty, float(np.abs(novelty_curve(frames, params) - expected).max())
        )
    for size, sigma in [(2, 0.5), (4, 1.0), (8, 2.0), (16, 4.0)]:
        worst_kernel = max(worst_kernel, abs(float(checkerboard_kernel(size, sigma).sum())))
        deviation = np.abs(checkerboard_kernel(size, sigma) - kernel_oracle(size, sigma)).max()
        worst_kernel = max(worst_kernel, float(deviation))
    report(
        "4 (SSM/novelty oracles)",
        worst_novelty <= 1e-10 and worst_kernel <= 1e-12,
        f"novelty of oracle SSM {worst_novelty:.2e}, kernel {worst_kernel:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 5: metric suite
# ---------------------------------------------------------------------------


def test_criterion_5_metric_suite():
    rng = np.random.default_rng(5000)
    ok = True

    # brute-force oracles for the three measures
    import math

    for _ in range(200):
        a, b = rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)
        dot = sum(float(x) * float(y) for x, y in zip(a, b))
        na = math.sqrt(sum(float(x) ** 2 for x in a))
        nb = math.sqrt(sum(float(y) ** 2 for y in b))
        ok &= abs(score(a, b, Metric("cosine")) - (1.0 - dot / (na * nb))) <= 1e-12
        ok &= abs(score(a, b, Metric("l2")) - math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))) <= 1e-12
        order = sorted(range(6), key=lambda d: (-a[d], d))
        dcg = sum(float(b[order[i - 1]]) / math.log2(i + 1) for i in range(1, 7))
        ok &= abs(score(a, b, Metric("dcg")) - dcg) <= 1e-12

    # ranking equals score-all-then-sort on a random catalog
    catalog = segmented_catalog(
        {f"t{i:02d}": rng.uniform(0, 1, (int(rng.integers(2, 5)), 6)) for i in range(20)}
    )
    pred = rng.uniform(0, 1, 6)
    for metric in (Metric("cosine"), Metric("l2"), Metric("dcg")):
        rows = [(t.id, score(pred, t.start_segment(), metric)) for t in catalog]
        reverse = metric.higher_is_better
        expected = sorted(rows, key=lambda item: (-item[1] if reverse else item[1], item[0]))
        ok &= rank_candidates(pred, catalog, metric).entries == expected

    monotone = scale_invariant = True
    for _ in range(1000):
        pred = rng.uniform(0, 1, 8)
        candidate = rng.uniform(0, 1, 8)
        bumped = candidate.copy()
        bumped[rng.integers(0, 8)] += rng.uniform(0, 0.5)
        monotone &= dcg_similarity(pred, bumped) >= dcg_similarity(pred, candidate) - 1e-12
        scale = float(rng.uniform(0.01, 100))
        scale_invariant &= (
            abs(dcg_similarity(pred * scale, candidate) - dcg_similarity(pred, candidate)) <= 1e-12
        )
    report(
        "5 (metric suite)",
        ok and monotone and scale_invariant,
        "oracles, monotonicity x1000, scaling invariance x1000",
    )


# ---------------------------------------------------------------------------
# criterion 6: overfit capability
# ---------------------------------------------------------------------------


def test_criterion_6_overfit_capability():
    started = time.monotonic()
    spec = SynthSpec(track_count=5, cluster_count=1, dimension=12, strong_dims=3, weak_dims=3,
                     segment_range=(5, 6), frames_per_segment=(24, 32), noise=0.02, seed=5)
    catalog = segment_catalog(generate_synthetic_catalog(spec), SegmentationParams(kernel_size=12))
    pairs = build_training_sequences(catalog, 4)[:20]
    assert len(pairs) == 20
    config = TrainConfig(context_length=4, epochs=500, learning_rate=1e-2, batch_size=20, seed=7)
    _, loss_report = train(init_model(2, 16, 12, seed=7), pairs, config)
    ratio = loss_report.final_loss / loss_report.epoch_losses[0]
    finite = all(np.isfinite(v) for v in loss_report.epoch_losses)
    elapsed = time.monotonic() - started
    report(
        "6 (overfit capability)",
        ratio < 0.1 and finite and elapsed < 120.0,
        f"loss {loss_report.epoch_losses[0]:.4f} -> {loss_report.final_loss:.5f} "
        f"(ratio {ratio:.3f}) in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: end-to-end coherence experiment
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster_pipeline(tmp_path_factory):
    """2-cluster synthetic catalog, segmented, with a model trained on it."""
    spec = SynthSpec(track_count=20, cluster_count=2, dimension=16, strong_dims=4, weak_dims=4,
                     segment_range=(4, 7), frames_per_segment=(32, 48), noise=0.02, seed=11)
    catalog = segment_catalog(generate_synthetic_catalog(spec))
    pairs = build_training_sequences(catalog, 8)
    config = TrainConfig(context_length=8, epochs=300, learning_rate=1e-3, batch_size=16, seed=0)
    model, _ = train(init_model(2, 32, spec.dimension, seed=0), pairs, config)

    root = tmp_path_factory.mktemp("cluster")
    catalog_path = root / "catalog.jsonl"
    model_path = root / "model.sgm"
    save_catalog(catalog, catalog_path)
    save_model(model, model_path)
    return {"spec": spec, "catalog": catalog, "model": model,
            "catalog_path": catalog_path, "model_path": model_path, "root": root}


def test_criterion_7_end_to_end_coherence(cluster_pipeline):
    spec = cluster_pipeline["spec"]
    catalog = cluster_pipeline["catalog"]
    model = cluster_pipeline["model"]
    cluster_by_id = {spec.track_id(i): spec.cluster_of(i) for i in range(spec.track_count)}

    coherent_seeds = 0
    dcg_wins = 0
    for index in range(spec.track_count):
        seed_id = spec.track_id(index)
        dcg_playlist = generate(catalog, model, seed_id, 5, Metric("dcg"))
        in_cluster = sum(
            1 for tid in dcg_playlist.track_ids if cluster_by_id[tid] == cluster_by_id[seed_id]
        )
        if in_cluster >= 4:
            coherent_seeds += 1
        cosine_playlist = generate(catalog, model, seed_id, 5, Metric("cosine"))
        from segue.playlist import coherence_report

        dcg_sim = coherence_report(dcg_playlist, catalog)["mean_adjacent_similarity"]
        cos_sim = coherence_report(cosine_playlist, catalog)["mean_adjacent_similarity"]
        if dcg_sim >= cos_sim:
            dcg_wins += 1
        print(f"  seed {seed_id}: dcg keeps {in_cluster}/5 in cluster; "
              f"adjacent similarity dcg {dcg_sim:.4f} vs cosine {cos_sim:.4f}")
    fraction = coherent_seeds / spec.track_count
    # reported, not asserted: whether dcg beats cosine, mirroring the
    # qualitative status of that observation
    print(f"  dcg >= cosine adjacent similarity on {dcg_wins}/{spec.track_count} seeds")

    out = cluster_pipeline["root"] / "report.json"
    code = cli.main(["compare", "-i", str(cluster_pipeline["catalog_path"]),
                     "-m", str(cluster_pipeline["model_path"]),
                     "--seed-track", spec.track_id(3), "--length", "5",
                     "--metrics", "cosine,l2,dcg", "-o", str(out)])
    compare_ok = code == 0
    if compare_ok:
        data = json.loads(out.read_text())
        compare_ok = (
            set(data["playlists"]) == {"cosine", "l2", "dcg"}
            and all(len(data["playlists"][m]["tracks"]) == 5 for m in data["playlists"])
            and all("mean_adjacent_similarity" in data["coherence"][m] for m in data["coherence"])
        )
    report(
        "7 (end-to-end coherence)",
        fraction >= 0.8 and compare_ok,
        f"{coherent_seeds}/{spec.track_count} seeds keep >=4/5 in cluster; compare emits 3 playlists",
    )


# ---------------------------------------------------------------------------
# criterion 8: reproducibility and persistence
# ---------------------------------------------------------------------------


def test_criterion_8_reproducibility(tmp_path):
    spec = SynthSpec(track_count=6, cluster_count=2, dimension=10, strong_dims=3, weak_dims=3,
                     segment_range=(3, 4), frames_per_segment=(16, 20), noise=0.02, seed=21)
    first_catalog = generate_synthetic_catalog(spec)
    second_catalog = generate_synthetic_catalog(spec)
    catalogs_identical = all(
        np.array_equal(first_catalog.tracks[tid].frames, second_catalog.tracks[tid].frames)
        for tid in first_catalog.track_ids
    )

    segmented = segment_catalog(first_catalog, SegmentationParams(kernel_size=8))
    pairs = build_training_sequences(segmented, 4)
    config = TrainConfig(context_length=4, epochs=20, seed=2)
    base = init_model(2, 8, 10, seed=2)
    trained_a, _ = train(base, pairs, config)
    trained_b, _ = train(base, pairs, config)
    training_identical = trained_a.equals(trained_b)

    path = tmp_path / "model.sgm"
    save_model(trained_a, path)
    loaded = load_model(path)
    round_trip_exact = loaded.equals(trained_a) and all(
        np.array_equal(a, b)
        for (_, a), (_, b) in zip(trained_a.parameter_items(), loaded.parameter_items())
    )

    playlist_a = generate(segmented, trained_a, "t00", 4, Metric("dcg"))
    playlist_b = generate(segmented, loaded, "t00", 4, Metric("dcg"))
    playlists_identical = playlist_a.track_ids == playlist_b.track_ids and all(
        np.array_equal(x.prediction, y.prediction)
        for x, y in zip(playlist_a.steps, playlist_b.steps)
    )
    report(
        "8 (reproducibility and persistence)",
        catalogs_identical and training_identical and round_trip_exact and playlists_identical,
        "bit-identical catalogs, trained models, saved models, and playlists",
    )


# ---------------------------------------------------------------------------
# criterion 9: playlist contracts
# ---------------------------------------------------------------------------


def test_criterion_9_playlist_contracts():
    rng = np.random.default_rng(9000)
    no_repeats = truncation_ok = rows_ok = True
    for trial in range(8):
        track_count = int(rng.integers(2, 9))
        catalog = segmented_catalog({
            f"t{i:02d}": rng.uniform(0, 1, (int(rng.integers(1, 6)), 5))
            for i in range(track_count)
        })
        model = init_model(2, 4, 5, seed=trial)
        model.context_length = 3
        target_length = int(rng.integers(1, track_count + 4))
        result = generate(catalog, model, "t00", target_length, Metric("cosine"))
        no_repeats &= len(set(result.track_ids)) == len(result.track_ids)
        if target_length > track_count:
            truncation_ok &= result.truncated and len(result) == track_count
        else:
            truncation_ok &= not result.truncated and len(result) == target_length
        matrix = export_transition_matrix(result, catalog)
        segment_total = sum(len(catalog.tracks[t].segments) for t in result.track_ids)
        rows_ok &= matrix.row_count == segment_total + (len(result) - 1)
    report(
        "9 (playlist contracts)",
        no_repeats and truncation_ok and rows_ok,
        "no repeats, truncation flag, export row formula across randomized playlists",
    )
