"""LSTM inference against direct-formula oracles and BPTT against finite differences."""

import logging
import math
import tracemalloc

import numpy as np
import pytest

from conftest import padded_pairs
from segue import rnn as rnn_module
from segue.catalog import TrainingPair
from segue.model import GATES, SequenceModel
from segue.rnn import (
    LstmState,
    TrainConfig,
    TrainingDivergedError,
    _Adam,
    _Sgd,
    _clip_gradients,
    advance,
    forward,
    init_model,
    loss_and_gradients,
    lstm_step,
    predict_next,
    sigmoid,
    train,
    zero_state,
)


def scalar_sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def step_oracle(model, x, hidden, cell):
    """Scalar-loop evaluation of the gate equations for every layer."""
    new_hidden, new_cell = [], []
    layer_input = list(x)
    for index, layer in enumerate(model.layers):
        size = model.hidden_size
        h_prev, c_prev = hidden[index], cell[index]
        h_new, c_new = [], []
        for unit in range(size):
            pre = {}
            for gate in GATES:
                w_x, w_h, bias = layer.gate(gate)
                acc = float(bias[unit])
                for k, value in enumerate(layer_input):
                    acc += float(w_x[unit][k]) * float(value)
                for k in range(size):
                    acc += float(w_h[unit][k]) * float(h_prev[k])
                pre[gate] = acc
            i = scalar_sigmoid(pre["input"])
            f = scalar_sigmoid(pre["forget"])
            o = scalar_sigmoid(pre["output"])
            g = math.tanh(pre["candidate"])
            c = f * float(c_prev[unit]) + i * g
            c_new.append(c)
            h_new.append(o * math.tanh(c))
        new_hidden.append(h_new)
        new_cell.append(c_new)
        layer_input = h_new
    return new_hidden, new_cell


def forward_oracle(model, window, mask):
    """Run the oracle step over unmasked inputs and project with a scalar sigmoid."""
    hidden = [[0.0] * model.hidden_size for _ in model.layers]
    cell = [[0.0] * model.hidden_size for _ in model.layers]
    for t in range(window.shape[0]):
        if mask[t]:
            hidden, cell = step_oracle(model, window[t], hidden, cell)
    top = hidden[-1]
    out = []
    for d in range(model.dimension):
        acc = float(model.b_out[d])
        for k in range(model.hidden_size):
            acc += float(model.w_out[d][k]) * top[k]
        out.append(scalar_sigmoid(acc))
    return np.array(out)


def zeroed(model):
    for _, array in model.parameter_items():
        array[...] = 0.0
    return model


def finite_difference_error(model, batch, step=1e-5):
    """Largest relative gap between the BPTT gradients and central differences of the loss."""
    _, grads = loss_and_gradients(model, batch)
    worst = 0.0
    for name, array in model.parameter_items():
        flat, grad = array.reshape(-1), grads[name].reshape(-1)
        for index in range(flat.size):
            original = flat[index]
            flat[index] = original + step
            plus = batch_loss(model, batch)
            flat[index] = original - step
            minus = batch_loss(model, batch)
            flat[index] = original
            numeric = (plus - minus) / (2 * step)
            worst = max(worst, abs(grad[index] - numeric) / max(abs(grad[index]) + abs(numeric), 1e-6))
    return worst


def batch_loss(model, batch):
    """Forward-only loss used as the finite-difference target."""
    total = 0.0
    for window, mask, target in batch:
        residual = forward(model, window, mask) - target
        total += float(residual @ residual) / model.dimension
    return total / len(batch)


class TestInitModel:
    @pytest.mark.parametrize("shape", [(0, 4, 3), (2, 0, 3), (2, 4, 0)])
    def test_sizes_below_one_rejected(self, shape):
        with pytest.raises(ValueError, match="must be positive"):
            init_model(*shape)

    def test_parameter_count_formula_small(self):
        model = init_model(2, 4, 3, seed=0)
        expected = 4 * (4 * 3 + 16 + 4) + 4 * (16 + 16 + 4) + 3 * 4 + 3
        assert model.parameter_count == expected

    def test_parameter_count_full_scale(self):
        model = init_model(2, 512, 50, seed=0)
        per_gate_layer1 = 512 * 50 + 512 * 512 + 512
        per_gate_layer2 = 512 * 512 + 512 * 512 + 512
        formula = 4 * per_gate_layer1 + 4 * per_gate_layer2 + 50 * 512 + 50
        assert formula == 3_277_874
        assert model.parameter_count == formula
        assert sum(a.size for _, a in model.parameter_items()) == formula

    @pytest.mark.parametrize("shape, seed", [
        ((1, 1, 1), 0), ((2, 4, 3), 1), ((3, 33, 5), 2), ((2, 512, 50), 3),
    ], ids=["1x1x1", "2x4x3", "3x33x5", "reference 2x512x50"])
    def test_draws_equal_uniform_per_block(self, shape, seed):
        # The oracle draws each weight block with ``rng.uniform`` in file block
        # order; init_model draws in place, and must give the same bits.
        model = init_model(*shape, seed=seed)
        expected = SequenceModel.zeros(*shape)
        rng = np.random.default_rng(seed)
        for block in expected.blocks():
            if block.ndim == 2:
                bound = 1.0 / np.sqrt(block.shape[1])
                block[...] = rng.uniform(-bound, bound, size=block.shape)
        for layer in expected.layers:
            layer.gate("forget")[2][...] = 1.0
        for (name, got), (_, want) in zip(model.parameter_items(), expected.parameter_items()):
            assert got.tobytes() == want.tobytes(), name

    def test_same_seed_identical(self):
        first, second = init_model(2, 6, 4, seed=5), init_model(2, 6, 4, seed=5)
        assert first.equals(second)

    def test_forget_bias_starts_at_one(self):
        model = init_model(2, 6, 4, seed=5)
        for layer in model.layers:
            np.testing.assert_array_equal(layer.gate("forget")[2], 1.0)
            np.testing.assert_array_equal(layer.gate("input")[2], 0.0)

    def test_weights_respect_fan_in_bound(self):
        model = init_model(2, 8, 5, seed=1)
        weights = [model.w_out]
        for layer in model.layers:
            for gate in GATES:
                weights.extend(layer.gate(gate)[:2])
        for array in weights:
            assert np.abs(array).max() <= 1.0 / np.sqrt(array.shape[1])


class TestLstmStep:
    def test_all_zero_parameters_give_zero_output(self):
        model = zeroed(init_model(2, 4, 3, seed=0))
        h, state = lstm_step(np.array([0.3, 0.9, 0.1]), zero_state(model), model)
        assert (h == 0.0).all()
        for layer_cell in state.cell:
            assert (layer_cell == 0.0).all()

    def test_saturated_gates_flush_the_cell(self):
        model = zeroed(init_model(1, 4, 2, seed=0))
        model.layers[0].gate("input")[2][...] = 10.0
        model.layers[0].gate("output")[2][...] = 10.0
        model.layers[0].gate("forget")[2][...] = -10.0
        state = LstmState(hidden=[np.zeros(4)], cell=[np.ones(4)])
        h, new_state = lstm_step(np.array([0.5, 0.5]), state, model)
        # candidate stays tanh(0) = 0, so the old cell is forgotten almost entirely
        np.testing.assert_allclose(new_state.cell[0], scalar_sigmoid(-10.0), atol=1e-12)
        assert np.abs(h).max() < 1e-4

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        model = init_model(2, 3, 2, seed=11)
        state = LstmState(
            hidden=[rng.uniform(-1, 1, 3) for _ in range(2)],
            cell=[rng.uniform(-1, 1, 3) for _ in range(2)],
        )
        x = rng.uniform(0, 1, 2)
        h, new_state = lstm_step(x, state, model)
        oracle_h, oracle_c = step_oracle(model, x, state.hidden, state.cell)
        np.testing.assert_allclose(h, oracle_h[-1], atol=1e-12)
        for layer in range(2):
            np.testing.assert_allclose(new_state.hidden[layer], oracle_h[layer], atol=1e-12)
            np.testing.assert_allclose(new_state.cell[layer], oracle_c[layer], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        model = init_model(2, 3, 2, seed=0)
        with pytest.raises(ValueError, match="shape"):
            lstm_step(np.zeros(5), zero_state(model), model)

    # ``lstm_step`` is a one-row ``advance``; both refuse a state that does not fit.
    STEPPERS = {
        "lstm_step": lambda model, state: lstm_step(np.zeros(model.dimension), state, model),
        "advance": lambda model, state: advance(model, np.zeros((2, model.dimension)), state),
    }

    @pytest.mark.parametrize("step", STEPPERS)
    @pytest.mark.parametrize("layers", [1, 3])
    def test_state_with_wrong_layer_count_rejected(self, layers, step):
        model = init_model(2, 3, 2, seed=0)
        state = LstmState(hidden=[np.zeros(3)] * layers, cell=[np.zeros(3)] * layers)
        with pytest.raises(ValueError, match=f"state layer {min(layers, 2)}: state has {layers}"):
            self.STEPPERS[step](model, state)

    @pytest.mark.parametrize("step", STEPPERS)
    def test_state_with_wrong_hidden_size_rejected(self, step):
        model = init_model(2, 3, 2, seed=0)
        state = zero_state(model)
        state.cell[1] = np.zeros(4)
        with pytest.raises(ValueError, match=r"state layer 1: .*\(3,\)"):
            self.STEPPERS[step](model, state)

    @pytest.mark.parametrize("step", STEPPERS)
    @pytest.mark.parametrize("layers", [2, 3])
    def test_state_of_one_element_vectors_is_not_broadcast(self, layers, step):
        model = init_model(2, 8, 3, seed=0)
        state = LstmState(hidden=[np.zeros(1)] * layers, cell=[np.zeros(1)] * layers)
        expected = r"state layer 0: hidden \(1,\)" if layers == 2 else "state layer 2: state has 3"
        with pytest.raises(ValueError, match=expected):
            self.STEPPERS[step](model, state)

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (1, 2, 3), (0,)])
    def test_advance_rejects_sections_of_the_wrong_shape(self, shape):
        model = init_model(2, 8, 3, seed=0)
        with pytest.raises(ValueError, match=r"sections shape .* != \(n, 3\)"):
            advance(model, np.zeros(shape))


class TestForward:
    def test_zero_output_weights_give_sigmoid_of_bias(self):
        model = init_model(2, 4, 3, seed=2)
        model.w_out[...] = 0.0
        model.b_out[...] = np.array([0.0, 1.0, -2.0])
        window = np.random.default_rng(0).uniform(0, 1, (4, 3))
        expected = [scalar_sigmoid(0.0), scalar_sigmoid(1.0), scalar_sigmoid(-2.0)]
        np.testing.assert_allclose(forward(model, window), expected, atol=1e-12)

    def test_fully_masked_window_predicts_from_zero_state(self):
        model = init_model(2, 4, 3, seed=3)
        model.b_out[...] = np.array([0.5, -0.5, 1.5])
        window = np.full((4, 3), 0.9)
        mask = np.zeros(4, dtype=bool)
        expected = [scalar_sigmoid(v) for v in model.b_out]
        np.testing.assert_allclose(forward(model, window, mask), expected, atol=1e-12)

    def test_first_step_from_zero_state_reads_no_recurrent_weight(self):
        # The zero state's recurrent product is skipped, so a NaN in ``w_h``
        # reaches neither a one-step prediction nor the loss and gradients.
        rng = np.random.default_rng(20)
        model = init_model(2, 4, 3, seed=20)
        clean = model.copy()
        for layer in model.layers:
            layer.w_h[...] = np.nan
        window, target = rng.uniform(0, 1, (1, 3)), rng.uniform(0, 1, 3)
        assert np.array_equal(forward(model, window), forward(clean, window))
        pair = TrainingPair(np.vstack([np.zeros((2, 3)), window]), np.array([False, False, True]),
                            target)
        loss, grads = loss_and_gradients(model, [pair])
        assert math.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())

    def test_matches_two_step_oracle(self):
        rng = np.random.default_rng(19)
        model = init_model(2, 3, 2, seed=19)
        window = rng.uniform(0, 1, (2, 2))
        mask = np.ones(2, dtype=bool)
        np.testing.assert_allclose(
            forward(model, window, mask), forward_oracle(model, window, mask), atol=1e-12
        )

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(29)
        for seed in range(5):
            model = init_model(2, 5, 4, seed=seed)
            prediction = forward(model, rng.uniform(0, 1, (6, 4)))
            assert (prediction > 0.0).all() and (prediction < 1.0).all()

    def test_prepending_masked_steps_changes_nothing(self):
        rng = np.random.default_rng(41)
        model = init_model(2, 4, 3, seed=41)
        window = rng.uniform(0, 1, (3, 3))
        baseline = forward(model, window)
        padded = np.vstack([np.zeros((4, 3)), window])
        mask = np.array([False] * 4 + [True] * 3)
        np.testing.assert_allclose(forward(model, padded, mask), baseline, atol=1e-12)

    def test_window_length_mismatch_rejected(self):
        model = init_model(1, 3, 2, seed=0)
        with pytest.raises(ValueError, match="mask length"):
            forward(model, np.zeros((3, 2)), np.ones(2, dtype=bool))

    @pytest.mark.parametrize("shape", [(3, 5), (3,), (1, 2, 3, 2)])
    def test_window_of_the_wrong_shape_rejected(self, shape):
        model = init_model(1, 3, 2, seed=0)
        with pytest.raises(ValueError, match=r"window shape .* incompatible with dimension 2"):
            forward(model, np.zeros(shape))


class TestLossAndGradients:
    def test_zero_residual_gives_zero_loss_and_gradients(self):
        rng = np.random.default_rng(31)
        model = init_model(2, 3, 2, seed=31)
        window = rng.uniform(0, 1, (3, 2))
        mask = np.ones(3, dtype=bool)
        target = forward(model, window, mask)
        loss, grads = loss_and_gradients(model, [TrainingPair(window, mask, target)])
        assert loss == 0.0
        for array in grads.values():
            np.testing.assert_allclose(array, 0.0, atol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        model = init_model(2, 3, 2, seed=7)
        # left-padded, interior gap, fully masked
        masks = [[False, True, True], [True, False, True], [False, False, False]]
        batch = []
        for mask in masks:
            mask = np.array(mask)
            window = rng.uniform(0, 1, (3, 2))
            window[~mask] = 0.0
            batch.append(TrainingPair(window, mask, rng.uniform(0, 1, 2)))
        assert finite_difference_error(model, batch) <= 1e-4

    def test_three_layer_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        model = init_model(3, 3, 2, seed=8)
        batch = random_batch(rng, 4, 2, 4)  # left-padded, gapped, fully masked, all real
        assert finite_difference_error(model, batch) <= 1e-4

    def test_duplicated_batch_items_leave_loss_and_gradients_unchanged(self):
        rng = np.random.default_rng(43)
        model = init_model(2, 4, 3, seed=43)
        pair = TrainingPair(rng.uniform(0, 1, (3, 3)), np.ones(3, dtype=bool), rng.uniform(0, 1, 3))
        loss_one, grads_one = loss_and_gradients(model, [pair])
        loss_two, grads_two = loss_and_gradients(model, [pair, pair, pair])
        assert loss_one == pytest.approx(loss_two, abs=1e-15)
        for name in grads_one:
            np.testing.assert_allclose(grads_one[name], grads_two[name], atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            loss_and_gradients(init_model(1, 2, 2, seed=0), [])

    def test_non_finite_parameters_raise_divergence(self):
        model = init_model(1, 2, 2, seed=0)
        model.w_out[0, 0] = np.nan
        pair = TrainingPair(np.zeros((2, 2)), np.ones(2, dtype=bool), np.zeros(2))
        with pytest.raises(TrainingDivergedError):
            loss_and_gradients(model, [pair])


def random_mask(rng, length, kind):
    """A mask of one of the shapes the batched path must handle."""
    if kind == "left_padded":
        mask = np.zeros(length, dtype=bool)
        mask[int(rng.integers(0, length)) :] = True
        return mask
    if kind == "gaps":
        return rng.uniform(size=length) < 0.5
    return np.full(length, kind == "all_real")


def random_batch(rng, length, dimension, size):
    kinds = ["left_padded", "gaps", "fully_masked", "all_real"]
    batch = []
    for index in range(size):
        mask = random_mask(rng, length, kinds[index % 4] if index < 4 else str(rng.choice(kinds)))
        window = rng.uniform(0, 1, (length, dimension))
        window[~mask] = 0.0
        batch.append(TrainingPair(window, mask, rng.uniform(0, 1, dimension)))
    return batch


def nested_batch(rng, length, dimension):
    """Prefixes of one track (some sliding past the context), a duplicate, a gapped prefix,
    a fully masked item and an unrelated item, shuffled."""
    sections = rng.uniform(0, 1, (length + 2, dimension))
    batch = padded_pairs(sections, length)
    batch.append(batch[1])
    gapped = np.zeros((length, dimension))
    mask = np.zeros(length, dtype=bool)
    mask[[0, length - 1]] = True
    gapped[mask] = sections[:2]
    batch.append(TrainingPair(gapped, mask, rng.uniform(0, 1, dimension)))
    batch.append(TrainingPair(np.zeros((length, dimension)), np.zeros(length, dtype=bool),
                              rng.uniform(0, 1, dimension)))
    batch.append(random_batch(rng, length, dimension, 1)[0])
    return [batch[index] for index in rng.permutation(len(batch))]


def counted_positions(monkeypatch):
    """Patch ``rnn._run`` to record the unmasked positions of every run."""
    counts = []
    run = rnn_module._run

    def counting_run(model, windows, masks, *args, **kwargs):
        counts.append(int(np.count_nonzero(masks)))
        return run(model, windows, masks, *args, **kwargs)

    monkeypatch.setattr(rnn_module, "_run", counting_run)
    return counts


def shared_runs_oracle(windows: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nesting search ``rnn._shared_runs`` replaced, kept as its oracle.

    The items of a (B, N, D) batch that run, and where every item reads out.

    An item rides on a carrier when its real rows are, byte for byte, the
    carrier's leading real rows (bytes, so -0.0 and 0.0 differ). Items are
    keyed by their first real row and, within a key, taken longest first,
    so each rides on the first longer or equal item that holds its rows, or
    carries itself. Returns the carriers' indices in batch order and, per
    item, the index of its last real step among the step-major unmasked
    positions of the carriers' run; -1 for a fully masked item.
    """
    rows = [window[mask].tobytes() for window, mask in zip(windows, masks)]
    width = windows.shape[2] * windows.itemsize
    keyed: dict[bytes, list[int]] = {}
    for item, real in enumerate(rows):
        if real:
            keyed.setdefault(real[:width], []).append(item)
    carrier = list(range(len(rows)))
    for group in keyed.values():
        group.sort(key=lambda item: -len(rows[item]))  # stable: equal rows ride on the first
        runs: list[int] = []
        for item in group:
            carrier[item] = next((run for run in runs if rows[run].startswith(rows[item])), item)
            if carrier[item] == item:
                runs.append(item)
    carriers = np.array([item for item, real in enumerate(rows) if real and carrier[item] == item],
                        dtype=np.intp)
    run_masks = masks[carriers]
    position = np.full(run_masks.shape, -1)
    position.T[run_masks.T] = np.arange(np.count_nonzero(run_masks))  # step-major, as ``_run``
    slot = dict(zip(carriers.tolist(), range(len(carriers))))
    readout = np.full(len(rows), -1)
    for item, real in enumerate(rows):
        if real:
            run = slot[carrier[item]]
            readout[item] = position[run][run_masks[run]][len(real) // width - 1]
    return carriers, readout


def sharing_batch(rng):
    """A batch of the cases ``_shared_runs`` must tell apart: nested windows of a few
    tracks whose values come from {0, 0.5, 1} (so tracks share first rows), sliding
    windows past the context, duplicates, a zero turned to -0.0, masks with holes and
    fully masked items, in random order."""
    length, dim = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    tracks = [rng.integers(0, 3, (int(rng.integers(1, 9)), dim)) / 2.0
              for _ in range(int(rng.integers(1, 4)))]
    windows, masks = [], []
    for _ in range(int(rng.integers(1, 17))):
        sections = tracks[int(rng.integers(len(tracks)))]
        end = int(rng.integers(1, len(sections) + 1))
        filled = min(end, length)
        window, mask = np.zeros((length, dim)), np.zeros(length, dtype=bool)
        window[length - filled :], mask[length - filled :] = sections[end - filled : end], True
        kind = rng.integers(6)
        if kind == 0 and windows:  # a duplicate
            other = int(rng.integers(len(windows)))
            window, mask = windows[other].copy(), masks[other].copy()
        elif kind == 1:  # a zero turned to -0.0
            zeros = np.flatnonzero(window[mask] == 0.0)
            if zeros.size:
                rows = window[mask]
                rows.flat[int(rng.choice(zeros))] = -0.0
                window[mask] = rows
        elif kind == 2:  # a hole in the mask, its row left as it was
            mask[int(rng.integers(length))] = False
        elif kind == 3:
            mask[:] = False
        windows.append(window)
        masks.append(mask)
    return np.array(windows), np.array(masks)


class TestNestedWindows:
    """Items whose real rows lead another item's are read out of that item's run."""

    def test_loss_and_gradients_equal_mean_of_single_items(self, monkeypatch):
        rng = np.random.default_rng(77)
        for layers, hidden, dim, length in [(1, 3, 2, 4), (2, 4, 3, 5), (3, 2, 2, 3)]:
            model = init_model(layers, hidden, dim, seed=int(rng.integers(1000)))
            batch = nested_batch(rng, length, dim)
            counts = counted_positions(monkeypatch)
            loss, grads = loss_and_gradients(model, batch)
            assert counts[0] < sum(int(pair.mask.sum()) for pair in batch)
            monkeypatch.undo()
            singles = [loss_and_gradients(model, [pair]) for pair in batch]
            assert loss == pytest.approx(np.mean([one for one, _ in singles]), rel=1e-12, abs=1e-15)
            for name in grads:
                mean = sum(single[name] for _, single in singles) / len(batch)
                np.testing.assert_allclose(grads[name], mean, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(78)
        model = init_model(2, 3, 2, seed=78)
        assert finite_difference_error(model, nested_batch(rng, 3, 2)) <= 1e-4

    def test_two_tracks_of_nested_windows_run_their_longest_windows_only(self, monkeypatch):
        # The benchmark's batch: 2 tracks of 7 and 11 sections at context 50 give
        # 16 pairs with (1 + ... + 6) + (1 + ... + 10) = 76 real steps, 6 + 10 distinct.
        rng = np.random.default_rng(79)
        batch = [pair for count in (7, 11)
                 for pair in padded_pairs(rng.uniform(0, 1, (count, 3)), 50)]
        batch = [batch[index] for index in rng.permutation(len(batch))]
        assert len(batch) == 16 and sum(int(pair.mask.sum()) for pair in batch) == 76
        counts = counted_positions(monkeypatch)
        loss_and_gradients(init_model(2, 4, 3, seed=79), batch)
        assert counts == [16]

    def test_rows_that_differ_in_the_sign_of_a_zero_are_not_shared(self, monkeypatch):
        rows = np.array([[0.0, 0.5], [0.25, 0.75]])
        mask = np.ones(2, dtype=bool)
        signed = rows.copy()
        signed[0, 0] = -0.0
        target = np.array([0.5, 0.5])
        batch = [TrainingPair(rows, mask, target),
                 TrainingPair(signed, np.array([True, False]), target),
                 TrainingPair(rows, np.array([True, False]), target)]
        counts = counted_positions(monkeypatch)
        loss_and_gradients(init_model(2, 3, 2, seed=80), batch)
        assert counts == [3]  # the -0.0 item runs alone; the +0.0 prefix rides

    def test_carriers_and_readouts_equal_the_nesting_search(self):
        rng = np.random.default_rng(81)
        shared = 0
        for _ in range(2000):
            windows, masks = sharing_batch(rng)
            carriers, readout = rnn_module._shared_runs(windows, masks)
            expected_carriers, expected_readout = shared_runs_oracle(windows, masks)
            assert carriers.dtype == expected_carriers.dtype
            np.testing.assert_array_equal(carriers, expected_carriers)
            np.testing.assert_array_equal(readout, expected_readout)
            shared += int(np.count_nonzero(readout >= 0)) - len(carriers)
        assert shared > 2000  # the mix does share runs, so the rule is exercised


class TestBatchedPath:
    """A batch agrees with the same items run one at a time and with the scalar oracle."""

    @staticmethod
    def configurations():
        rng = np.random.default_rng(2024)
        for _ in range(12):
            layers, hidden, dim = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(1, 5))
            length, size = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            model = init_model(layers, hidden, dim, seed=int(rng.integers(1000)))
            yield model, random_batch(rng, length, dim, size)

    def test_loss_and_gradients_equal_mean_of_single_items(self):
        for model, batch in self.configurations():
            loss, grads = loss_and_gradients(model, batch)
            singles = [loss_and_gradients(model, [pair]) for pair in batch]
            assert loss == pytest.approx(np.mean([one for one, _ in singles]), rel=1e-12, abs=1e-15)
            for name in grads:
                mean = sum(single[name] for _, single in singles) / len(batch)
                np.testing.assert_allclose(grads[name], mean, rtol=0, atol=1e-12)

    def test_forward_on_batch_equals_per_window_forward(self):
        for model, batch in self.configurations():
            windows = np.stack([pair.window for pair in batch])
            masks = np.stack([pair.mask for pair in batch])
            each = np.stack([forward(model, pair.window, pair.mask) for pair in batch])
            np.testing.assert_allclose(forward(model, windows, masks), each, rtol=0, atol=1e-12)

    def test_forward_on_batch_matches_scalar_oracle(self):
        for model, batch in self.configurations():
            windows = np.stack([pair.window for pair in batch])
            masks = np.stack([pair.mask for pair in batch])
            oracle = np.stack([forward_oracle(model, pair.window, pair.mask) for pair in batch])
            np.testing.assert_allclose(forward(model, windows, masks), oracle, rtol=0, atol=1e-12)


def reference_sigmoid(x, out=None):
    """The logistic function as the gather/scatter step computed it: fill 1, copy exp(x) where x < 0."""
    negative = x < 0
    expx = np.abs(x)
    np.exp(np.negative(expx, out=expx), out=expx)
    if out is None:
        out = np.empty_like(expx)
    out[...] = 1.0
    np.copyto(out, expx, where=negative)
    expx += 1.0
    return np.divide(out, expx, out=out)


def reference_run(model, windows, masks, state=None):
    """The gather/scatter step loop on fused (4H, in+H) weights; returns per-layer (B, H) h and c.

    Every step gathers its items' rows into a strided [input, previous hidden]
    buffer and scatters the new rows back by item, as ``rnn._run`` did before
    dense steps carried their rows.
    """
    steps, items = np.nonzero(masks.T)
    starts = np.flatnonzero(np.diff(steps, prepend=-1)).tolist()
    spans = list(zip(starts, [*starts[1:], len(steps)]))
    size, count = model.hidden_size, len(windows)
    x = windows[items, steps]
    hidden, cell = [], []
    for index, layer in enumerate(model.layers):
        weight = np.concatenate([layer.w_x, layer.w_h], axis=1)
        n_in = weight.shape[1] - size
        w_h = weight[:, n_in:].T
        h, c = np.zeros((2, count, size))
        if state is not None:
            h[...], c[...] = state.hidden[index], state.cell[index]
        xh = np.empty((len(steps), n_in + size))
        xh[:, :n_in] = x
        gates = xh[:, :n_in] @ weight[:, :n_in].T
        gates += layer.bias
        c_prev, tanh_c, out = np.empty((3, len(steps), size))
        for lo, hi in spans:
            rows, z, h_prev = items[lo:hi], gates[lo:hi], xh[lo:hi, n_in:]
            h_prev[...] = h[rows]
            c_prev[lo:hi] = c[rows]
            z += h_prev @ w_h
            reference_sigmoid(z[:, : 3 * size], out=z[:, : 3 * size])
            np.tanh(z[:, 3 * size :], out=z[:, 3 * size :])
            i, f, o, g = (z[:, k * size : (k + 1) * size] for k in range(4))
            c_new = f * c_prev[lo:hi]
            c_new += i * g
            np.multiply(o, np.tanh(c_new, out=tanh_c[lo:hi]), out=out[lo:hi])
            h[rows], c[rows] = out[lo:hi], c_new
        hidden.append(h)
        cell.append(c)
        x = out
    return hidden, cell


def reference_prediction(model, hidden):
    return reference_sigmoid(hidden[-1] @ model.w_out.T + model.b_out)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDenseStepBits:
    """Steps that take their rows as views give, bit for bit, what the gather/scatter loop gave."""

    DIMENSION = 5

    @classmethod
    def models(cls):
        for hidden in (7, 33):
            for layers in (1, 2, 3):
                yield init_model(layers, hidden, cls.DIMENSION, seed=10 * hidden + layers)

    @classmethod
    def sections(cls, rng, count):
        rows = rng.uniform(0, 1, (count, cls.DIMENSION))
        rows[1] = [-0.0, 0.0, 0.0, 0.5, -0.0]  # signed and exact zeros
        return rows

    @staticmethod
    def assert_states(hidden, cell, ref_hidden, ref_cell):
        assert len(hidden) == len(cell) == len(ref_hidden) == len(ref_cell)
        for layer, (h, c, ref_h, ref_c) in enumerate(zip(hidden, cell, ref_hidden, ref_cell)):
            assert same_bits(h, ref_h), layer
            assert same_bits(c, ref_c), layer

    def test_advance_from_zero(self):
        rng = np.random.default_rng(41)
        for model in self.models():
            sections = self.sections(rng, 6)
            prediction, state = advance(model, sections)
            ref_hidden, ref_cell = reference_run(model, sections[None], np.ones((1, 6), dtype=bool))
            assert same_bits(prediction, reference_prediction(model, ref_hidden)[0])
            self.assert_states(state.hidden, state.cell,
                               [h[0] for h in ref_hidden], [c[0] for c in ref_cell])

    def test_advance_from_a_carried_state(self):
        rng = np.random.default_rng(42)
        for model in self.models():
            sections = self.sections(rng, 7)
            _, carried = advance(model, sections[:3])
            prediction, state = advance(model, sections[3:], carried)
            ref_hidden, ref_cell = reference_run(
                model, sections[None, 3:], np.ones((1, 4), dtype=bool), carried
            )
            assert same_bits(prediction, reference_prediction(model, ref_hidden)[0])
            self.assert_states(state.hidden, state.cell,
                               [h[0] for h in ref_hidden], [c[0] for c in ref_cell])

    def test_forward_on_an_all_real_batch(self):
        rng = np.random.default_rng(43)
        for model in self.models():
            windows = np.stack([self.sections(rng, 4) for _ in range(3)])
            masks = np.ones((3, 4), dtype=bool)
            ref_hidden, ref_cell = reference_run(model, windows, masks)
            assert same_bits(forward(model, windows), reference_prediction(model, ref_hidden))
            self.assert_states(*rnn_module._run(model, windows, masks), ref_hidden, ref_cell)

    @pytest.mark.parametrize("masks", [
        [[1, 1, 1, 1], [0, 0, 1, 1], [0, 1, 1, 1]],  # left-padded
        [[1, 1, 1, 1], [1, 0, 1, 1], [0, 0, 0, 0]],  # a sparse step after a dense one
    ])
    def test_batch_with_masked_steps(self, masks):
        masks = np.array(masks, dtype=bool)
        rng = np.random.default_rng(44)
        for model in self.models():
            windows = np.stack([self.sections(rng, 4) for _ in range(3)])
            windows[~masks] = 0.0
            ref_hidden, ref_cell = reference_run(model, windows, masks)
            assert same_bits(forward(model, windows, masks), reference_prediction(model, ref_hidden))
            self.assert_states(*rnn_module._run(model, windows, masks), ref_hidden, ref_cell)


def reference_bptt(model, tape, d_out, grads):
    """The backward step loop that gathers and scatters every step's rows by item, as
    ``rnn._bptt`` did before all-real steps took their rows as views."""
    (count, items, spans), *layers, _ = tape
    size = model.hidden_size
    dx = d_out
    for index in reversed(range(model.num_layers)):
        layer = model.layers[index]
        x, h_prev, gates, c_prev, tanh_c = layers[index]
        w_h = layer.w_h
        dh, dc = np.zeros((2, count, size))
        dz = np.empty_like(gates)
        for lo, hi in reversed(spans):
            rows, z, tc = items[lo:hi], gates[lo:hi], tanh_c[lo:hi]
            i, f, o, g = (z[:, k * size : (k + 1) * size] for k in range(4))
            d_h = dh[rows] + dx[lo:hi]
            d_c = dc[rows] + d_h * o * (1.0 - tc**2)
            dz_i, dz_f, dz_o, dz_g = (dz[lo:hi, k * size : (k + 1) * size] for k in range(4))
            np.multiply(d_c * g * i, 1.0 - i, out=dz_i)
            np.multiply(d_c * c_prev[lo:hi] * f, 1.0 - f, out=dz_f)
            np.multiply(d_h * tc * o, 1.0 - o, out=dz_o)
            np.multiply(d_c * i, 1.0 - g**2, out=dz_g)
            if lo:
                dh[rows] = dz[lo:hi] @ w_h
                dc[rows] = d_c * f
        if index > 0:
            dx = dz @ layer.w_x
        np.matmul(dz.T, x, out=grads[f"layer{index}.w_x"])
        np.matmul(dz.T, h_prev, out=grads[f"layer{index}.w_h"])
        np.sum(dz, axis=0, out=grads[f"layer{index}.bias"])


class TestBpttBits:
    """The backward pass gives, bit for bit, what the loop that gathers every step's rows gave."""

    LENGTH = 6

    @classmethod
    def batches(cls, rng):
        dimension = TestDenseStepBits.DIMENSION
        for _ in range(3):
            yield random_batch(rng, cls.LENGTH, dimension, 9)  # left-padded, gapped, fully masked
        all_real = np.ones(cls.LENGTH, dtype=bool)
        yield [TrainingPair(rng.uniform(0, 1, (cls.LENGTH, dimension)), all_real,
                            rng.uniform(0, 1, dimension)) for _ in range(3)]
        yield nested_batch(rng, cls.LENGTH, dimension)

    @staticmethod
    def step_kinds(batch):
        """Whether the batch's run has a step where every item is real, and one that leaves
        items out."""
        masks = np.array([pair.mask for pair in batch])
        carriers, _ = rnn_module._shared_runs(np.array([pair.window for pair in batch]), masks)
        real = masks[carriers]
        return {"all real": real.all(axis=0).any(),
                "some left out": (real.any(axis=0) & ~real.all(axis=0)).any()}

    def test_gradients_equal_the_gathering_loop(self, monkeypatch):
        rng = np.random.default_rng(46)
        seen = set()
        for model in TestDenseStepBits.models():
            for batch in self.batches(rng):
                seen.update(kind for kind, present in self.step_kinds(batch).items() if present)
                loss, grads = loss_and_gradients(model, batch)
                with monkeypatch.context() as patched:
                    patched.setattr(rnn_module, "_bptt", reference_bptt)
                    ref_loss, ref_grads = loss_and_gradients(model, batch)
                assert loss == ref_loss
                for name, grad in grads.items():
                    assert same_bits(grad, ref_grads[name]), name
        assert seen == {"all real", "some left out"}


def two_branch_sigmoid(x):
    """``1 / (1 + exp(-x))`` for x >= 0 and ``exp(x) / (1 + exp(x))`` for x < 0; NaN stays NaN."""
    out = np.full(x.shape, np.nan)
    positive, negative = x >= 0, x < 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    ex = np.exp(x[negative])
    out[negative] = ex / (1.0 + ex)
    return out


class TestSigmoidBits:
    SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 750.0, -750.0,
               np.inf, -np.inf, np.nan]

    @staticmethod
    def assert_bits(got, expected):
        nan = np.isnan(expected)
        assert (np.isnan(got) == nan).all()
        assert (got[~nan].view(np.int64) == expected[~nan].view(np.int64)).all()

    def values(self, count=1000):
        rng = np.random.default_rng(45)
        return np.concatenate([self.SPECIAL, 10.0 * rng.standard_normal(count)])

    def test_matches_the_two_branch_formula(self):
        x = self.values()
        self.assert_bits(sigmoid(x), two_branch_sigmoid(x))

    def test_output_may_alias_the_input(self):
        x = self.values()
        expected = two_branch_sigmoid(x)
        result = sigmoid(x, out=x)
        assert result is x
        self.assert_bits(x, expected)

    def test_strided_gate_block_view(self):
        hidden = 33
        rng = np.random.default_rng(46)
        gates = 10.0 * rng.standard_normal((2, 4 * hidden))
        gates[0, : len(self.SPECIAL)] = self.SPECIAL
        gates[1, 2 * hidden : 2 * hidden + len(self.SPECIAL)] = self.SPECIAL
        before = gates.copy()
        block = gates[:, : 3 * hidden]
        sigmoid(block, out=block)
        self.assert_bits(gates[:, : 3 * hidden], two_branch_sigmoid(before[:, : 3 * hidden]))
        assert same_bits(gates[:, 3 * hidden :], before[:, 3 * hidden :])


def toy_pairs(count=30, context=8, dimension=6, seed=3):
    """Learnable toy transition: the target is the last input rotated by one."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        window = rng.uniform(0, 1, (context, dimension))
        pairs.append(TrainingPair(window, np.ones(context, dtype=bool), np.roll(window[-1], 1)))
    return pairs


class TestTrain:
    def test_zero_learning_rate_changes_nothing(self):
        model = init_model(2, 4, 3, seed=1)
        rng = np.random.default_rng(1)
        pairs = [
            TrainingPair(rng.uniform(0, 1, (2, 3)), np.ones(2, dtype=bool), rng.uniform(0, 1, 3))
            for _ in range(6)
        ]
        config = TrainConfig(context_length=2, epochs=5, learning_rate=0.0, seed=1)
        trained, report = train(model, pairs, config)
        for (_, before), (_, after) in zip(model.parameter_items(), trained.parameter_items()):
            np.testing.assert_array_equal(before, after)
        # constant up to summation order: each epoch shuffles the batch
        np.testing.assert_allclose(report.epoch_losses, report.epoch_losses[0], rtol=0, atol=1e-12)

    def test_same_seed_bit_identical(self):
        pairs = toy_pairs(count=12, context=3, dimension=4, seed=2)
        config = TrainConfig(context_length=3, epochs=8, seed=9)
        model = init_model(2, 5, 4, seed=9)
        first, _ = train(model, pairs, config)
        second, _ = train(model, pairs, config)
        assert first.equals(second)

    def test_loss_decreases_monotonically_on_toy_task(self):
        pairs = toy_pairs(count=50, context=8, dimension=6, seed=3)
        model = init_model(2, 16, 6, seed=0)
        _, report = train(model, pairs, TrainConfig(epochs=10))
        losses = report.epoch_losses
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_training_leaves_input_model_untouched(self):
        pairs = toy_pairs(count=8, context=3, dimension=4, seed=5)
        model = init_model(2, 4, 4, seed=5)
        snapshot = model.copy()
        train(model, pairs, TrainConfig(context_length=3, epochs=3, seed=5))
        assert model.equals(snapshot)

    def test_trained_model_records_context(self):
        pairs = toy_pairs(count=8, context=3, dimension=4, seed=6)
        trained, _ = train(
            init_model(2, 4, 4, seed=6), pairs, TrainConfig(context_length=3, epochs=2, seed=6)
        )
        assert trained.context_length == 3

    def test_window_length_mismatch_rejected(self):
        pairs = toy_pairs(count=4, context=3, dimension=4, seed=7)
        with pytest.raises(ValueError, match="context length"):
            train(init_model(2, 4, 4, seed=7), pairs, TrainConfig(context_length=5, epochs=1))

    @pytest.mark.parametrize("field, value, message", [
        ("mask", np.ones(2, dtype=bool), r"pair 1: mask shape \(2,\) != \(3,\)"),
        ("target", np.zeros(5), r"pair 1: target shape \(5,\) != \(4,\)"),
        ("target", np.array([0.5, np.nan, 0.5, 0.5]), "pair 1: non-finite window or target"),
        ("window", np.full((3, 4), np.inf), "pair 1: non-finite window or target"),
    ])
    def test_malformed_pair_rejected_before_training(self, monkeypatch, field, value, message):
        pairs = toy_pairs(count=4, context=3, dimension=4, seed=7)
        pairs[1] = pairs[1]._replace(**{field: value})

        def refuse(model, batch):
            raise AssertionError("a batch ran")

        monkeypatch.setattr(rnn_module, "loss_and_gradients", refuse)
        with pytest.raises(ValueError, match=message):
            train(init_model(2, 4, 4, seed=7), pairs, TrainConfig(context_length=3, epochs=1))

    def test_non_finite_value_in_a_real_row_rejected(self):
        pairs = toy_pairs(count=4, context=3, dimension=4, seed=7)
        window = pairs[1].window.copy()
        window[2, 1] = np.inf
        pairs[1] = pairs[1]._replace(window=window, mask=np.array([False, True, True]))
        with pytest.raises(ValueError, match="pair 1: non-finite window or target"):
            train(init_model(2, 4, 4, seed=7), pairs, TrainConfig(context_length=3, epochs=1))

    def test_non_finite_padding_trains_as_zero_padding(self):
        # Masked rows never reach the LSTM, so NaN padding is accepted and
        # trains bit for bit as zero padding does.
        model, config = init_model(2, 4, 4, seed=7), TrainConfig(context_length=3, epochs=2)
        trained = []
        for fill in (0.0, np.nan):
            pairs = toy_pairs(count=4, context=3, dimension=4, seed=7)
            window = pairs[1].window.copy()
            window[0] = fill
            pairs[1] = pairs[1]._replace(window=window, mask=np.array([False, True, True]))
            trained.append(train(model, pairs, config)[0])
        for (_, zero), (_, nan) in zip(*(model.parameter_items() for model in trained)):
            np.testing.assert_array_equal(zero, nan)

    def test_every_target_too_long_rejected(self):
        pairs = [pair._replace(target=np.zeros(5)) for pair in toy_pairs(4, 3, 4, seed=7)]
        with pytest.raises(ValueError, match=r"pair 0: target shape"):
            train(init_model(2, 4, 4, seed=7), pairs, TrainConfig(context_length=3, epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch(self):
        model = init_model(1, 2, 2, seed=0)
        model.w_out[0, 0] = np.inf
        pair = TrainingPair(np.full((2, 2), 0.5), np.ones(2, dtype=bool), np.full(2, 0.5))
        with pytest.raises(TrainingDivergedError, match="epoch 1") as info:
            train(model, [pair], TrainConfig(context_length=2, epochs=3))
        assert info.value.epoch == 1

    def test_epoch_loss_overflow_reports_epoch(self):
        # A target element of 1e154 makes each batch's loss about 2.5e307, which
        # is finite; the epoch's sum of 40 of them is not.
        pairs = [pair._replace(target=np.array([1e154, 0.5, 0.5, 0.5]))
                 for pair in toy_pairs(40, 3, 4, seed=7)]
        config = TrainConfig(context_length=3, epochs=2, batch_size=1)
        with pytest.raises(TrainingDivergedError, match="^epoch 1: non-finite epoch loss$") as info:
            train(init_model(2, 4, 4, seed=7), pairs, config)
        assert info.value.epoch == 1

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -1e-3),
        ("clip_norm", math.nan), ("clip_norm", 0.0), ("clip_norm", -math.inf),
    ])
    def test_config_rejects_bad_rate_and_clip_norm(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["context_length", "epochs", "batch_size"])
    def test_config_rejects_counts_below_one(self, field):
        with pytest.raises(ValueError, match="must be positive"):
            TrainConfig(**{field: 0})

    def test_config_rejects_an_unknown_optimizer(self):
        with pytest.raises(ValueError, match="unknown optimizer 'rmsprop'"):
            TrainConfig(optimizer="rmsprop")

    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError, match="no training sequences"):
            train(init_model(1, 2, 2, seed=0), [], TrainConfig(context_length=2, epochs=1))

    def test_infinite_clip_norm_never_clips(self, caplog):
        pairs = toy_pairs(count=6, context=3, dimension=4, seed=4)
        config = TrainConfig(context_length=3, epochs=2, batch_size=4, seed=4, clip_norm=math.inf)
        with caplog.at_level(logging.INFO, logger="segue.rnn"):
            train(init_model(2, 4, 4, seed=4), pairs, config)
        lines = [r.getMessage() for r in caplog.records if r.name == "segue.rnn"]
        assert len(lines) == 2 and all("clipped=0/2 " in line for line in lines)

    def test_logs_one_progress_line_per_epoch(self, caplog):
        pairs = toy_pairs(count=6, context=3, dimension=4, seed=4)
        config = TrainConfig(context_length=3, epochs=3, batch_size=4, seed=4, clip_norm=1e-6)
        with caplog.at_level(logging.INFO, logger="segue.rnn"):
            _, report = train(init_model(2, 4, 4, seed=4), pairs, config)
        lines = [r.getMessage() for r in caplog.records if r.name == "segue.rnn"]
        assert len(lines) == 3
        for epoch, (line, loss) in enumerate(zip(lines, report.epoch_losses), start=1):
            assert line.startswith(f"epoch {epoch}/3 loss={loss:.6g} grad_norm_max=")
            assert "clipped=2/2 seconds=" in line

    def test_sgd_optimizer_also_learns(self):
        pairs = toy_pairs(count=20, context=4, dimension=4, seed=8)
        config = TrainConfig(context_length=4, epochs=30, optimizer="sgd", learning_rate=0.5, seed=8)
        _, report = train(init_model(2, 8, 4, seed=8), pairs, config)
        assert report.final_loss < report.epoch_losses[0]


def flat_parameters(rng, shapes):
    """Standard normal values for every shape, drawn in order into one flat vector; returns
    the vector and a dict of its views."""
    flat = np.concatenate([rng.standard_normal(shape).ravel() for shape in shapes.values()])
    views, lo = {}, 0
    for name, shape in shapes.items():
        views[name] = flat[lo : lo + math.prod(shape)].reshape(shape)
        lo += views[name].size
    return flat, views


class TestFlatBuffers:
    """A ``train`` call holds its parameters, gradients and Adam moments in one vector each."""

    @staticmethod
    def traced_train(batches, optimizer="adam", monkeypatch=None):
        """Train H=64 for one epoch of ``batches`` batches under tracemalloc; returns the peak
        and, per batch after the first, how far memory rose above where the one before began."""
        pairs = toy_pairs(count=2 * batches, context=3, dimension=4, seed=21)
        model = init_model(2, 64, 4, seed=21)
        config = TrainConfig(context_length=3, epochs=1, batch_size=2, seed=21, optimizer=optimizer)
        rises, began = [], []
        if monkeypatch is not None:
            run = rnn_module.loss_and_gradients

            def measured(*args):
                current, peak = tracemalloc.get_traced_memory()
                if began:
                    rises.append(peak - began[-1])
                began.append(current)
                tracemalloc.reset_peak()
                return run(*args)

            monkeypatch.setattr(rnn_module, "loss_and_gradients", measured)
        tracemalloc.start()
        try:
            train(model, pairs, config)
            return tracemalloc.get_traced_memory()[1], rises
        finally:
            tracemalloc.stop()

    def test_a_call_allocates_per_call_not_per_batch(self):
        one, _ = self.traced_train(1)
        eight, _ = self.traced_train(8)
        vector = init_model(2, 64, 4).parameter_count * 8
        assert eight - one < vector / 8

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_a_batch_allocates_no_parameter_sized_buffer(self, monkeypatch, optimizer):
        _, rises = self.traced_train(8, optimizer, monkeypatch)
        vector = init_model(2, 64, 4).parameter_count * 8
        # a batch's own activations stay far below one more parameter-sized vector
        assert len(rises) == 7 and max(rises) < vector / 2

    def test_gradients_into_a_reused_buffer_match_a_fresh_call(self):
        rng = np.random.default_rng(22)
        model = init_model(2, 5, 3, seed=22)
        batch = random_batch(rng, 4, 3, 6)
        fresh_loss, fresh = loss_and_gradients(model, batch)
        out = np.full(model.parameter_count, np.nan)
        for _ in range(2):  # the second call overwrites the first's gradients
            loss, grads = loss_and_gradients(model, batch, out)
            assert loss == fresh_loss and list(grads) == list(fresh)
            for name, array in grads.items():
                assert np.shares_memory(array, out)
                np.testing.assert_array_equal(array, fresh[name])
            np.testing.assert_array_equal(out, np.concatenate([g.ravel() for g in fresh.values()]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_gradient_raises_with_its_epoch(self, monkeypatch, bad):
        run, calls = rnn_module.loss_and_gradients, []

        def poisoned(model, batch, out):
            result = run(model, batch, out)
            calls.append(batch)
            if len(calls) == 3:  # the first batch of epoch 2
                out[7] = bad
            return result

        monkeypatch.setattr(rnn_module, "loss_and_gradients", poisoned)
        pairs = toy_pairs(count=4, context=3, dimension=4, seed=23)
        config = TrainConfig(context_length=3, epochs=3, batch_size=2, seed=23)
        message = "^epoch 2: non-finite loss or gradient$"
        with pytest.raises(TrainingDivergedError, match=message) as info:
            train(init_model(2, 4, 4, seed=23), pairs, config)
        assert info.value.epoch == 2 and len(calls) == 3

    def test_finite_gradients_whose_squares_overflow_are_clipped_not_refused(self):
        grads = np.full(6, 1e160)
        grads[2] = -1e160
        assert _clip_gradients(grads, 5.0) == math.inf
        np.testing.assert_array_equal(grads, 0.0)  # scaled by 5 / inf, as any norm above the clip
        kept = np.full(6, 1e160)
        assert _clip_gradients(kept, math.inf) == math.inf
        np.testing.assert_array_equal(kept, 1e160)

    def test_norm_bits_do_not_depend_on_the_vector_address(self):
        grads = np.random.default_rng(24).standard_normal(100_003)
        shifted = np.empty(grads.size + 1)[1:]  # 8 bytes off the allocation's alignment
        shifted[...] = grads
        assert _clip_gradients(grads, math.inf) == _clip_gradients(shifted, math.inf)

    def test_clip_scales_to_the_clip_norm(self):
        grads = np.array([3.0, -4.0, 0.0])
        assert _clip_gradients(grads, 2.5) == 5.0
        np.testing.assert_array_equal(grads, [1.5, -2.0, 0.0])
        assert _clip_gradients(grads, 2.5) == 2.5
        np.testing.assert_array_equal(grads, [1.5, -2.0, 0.0])


class TestAdam:
    @staticmethod
    def check_against_formula(shapes, seed):
        rng = np.random.default_rng(seed)
        flat, params = flat_parameters(rng, shapes)
        expected = {name: array.copy() for name, array in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        lr, beta1, beta2, eps = 3e-3, _Adam.beta1, _Adam.beta2, _Adam.eps
        opt = _Adam(flat.size, lr)
        for step in range(1, 6):
            flat_grads, grads = flat_parameters(rng, shapes)
            opt.update(flat, flat_grads)
            for name, g in grads.items():
                m[name] = beta1 * m[name] + (1.0 - beta1) * g
                v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
                m_hat = m[name] / (1.0 - beta1**step)
                v_hat = v[name] / (1.0 - beta2**step)
                expected[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
                np.testing.assert_array_equal(params[name], expected[name])

    def test_in_place_update_matches_out_of_place_formula_bit_for_bit(self):
        # the largest array spans several in-place slices
        self.check_against_formula({"w": (12, 7), "b": (5,), "big": (3 * _Adam.chunk + 11,)}, 17)

    def test_a_slice_straddling_two_parameters_matches_the_formula_bit_for_bit(self):
        # the first slice ends 5 values into "b", the second takes its other 7 and most of "c"
        chunk = _Adam.chunk
        self.check_against_formula({"a": (chunk - 5,), "b": (3, 4), "c": (chunk + 3,)}, 18)


class TestSgd:
    def test_update_equals_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(19)
        size = 3 * _Adam.chunk + 11
        # signed values from subnormal to near overflow, and signed zeros
        params, grads = (rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
                         for _ in range(2))
        params[:4], grads[4:8] = [0.0, -0.0, 0.0, -0.0], [0.0, -0.0, -0.0, 0.0]
        lr = 0.1
        expected = params - lr * grads
        _Sgd(lr).update(params, grads)
        np.testing.assert_array_equal(params.view(np.int64), expected.view(np.int64))


class TestPredictNext:
    def test_single_segment_equals_padded_forward(self):
        model = init_model(2, 4, 3, seed=12)
        model.context_length = 4
        segment = np.array([0.2, 0.8, 0.5])
        window = np.zeros((4, 3))
        window[3] = segment
        mask = np.array([False, False, False, True])
        np.testing.assert_allclose(
            predict_next(model, segment[None, :]), forward(model, window, mask), atol=0
        )

    def test_long_history_keeps_only_most_recent(self):
        rng = np.random.default_rng(13)
        model = init_model(2, 4, 3, seed=13)
        model.context_length = 3
        history = rng.uniform(0, 1, (8, 3))
        np.testing.assert_allclose(
            predict_next(model, history), forward(model, history[-3:]), atol=0
        )

    def test_seven_segment_seed_with_reference_context_length(self):
        # the reference configuration: 50-dimensional features, context of 50
        rng = np.random.default_rng(14)
        model = init_model(2, 4, 50, seed=14)
        model.context_length = 50
        seed_segments = rng.uniform(0, 1, (7, 50))
        window = np.zeros((50, 50))
        window[43:] = seed_segments
        mask = np.zeros(50, dtype=bool)
        mask[43:] = True
        assert int(mask.sum()) == 7 and int((~mask).sum()) == 43
        np.testing.assert_allclose(
            predict_next(model, seed_segments), forward(model, window, mask), atol=0
        )

    def test_empty_history_rejected(self):
        model = init_model(1, 2, 2, seed=0)
        model.context_length = 2
        with pytest.raises(ValueError, match="at least one"):
            predict_next(model, np.zeros((0, 2)))

    def test_untrained_model_rejected(self):
        model = init_model(1, 2, 2, seed=0)
        with pytest.raises(ValueError, match="context length"):
            predict_next(model, np.zeros((1, 2)))

    def test_wrong_width_rejected(self):
        model = init_model(1, 2, 2, seed=0)
        model.context_length = 2
        with pytest.raises(ValueError, match="segment dimension 3 != model dimension 2"):
            predict_next(model, np.zeros((1, 3)))
