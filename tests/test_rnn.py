"""LSTM inference against direct-formula oracles and BPTT against finite differences."""

import logging
import math

import numpy as np
import pytest

from segue.catalog import TrainingPair
from segue.model import GATES
from segue.rnn import (
    LstmState,
    TrainConfig,
    TrainingDivergedError,
    _Adam,
    forward,
    init_model,
    loss_and_gradients,
    lstm_step,
    predict_next,
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

    @pytest.mark.parametrize("layers", [1, 3])
    def test_state_with_wrong_layer_count_rejected(self, layers):
        model = init_model(2, 3, 2, seed=0)
        state = LstmState(hidden=[np.zeros(3)] * layers, cell=[np.zeros(3)] * layers)
        with pytest.raises(ValueError, match=f"state layer {min(layers, 2)}: state has {layers}"):
            lstm_step(np.zeros(2), state, model)

    def test_state_with_wrong_hidden_size_rejected(self):
        model = init_model(2, 3, 2, seed=0)
        state = zero_state(model)
        state.cell[1] = np.zeros(4)
        with pytest.raises(ValueError, match=r"state layer 1: .*\(3,\)"):
            lstm_step(np.zeros(2), state, model)


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

    def test_trained_model_records_context_and_meta(self):
        pairs = toy_pairs(count=8, context=3, dimension=4, seed=6)
        trained, _ = train(
            init_model(2, 4, 4, seed=6), pairs, TrainConfig(context_length=3, epochs=2, seed=6)
        )
        assert trained.context_length == 3
        assert trained.train_meta["loss"] == "mean_squared_error"

    def test_window_length_mismatch_rejected(self):
        pairs = toy_pairs(count=4, context=3, dimension=4, seed=7)
        with pytest.raises(ValueError, match="context length"):
            train(init_model(2, 4, 4, seed=7), pairs, TrainConfig(context_length=5, epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch(self):
        model = init_model(1, 2, 2, seed=0)
        model.w_out[0, 0] = np.inf
        pair = TrainingPair(np.full((2, 2), 0.5), np.ones(2, dtype=bool), np.full(2, 0.5))
        with pytest.raises(TrainingDivergedError, match="epoch 1") as info:
            train(model, [pair], TrainConfig(context_length=2, epochs=3))
        assert info.value.epoch == 1

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


class TestAdam:
    def test_in_place_update_matches_out_of_place_formula_bit_for_bit(self):
        rng = np.random.default_rng(17)
        # the largest array spans several in-place slices
        shapes = {"w": (12, 7), "b": (5,), "big": (3 * _Adam.chunk + 11,)}
        params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        expected = {name: array.copy() for name, array in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        lr, beta1, beta2, eps = 3e-3, 0.9, 0.999, 1e-8
        opt = _Adam(params, lr, beta1, beta2, eps)
        for step in range(1, 6):
            grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
            opt.update(params, grads)
            for name, g in grads.items():
                m[name] = beta1 * m[name] + (1.0 - beta1) * g
                v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
                m_hat = m[name] / (1.0 - beta1**step)
                v_hat = v[name] / (1.0 - beta2**step)
                expected[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
                np.testing.assert_array_equal(params[name], expected[name])


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
