"""Stacked LSTM next-feature prediction: initialization, inference, BPTT training.

The model consumes a window of segment feature vectors and predicts the vector
of the segment that should follow. Gates follow the standard LSTM-with-forget-
gate formulation; the output projection is squashed with a sigmoid so
predictions stay inside the (0, 1) probability range of the feature space.

Windows shorter than the context length are left-padded and carry a boolean
mask; masked steps are skipped entirely, so padding can never influence the
prediction. A minibatch runs layer by layer: one matrix product applies a
layer's input weights to all unmasked (item, step) positions, then each step
adds only the product of the recurrent weights with the hidden state of the
items active there. Loss is the mean squared error between prediction and
target, averaged over feature dimensions and batch items, and gradients are
computed by one backpropagation through time over the batch's unmasked
steps, again layer by layer.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .catalog import TrainingPair
from .model import SequenceModel

logger = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message if epoch is None else f"epoch {epoch}: {message}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters. Defaults are desk scale; the full-scale
    reference configuration uses hidden size 512 and context length 50."""

    context_length: int = 8
    epochs: int = 200
    learning_rate: float = 1e-3
    optimizer: str = "adam"  # "adam" or "sgd"
    batch_size: int = 16
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self) -> None:
        if self.context_length < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("context_length, epochs, and batch_size must be positive")
        if self.learning_rate < 0 or self.clip_norm <= 0:
            raise ValueError("learning_rate must be >= 0 and clip_norm > 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer '{self.optimizer}'")


@dataclass
class LossReport:
    """Per-epoch mean squared error over the training pairs."""

    epoch_losses: list[float]

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]


@dataclass
class LstmState:
    """Hidden and cell activations, one pair of (H,) vectors per layer."""

    hidden: list[np.ndarray]
    cell: list[np.ndarray]


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function; ``out`` may be ``x`` itself."""
    negative = x < 0
    expx = np.abs(x)
    np.exp(np.negative(expx, out=expx), out=expx)  # exp(-x) where x >= 0, else exp(x)
    if out is None:
        out = np.empty_like(expx)
    out[...] = 1.0
    np.copyto(out, expx, where=negative)
    expx += 1.0
    return np.divide(out, expx, out=out)


def init_model(
    num_layers: int = 2, hidden_size: int = 512, dimension: int = 50, seed: int = 0
) -> SequenceModel:
    """Create a model with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights.

    Biases start at zero except the forget gates, which start at one so early
    training does not wipe the cell state. Deterministic for a given seed:
    weight matrices are drawn in file block order.
    """
    if num_layers < 1 or hidden_size < 1 or dimension < 1:
        raise ValueError("num_layers, hidden_size, and dimension must be positive")
    rng = np.random.default_rng(seed)
    model = SequenceModel.zeros(num_layers, hidden_size, dimension)
    for block in model.blocks():
        if block.ndim == 2:
            bound = 1.0 / np.sqrt(block.shape[1])
            block[...] = rng.uniform(-bound, bound, size=block.shape)
    for layer in model.layers:
        layer.gate("forget")[2][...] = 1.0
    return model


def zero_state(model: SequenceModel) -> LstmState:
    return LstmState(
        hidden=[np.zeros(model.hidden_size) for _ in model.layers],
        cell=[np.zeros(model.hidden_size) for _ in model.layers],
    )


def _run(
    model: SequenceModel,
    windows: np.ndarray,
    masks: np.ndarray,
    state: LstmState | None = None,
    tape: list | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Run (B, N, D) windows with (B, N) masks layer by layer; returns the final (B, H)
    hidden and cell states of every layer.

    Every item starts from ``state`` (zeros when None). Only the unmasked
    (item, step) positions are computed, so masked steps leave an item's
    state as it was. Each layer applies its input weights to all positions in
    one product and then walks the steps, adding only the recurrent product
    of the rows active there; its outputs at every position are the next
    layer's inputs. A ``tape`` gets the positions, then per layer
    ([input, previous hidden], gates, previous cell, tanh of the new cell),
    one row per position.
    """
    steps, items = np.nonzero(masks.T)  # step-major, so a step's positions are contiguous
    starts = np.flatnonzero(np.diff(steps, prepend=-1)).tolist()
    spans = list(zip(starts, [*starts[1:], len(steps)]))
    if tape is not None:
        tape.append((items, spans))
    size, count = model.hidden_size, len(windows)
    x = windows[items, steps]
    hidden, cell = [], []
    for index, layer in enumerate(model.layers):
        n_in = layer.weight.shape[1] - size
        w_h = layer.weight[:, n_in:].T
        h, c = np.zeros((2, count, size))
        if state is not None:
            h[...], c[...] = state.hidden[index], state.cell[index]
        xh = np.empty((len(steps), n_in + size))
        xh[:, :n_in] = x
        gates = xh[:, :n_in] @ layer.weight[:, :n_in].T
        gates += layer.bias
        c_prev, tanh_c, out = np.empty((3, len(steps), size))
        for lo, hi in spans:
            rows, z, h_prev = items[lo:hi], gates[lo:hi], xh[lo:hi, n_in:]
            h_prev[...] = h[rows]
            c_prev[lo:hi] = c[rows]
            z += h_prev @ w_h
            sigmoid(z[:, : 3 * size], out=z[:, : 3 * size])  # input, forget, output
            np.tanh(z[:, 3 * size :], out=z[:, 3 * size :])  # candidate
            i, f, o, g = (z[:, k * size : (k + 1) * size] for k in range(4))
            c_new = f * c_prev[lo:hi]
            c_new += i * g
            np.multiply(o, np.tanh(c_new, out=tanh_c[lo:hi]), out=out[lo:hi])
            h[rows], c[rows] = out[lo:hi], c_new
        if tape is not None:
            tape.append((xh, gates, c_prev, tanh_c))
        hidden.append(h)
        cell.append(c)
        x = out
    return hidden, cell


def lstm_step(
    x: np.ndarray, state: LstmState, model: SequenceModel
) -> tuple[np.ndarray, LstmState]:
    """Advance every layer by one time step; returns (top-layer hidden, new state)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dimension,):
        raise ValueError(f"input shape {x.shape} != ({model.dimension},)")
    if not len(state.hidden) == len(state.cell) == model.num_layers:
        first = min(len(state.hidden), len(state.cell), model.num_layers)
        raise ValueError(
            f"state layer {first}: state has {len(state.hidden)} hidden and {len(state.cell)} "
            f"cell vectors, model has {model.num_layers} layers"
        )
    for index, (h, c) in enumerate(zip(state.hidden, state.cell)):
        if np.shape(h) != (model.hidden_size,) or np.shape(c) != (model.hidden_size,):
            raise ValueError(
                f"state layer {index}: hidden {np.shape(h)} and cell {np.shape(c)} "
                f"!= ({model.hidden_size},)"
            )
    hidden, cell = _run(model, x[None, None], np.ones((1, 1), dtype=bool), state)
    new_state = LstmState(hidden=[h[0] for h in hidden], cell=[c[0] for c in cell])
    return new_state.hidden[-1], new_state


def forward(
    model: SequenceModel, window: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Predict the next feature vector from a window of segment vectors.

    ``window`` is (N, D) with ``mask`` (N,), or a batch (B, N, D) with ``mask``
    (B, N); the mask marks real (unmasked) steps and defaults to all real.
    Masked steps are skipped, so a fully masked window predicts from the zero
    state. Returns (D,) or (B, D), every element strictly inside (0, 1).
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim not in (2, 3) or window.shape[-1] != model.dimension:
        raise ValueError(f"window shape {window.shape} incompatible with dimension {model.dimension}")
    mask = np.ones(window.shape[:-1], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != window.shape[:-1]:
        raise ValueError(f"mask length {mask.shape} != window length {window.shape[:-1]}")
    windows = window.reshape(-1, *window.shape[-2:])
    h_top = _run(model, windows, mask.reshape(windows.shape[:2]))[0][-1]
    return sigmoid(h_top @ model.w_out.T + model.b_out).reshape(*window.shape[:-2], model.dimension)


def loss_and_gradients(
    model: SequenceModel, batch: list[TrainingPair]
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared error over a batch plus gradients for every parameter.

    Loss is mean over batch items of ||prediction - target||^2 / D. The items
    run together and gradients come from one backpropagation through time
    over the batch's unmasked steps. Raises ``TrainingDivergedError`` if
    anything goes non-finite.
    """
    if not batch:
        raise ValueError("batch is empty")
    windows = np.asarray([pair.window for pair in batch], dtype=np.float64)
    masks = np.asarray([pair.mask for pair in batch], dtype=bool)
    targets = np.asarray([pair.target for pair in batch], dtype=np.float64)
    batch_size, dim = len(batch), model.dimension
    tape: list = []
    h_top = _run(model, windows, masks, tape=tape)[0][-1]
    prediction = sigmoid(h_top @ model.w_out.T + model.b_out)
    residual = prediction - targets
    loss = float(np.sum(residual * residual)) / dim / batch_size
    # d loss / d prediction for the batch mean of per-item mean squared error
    dz_out = 2.0 * residual / (dim * batch_size) * prediction * (1.0 - prediction)
    grads = {name: np.empty_like(array) for name, array in model.parameter_items()}
    np.dot(dz_out.T, h_top, out=grads["out.w"])
    np.sum(dz_out, axis=0, out=grads["out.b"])
    _bptt(model, tape, dz_out @ model.w_out, grads)
    if not np.isfinite(loss) or any(not np.isfinite(g).all() for g in grads.values()):
        raise TrainingDivergedError("non-finite loss or gradient")
    return loss, grads


def _bptt(model: SequenceModel, tape: list, dh_top: np.ndarray, grads: dict) -> None:
    """Fill the LSTM parameter gradients from a ``_run`` tape.

    Walks the layers top down and, within a layer, the steps in reverse,
    multiplying only by the recurrent weights per step. Each layer then
    passes the gradient of its inputs down in one product, and forms its
    weight gradient in one product with the cached [input, previous hidden].
    """
    (items, spans), *layers = tape
    size = model.hidden_size
    dh = dh_top.copy()  # per item: gradient with respect to the layer's final hidden state
    dx = np.zeros((len(items), size))  # per position: gradient with respect to the layer's outputs
    for index in reversed(range(model.num_layers)):
        layer = model.layers[index]
        xh, gates, c_prev, tanh_c = layers[index]
        w_h = layer.weight[:, -size:]
        dc = np.zeros_like(dh)
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
            dh[rows] = dz[lo:hi] @ w_h
            dc[rows] = d_c * f
        if index > 0:
            dx = dz @ layer.weight[:, :-size]
            dh = np.zeros_like(dh)  # only the top layer's final state reaches the loss
        np.dot(dz.T, xh, out=grads[f"layer{index}.weight"])
        np.sum(dz, axis=0, out=grads[f"layer{index}.bias"])


def train(
    model: SequenceModel, sequences: list[TrainingPair], config: TrainConfig
) -> tuple[SequenceModel, LossReport]:
    """Train a copy of the model on (window, mask, target) pairs.

    Minibatch order is shuffled per epoch from the config seed; gradients are
    clipped to ``clip_norm`` (global norm) before each update. Returns the
    trained model, with its context length and training snapshot filled in,
    plus the per-epoch loss history. Raises ``TrainingDivergedError`` (with
    the epoch index) if the loss goes non-finite.
    """
    if not sequences:
        raise ValueError("no training sequences")
    for pair in sequences:
        if pair.window.shape != (config.context_length, model.dimension):
            raise ValueError(
                f"window shape {pair.window.shape} does not match context length "
                f"{config.context_length} and dimension {model.dimension}"
            )
    trained = model.copy()
    params = dict(trained.parameter_items())
    opt = _Adam(params, config.learning_rate) if config.optimizer == "adam" else _Sgd(config.learning_rate)
    rng = np.random.default_rng(config.seed)
    count = len(sequences)
    epoch_losses: list[float] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(count)
        weighted = 0.0
        norms = []
        for lo in range(0, count, config.batch_size):
            chunk = order[lo : lo + config.batch_size]
            batch = [sequences[i] for i in chunk]
            try:
                loss, grads = loss_and_gradients(trained, batch)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(str(exc), epoch=epoch) from None
            norms.append(_clip_gradients(grads, config.clip_norm))
            opt.update(params, grads)
            del grads  # before the next batch allocates its own
            weighted += loss * len(chunk)
        epoch_loss = weighted / count
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError("non-finite epoch loss", epoch=epoch)
        epoch_losses.append(epoch_loss)
        logger.info(
            "epoch %d/%d loss=%.6g grad_norm_max=%.4g clipped=%d/%d seconds=%.3f",
            epoch, config.epochs, epoch_loss, max(norms),
            sum(norm > config.clip_norm for norm in norms), len(norms),
            time.perf_counter() - started,
        )
    trained.context_length = config.context_length
    trained.train_meta = {
        "loss": "mean_squared_error",
        "optimizer": config.optimizer,
        "learning_rate": config.learning_rate,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "seed": config.seed,
        "clip_norm": config.clip_norm,
    }
    return trained, LossReport(epoch_losses=epoch_losses)


def _clip_gradients(grads: dict[str, np.ndarray], clip_norm: float) -> float:
    """Scale gradients in place to global norm ``clip_norm`` if above it; returns the prior norm."""
    norm = float(np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values())))
    if norm > clip_norm:
        scale = clip_norm / norm
        for g in grads.values():
            g *= scale
    return norm


class _Sgd:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, array in params.items():
            array -= self.learning_rate * grads[name]


class _Adam:
    """Per-parameter first/second-moment adaptive updates."""

    # Elements per slice of the in-place update: keeps its two scratch
    # buffers small enough to stay in cache however large a parameter is.
    chunk = 1 << 15

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step = 0
        self.m = {name: np.zeros_like(a) for name, a in params.items()}
        self.v = {name: np.zeros_like(a) for name, a in params.items()}
        self._scratch = np.empty((2, self.chunk))

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """In place; every value equals ``array - (lr * m_hat) / (sqrt(v_hat) + eps)``."""
        self.step += 1
        correct1 = 1.0 - self.beta1**self.step
        correct2 = 1.0 - self.beta2**self.step
        for name, array in params.items():
            flat = [x.reshape(-1) for x in (array, grads[name], self.m[name], self.v[name])]
            for lo in range(0, array.size, self.chunk):
                p, g, m, v = (x[lo : lo + self.chunk] for x in flat)
                a, b = self._scratch[:, : p.size]
                m *= self.beta1
                m += np.multiply(1.0 - self.beta1, g, out=a)
                v *= self.beta2
                v += np.multiply(np.multiply(1.0 - self.beta2, g, out=a), g, out=a)
                np.divide(m, correct1, out=a)
                a *= self.learning_rate
                np.divide(v, correct2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                p -= a


def predict_next(model: SequenceModel, recent_segments: np.ndarray) -> np.ndarray:
    """Predict the feature vector that should follow the given segment history.

    Uses the model's trained context length: histories longer than it keep
    only the most recent segments. A shorter history is run as it is, which
    is what left-padding it with masked steps would give.
    """
    recent = np.asarray(recent_segments, dtype=np.float64)
    if recent.ndim != 2 or recent.shape[0] < 1:
        raise ValueError("recent_segments must contain at least one segment vector")
    if recent.shape[1] != model.dimension:
        raise ValueError(f"segment dimension {recent.shape[1]} != model dimension {model.dimension}")
    if model.context_length is None:
        raise ValueError("model has no context length; train it or set context_length")
    return forward(model, recent[-model.context_length :])
