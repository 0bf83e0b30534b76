"""Stacked LSTM next-feature prediction: initialization, inference, BPTT training.

The model consumes a window of segment feature vectors and predicts the vector
of the segment that should follow. Gates follow the standard LSTM-with-forget-
gate formulation; the output projection is squashed with a sigmoid so
predictions stay inside the (0, 1) probability range of the feature space.

Windows shorter than the context length are left-padded and carry a boolean
mask; masked steps are skipped entirely, so padding can never influence the
prediction. A minibatch runs layer by layer: one matrix product applies a
layer's input weights ``w_x`` to all unmasked (item, step) positions, then
each step adds only the product of the contiguous recurrent weights ``w_h``
with the hidden state of the items active there. A step where every item is
real (every step of ``advance`` and of unpadded windows) uses the previous
step's output rows as its state, with no gather or scatter; a step that
leaves items out gathers their rows. Loss is the mean squared error between
prediction and target, averaged over feature dimensions and batch items, and
gradients are computed by one backpropagation through time over the batch's
unmasked steps, again layer by layer.

Nested training windows share one run. A track's windows ``sections[0:1]``,
``sections[0:2]``, ... hold the same leading rows, and identical input bits
give identical states. So, with the items taken longest first (ties in batch
order), each item rides on the first item whose real rows start, byte for
byte, with its own, and only the items that ride on themselves run. A rider
reads its prediction from its carrier's top-layer output at its own last
real step, and its gradient enters the backward pass there.

A ``train`` call holds its working parameters, their gradients and Adam's
two moments in one flat float64 vector each (``SequenceModel.over`` gives
the parameter views). Each vector is allocated once per call and reused by
every batch, so batches allocate nothing of parameter size. Every
parameter-sized array is written where it lives, with no temporary:
``init_model`` draws each weight block in place, and each weight gradient
is one ``np.matmul`` into its view of the gradient vector. One squared norm
per batch, summed by numpy rather than BLAS, serves both the gradient clip
and the divergence check, so the clip does not depend on the BLAS thread
count.
"""

from __future__ import annotations

import logging
import math
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not self.clip_norm > 0:  # also rejects NaN; inf means never clip
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")
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
    """Numerically stable logistic function; ``out`` may be ``x`` itself.

    ``1 / (1 + exp(-x))`` where x >= 0 and ``exp(x) / (1 + exp(x))`` where x < 0.
    """
    expx = np.exp(np.copysign(x, -1.0))  # exp(-x) where x >= 0, else exp(x)
    numerator = np.exp(np.minimum(x, 0.0))  # 1 where x >= 0, else exp(x)
    expx += 1.0
    return np.divide(numerator, expx, out=out)


def init_model(
    num_layers: int = 2, hidden_size: int = 512, dimension: int = 50, seed: int = 0
) -> SequenceModel:
    """Create a model with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights.

    Biases start at zero except the forget gates, which start at one so early
    training does not wipe the cell state. Deterministic for a given seed:
    weight matrices are drawn in file block order, each into its block, with
    the bits ``rng.uniform(-bound, bound, size=block.shape)`` gives.
    """
    if num_layers < 1 or hidden_size < 1 or dimension < 1:
        raise ValueError("num_layers, hidden_size, and dimension must be positive")
    rng = np.random.default_rng(seed)
    model = SequenceModel.zeros(num_layers, hidden_size, dimension)
    for block in model.blocks():
        if block.ndim == 2:
            bound = 1.0 / np.sqrt(block.shape[1])
            rng.random(out=block)  # then ``uniform``'s low + range * U, bit for bit
            block *= bound - -bound
            block += -bound
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
    of the rows active there; a run from the zero state skips it at the first
    step, where it is zero. At a step where every item is real, the state
    rows are the previous step's outputs in item order and are used as they
    are; only a step that leaves items out gathers and scatters rows by item.
    A layer's outputs at every position are the next layer's inputs. A
    ``tape`` gets the item count and the positions, then per layer (input,
    previous hidden, gates, previous cell, tanh of the new cell), one row per
    position, and last the top layer's output at every position.
    """
    steps, items = np.nonzero(masks.T)  # step-major, so a step's positions are contiguous
    starts = np.flatnonzero(np.diff(steps, prepend=-1)).tolist()
    spans = list(zip(starts, [*starts[1:], len(steps)]))
    size, count = model.hidden_size, len(windows)
    if tape is not None:
        tape.append((count, items, spans))
    x = windows[items, steps]
    hidden, cell = [], []
    for index, layer in enumerate(model.layers):
        w_h = layer.w_h.T
        h, c = np.zeros((2, count, size))
        if state is not None:
            h[...], c[...] = state.hidden[index], state.cell[index]
        gates = x @ layer.w_x.T
        gates += layer.bias
        blocks = gates.reshape(len(steps), 4, size)  # per position, one row per gate
        out = np.empty((len(steps), size))
        if tape is not None:
            h_prev, c_prev, tanh_c = np.empty((3, len(steps), size))
        carried = False  # h and c are views of the previous step's rows
        for lo, hi in spans:
            dense = hi - lo == count  # every item is real here, in item order
            if dense:
                h_in, c_in = h, c
            else:
                if carried:
                    h, c, carried = h.copy(), c.copy(), False
                rows = items[lo:hi]
                h_in, c_in = h[rows], c[rows]
            if lo or state is not None:  # from the zero state, the first step's product is 0
                gates[lo:hi] += h_in @ w_h
            z = blocks[lo:hi]
            sigmoid(z[:, :3], out=z[:, :3])  # input, forget, output
            np.tanh(z[:, 3], out=z[:, 3])  # candidate
            i, f, o, g = z.swapaxes(0, 1)
            c_new = f * c_in
            c_new += i * g
            if tape is None:
                np.multiply(o, np.tanh(c_new), out=out[lo:hi])
            else:
                np.multiply(o, np.tanh(c_new, out=tanh_c[lo:hi]), out=out[lo:hi])
                h_prev[lo:hi], c_prev[lo:hi] = h_in, c_in
            if dense:
                h, c, carried = out[lo:hi], c_new, True
            else:
                h[rows], c[rows] = out[lo:hi], c_new
        if tape is not None:
            tape.append((x, h_prev, gates, c_prev, tanh_c))
        hidden.append(h)
        cell.append(c)
        x = out
    if tape is not None:
        tape.append(x)
    return hidden, cell


def lstm_step(
    x: np.ndarray, state: LstmState, model: SequenceModel
) -> tuple[np.ndarray, LstmState]:
    """Advance every layer by one time step; returns (top-layer hidden, new state)."""
    _, new_state = advance(model, np.asarray(x, dtype=np.float64)[None], state)
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
    return _output(model, h_top).reshape(*window.shape[:-2], model.dimension)


def advance(
    model: SequenceModel, sections: np.ndarray, state: LstmState | None = None
) -> tuple[np.ndarray, LstmState]:
    """Run the (n, D) ``sections`` from ``state`` (zeros when None).

    Returns the prediction after the last section and the state there, from
    which a later call continues: advancing by A and then by B gives the
    prediction ``forward`` gives on A followed by B. Raises ``ValueError``
    when ``sections`` is not (n, D) or ``state`` does not fit the model.
    """
    sections = np.asarray(sections, dtype=np.float64)
    if sections.ndim != 2 or sections.shape[1] != model.dimension:
        raise ValueError(f"sections shape {sections.shape} != (n, {model.dimension})")
    if state is not None:
        _check_state(model, state)
    hidden, cell = _run(model, sections[None], np.ones((1, len(sections)), dtype=bool), state)
    state = LstmState(hidden=[h[0] for h in hidden], cell=[c[0] for c in cell])
    return _output(model, hidden[-1])[0], state


def _check_state(model: SequenceModel, state: LstmState) -> None:
    """Raise ``ValueError`` naming the first layer whose state does not fit ``model``."""
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


def _output(model: SequenceModel, h_top: np.ndarray) -> np.ndarray:
    """The output head: (B, H) top-layer hidden states to (B, D) predictions in (0, 1)."""
    return sigmoid(h_top @ model.w_out.T + model.b_out)


def loss_and_gradients(
    model: SequenceModel, batch: list[TrainingPair], out: np.ndarray | None = None
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared error over a batch plus gradients for every parameter.

    Loss is mean over batch items of ||prediction - target||^2 / D. The items
    run together, each distinct prefix once (``_shared_runs``), and gradients
    come from one backpropagation through time over the run's unmasked
    steps. The gradients are written into ``out``, a flat float64 vector laid
    out as ``SequenceModel.over`` lays out parameters, or into a new one when
    it is None; the returned dict maps each parameter name to its view.
    Raises ``TrainingDivergedError`` if the loss goes non-finite and, when
    no ``out`` is given, if a gradient does. A caller that passes ``out``
    checks the gradients through their norm (``_clip_gradients``).
    """
    if not batch:
        raise ValueError("batch is empty")
    windows = np.asarray([pair.window for pair in batch], dtype=np.float64)
    masks = np.asarray([pair.mask for pair in batch], dtype=bool)
    targets = np.asarray([pair.target for pair in batch], dtype=np.float64)
    batch_size, dim = len(batch), model.dimension
    carriers, readout = _shared_runs(windows, masks)
    tape: list = []
    _run(model, windows[carriers], masks[carriers], tape=tape)
    outputs, real = tape[-1], readout >= 0
    h_top = np.zeros((batch_size, model.hidden_size))  # a fully masked item keeps the zero state
    h_top[real] = outputs[readout[real]]
    prediction = _output(model, h_top)
    residual = prediction - targets
    loss = float(np.sum(residual * residual)) / dim / batch_size
    # d loss / d prediction for the batch mean of per-item mean squared error
    dz_out = 2.0 * residual / (dim * batch_size) * prediction * (1.0 - prediction)
    flat = np.empty(model.parameter_count) if out is None else out
    grads = dict(model.over(flat).parameter_items())
    np.matmul(dz_out.T, h_top, out=grads["out.w"])
    np.sum(dz_out, axis=0, out=grads["out.b"])
    d_out = np.zeros_like(outputs)
    np.add.at(d_out, readout[real], (dz_out @ model.w_out)[real])
    _bptt(model, tape, d_out, grads)
    if not np.isfinite(loss):
        raise TrainingDivergedError("non-finite loss or gradient")
    if out is None:
        _norm(flat)
    return loss, grads


def _shared_runs(windows: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The items of a (B, N, D) batch that run, and where every item reads out.

    One rule: the items with real rows are taken longest first (stably, so
    batch order breaks ties) and grouped by their first real row, and each
    item rides on the first item of its group whose real-row bytes start
    with its own (bytes, so -0.0 and 0.0 differ). That is the item itself
    when no longer item holds its rows; otherwise it is a carrier, since
    anything it could ride on would hold the item's rows and come earlier.
    Returns the carriers' indices in batch order and, per item, the index
    of its last real step among the step-major unmasked positions of the
    carriers' run; -1 for a fully masked item.
    """
    rows = [window[mask].tobytes() for window, mask in zip(windows, masks)]
    width = windows.shape[2] * windows.itemsize
    groups: dict[bytes, list[int]] = {}
    for item in sorted(range(len(rows)), key=lambda item: -len(rows[item])):
        if rows[item]:
            groups.setdefault(rows[item][:width], []).append(item)
    carrier = {item: next(run for run in group if rows[run].startswith(rows[item]))
               for group in groups.values() for item in group}
    carriers = np.array(sorted(set(carrier.values())), dtype=np.intp)
    run_masks = masks[carriers]
    position = np.full(run_masks.shape, -1)
    position.T[run_masks.T] = np.arange(np.count_nonzero(run_masks))  # step-major, as ``_run``
    slot = dict(zip(carriers.tolist(), range(len(carriers))))
    readout = np.full(len(rows), -1)
    for item, run in carrier.items():
        readout[item] = position[slot[run]][run_masks[slot[run]]][len(rows[item]) // width - 1]
    return carriers, readout


def _bptt(model: SequenceModel, tape: list, d_out: np.ndarray, grads: dict) -> None:
    """Fill the LSTM parameter gradients from a ``_run`` tape.

    ``d_out`` holds, per position, the loss gradient with respect to the top
    layer's output there. Walks the layers top down and, within a layer, the
    steps in reverse, multiplying only by the recurrent weights per step and
    not at the first step, whose items have no earlier step to pass to.
    Each layer then passes the gradient of its inputs down in one product,
    and forms each weight gradient in one product with the cached inputs or
    previous hidden states.
    """
    (count, items, spans), *layers, _ = tape
    size = model.hidden_size
    dx = d_out  # per position: gradient with respect to the layer's outputs
    for index in reversed(range(model.num_layers)):
        layer = model.layers[index]
        x, h_prev, gates, c_prev, tanh_c = layers[index]
        w_h = layer.w_h
        dh, dc = np.zeros((2, count, size))  # per item: from the item's next step
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
            if lo:  # the first step passes nothing back: skip its read of ``w_h``
                dh[rows] = dz[lo:hi] @ w_h
                dc[rows] = d_c * f
        if index > 0:
            dx = dz @ layer.w_x
        np.matmul(dz.T, x, out=grads[f"layer{index}.w_x"])
        np.matmul(dz.T, h_prev, out=grads[f"layer{index}.w_h"])
        np.sum(dz, axis=0, out=grads[f"layer{index}.bias"])


def train(
    model: SequenceModel, sequences: list[TrainingPair], config: TrainConfig
) -> tuple[SequenceModel, LossReport]:
    """Train a copy of the model on (window, mask, target) pairs.

    Minibatch order is shuffled per epoch from the config seed; gradients are
    clipped to ``clip_norm`` (global norm) before each update. The working
    parameters, the gradients and Adam's moments are one vector each,
    allocated once per call and reused by every batch. The norm is numpy's
    own sum, so the clip gives the same bits at any BLAS thread count, and
    the gradients are scanned for a NaN or infinity only when it is not
    finite.

    Returns the trained model, with its context length and training snapshot
    filled in, plus the per-epoch loss history. Raises ``ValueError`` naming
    the first pair whose window, mask or target has the wrong shape, or whose
    real window rows or target hold a non-finite value, before any batch
    runs, and ``TrainingDivergedError`` (with the epoch index) if the loss or
    a gradient goes non-finite.
    """
    if not sequences:
        raise ValueError("no training sequences")
    length, dim = config.context_length, model.dimension
    for index, (window, mask, target) in enumerate(sequences):
        window, mask, target = np.asarray(window), np.asarray(mask), np.asarray(target)
        if window.shape != (length, dim):
            raise ValueError(
                f"pair {index}: window shape {window.shape} does not match context length "
                f"{length} and dimension {dim}"
            )
        if mask.shape != (length,):
            raise ValueError(f"pair {index}: mask shape {mask.shape} != ({length},)")
        if target.shape != (dim,):
            raise ValueError(f"pair {index}: target shape {target.shape} != ({dim},)")
        if not (np.isfinite(window[mask.astype(bool)]).all() and np.isfinite(target).all()):
            raise ValueError(f"pair {index}: non-finite window or target value")
    params = np.concatenate([array.ravel() for _, array in model.parameter_items()])
    trained = model.over(params)
    grads = np.empty_like(params)
    opt = (_Adam(params.size, config.learning_rate) if config.optimizer == "adam"
           else _Sgd(config.learning_rate))
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
                loss, _ = loss_and_gradients(trained, batch, grads)
                norms.append(_clip_gradients(grads, config.clip_norm))
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(str(exc), epoch=epoch) from None
            opt.update(params, grads)
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
    return trained, LossReport(epoch_losses=epoch_losses)


def _norm(grads: np.ndarray) -> float:
    """The Euclidean norm of a flat gradient vector; raises ``TrainingDivergedError`` on a
    NaN or infinite element.

    The sum of squares is numpy's own reduction, not a BLAS one, so its bits
    do not depend on the BLAS thread count, and it makes no temporary. Only a
    non-finite sum has the elements scanned: finite values whose squares
    overflow give an infinite norm and do not raise.
    """
    squared = float(np.einsum("i,i->", grads, grads))
    if not math.isfinite(squared) and not np.isfinite(grads).all():
        raise TrainingDivergedError("non-finite loss or gradient")
    return math.sqrt(squared)


def _clip_gradients(grads: np.ndarray, clip_norm: float) -> float:
    """Scale flat gradients in place to norm ``clip_norm`` if above it; returns the prior norm.

    Raises ``TrainingDivergedError`` as ``_norm`` does.
    """
    norm = _norm(grads)
    if norm > clip_norm:
        grads *= clip_norm / norm
    return norm


class _Adam:
    """Per-element first/second-moment adaptive updates of a flat parameter vector."""

    # Elements per slice of the in-place update: keeps its two scratch
    # buffers small enough to stay in cache however many parameters there are.
    chunk = 1 << 15

    def __init__(self, size: int, learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step = 0
        self.m, self.v = np.zeros((2, size))
        self._scratch = np.empty((2, self.chunk))

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        """In place; every value equals ``param - (lr * m_hat) / (sqrt(v_hat) + eps)``."""
        self.step += 1
        correct1 = 1.0 - self.beta1**self.step
        correct2 = 1.0 - self.beta2**self.step
        for lo in range(0, params.size, self.chunk):
            p, g, m, v = (x[lo : lo + self.chunk] for x in (params, grads, self.m, self.v))
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


class _Sgd:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        """In place; every value equals ``param - lr * grad``. ``grads`` is scaled by ``lr``."""
        grads *= self.learning_rate
        params -= grads


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
