"""Sequence-model parameter containers and the versioned binary model file.

In memory each LSTM layer holds one fused weight (4H, in+H) and bias (4H,):
row block k is gate ``GATES[k]``, the first ``in`` columns act on the layer
input and the last H on the previous hidden state. The file is unchanged by
this layout; save and load slice its per-gate blocks out of the fused arrays.

File layout (little-endian throughout):

    magic   4 bytes  b"SGM1" (the trailing digit is the format version)
    header  4 x u32  num_layers, hidden_size, dimension, context_length (0 = unset)
    blocks  per layer and gate: input weights, recurrent weights, bias; then
            the output projection and its bias (``SequenceModel.blocks``):
            u32 element count, then count float64 values, row-major

The numeric payload is raw float64, so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import copy
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

MAGIC = b"SGM1"
_HEADER_BYTES = 4 + 16

# Gate order is part of the file format and of the fused row layout.
GATES = ("input", "forget", "output", "candidate")


class ModelFormatError(ValueError):
    """A model file or model structure violates the format contract."""


class ModelVersionError(ModelFormatError):
    """The file magic names a format version this code does not read."""


class ModelShapeError(ModelFormatError):
    """Recorded shapes are internally inconsistent."""


class ModelCorruptError(ModelFormatError):
    """The file is truncated, has trailing bytes, or is not a model file."""


@dataclass
class LstmLayerParams:
    """Fused weights for one LSTM layer: ``weight`` (4H, in+H), ``bias`` (4H,)."""

    weight: np.ndarray
    bias: np.ndarray

    def gate(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views (input weights (H, in), recurrent weights (H, H), bias (H,)) of one gate."""
        hidden = self.weight.shape[0] // 4
        rows = slice(GATES.index(name) * hidden, (GATES.index(name) + 1) * hidden)
        return self.weight[rows, :-hidden], self.weight[rows, -hidden:], self.bias[rows]


@dataclass
class SequenceModel:
    """A stacked LSTM plus sigmoid output projection onto the feature space.

    ``context_length`` is the window length the model was trained with; it is
    unset (None) until training and is persisted in the model file header.
    ``train_meta`` records the rest of the training configuration for
    reproducibility echoes; it is not persisted.
    """

    layers: list[LstmLayerParams]
    w_out: np.ndarray  # (D, H)
    b_out: np.ndarray  # (D,)
    context_length: int | None = None
    train_meta: dict = field(default_factory=dict)

    @classmethod
    def zeros(cls, num_layers: int, hidden: int, dim: int) -> "SequenceModel":
        """A model of the given shape with every parameter zero."""
        arrays = [np.zeros(shape) for _, shape in _fused_shapes(num_layers, hidden, dim)]
        layers = [LstmLayerParams(*arrays[2 * i : 2 * i + 2]) for i in range(num_layers)]
        return cls(layers=layers, w_out=arrays[-2], b_out=arrays[-1])

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def hidden_size(self) -> int:
        return self.w_out.shape[1]

    @property
    def dimension(self) -> int:
        return self.w_out.shape[0]

    def parameter_items(self) -> list[tuple[str, np.ndarray]]:
        """All parameter arrays (the fused ones, not views) in canonical order."""
        items: list[tuple[str, np.ndarray]] = []
        for index, layer in enumerate(self.layers):
            items += [(f"layer{index}.weight", layer.weight), (f"layer{index}.bias", layer.bias)]
        return items + [("out.w", self.w_out), ("out.b", self.b_out)]

    def blocks(self) -> Iterator[np.ndarray]:
        """Views of the parameters as the file's blocks, in file order."""
        for layer in self.layers:
            for gate in GATES:
                yield from layer.gate(gate)
        yield self.w_out
        yield self.b_out

    @property
    def parameter_count(self) -> int:
        return sum(array.size for _, array in self.parameter_items())

    def validate(self) -> None:
        """Check shape consistency against (L, H, D) and finiteness of all parameters."""
        if self.num_layers < 1:
            raise ModelShapeError("model must have at least one layer")
        expected = dict(_fused_shapes(self.num_layers, self.hidden_size, self.dimension))
        for name, array in self.parameter_items():
            if array.shape != expected[name]:
                raise ModelShapeError(f"parameter '{name}': shape {array.shape} != {expected[name]}")
            if not np.isfinite(array).all():
                raise ModelShapeError(f"parameter '{name}': non-finite value")

    def copy(self) -> "SequenceModel":
        """Deep copy; parameter arrays are duplicated."""
        return copy.deepcopy(self)

    def equals(self, other: "SequenceModel") -> bool:
        """Exact structural and parameter-wise equality (bitwise on values)."""
        if self.num_layers != other.num_layers or self.context_length != other.context_length:
            return False
        mine, theirs = self.parameter_items(), other.parameter_items()
        return all(
            a_name == b_name and a.shape == b.shape and np.array_equal(a, b)
            for (a_name, a), (b_name, b) in zip(mine, theirs)
        )


def _fused_shapes(num_layers: int, hidden: int, dim: int) -> list[tuple[str, tuple[int, ...]]]:
    shapes: list[tuple[str, tuple[int, ...]]] = []
    for index in range(num_layers):
        in_dim = dim if index == 0 else hidden
        shapes += [
            (f"layer{index}.weight", (4 * hidden, in_dim + hidden)), (f"layer{index}.bias", (4 * hidden,))
        ]
    return shapes + [("out.w", (dim, hidden)), ("out.b", (dim,))]


def _block_shapes(num_layers: int, hidden: int, dim: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Name and shape of every file block, in file order; lazy, so a hostile header costs nothing."""
    for index in range(num_layers):
        in_dim = dim if index == 0 else hidden
        for gate in GATES:
            yield f"layer{index}.{gate}.w_x", (hidden, in_dim)
            yield f"layer{index}.{gate}.w_h", (hidden, hidden)
            yield f"layer{index}.{gate}.bias", (hidden,)
    yield "out.w", (dim, hidden)
    yield "out.b", (dim,)


def save_model(model: SequenceModel, path: str | Path) -> None:
    """Write a model to the binary format; round-trips losslessly through ``load_model``."""
    model.validate()
    path = Path(path)
    with path.open("wb") as handle:
        header = (model.num_layers, model.hidden_size, model.dimension, model.context_length or 0)
        handle.write(MAGIC + struct.pack("<4I", *header))
        for block in model.blocks():
            handle.write(struct.pack("<I", block.size))
            handle.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_model(path: str | Path) -> SequenceModel:
    """Read a model file written by ``save_model``.

    Raises ``ModelVersionError`` for an unknown format version,
    ``ModelShapeError`` when header and block shapes disagree, and
    ``ModelCorruptError`` for truncated or otherwise unreadable files.
    Every block header is checked before any parameter array is allocated,
    so the memory a file can claim is bounded by its length. The values are
    then read block by block through one buffer the size of the largest
    block, so loading needs little more than the model's own memory.
    """
    with Path(path).open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        head = handle.read(_HEADER_BYTES)
        if len(head) < 4 or head[:3] != MAGIC[:3]:
            raise ModelCorruptError("not a sequence-model file")
        if head[:4] != MAGIC:
            raise ModelVersionError(f"unsupported model format version {head[3:4]!r}")
        if len(head) < _HEADER_BYTES:
            raise ModelCorruptError("truncated header")
        num_layers, hidden, dim, context = struct.unpack("<4I", head[4:])
        if num_layers < 1 or hidden < 1 or dim < 1:
            raise ModelShapeError(f"invalid header (L={num_layers}, H={hidden}, D={dim})")
        least = _HEADER_BYTES + (12 * num_layers + 2) * (4 + 8)  # a count and a value per block
        if size < least:
            raise ModelCorruptError(
                f"header claims {num_layers} layers: needs {least} bytes, file has {size}"
            )

        offset = _HEADER_BYTES
        for name, shape in _block_shapes(num_layers, hidden, dim):
            handle.seek(offset)
            count_bytes = handle.read(4)
            if len(count_bytes) < 4:
                raise ModelCorruptError(f"truncated before block '{name}'")
            (count,) = struct.unpack("<I", count_bytes)
            offset += 4
            expected = math.prod(shape)
            if count != expected:
                raise ModelShapeError(
                    f"block '{name}': header implies {expected} elements, file records {count}"
                )
            if size < offset + 8 * count:
                raise ModelCorruptError(f"truncated inside block '{name}'")
            offset += 8 * count
        if offset != size:
            raise ModelCorruptError(f"{size - offset} trailing bytes after final block")

        model = SequenceModel.zeros(num_layers, hidden, dim)
        model.context_length = context or None
        buffer = np.empty(max(block.size for block in model.blocks()), dtype="<f8")
        handle.seek(_HEADER_BYTES)
        for block in model.blocks():
            values = buffer[: block.size]
            handle.seek(4, os.SEEK_CUR)  # the element count, checked above
            if handle.readinto(values) != values.nbytes:
                raise ModelCorruptError("file shrank while loading")
            block[...] = values.reshape(block.shape)
    if any(not np.isfinite(a).all() for _, a in model.parameter_items()):
        raise ModelCorruptError("non-finite parameter value")
    return model
