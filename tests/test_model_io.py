"""Binary model persistence: lossless round trips and corruption detection."""

import struct
import tracemalloc

import numpy as np
import pytest

from segue.model import (
    ModelCorruptError,
    ModelShapeError,
    ModelVersionError,
    load_model,
    save_model,
)
from segue.rnn import init_model


@pytest.fixture
def small_model():
    return init_model(num_layers=2, hidden_size=8, dimension=5, seed=21)


class TestRoundTrip:
    def test_fresh_model_round_trips_exactly(self, small_model, tmp_path):
        path = tmp_path / "model.sgm"
        save_model(small_model, path)
        loaded = load_model(path)
        assert loaded.equals(small_model)
        for (name_a, a), (name_b, b) in zip(
            small_model.parameter_items(), loaded.parameter_items()
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(a, b)

    def test_context_length_round_trips(self, small_model, tmp_path):
        path = tmp_path / "model.sgm"
        small_model.context_length = 13
        save_model(small_model, path)
        assert load_model(path).context_length == 13

    def test_unset_context_length_stays_unset(self, small_model, tmp_path):
        path = tmp_path / "model.sgm"
        save_model(small_model, path)
        assert load_model(path).context_length is None

    def test_load_reads_block_by_block(self, tmp_path):
        model = init_model(num_layers=2, hidden_size=64, dimension=16, seed=3)
        path = tmp_path / "model.sgm"
        save_model(model, path)
        size = sum(array.nbytes for _, array in model.parameter_items())
        tracemalloc.start()
        try:
            loaded = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.equals(model)
        # the whole file held beside the arrays would add about one model size
        assert peak - size < size / 4

    def test_double_round_trip_bytes_identical(self, small_model, tmp_path):
        first, second = tmp_path / "a.sgm", tmp_path / "b.sgm"
        save_model(small_model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()


def per_gate_file(model):
    """SGM1 bytes written block by block from explicit slices of the fused arrays."""
    hidden = model.hidden_size
    data = b"SGM1" + struct.pack(
        "<4I", model.num_layers, hidden, model.dimension, model.context_length or 0
    )
    blocks = []
    for layer in model.layers:
        in_dim = layer.weight.shape[1] - hidden
        for k in range(4):
            rows = layer.weight[k * hidden : (k + 1) * hidden]
            blocks += [rows[:, :in_dim], rows[:, in_dim:], layer.bias[k * hidden : (k + 1) * hidden]]
    for block in blocks + [model.w_out, model.b_out]:
        data += struct.pack("<I", block.size) + np.ascontiguousarray(block, dtype="<f8").tobytes()
    return data


class TestFileLayout:
    def test_save_writes_per_gate_blocks_in_canonical_order(self, small_model, tmp_path):
        path = tmp_path / "model.sgm"
        small_model.context_length = 6
        save_model(small_model, path)
        assert path.read_bytes() == per_gate_file(small_model)

    def test_per_gate_file_loads_into_the_fused_layout(self, small_model, tmp_path):
        path = tmp_path / "model.sgm"
        path.write_bytes(per_gate_file(small_model))
        assert load_model(path).equals(small_model)


class TestCorruption:
    def test_version_mismatch(self, small_model, tmp_path):
        path = tmp_path / "model.sgm"
        save_model(small_model, path)
        data = bytearray(path.read_bytes())
        data[3:4] = b"2"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_recorded_hidden_size_disagrees_with_blocks(self, small_model, tmp_path):
        path = tmp_path / "model.sgm"
        save_model(small_model, path)
        data = bytearray(path.read_bytes())
        # header: magic then u32 L, H, D, N; double the recorded hidden size
        data[8:12] = struct.pack("<I", 16)
        path.write_bytes(bytes(data))
        with pytest.raises(ModelShapeError, match="elements"):
            load_model(path)

    def test_truncated_file(self, small_model, tmp_path):
        path = tmp_path / "model.sgm"
        save_model(small_model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelCorruptError, match="truncated"):
            load_model(path)

    def test_trailing_garbage(self, small_model, tmp_path):
        path = tmp_path / "model.sgm"
        save_model(small_model, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ModelCorruptError, match="trailing"):
            load_model(path)

    def test_non_finite_parameter_rejected_on_load(self, small_model, tmp_path):
        path = tmp_path / "model.sgm"
        save_model(small_model, path)
        data = bytearray(path.read_bytes())
        data[-8:] = struct.pack("<d", float("nan"))  # the final block's last value
        path.write_bytes(bytes(data))
        with pytest.raises(ModelCorruptError, match="non-finite"):
            load_model(path)

    def test_huge_layer_count_raises_without_allocating(self, tmp_path):
        path = tmp_path / "model.sgm"
        path.write_bytes(b"SGM1" + struct.pack("<4I", 2**32 - 1, 512, 50, 0))
        tracemalloc.start()
        try:
            with pytest.raises(ModelCorruptError, match="layers"):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "model.sgm"
        path.write_bytes(b"definitely not a model")
        with pytest.raises(ModelCorruptError):
            load_model(path)

    def test_non_finite_parameter_rejected_on_save(self, small_model, tmp_path):
        small_model.w_out[0, 0] = np.nan
        with pytest.raises(ModelShapeError, match="non-finite"):
            save_model(small_model, tmp_path / "model.sgm")


class TestStructure:
    def test_parameter_count_matches_enumeration(self, small_model):
        hidden, dim = 8, 5
        formula = (
            4 * (hidden * dim + hidden * hidden + hidden)
            + 4 * (hidden * hidden + hidden * hidden + hidden)
            + dim * hidden + dim
        )
        enumerated = sum(a.size for _, a in small_model.parameter_items())
        assert small_model.parameter_count == formula == enumerated

    def test_copy_is_independent(self, small_model):
        clone = small_model.copy()
        assert clone.equals(small_model)
        clone.w_out[0, 0] += 1.0
        assert not clone.equals(small_model)

    def test_validate_catches_shape_drift(self, small_model):
        small_model.layers[1].weight = np.zeros((3, 3))
        with pytest.raises(ModelShapeError, match="layer1.weight"):
            small_model.validate()
