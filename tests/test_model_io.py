"""Binary model persistence: lossless round trips and corruption detection."""

import struct
import tracemalloc

import numpy as np
import pytest

from segue.model import (
    ModelCorruptError,
    ModelShapeError,
    ModelVersionError,
    SequenceModel,
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

    def test_load_reads_into_the_arrays_without_a_staging_buffer(self, tmp_path):
        model = init_model(num_layers=2, hidden_size=128, dimension=16, seed=4)
        path = tmp_path / "model.sgm"
        save_model(model, path)
        size = sum(array.nbytes for _, array in model.parameter_items())
        largest = max(block.nbytes for block in model.blocks())
        tracemalloc.start()
        try:
            loaded = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.equals(model)
        assert peak - size < largest  # a buffer for the largest block would exceed this

    def test_double_round_trip_bytes_identical(self, small_model, tmp_path):
        first, second = tmp_path / "a.sgm", tmp_path / "b.sgm"
        save_model(small_model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_failed_save_leaves_the_old_file(self, small_model, monkeypatch, tmp_path):
        path = tmp_path / "model.sgm"
        save_model(small_model, path)
        before = path.read_bytes()
        other = init_model(num_layers=2, hidden_size=8, dimension=5, seed=22)
        blocks = SequenceModel.blocks

        def fail_after_first_block(model):
            iterator = blocks(model)
            yield next(iterator)
            raise RuntimeError("cut")

        monkeypatch.setattr(SequenceModel, "blocks", fail_after_first_block)
        with pytest.raises(RuntimeError, match="cut"):
            save_model(other, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.sgm"]


def per_gate_file(model):
    """SGM1 bytes written block by block from explicit row slices of the layer arrays."""
    hidden = model.hidden_size
    data = b"SGM1" + struct.pack(
        "<4I", model.num_layers, hidden, model.dimension, model.context_length or 0
    )
    blocks = []
    for layer in model.layers:
        for k in range(4):
            rows = slice(k * hidden, (k + 1) * hidden)
            blocks += [layer.w_x[rows], layer.w_h[rows], layer.bias[rows]]
    for block in blocks + [model.w_out, model.b_out]:
        data += struct.pack("<I", block.size) + np.ascontiguousarray(block, dtype="<f8").tobytes()
    return data


class TestFileLayout:
    def test_save_writes_per_gate_blocks_in_canonical_order(self, small_model, tmp_path):
        path = tmp_path / "model.sgm"
        small_model.context_length = 6
        save_model(small_model, path)
        assert path.read_bytes() == per_gate_file(small_model)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 2), (2, 512, 50)],
                             ids=["1x1x1", "3x5x2", "reference 2x512x50"])
    def test_save_writes_the_reference_bytes(self, shape, tmp_path):
        model = init_model(*shape, seed=17)
        model.context_length = 50
        path = tmp_path / "model.sgm"
        save_model(model, path)
        assert path.read_bytes() == per_gate_file(model)

    def test_save_of_flat_views_and_fortran_arrays_writes_the_reference_bytes(
            self, small_model, tmp_path):
        # Views of one vector, as ``train`` returns them, and arrays whose
        # blocks are not contiguous, which save has to copy.
        flat = np.random.default_rng(2).uniform(-1.0, 1.0, small_model.parameter_count)
        fortran = small_model.copy()
        for layer in fortran.layers:
            layer.w_x, layer.w_h = np.asfortranarray(layer.w_x), np.asfortranarray(layer.w_h)
        fortran.w_out = np.asfortranarray(fortran.w_out)
        for model in (small_model.over(flat), fortran):
            path = tmp_path / "model.sgm"
            save_model(model, path)
            assert path.read_bytes() == per_gate_file(model)

    def test_per_gate_file_loads_into_the_layer_arrays(self, small_model, tmp_path):
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

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "model.sgm"
        path.write_bytes(b"SGM1" + struct.pack("<3I", 2, 8, 5))
        with pytest.raises(ModelCorruptError, match="^truncated header$"):
            load_model(path)

    @pytest.mark.parametrize("header", [(0, 8, 5, 0), (2, 0, 5, 0), (2, 8, 0, 0)])
    def test_zero_in_the_header_is_an_invalid_header(self, tmp_path, header):
        path = tmp_path / "model.sgm"
        path.write_bytes(b"SGM1" + struct.pack("<4I", *header) + bytes(400))
        layers, hidden, dim, _ = header
        with pytest.raises(ModelShapeError) as caught:
            load_model(path)
        assert str(caught.value) == f"invalid header (L={layers}, H={hidden}, D={dim})"

    def test_file_cut_after_a_block_is_truncated_before_the_next(self, small_model, tmp_path):
        path = tmp_path / "model.sgm"
        save_model(small_model, path)
        first_block = 4 + 8 * 8 * 5  # count, then the input gate's (H, D) input weights
        path.write_bytes(path.read_bytes()[: 20 + first_block])
        with pytest.raises(ModelCorruptError, match="^truncated before block 'layer0.input.w_h'$"):
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

    def test_over_lays_parameters_end_to_end_in_one_vector(self, small_model):
        small_model.context_length = 4
        flat = np.concatenate([array.ravel() for _, array in small_model.parameter_items()])
        packed = small_model.over(flat)
        assert packed.equals(small_model)
        for _, array in packed.parameter_items():
            assert array.flags.c_contiguous and np.shares_memory(array, flat)
        packed.layers[1].w_h[2, 3] = 7.0  # writes reach the vector at the parameter's offset
        items = small_model.parameter_items()
        offset = sum(a.size for _, a in items[: [name for name, _ in items].index("layer1.w_h")])
        assert flat[offset + 2 * 8 + 3] == 7.0

    @pytest.mark.parametrize("flat", [np.zeros(10), np.zeros(1037, dtype=np.float32),
                                      np.zeros(2 * 1037)[::2]],
                             ids=["short", "float32", "strided"])
    def test_over_refuses_a_vector_it_cannot_view(self, small_model, flat):
        assert small_model.parameter_count == 1037
        with pytest.raises(ValueError, match=r"not a contiguous float64 \(1037,\)"):
            small_model.over(flat)

    def test_validate_catches_shape_drift(self, small_model):
        small_model.layers[1].w_h = np.zeros((3, 3))
        with pytest.raises(ModelShapeError, match="layer1.w_h"):
            small_model.validate()

    def test_validate_refuses_a_model_without_layers(self, small_model):
        small_model.layers = []
        with pytest.raises(ModelShapeError, match="at least one layer"):
            small_model.validate()

    def test_equals_compares_layer_count_and_context_length(self, small_model):
        fewer = small_model.copy()
        fewer.layers = fewer.layers[:1]
        assert not fewer.equals(small_model) and not small_model.equals(fewer)
        other_context = small_model.copy()
        other_context.context_length = 7
        assert not other_context.equals(small_model)
