import struct

import numpy as np
import pytest

from soupstock import weightstore as ws
from soupstock.weightstore import (
    CheckpointError,
    SchemaMismatch,
    WeightMap,
    global_l2_norm,
    l2_distance,
    load_checkpoint,
    save_checkpoint,
    validate_compatible,
)

from conftest import random_weightmaps


def write_raw(path, header: dict, buffer: bytes) -> None:
    import json

    hb = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(hb)))
        fh.write(hb)
        fh.write(buffer)


# --- load / save ------------------------------------------------------------


def test_load_single_tensor(tmp_path):
    path = tmp_path / "one.safetensors"
    buf = np.array([1.0, 2.0], dtype="<f4").tobytes()
    write_raw(path, {"a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}, buf)
    m = load_checkpoint(str(path))
    assert m.names() == ["a"]
    np.testing.assert_array_equal(m.array("a"), np.array([1.0, 2.0], dtype=np.float32))


def test_load_empty_map_with_metadata(tmp_path):
    path = tmp_path / "empty.safetensors"
    write_raw(path, {"__metadata__": {"k": "v"}}, b"")
    m = load_checkpoint(str(path))
    assert len(m) == 0
    assert m.metadata == {"k": "v"}


def test_load_offsets_past_end(tmp_path):
    path = tmp_path / "trunc.safetensors"
    write_raw(path, {"a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}}, b"\x00" * 8)
    with pytest.raises(CheckpointError, match="truncated buffer"):
        load_checkpoint(str(path))


def test_load_header_past_end(tmp_path):
    path = tmp_path / "short.safetensors"
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", 1000))
        fh.write(b"{}")
    with pytest.raises(CheckpointError, match="truncated buffer"):
        load_checkpoint(str(path))


def test_load_malformed_json(tmp_path):
    path = tmp_path / "bad.safetensors"
    hb = b"{not json"
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(hb)))
        fh.write(hb)
    with pytest.raises(CheckpointError, match="malformed header"):
        load_checkpoint(str(path))


def test_load_duplicate_names(tmp_path):
    path = tmp_path / "dup.safetensors"
    hb = (
        b'{"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},'
        b' "a": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]}}'
    )
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(hb)))
        fh.write(hb)
        fh.write(b"\x00" * 8)
    with pytest.raises(CheckpointError, match="duplicate tensor name"):
        load_checkpoint(str(path))


def test_load_overlapping_ranges(tmp_path):
    path = tmp_path / "overlap.safetensors"
    header = {
        "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
        "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
    }
    write_raw(path, header, b"\x00" * 12)
    with pytest.raises(CheckpointError, match="overlapping data ranges"):
        load_checkpoint(str(path))


def test_load_size_mismatch(tmp_path):
    path = tmp_path / "size.safetensors"
    write_raw(path, {"a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}, b"\x00" * 8)
    with pytest.raises(CheckpointError, match="malformed header"):
        load_checkpoint(str(path))


def test_load_rejects_nan_by_default(tmp_path):
    path = tmp_path / "nan.safetensors"
    buf = np.array([1.0, np.nan], dtype="<f4").tobytes()
    write_raw(path, {"a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}, buf)
    with pytest.raises(CheckpointError, match="NaN/Inf"):
        load_checkpoint(str(path))
    m = load_checkpoint(str(path), allow_nonfinite=True)
    assert np.isnan(m.array("a")[1])


def test_load_rejects_gap_between_tensors(tmp_path):
    path = tmp_path / "gap.safetensors"
    header = {
        "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
        "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]},
    }
    write_raw(path, header, b"\x00" * 12)
    with pytest.raises(CheckpointError, match="4 unused bytes before tensor 'b'"):
        load_checkpoint(str(path))


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "trailing.safetensors"
    buf = np.array([1.0, 2.0], dtype="<f4").tobytes() + b"\x00\x00"
    write_raw(path, {"a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}, buf)
    with pytest.raises(CheckpointError, match="2 trailing bytes"):
        load_checkpoint(str(path))


def test_load_offsets_out_of_name_order(tmp_path):
    # Tensors stored in reverse name order take the per-tensor copy path.
    path = tmp_path / "reversed.safetensors"
    a = np.arange(6, dtype="<f4").reshape(2, 3)
    b = np.array([-1.5, 2.5], dtype="<f4")
    header = {
        "a": {"dtype": "F32", "shape": [2, 3], "data_offsets": [8, 32]},
        "b": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
    }
    write_raw(path, header, b.tobytes() + a.tobytes())
    m = load_checkpoint(str(path))
    assert m == WeightMap({"a": a, "b": b})
    np.testing.assert_array_equal(m.flat, np.concatenate([a.reshape(-1), b]))


def test_load_mixed_dtypes_widens_each_tensor(tmp_path):
    path = tmp_path / "mixed.safetensors"
    f16 = np.array([1.5, -0.25, 3.0], dtype="<f2")
    f32 = np.array([[0.1, 0.2], [0.3, 0.4]], dtype="<f4")
    bf16_as_f32 = np.array([1.5, -2.0], dtype="<f4")
    bf16 = (bf16_as_f32.view(np.uint32) >> 16).astype("<u2")
    header = {
        "z.f32": {"dtype": "F32", "shape": [2, 2], "data_offsets": [0, 16]},
        "a.f16": {"dtype": "F16", "shape": [3], "data_offsets": [16, 22]},
        "m.bf16": {"dtype": "BF16", "shape": [2], "data_offsets": [22, 26]},
    }
    write_raw(path, header, f32.tobytes() + f16.tobytes() + bf16.tobytes())
    m = load_checkpoint(str(path))
    assert m == WeightMap({"a.f16": f16.astype(np.float32), "m.bf16": bf16_as_f32, "z.f32": f32})


def test_direct_read_and_copy_paths_agree(tmp_path):
    m = WeightMap(
        {"a": np.arange(5, dtype=np.float32), "b": np.zeros((0, 2), dtype=np.float32), "c": np.float32(7.0)},
        metadata={"k": "v"},
    )
    direct = tmp_path / "direct.safetensors"
    save_checkpoint(m, str(direct))
    assert load_checkpoint(str(direct)) == m
    # The same tensors with the body reordered (c, a) must load to the same map.
    reordered = tmp_path / "reordered.safetensors"
    header = {
        "__metadata__": {"k": "v"},
        "a": {"dtype": "F32", "shape": [5], "data_offsets": [4, 24]},
        "b": {"dtype": "F32", "shape": [0, 2], "data_offsets": [24, 24]},
        "c": {"dtype": "F32", "shape": [], "data_offsets": [0, 4]},
    }
    write_raw(reordered, header, np.float32(7.0).tobytes() + m.array("a").tobytes())
    assert load_checkpoint(str(reordered)) == m


def test_nonfinite_error_names_first_tensor_in_header_order(tmp_path):
    path = tmp_path / "nan2.safetensors"
    header = {
        "b": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
        "a": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]},
    }
    write_raw(path, header, np.array([np.inf, np.nan], dtype="<f4").tobytes())
    with pytest.raises(CheckpointError, match="tensor 'b' contains NaN/Inf"):
        load_checkpoint(str(path))


def test_f16_widened_exactly(tmp_path):
    path = tmp_path / "f16.safetensors"
    vals = np.array([1.5, -0.25, 3.0], dtype="<f2")
    write_raw(path, {"a": {"dtype": "F16", "shape": [3], "data_offsets": [0, 6]}}, vals.tobytes())
    m = load_checkpoint(str(path))
    np.testing.assert_array_equal(m.array("a"), vals.astype(np.float32))


def test_bf16_widened_exactly(tmp_path):
    # bf16 is the top 16 bits of the float32 pattern; 1.5 and -2.0 are exact.
    path = tmp_path / "bf16.safetensors"
    f32 = np.array([1.5, -2.0], dtype="<f4")
    top = (f32.view(np.uint32) >> 16).astype("<u2")
    write_raw(path, {"a": {"dtype": "BF16", "shape": [2], "data_offsets": [0, 4]}}, top.tobytes())
    m = load_checkpoint(str(path))
    np.testing.assert_array_equal(m.array("a"), f32.astype(np.float32))


def test_roundtrip_identity_and_resave_bytes(tmp_path):
    m = WeightMap({"a": np.array([1.0, 2.0], dtype=np.float32)}, metadata={"src": "unit"})
    p1, p2 = tmp_path / "m1.safetensors", tmp_path / "m2.safetensors"
    save_checkpoint(m, str(p1))
    loaded = load_checkpoint(str(p1))
    assert loaded == m
    save_checkpoint(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_random_maps(tmp_path):
    rng = np.random.default_rng(7)
    for i in range(50):
        n_tensors = int(rng.integers(1, 6))
        shapes = {
            f"t{j}": tuple(int(x) for x in rng.integers(0, 5, size=int(rng.integers(0, 3))))
            for j in range(n_tensors)
        }
        m = WeightMap(
            {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()},
            metadata={"i": str(i)},
        )
        path = tmp_path / f"r{i}.safetensors"
        save_checkpoint(m, str(path))
        assert load_checkpoint(str(path)) == m


def test_save_unwritable_path(tmp_path):
    m = WeightMap({"a": np.zeros(1, dtype=np.float32)})
    with pytest.raises(OSError):
        save_checkpoint(m, str(tmp_path / "noexist" / "m.safetensors"))


# --- schema / compatibility ---------------------------------------------------


def test_validate_compatible_self():
    m = WeightMap({"a": np.zeros(2, dtype=np.float32)})
    schema = validate_compatible([m, m])
    assert schema == m.schema()


def test_validate_compatible_names_offender():
    m1 = WeightMap({"a": np.zeros(2, dtype=np.float32)})
    m2 = WeightMap({"b": np.zeros(2, dtype=np.float32)})
    with pytest.raises(SchemaMismatch, match="'a'"):
        validate_compatible([m1, m2])


def test_validate_compatible_shape_offender():
    m1 = WeightMap({"a": np.zeros(2, dtype=np.float32)})
    m2 = WeightMap({"a": np.zeros(3, dtype=np.float32)})
    with pytest.raises(SchemaMismatch, match="'a'"):
        validate_compatible([m1, m2])


def test_generated_family_shares_schema():
    maps = random_weightmaps(seed=3, count=16)
    schema = validate_compatible(maps)
    assert len(schema) == 4


def test_empty_list_rejected():
    with pytest.raises(ValueError):
        validate_compatible([])


# --- norms and views ----------------------------------------------------------


def test_norm_and_distance():
    a = WeightMap({"a": np.array([3.0, 4.0], dtype=np.float32)})
    b = WeightMap({"a": np.array([0.0, 0.0], dtype=np.float32)})
    assert global_l2_norm(a) == pytest.approx(5.0)
    assert l2_distance(a, b) == pytest.approx(5.0)
    assert l2_distance(a, a) == 0.0


def test_iteration_order_lexicographic_and_stable():
    m = WeightMap({"b": np.zeros(1, dtype=np.float32), "a": np.zeros(1, dtype=np.float32)})
    assert m.names() == ["a", "b"]
    assert list(m) == list(m)


def test_arrays_are_readonly():
    m = WeightMap({"a": np.zeros(2, dtype=np.float32)})
    with pytest.raises(ValueError):
        m.array("a")[0] = 1.0


def test_array_views_share_the_flat_buffer():
    m = WeightMap({"b": np.arange(6, dtype=np.float32).reshape(2, 3), "a": np.ones(2, dtype=np.float32)})
    assert m.flat.shape == (8,)
    assert m.array("a").shape == (2,) and m.array("b").shape == (2, 3)
    assert np.shares_memory(m.array("b"), m.flat)
    np.testing.assert_array_equal(m.flat, [1, 1, 0, 1, 2, 3, 4, 5])
    assert m.schema().offsets == (0, 2, 8)


def test_schema_equality_across_sources():
    m1 = WeightMap({"a": np.zeros((2, 3), dtype=np.float32)})
    m2 = WeightMap({"a": np.ones((2, 3), dtype=np.float32)})
    assert m1.schema() == m2.schema()
    assert ws.validate_compatible([m1, m2]) == m1.schema()
