import json
import os
import struct

import numpy as np
import pytest

from soupstock import weightstore as ws
from soupstock.weightstore import (
    BLOCK,
    CheckpointError,
    SchemaMismatch,
    WeightMap,
    l2_distance,
    load_checkpoint,
    open_checkpoint,
    save_checkpoint,
    validate_compatible,
)

from conftest import random_weightmaps, write_checkpoint


def write_raw(path, header: dict, buffer: bytes) -> None:
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


def _entry(shape=(1,), offsets=(0, 4)):
    return {"w": {"dtype": "F32", "shape": list(shape), "data_offsets": list(offsets)}}


def _with_header(header) -> bytes:
    hb = json.dumps(header).encode()
    return struct.pack("<Q", len(hb)) + hb + b"\x00" * 4


@pytest.mark.parametrize(
    "content, message",
    [
        (_with_header([]), "malformed header (not a JSON object)"),
        (_with_header({"__metadata__": {"k": 1}}), "malformed header (__metadata__ must map str to str)"),
        (_with_header({"w": 1}), "malformed header (entry 'w' not an object)"),
        (_with_header(_entry(shape=[-1])), "malformed header (bad shape for 'w')"),
        (_with_header(_entry(shape=[True])), "malformed header (bad shape for 'w')"),
        (_with_header(_entry(offsets=[0])), "malformed header (bad data_offsets for 'w')"),
        (_with_header(_entry(offsets=[4, 0])), "malformed header (inverted offsets for 'w')"),
        (b"\x00\x00", "truncated buffer (no header length)"),
        (struct.pack("<Q", 200 * 1024 * 1024), "malformed header (implausible length 209715200)"),
    ],
    ids=["not-object", "metadata", "entry", "negative-dim", "bool-dim", "one-offset", "inverted",
         "no-length", "huge-length"],
)
@pytest.mark.parametrize("reader", [open_checkpoint, load_checkpoint], ids=["open", "load"])
def test_load_rejects_malformed_files_with_their_reason(tmp_path, reader, content, message):
    path = tmp_path / "bad.safetensors"
    path.write_bytes(content)
    with pytest.raises(CheckpointError) as info:
        reader(str(path))
    assert str(info.value) == f"{path}: {message}"


def test_save_rejects_non_str_metadata(tmp_path):
    m = WeightMap({"w": np.zeros(1, dtype=np.float32)}, metadata={"k": 1})
    with pytest.raises(CheckpointError, match="^metadata must map str to str$"):
        save_checkpoint(m, str(tmp_path / "m.safetensors"))


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
    # Opening a file rejects it with the same error as loading it.
    path = tmp_path / "nan2.safetensors"
    header = {
        "b": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
        "a": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]},
    }
    write_raw(path, header, np.array([np.inf, np.nan], dtype="<f4").tobytes())
    for reader in (load_checkpoint, open_checkpoint):
        with pytest.raises(CheckpointError, match="tensor 'b' contains NaN/Inf"):
            reader(str(path))
    # A NaN past the first block of the buffer, in the tensor first in header order.
    big = np.zeros(2 * BLOCK, dtype=np.float32)
    big[-1] = np.nan
    write_checkpoint(path, {"a": np.float32([np.inf]), "z": big}, order=["z", "a"], dtypes={"a": "F16"})
    for reader in (load_checkpoint, open_checkpoint):
        with pytest.raises(CheckpointError, match=f"{path}: tensor 'z' contains NaN/Inf"):
            reader(str(path))


# --- stored maps --------------------------------------------------------------

STORED_SHAPES = {
    "a.scalar": (),
    "b.empty": (0,),
    "c.small": (3, 5),
    "d.big": (BLOCK + 1234,),  # larger than a block
    "e.straddle": (2, 40000),  # crosses the second block edge
    "f.empty": (0, 4),
    "g.tail": (7,),
}
LAYOUTS = {
    "f32-name-order": ({}, sorted(STORED_SHAPES)),
    "f32-reversed": ({}, sorted(STORED_SHAPES, reverse=True)),
    "mixed": (
        {"a.scalar": "BF16", "c.small": "F16", "d.big": "F16", "e.straddle": "BF16"},
        ["e.straddle", "a.scalar", "b.empty", "c.small", "g.tail", "d.big", "f.empty"],
    ),
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_stored_map_block_reads_equal_load(tmp_path, layout):
    dtypes, order = LAYOUTS[layout]
    rng = np.random.default_rng(3)
    arrays = {name: rng.standard_normal(shape).astype(np.float32) for name, shape in STORED_SHAPES.items()}
    path = str(tmp_path / "m.safetensors")
    write_checkpoint(path, arrays, order=order, dtypes=dtypes)
    loaded = load_checkpoint(path)
    if not dtypes:
        assert loaded == WeightMap(arrays)
    flat = loaded.flat
    size = flat.size
    edges = loaded.schema().offsets
    slices = [slice(lo, min(lo + BLOCK, size)) for lo in range(0, size, BLOCK)]
    slices += [slice(max(e - 3, 0), min(e + 5, size)) for e in edges]  # across each tensor edge
    slices += [slice(None), slice(0, 0), slice(size, size), slice(1, size - 1), slice(BLOCK - 7, 2 * BLOCK + 9)]
    with open_checkpoint(path) as stored:
        assert stored.schema() == loaded.schema() and stored.metadata == loaded.metadata
        for s in slices:
            expected = flat[s].view(np.uint32)
            np.testing.assert_array_equal(stored.read(s).view(np.uint32), expected)
            out = np.full(expected.size, np.nan, dtype=np.float32)
            assert stored.read(s, out) is out
            np.testing.assert_array_equal(out.view(np.uint32), expected)
        assert stored.load() == loaded


def test_stored_map_reads_a_name_ordered_f32_body_in_one_call(tmp_path, monkeypatch):
    path = str(tmp_path / "m.safetensors")
    save_checkpoint(random_weightmaps(5, 1, shapes=STORED_SHAPES)[0], path)
    calls = []
    preadv = ws.os.preadv
    monkeypatch.setattr(ws.os, "preadv", lambda *a: calls.append(a) or preadv(*a))
    with open_checkpoint(path) as stored:
        calls.clear()  # the finiteness pass at open reads block by block
        stored.read(slice(None))
    assert len(calls) == 1


def test_stored_map_detects_a_file_changed_in_place(tmp_path):
    path = tmp_path / "m.safetensors"
    m = random_weightmaps(6, 1)[0]
    save_checkpoint(m, str(path))
    with open_checkpoint(str(path)) as stored:
        stored.check_unchanged()
        st = path.stat()
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        with pytest.raises(CheckpointError, match="changed while it was open"):
            stored.check_unchanged()
        os.truncate(path, st.st_size - 4)
        with pytest.raises(CheckpointError, match="truncated buffer"):
            stored.read(slice(None))
    # A file replaced by rename leaves the open one readable and unchanged.
    save_checkpoint(m, str(tmp_path / "first.safetensors"))
    with open_checkpoint(str(tmp_path / "first.safetensors")) as stored:
        save_checkpoint(random_weightmaps(7, 1)[0], str(tmp_path / "second.safetensors"))
        os.replace(tmp_path / "second.safetensors", tmp_path / "first.safetensors")
        stored.check_unchanged()
        assert stored.load() == m


# --- the layout cache -------------------------------------------------------


def save_family(tmp_path, count, seed=21):
    """Save `count` maps of STORED_SHAPES with one header; returns (maps, paths)."""
    maps = random_weightmaps(seed, count, shapes=STORED_SHAPES)
    maps = [WeightMap(m.arrays(), {"origin": "family"}) for m in maps]
    paths = [str(tmp_path / f"m{i}.safetensors") for i in range(count)]
    for m, path in zip(maps, paths):
        save_checkpoint(m, path)
    return maps, paths


def test_files_with_one_header_share_one_schema(tmp_path):
    maps, paths = save_family(tmp_path, 3)
    with open_checkpoint(paths[0]) as a, open_checkpoint(paths[1]) as b:
        assert a.schema() is b.schema()
        assert load_checkpoint(paths[2]).schema() is a.schema()
        assert a.load() == maps[0] and b.load() == maps[1]


def test_cached_header_still_checks_each_body(tmp_path):
    maps, paths = save_family(tmp_path, 2)
    open_checkpoint(paths[0]).close()
    arrays = maps[1].arrays()
    arrays["c.small"] = arrays["c.small"].copy()
    arrays["c.small"][1, 2] = np.nan
    save_checkpoint(WeightMap(arrays, maps[1].metadata), paths[1])
    with pytest.raises(CheckpointError, match=f"^{paths[1]}: tensor 'c.small' contains NaN/Inf"):
        open_checkpoint(paths[1])
    # The same header bytes over a shorter body is another layout, not a hit.
    short = tmp_path / "short.safetensors"
    short.write_bytes((tmp_path / "m0.safetensors").read_bytes()[:-4])
    hits = ws._layout.cache_info().hits
    for _ in range(2):
        with pytest.raises(CheckpointError) as err:
            open_checkpoint(str(short))
        assert str(err.value) == f"{short}: truncated buffer (tensor 'g.tail' ends past end of data)"
    assert ws._layout.cache_info().hits == hits


def test_each_map_owns_its_metadata(tmp_path):
    _, paths = save_family(tmp_path, 2)
    with open_checkpoint(paths[0]) as a, open_checkpoint(paths[1]) as b:
        a.metadata["origin"] = "changed"
        assert b.metadata == {"origin": "family"}
        assert a.load().metadata == {"origin": "changed"}
    assert load_checkpoint(paths[0]).metadata == {"origin": "family"}


def test_malformed_header_fails_alike_on_every_open(tmp_path):
    bad_dtype = tmp_path / "dtype.safetensors"
    write_raw(bad_dtype, {"a": {"dtype": "I8", "shape": [1], "data_offsets": [0, 1]}}, b"\x00")
    bad_json = tmp_path / "json.safetensors"
    with open(bad_json, "wb") as fh:
        fh.write(struct.pack("<Q", 9) + b"{not json")
    for path, text in (
        (bad_dtype, "malformed header (unsupported dtype 'I8' for 'a')"),
        (bad_json, "malformed header (Expecting property name enclosed in double quotes"),
    ):
        for reader in (open_checkpoint, open_checkpoint, load_checkpoint):
            with pytest.raises(CheckpointError) as err:
                reader(str(path))
            assert str(err.value).startswith(f"{path}: {text}")
    assert isinstance(err.value.__cause__, ValueError)  # the JSON decoder's error


def test_layout_cache_stays_within_its_bound(tmp_path):
    bound = ws._layout.cache_info().maxsize
    assert bound is not None and bound <= 16
    for i in range(bound + 3):
        path = str(tmp_path / f"m{i}.safetensors")
        save_checkpoint(WeightMap({"a": np.zeros(i + 1, dtype=np.float32)}), path)
        open_checkpoint(path).close()
        assert ws._layout.cache_info().currsize <= bound
    assert ws._layout.cache_info().currsize == bound


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


def test_map_size_membership_equality_and_repr(tmp_path):
    m = WeightMap({"b": np.arange(6, dtype=np.float32).reshape(2, 3), "a": np.ones(2, dtype=np.float32)})
    assert m.num_elements() == 8
    assert "a" in m and "b" in m and "c" not in m
    assert m == WeightMap({"a": np.ones(2, np.float32), "b": np.arange(6, dtype=np.float32).reshape(2, 3)})
    assert m.__eq__(m.flat) is NotImplemented and m != "a"  # not a map
    assert m != WeightMap({name: m.array(name) for name in m}, metadata={"note": "other"})
    assert m != WeightMap({"a": np.ones(2, np.float32), "b": np.arange(6, dtype=np.float32)})  # another schema
    assert repr(m) == "WeightMap(2 tensors, 8 elements)"
    save_checkpoint(m, str(tmp_path / "m.safetensors"))
    with open_checkpoint(str(tmp_path / "m.safetensors")) as stored:
        assert repr(stored) == f"StoredMap({str(tmp_path / 'm.safetensors')!r}, 2 tensors, 8 elements)"


def test_schema_equality_across_sources():
    m1 = WeightMap({"a": np.zeros((2, 3), dtype=np.float32)})
    m2 = WeightMap({"a": np.ones((2, 3), dtype=np.float32)})
    assert m1.schema() == m2.schema()
    assert ws.validate_compatible([m1, m2]) == m1.schema()


def test_write_csv_decides_every_cell(tmp_path):
    path = tmp_path / "cells.csv"
    row = [None, True, False, -0.0, 1e-05, float("inf"), float("nan"), 7, "m00|m01", np.float64(0.1)]
    ws.write_csv(str(path), ["a", "b"], [row])
    assert path.read_bytes() == b"a,b\r\n,true,false,-0.0,1e-05,inf,nan,7,m00|m01,0.1\r\n"
