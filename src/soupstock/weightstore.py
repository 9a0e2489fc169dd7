"""Named tensor collections and the bit-exact checkpoint codec.

A :class:`WeightMap` is an ordered (lexicographic by name) collection of
float32 tensors plus optional string metadata. It is the universal currency of
the package: a model, a pivot, a pseudogradient, or a batch of image tensors
are all WeightMaps. Its tensors live in one contiguous float32 buffer
(``WeightMap.flat``) in name order, which is the layout of a checkpoint body;
a :class:`Schema` of (name, shape, offset) describes it and is shared by the
maps derived from one another. ``array(name)`` and ``arrays()`` return
read-only views into the buffer. Maps are immutable after construction and
safe to share across threads.

Elementwise work elsewhere in the package (soups, pseudogradients, and the
optimizer step, which also sums the engine's batches) runs over the flat
buffer, one block of :data:`BLOCK` elements at a time, so temporaries stay
small whatever the model size. Blocking changes no float32 result: every
element sees the same operations in the same order. The norms accumulate in
float64 per tensor and add the tensors up in name order; the optimizer step
takes its log norms the same way, one norm chunk (:attr:`Schema.norm_chunks`)
at a time.

Checkpoint file layout (little-endian throughout):

    8-byte unsigned header length H
    H bytes of UTF-8 JSON: {name: {"dtype": "F32"|"F16"|"BF16",
                                   "shape": [ints],
                                   "data_offsets": [begin, end]}, ...,
                            "__metadata__": {str: str}}   (optional)
    raw tensor buffer; offsets are relative to the buffer start, and the
    tensors' byte ranges tile it exactly (no overlaps, gaps or trailing bytes)

A body that is all F32 in name order is read straight into the map's buffer.
Narrow float tensors (F16/BF16) are widened to float32 on load and written
back as F32; float32 round-trips are byte-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "BLOCK",
    "CheckpointError",
    "SchemaMismatch",
    "Schema",
    "WeightMap",
    "blocks",
    "load_checkpoint",
    "save_checkpoint",
    "validate_compatible",
    "global_l2_norm",
    "l2_distance",
]

_F32 = np.dtype("<f4")
_MAX_HEADER_BYTES = 100 * 1024 * 1024

BLOCK = 1 << 16
"""Elements per block of the elementwise kernels (256 KiB of float32)."""

_WHOLE = (slice(None),)


def blocks(size: int) -> tuple[slice, ...] | list[slice]:
    """Slices covering range(size) in blocks of at most BLOCK elements."""
    if size <= BLOCK:
        return _WHOLE
    return [slice(i, i + BLOCK) for i in range(0, size, BLOCK)]


class CheckpointError(ValueError):
    """Raised for malformed, truncated, or otherwise invalid checkpoints."""


class SchemaMismatch(ValueError):
    """Raised when two weight maps do not share the same tensor layout."""


@dataclass(frozen=True)
class Schema:
    """The (name, shape, offset) layout shared by compatible weight maps.

    Tensors sit in name order in one flat buffer; tensor i spans
    ``offsets[i]:offsets[i + 1]``.
    """

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]

    @classmethod
    def from_shapes(cls, shapes: Mapping[str, tuple[int, ...]]) -> "Schema":
        names = tuple(sorted(shapes))
        dims = tuple(tuple(shapes[name]) for name in names)
        offsets = [0]
        for dim in dims:
            offsets.append(offsets[-1] + math.prod(dim))
        return cls(names, dims, tuple(offsets))

    @property
    def size(self) -> int:
        return self.offsets[-1]

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def norm_chunks(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """Runs of whole tensors of at most BLOCK elements (a larger tensor
        forms a run alone): (begin, end, tensor bounds relative to begin)."""
        chunks = []
        start = 0
        offsets = self.offsets
        for i in range(1, len(offsets)):
            last = i == len(offsets) - 1
            if last or offsets[i + 1] - offsets[start] > BLOCK:
                base = offsets[start]
                chunks.append((base, offsets[i], tuple(o - base for o in offsets[start : i + 1])))
                start = i
        return tuple(chunks)

    def __len__(self) -> int:
        return len(self.names)


class WeightMap:
    """Immutable ordered mapping of tensor names to float32 arrays, stored flat."""

    __slots__ = ("flat", "_schema", "metadata")

    def __init__(
        self,
        arrays: Mapping[str, np.ndarray],
        metadata: Mapping[str, str] | None = None,
    ) -> None:
        converted = {name: np.asarray(arrays[name], dtype=np.float32) for name in arrays}
        schema = Schema.from_shapes({name: arr.shape for name, arr in converted.items()})
        flat = np.empty(schema.size, dtype=np.float32)
        for name, begin, end in zip(schema.names, schema.offsets, schema.offsets[1:]):
            flat[begin:end] = converted[name].reshape(-1)
        flat.setflags(write=False)
        self.flat = flat
        self._schema = schema
        self.metadata = dict(metadata) if metadata else {}

    @classmethod
    def _wrap(
        cls, flat: np.ndarray, schema: Schema, metadata: dict[str, str] | None = None
    ) -> "WeightMap":
        # O(1) constructor for internal ops: `flat` is a float32 buffer of
        # schema.size elements that nothing else will write to.
        self = cls.__new__(cls)
        flat.setflags(write=False)
        self.flat = flat
        self._schema = schema
        self.metadata = metadata or {}
        return self

    def names(self) -> list[str]:
        return list(self._schema.names)

    def arrays(self) -> dict[str, np.ndarray]:
        """Read-only views of every tensor, in iteration order."""
        s = self._schema
        return {
            name: self.flat[begin:end].reshape(shape)
            for name, shape, begin, end in zip(s.names, s.shapes, s.offsets, s.offsets[1:])
        }

    def array(self, name: str) -> np.ndarray:
        s = self._schema
        i = s.index[name]
        return self.flat[s.offsets[i] : s.offsets[i + 1]].reshape(s.shapes[i])

    def schema(self) -> Schema:
        return self._schema

    def num_elements(self) -> int:
        return self.flat.size

    def __len__(self) -> int:
        return len(self._schema.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.names)

    def __contains__(self, name: str) -> bool:
        return name in self._schema.index

    def __eq__(self, other: object) -> bool:
        # Bitwise equality: names, shapes, raw bytes (distinguishes -0.0, NaN
        # payloads), and metadata.
        if not isinstance(other, WeightMap):
            return NotImplemented
        if self.metadata != other.metadata:
            return False
        if self._schema is not other._schema and self._schema != other._schema:
            return False
        return np.array_equal(self.flat.view(np.uint32), other.flat.view(np.uint32))

    def __repr__(self) -> str:
        return f"WeightMap({len(self)} tensors, {self.num_elements()} elements)"


def _check_compatible(a: WeightMap, b: WeightMap) -> None:
    sa, sb = a._schema, b._schema
    if sa is sb or sa == sb:
        return
    if sa.names != sb.names:
        diff = sorted(set(sa.names).symmetric_difference(sb.names))
        raise SchemaMismatch(f"tensor name mismatch: first offender {diff[0]!r}")
    for name, ours, theirs in zip(sa.names, sa.shapes, sb.shapes):
        if ours != theirs:
            raise SchemaMismatch(f"shape mismatch for tensor {name!r}: {ours} vs {theirs}")


def validate_compatible(maps: list[WeightMap]) -> Schema:
    """Check that all maps share one schema and return it.

    Raises :class:`SchemaMismatch` naming the first offending tensor.
    """
    if not maps:
        raise ValueError("validate_compatible requires at least one weight map")
    first = maps[0]
    for other in maps[1:]:
        _check_compatible(first, other)
    return first.schema()


def _add_tensor_squares(total: float, values: np.ndarray, bounds: tuple[int, ...]) -> float:
    # Adds, tensor by tensor in name order, the float64 dot product of each
    # tensor's own elements; values holds one norm chunk, tensor i at
    # bounds[i]:bounds[i + 1].
    for lo, hi in zip(bounds, bounds[1:]):
        part = values[lo:hi]
        total += float(np.dot(part, part))
    return total


def _sum_tensor_squares(schema: Schema, chunk64) -> float:
    # chunk64(begin, end) gives float64 values for a norm chunk.
    total = 0.0
    for begin, end, bounds in schema.norm_chunks:
        total = _add_tensor_squares(total, chunk64(begin, end), bounds)
    return total


def global_l2_norm(m: WeightMap) -> float:
    """Euclidean norm over all elements of all tensors (float64 accumulation)."""
    flat = m.flat
    return math.sqrt(
        _sum_tensor_squares(m._schema, lambda b, e: flat[b:e].astype(np.float64))
    )


def _sq_distance(a: WeightMap, b: WeightMap) -> float:
    """Squared Euclidean distance of two compatible maps (float64 accumulation)."""
    fa, fb = a.flat, b.flat
    return _sum_tensor_squares(a._schema, lambda lo, hi: fa[lo:hi].astype(np.float64) - fb[lo:hi])


def l2_distance(a: WeightMap, b: WeightMap) -> float:
    _check_compatible(a, b)
    return math.sqrt(_sq_distance(a, b))


# --- checkpoint codec -------------------------------------------------------

_DTYPE_SIZES = {"F32": 4, "F16": 2, "BF16": 2}


def _reject_duplicate_names(pairs: list[tuple[str, object]]) -> dict:
    seen: dict[str, object] = {}
    for key, value in pairs:
        if key in seen:
            raise CheckpointError(f"duplicate tensor name in header: {key!r}")
        seen[key] = value
    return seen


def _widen(raw: bytes, dtype: str) -> np.ndarray:
    if dtype == "F32":
        return np.frombuffer(raw, dtype=_F32)
    if dtype == "F16":
        return np.frombuffer(raw, dtype=np.dtype("<f2"))
    # BF16 is the upper half of a float32; widen by shifting into place.
    bits = np.frombuffer(raw, dtype=np.dtype("<u2")).astype(np.uint32)
    return (bits << np.uint32(16)).view(np.float32)


def _parse_header(path: str, raw: bytes, body_len: int):
    """Validate a header; returns (metadata, {name: (dtype, shape, begin, end)})."""
    try:
        header = json.loads(raw.decode("utf-8"), object_pairs_hook=_reject_duplicate_names)
    except CheckpointError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: malformed header (not a JSON object)")

    metadata: dict[str, str] = {}
    entries: dict[str, tuple[str, tuple[int, ...], int, int]] = {}
    for name, entry in header.items():
        if name == "__metadata__":
            if not isinstance(entry, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in entry.items()
            ):
                raise CheckpointError(f"{path}: malformed header (__metadata__ must map str to str)")
            metadata = dict(entry)
            continue
        if not isinstance(entry, dict):
            raise CheckpointError(f"{path}: malformed header (entry {name!r} not an object)")
        dtype = entry.get("dtype")
        shape = entry.get("shape")
        offsets = entry.get("data_offsets")
        if dtype not in _DTYPE_SIZES:
            raise CheckpointError(f"{path}: malformed header (unsupported dtype {dtype!r} for {name!r})")
        if (
            not isinstance(shape, list)
            or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape)
        ):
            raise CheckpointError(f"{path}: malformed header (bad shape for {name!r})")
        if (
            not isinstance(offsets, list)
            or len(offsets) != 2
            or not all(isinstance(o, int) and not isinstance(o, bool) for o in offsets)
        ):
            raise CheckpointError(f"{path}: malformed header (bad data_offsets for {name!r})")
        begin, end = offsets
        if begin < 0 or end < begin:
            raise CheckpointError(f"{path}: malformed header (inverted offsets for {name!r})")
        if end > body_len:
            raise CheckpointError(f"{path}: truncated buffer (tensor {name!r} ends past end of data)")
        expected = math.prod(shape) * _DTYPE_SIZES[dtype]
        if end - begin != expected:
            raise CheckpointError(
                f"{path}: malformed header (tensor {name!r} declares {end - begin} bytes, "
                f"shape needs {expected})"
            )
        entries[name] = (dtype, tuple(shape), begin, end)

    ranges = sorted((begin, end, name) for name, (_d, _s, begin, end) in entries.items())
    covered, last = 0, None
    for begin, end, name in ranges:
        if begin < covered:
            raise CheckpointError(f"{path}: overlapping data ranges ({last!r} and {name!r})")
        if begin > covered:
            raise CheckpointError(
                f"{path}: malformed header ({begin - covered} unused bytes before tensor {name!r})"
            )
        covered, last = end, name
    if covered != body_len:
        raise CheckpointError(
            f"{path}: malformed buffer ({body_len - covered} trailing bytes after the last tensor)"
        )
    return metadata, entries


def load_checkpoint(path: str, allow_nonfinite: bool = False) -> WeightMap:
    """Load a checkpoint file into a WeightMap.

    F16/BF16 tensors are widened to float32; metadata is preserved. NaN/Inf
    elements are rejected unless ``allow_nonfinite`` is set.
    """
    with open(path, "rb") as fh:
        file_len = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if len(head) < 8:
            raise CheckpointError(f"{path}: truncated buffer (no header length)")
        (header_len,) = struct.unpack("<Q", head)
        if header_len > _MAX_HEADER_BYTES:
            raise CheckpointError(f"{path}: malformed header (implausible length {header_len})")
        if 8 + header_len > file_len:
            raise CheckpointError(f"{path}: truncated buffer (header extends past end of file)")
        body_len = file_len - 8 - header_len
        metadata, entries = _parse_header(path, fh.read(header_len), body_len)

        schema = Schema.from_shapes({name: shape for name, (_d, shape, _b, _e) in entries.items()})
        flat = np.empty(schema.size, dtype=np.float32)
        direct = sys.byteorder == "little" and all(
            entries[name][0] == "F32" and entries[name][2] == 4 * begin
            for name, begin in zip(schema.names, schema.offsets)
        )
        if direct:
            # The body is the buffer itself: read it in place.
            got = fh.readinto(flat.view(np.uint8))
        else:
            body = fh.read(body_len)
            got = len(body)
            for name, begin, end in zip(schema.names, schema.offsets, schema.offsets[1:]):
                dtype, _shape, lo, hi = entries[name]
                flat[begin:end] = _widen(body[lo:hi], dtype)
        if got != body_len:
            raise CheckpointError(f"{path}: truncated buffer (file changed while reading)")

    if not allow_nonfinite and not np.isfinite(flat).all():
        for name in entries:  # header order, as the error has always named it
            i = schema.index[name]
            if not np.isfinite(flat[schema.offsets[i] : schema.offsets[i + 1]]).all():
                raise CheckpointError(
                    f"{path}: tensor {name!r} contains NaN/Inf "
                    f"(pass allow_nonfinite=True to accept)"
                )
    return WeightMap._wrap(flat, schema, metadata)


def save_checkpoint(weightmap: WeightMap, path: str) -> None:
    """Write a WeightMap as a float32 checkpoint; load(save(m)) == m bit-exactly."""
    header: dict[str, object] = {}
    if weightmap.metadata:
        for key, value in weightmap.metadata.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise CheckpointError("metadata must map str to str")
        header["__metadata__"] = dict(sorted(weightmap.metadata.items()))
    s = weightmap.schema()
    for name, shape, begin, end in zip(s.names, s.shapes, s.offsets, s.offsets[1:]):
        header[name] = {"dtype": "F32", "shape": list(shape), "data_offsets": [4 * begin, 4 * end]}
    header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(np.ascontiguousarray(weightmap.flat, dtype=_F32).data)
