"""Named tensor collections and the bit-exact checkpoint codec.

A :class:`WeightMap` is an ordered (lexicographic by name) collection of
float32 tensors plus optional string metadata. It is the universal currency of
the package: a model, a pivot, a pseudogradient, or a batch of image tensors
are all WeightMaps. Its tensors live in one contiguous float32 buffer
(``WeightMap.flat``) in name order, which is the layout of a checkpoint body;
a :class:`Schema` of (name, shape, offset) describes it and is shared by the
maps derived from one another. ``array(name)`` and ``arrays()`` return
read-only views into the buffer. Maps are immutable after construction and
safe to share across threads and forked processes.

Elementwise work elsewhere in the package (soups, pseudogradients, and the
optimizer step, which also sums the engine's batches) runs over the flat
buffer, one block of :data:`BLOCK` elements at a time, so temporaries stay
small whatever the model size. Blocking changes no float32 result: every
element sees the same operations in the same order. The norms are defined by
an order that numpy fixes, so their bits do not depend on any thread count:
each tensor is cut into pieces of BLOCK elements from its start, each piece
is widened to float64, squared and summed by ``np.add.reduce``, a tensor's
pieces are added in order, and the tensors in name order. The optimizer step
takes its log norms the same way, block by block (:attr:`Schema.blocks`); a
block of several equal-sized tensors is summed as one (count, size) view
along its rows, which sums each row as it would alone.

Checkpoint file layout (little-endian throughout):

    8-byte unsigned header length H
    H bytes of UTF-8 JSON: {name: {"dtype": "F32"|"F16"|"BF16",
                                   "shape": [ints],
                                   "data_offsets": [begin, end]}, ...,
                            "__metadata__": {str: str}}   (optional)
    raw tensor buffer; offsets are relative to the buffer start, and the
    tensors' byte ranges tile it exactly (no overlaps, gaps or trailing bytes)

A :class:`StoredMap` (from :func:`open_checkpoint`) is a checkpoint that
stays in its file: it has a schema and metadata, is validated and checked
finite when opened, and fills any slice of the flat buffer from the file on
demand. A header is parsed and validated once per distinct header bytes and
file size, so the fine-tunes of one model share one Schema. Both kinds of
map serve ``read(slice)``, so the soup and the merge loop read each block
from whichever source they are given; a WeightMap's read is a view.
:func:`load_checkpoint` opens a file and reads the whole body into one
buffer. A run of F32 tensors stored in name order is read straight into
place; narrow float tensors (F16/BF16) are widened to float32 on read and
written back as F32; float32 round-trips are byte-exact. Every output file
is written through :func:`atomic_output`.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Mapping

import numpy as np

__all__ = [
    "BLOCK",
    "CheckpointError",
    "SchemaMismatch",
    "Schema",
    "WeightMap",
    "StoredMap",
    "open_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "atomic_output",
    "validate_compatible",
    "global_l2_norm",
    "l2_distance",
]

_F32 = np.dtype("<f4")
_NATIVE_F32 = sys.byteorder == "little"  # an F32 body can be read straight into float32
_MAX_HEADER_BYTES = 100 * 1024 * 1024

BLOCK = 1 << 16
"""Elements per block of the elementwise kernels (256 KiB of float32)."""


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
    def blocks(self) -> tuple[tuple[int, int, int, int], ...]:
        """The blocks the optimizer step and the norms walk, in buffer order:
        (begin, end, count, piece). A block is a run of ``count`` adjacent
        non-empty tensors of one size, whole, of at most BLOCK elements in
        all, or (count 1) one piece of a larger tensor, cut every BLOCK
        elements from its start. Empty tensors are in no block. ``piece`` is
        the index of the block's first piece: a whole small tensor is one
        piece, and :attr:`piece_ends` marks the last piece of each tensor."""
        out: list[tuple[int, int, int, int]] = []
        offsets, pieces, i = self.offsets, 0, 0
        while i < len(self.names):
            begin, size = offsets[i], offsets[i + 1] - offsets[i]
            j = i + 1
            if size > BLOCK:
                for lo in range(begin, begin + size, BLOCK):
                    out.append((lo, min(lo + BLOCK, begin + size), 1, pieces))
                    pieces += 1
            elif size > 0:
                fits = BLOCK // size
                while j < min(i + fits, len(self.names)) and offsets[j + 1] - offsets[j] == size:
                    j += 1
                out.append((begin, offsets[j], j - i, pieces))
                pieces += j - i
            i = j
        return tuple(out)

    @cached_property
    def piece_ends(self) -> tuple[bool, ...]:
        """Per piece of :attr:`blocks`, whether it ends its tensor."""
        bounds = set(self.offsets)
        return tuple(
            count > 1 or end in bounds for _begin, end, count, _piece in self.blocks for _ in range(count)
        )

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

    def read(self, s: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The float32 values of slice s of the flat buffer: a read-only view, or copied into ``out``."""
        if out is None:
            return self.flat[s]
        out[...] = self.flat[s]
        return out

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


def _check_compatible(a: WeightMap | StoredMap, b: WeightMap | StoredMap) -> None:
    sa, sb = a._schema, b._schema
    if sa is sb or sa == sb:
        return
    if sa.names != sb.names:
        diff = sorted(set(sa.names).symmetric_difference(sb.names))
        raise SchemaMismatch(f"tensor name mismatch: first offender {diff[0]!r}")
    for name, ours, theirs in zip(sa.names, sa.shapes, sb.shapes):
        if ours != theirs:
            raise SchemaMismatch(f"shape mismatch for tensor {name!r}: {ours} vs {theirs}")


def validate_compatible(maps: list[WeightMap | StoredMap]) -> Schema:
    """Check that all maps share one schema and return it.

    Raises :class:`SchemaMismatch` naming the first offending tensor.
    """
    if not maps:
        raise ValueError("validate_compatible requires at least one weight map")
    first = maps[0]
    for other in maps[1:]:
        _check_compatible(first, other)
    return first.schema()


def _piece_sums(a: np.ndarray, b: np.ndarray | None, count: int, scratch: np.ndarray, out: np.ndarray) -> None:
    # Writes to out the float64 sums of squares of the count equal parts of a
    # block's values a (or of a - b): the parts are its tensors, or its one
    # piece. scratch is float64 scratch of the block's size. Widening by a
    # copy first is about twice as fast as a multiply that casts float32
    # operands itself, through buffers.
    scratch[...] = a
    if b is not None:
        scratch -= b
    np.multiply(scratch, scratch, out=scratch)
    np.add.reduce(scratch.reshape(count, -1), axis=1, out=out)


def _add_pieces(sums: np.ndarray, ends: tuple[bool, ...]) -> float:
    """The sum of squares from the sums of the pieces (Schema.blocks): each
    tensor's pieces added in order, then the tensors in name order."""
    total = partial = 0.0
    for value, end in zip(sums.tolist(), ends):
        partial += value
        if end:
            total += partial
            partial = 0.0
    return total


def _pieces_squared(
    schema: Schema, a: np.ndarray, b: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Per piece of Schema.blocks, the float64 sum of squares of the flat
    buffer a (or of a - b), in ``out`` if given."""
    sums = np.empty(len(schema.piece_ends)) if out is None else out
    scratch = np.empty(min(BLOCK, schema.size))
    for begin, end, count, piece in schema.blocks:
        part = None if b is None else b[begin:end]
        _piece_sums(a[begin:end], part, count, scratch[: end - begin], sums[piece : piece + count])
    return sums


def _sum_squares(schema: Schema, a: np.ndarray, b: np.ndarray | None = None) -> float:
    """The float64 sum of squares of the flat buffer a (or of a - b), as the norms define it."""
    return _add_pieces(_pieces_squared(schema, a, b), schema.piece_ends)


def global_l2_norm(m: WeightMap) -> float:
    """Euclidean norm over all elements of all tensors (float64 accumulation)."""
    return math.sqrt(_sum_squares(m._schema, m.flat))


def _sq_distance(a: WeightMap, b: WeightMap) -> float:
    """Squared Euclidean distance of two compatible maps (float64 accumulation)."""
    return _sum_squares(a._schema, a.flat, b.flat)


def l2_distance(a: WeightMap, b: WeightMap) -> float:
    _check_compatible(a, b)
    return math.sqrt(_sq_distance(a, b))


# --- checkpoint codec -------------------------------------------------------

_DTYPE_SIZES = {"F32": 4, "F16": 2, "BF16": 2}


def _reject_duplicate_names(pairs: list[tuple[str, object]]) -> dict:
    seen: dict[str, object] = {}
    for key, value in pairs:
        if key in seen:
            raise _HeaderFault(f"duplicate tensor name in header: {key!r}")
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


class _HeaderFault(CheckpointError):
    """A fault found in a header without its file; the opener adds the path."""


def _parse_header(raw: bytes, body_len: int):
    """Validate a header; returns (metadata, {name: (dtype, shape, begin, end)})."""
    try:
        header = json.loads(raw.decode("utf-8"), object_pairs_hook=_reject_duplicate_names)
    except _HeaderFault:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HeaderFault(f"malformed header ({exc})") from exc
    if not isinstance(header, dict):
        raise _HeaderFault("malformed header (not a JSON object)")

    metadata: dict[str, str] = {}
    entries: dict[str, tuple[str, tuple[int, ...], int, int]] = {}
    for name, entry in header.items():
        if name == "__metadata__":
            if not isinstance(entry, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in entry.items()
            ):
                raise _HeaderFault("malformed header (__metadata__ must map str to str)")
            metadata = dict(entry)
            continue
        if not isinstance(entry, dict):
            raise _HeaderFault(f"malformed header (entry {name!r} not an object)")
        dtype = entry.get("dtype")
        shape = entry.get("shape")
        offsets = entry.get("data_offsets")
        if dtype not in _DTYPE_SIZES:
            raise _HeaderFault(f"malformed header (unsupported dtype {dtype!r} for {name!r})")
        if (
            not isinstance(shape, list)
            or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape)
        ):
            raise _HeaderFault(f"malformed header (bad shape for {name!r})")
        if (
            not isinstance(offsets, list)
            or len(offsets) != 2
            or not all(isinstance(o, int) and not isinstance(o, bool) for o in offsets)
        ):
            raise _HeaderFault(f"malformed header (bad data_offsets for {name!r})")
        begin, end = offsets
        if begin < 0 or end < begin:
            raise _HeaderFault(f"malformed header (inverted offsets for {name!r})")
        if end > body_len:
            raise _HeaderFault(f"truncated buffer (tensor {name!r} ends past end of data)")
        expected = math.prod(shape) * _DTYPE_SIZES[dtype]
        if end - begin != expected:
            raise _HeaderFault(
                f"malformed header (tensor {name!r} declares {end - begin} bytes, shape needs {expected})"
            )
        entries[name] = (dtype, tuple(shape), begin, end)

    ranges = sorted((begin, end, name) for name, (_d, _s, begin, end) in entries.items())
    covered, last = 0, None
    for begin, end, name in ranges:
        if begin < covered:
            raise _HeaderFault(f"overlapping data ranges ({last!r} and {name!r})")
        if begin > covered:
            raise _HeaderFault(f"malformed header ({begin - covered} unused bytes before tensor {name!r})")
        covered, last = end, name
    if covered != body_len:
        raise _HeaderFault(f"malformed buffer ({body_len - covered} trailing bytes after the last tensor)")
    return metadata, entries


@lru_cache(maxsize=8)  # distinct headers kept, each with its header bytes as the key
def _layout(raw: bytes, file_size: int):
    """The validated layout of a checkpoint file of file_size bytes whose
    header is raw: (metadata items, header names, schema, runs, run starts).

    Pure, and memoised: the fine-tunes of one model have byte-identical
    headers, so a merge parses and validates theirs once, and their maps
    share one Schema. Every part of the result is immutable, since callers
    share it. A fault is raised without the path (and never cached).
    Runs are the non-empty tensors, in buffer order, that are contiguous in
    the file and share a dtype: (begin, end, dtype, file offset of begin).
    """
    metadata, entries = _parse_header(raw, file_size - 8 - len(raw))
    schema = Schema.from_shapes({name: shape for name, (_d, shape, _b, _e) in entries.items()})
    runs: list[tuple[int, int, str, int]] = []
    for name, begin, end in zip(schema.names, schema.offsets, schema.offsets[1:]):
        if begin == end:
            continue
        dtype, _shape, lo, _hi = entries[name]
        offset = 8 + len(raw) + lo
        if runs:
            b, e, d, o = runs[-1]
            if d == dtype and o + (e - b) * _DTYPE_SIZES[d] == offset:
                runs[-1] = (b, end, d, o)
                continue
        runs.append((begin, end, dtype, offset))
    return tuple(metadata.items()), tuple(entries), schema, tuple(runs), tuple(run[0] for run in runs)


class StoredMap:
    """A checkpoint file opened for reading, block by block.

    It has a WeightMap's schema and metadata, but its tensors stay in the
    file: :meth:`read` fills any slice of the flat float32 buffer from it on
    demand, so only the blocks being worked on are in memory (the page
    cache, not the process, holds the rest). A run of F32 tensors stored in
    name order is read straight into the buffer; F16/BF16 or reordered tensors
    are widened piece by piece.

    Returned by :func:`open_checkpoint`, which has validated the header and
    checked every element to be finite. The header's validated layout is
    shared with the maps of other files with the same header and size (see
    :func:`_layout`); the finiteness check, the metadata dict and the record
    of the file's size and mtime are the map's own. The file stays open until
    :meth:`close` (or the end of a ``with`` block): a file replaced by rename
    keeps the old contents readable, and :meth:`check_unchanged` detects one
    rewritten in place. Reads use positioned I/O, so threads may share a map.
    """

    __slots__ = ("path", "metadata", "_schema", "_file", "_stat", "_header_names", "_runs", "_starts")

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = open(path, "rb", buffering=0)
        try:
            self._parse()
        except BaseException:
            self._file.close()
            raise

    def _parse(self) -> None:
        path, fd = self.path, self._file.fileno()
        st = os.fstat(fd)
        self._stat = (st.st_size, st.st_mtime_ns)
        head = os.pread(fd, 8, 0)
        if len(head) < 8:
            raise CheckpointError(f"{path}: truncated buffer (no header length)")
        (header_len,) = struct.unpack("<Q", head)
        if header_len > _MAX_HEADER_BYTES:
            raise CheckpointError(f"{path}: malformed header (implausible length {header_len})")
        if 8 + header_len > st.st_size:
            raise CheckpointError(f"{path}: truncated buffer (header extends past end of file)")
        raw = os.pread(fd, header_len, 8)
        if len(raw) != header_len:
            raise CheckpointError(f"{path}: truncated buffer (file changed while reading)")
        try:
            metadata, self._header_names, self._schema, self._runs, self._starts = _layout(raw, st.st_size)
        except _HeaderFault as exc:
            raise CheckpointError(f"{path}: {exc}") from exc.__cause__
        self.metadata = dict(metadata)

    def read(self, s: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The float32 values of slice s of the flat buffer, in a new array or in ``out``."""
        start, stop, _ = s.indices(self._schema.size)
        if out is None:
            out = np.empty(max(stop - start, 0), dtype=np.float32)
        fd, base = self._file.fileno(), start
        i = bisect.bisect_right(self._starts, start) - 1
        while start < stop:
            begin, end, dtype, offset = self._runs[i]
            hi = min(end, stop)
            piece = out[start - base : hi - base]
            pos = offset + (start - begin) * _DTYPE_SIZES[dtype]
            if dtype == "F32" and _NATIVE_F32:
                self._read_bytes(fd, piece.view(np.uint8), pos)
            else:
                raw = np.empty(piece.size * _DTYPE_SIZES[dtype], dtype=np.uint8)
                self._read_bytes(fd, raw, pos)
                piece[...] = _widen(raw, dtype)
            start = hi
            i += 1
        return out

    def _read_bytes(self, fd: int, buf: np.ndarray, pos: int) -> None:
        # A read may return less than asked (Linux caps one at about 2 GiB);
        # only a read that returns nothing means the file ended early.
        done = 0
        while done < buf.size:
            got = os.preadv(fd, [buf[done:]], pos + done)
            if got == 0:
                raise CheckpointError(f"{self.path}: truncated buffer (file changed while reading)")
            done += got

    def load(self) -> WeightMap:
        """The whole map, read into memory."""
        return WeightMap._wrap(self.read(slice(None)), self._schema, dict(self.metadata))

    def check_unchanged(self) -> None:
        """Raise CheckpointError if the file's size or mtime changed since it was opened."""
        st = os.fstat(self._file.fileno())
        if (st.st_size, st.st_mtime_ns) != self._stat:
            raise CheckpointError(f"{self.path}: file changed while it was open")

    def _reject_nonfinite(self, values: Callable[[int, int], np.ndarray]) -> None:
        # values(begin, end) gives those elements of the flat buffer. One pass
        # in blocks; only on a failure are the tensors searched, in header
        # order, for the one the error names.
        def finite(begin: int, end: int) -> bool:
            return all(
                np.isfinite(values(lo, min(lo + BLOCK, end))).all() for lo in range(begin, end, BLOCK)
            )

        schema = self._schema
        if finite(0, schema.size):
            return
        for name in self._header_names:
            i = schema.index[name]
            if not finite(schema.offsets[i], schema.offsets[i + 1]):
                raise CheckpointError(
                    f"{self.path}: tensor {name!r} contains NaN/Inf "
                    f"(pass allow_nonfinite=True to accept)"
                )

    def schema(self) -> Schema:
        return self._schema

    def num_elements(self) -> int:
        return self._schema.size

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "StoredMap":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"StoredMap({self.path!r}, {len(self._schema)} tensors, {self.num_elements()} elements)"


def open_checkpoint(path: str) -> StoredMap:
    """Open a checkpoint file for block reads.

    The header is parsed and validated, and every element is checked to be
    finite in one blocked pass (a NaN/Inf raises the same CheckpointError as
    :func:`load_checkpoint`). Close the map, or use it in a ``with`` block.
    """
    stored = StoredMap(path)
    try:
        scratch = np.empty(min(BLOCK, stored.num_elements()), dtype=np.float32)
        stored._reject_nonfinite(lambda lo, hi: stored.read(slice(lo, hi), scratch[: hi - lo]))
    except BaseException:
        stored.close()
        raise
    return stored


def load_checkpoint(path: str, allow_nonfinite: bool = False) -> WeightMap:
    """Load a checkpoint file into a WeightMap: open it, then read the whole body.

    F16/BF16 tensors are widened to float32; metadata is preserved. NaN/Inf
    elements are rejected unless ``allow_nonfinite`` is set.
    """
    with StoredMap(path) as stored:
        m = stored.load()
        if not allow_nonfinite:
            stored._reject_nonfinite(lambda lo, hi: m.flat[lo:hi])
    return m


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


@contextmanager
def atomic_output(path: str) -> Iterator[str]:
    """Yield a temporary path beside `path` to write an output to.

    When the block completes the file replaces `path` in one rename, so a
    failed or interrupted write leaves the previous file (or none) and no
    temporary behind. There is no fsync: this covers a crash of the process,
    not of the machine.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
