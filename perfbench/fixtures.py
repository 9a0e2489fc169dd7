"""Seeded inputs for the merge workloads, and a checkpoint reader/writer.

The codec here is written from the file layout alone (8-byte little-endian
header length, JSON header, raw little-endian float32 buffer), so the output
checks do not rely on the code under test.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

N_INGREDIENTS = 8
BATCH_SIZE = 2
STEPS_PER_EPOCH = -(-N_INGREDIENTS // BATCH_SIZE)  # the soup pivot sweeps every ingredient

# Workload tags keep the fixture streams of different workloads apart.
_TAGS = {"merge-many-small": 1, "merge-few-large": 2}


def write_checkpoint(path: Path, arrays: dict[str, np.ndarray]) -> None:
    header: dict[str, object] = {}
    offset = 0
    for name in sorted(arrays):
        size = arrays[name].size * 4
        header[name] = {"dtype": "F32", "shape": list(arrays[name].shape), "data_offsets": [offset, offset + size]}
        offset += size
    head = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        for name in sorted(arrays):
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f4").tobytes())


def read_checkpoint(path: Path) -> dict[str, np.ndarray]:
    """Strict reader: F32 only, tensors must tile the buffer exactly."""
    blob = path.read_bytes()
    (head_len,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8 : 8 + head_len])
    header.pop("__metadata__", None)
    body = memoryview(blob)[8 + head_len :]
    arrays = {}
    expected_begin = 0
    for name, entry in sorted(header.items(), key=lambda kv: kv[1]["data_offsets"]):
        begin, end = entry["data_offsets"]
        if entry["dtype"] != "F32" or begin != expected_begin:
            raise ValueError(f"{path}: unexpected layout at tensor {name!r}")
        arrays[name] = np.frombuffer(body[begin:end], dtype="<f4").reshape(entry["shape"])
        expected_begin = end
    if expected_begin != len(body):
        raise ValueError(f"{path}: {len(body) - expected_begin} trailing bytes")
    return arrays


def schema(tensors: int, shape: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
    width = len(str(tensors - 1))
    return {f"layer{j:0{width}d}.weight": shape for j in range(tensors)}


def build_merge_fixture(
    directory: Path,
    workload: str,
    seed: int,
    shapes: dict[str, tuple[int, ...]],
    ensemble: dict,
    sweep: dict | None,
) -> None:
    """Write N_INGREDIENTS checkpoints around a shared base model and a merge config.

    Each ingredient is base + independent noise, as fine-tunes of one
    pretrained model would be; the held-out metrics drive metric_desc ordering.
    """
    directory.mkdir(parents=True)
    rng = np.random.Generator(np.random.Philox(key=[seed, _TAGS[workload]]))
    base = {name: rng.standard_normal(shape, dtype=np.float32) * np.float32(0.02) for name, shape in shapes.items()}
    entries = []
    for i in range(N_INGREDIENTS):
        ingredient = {
            name: arr + rng.standard_normal(arr.shape, dtype=np.float32) * np.float32(0.005)
            for name, arr in base.items()
        }
        write_checkpoint(directory / f"m{i}.safetensors", ingredient)
        del ingredient
        entries.append({"path": f"m{i}.safetensors", "metric": round(float(rng.uniform(0.5, 0.9)), 4)})
    config = {
        "version": 1,
        "ingredients": entries,
        "ensemble": {**ensemble, "seed": seed},
        "output": {"checkpoint": "merged.safetensors", "log": "run.csv"},
    }
    if sweep:
        config["sweep"] = sweep
    (directory / "merge.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
