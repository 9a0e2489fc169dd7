import json
import os
import struct
import threading
import tracemalloc
import warnings
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from soupstock import engine
from soupstock.weightstore import WeightMap

# Shapes used by the random-map fixtures; mixed ranks, including a scalar.
DEFAULT_SHAPES = {
    "bias": (3,),
    "embed.weight": (4, 2),
    "head.w": (2, 2, 2),
    "scale": (),
}


def random_weightmap(rng: np.random.Generator, shapes=None, low=-1.0, high=1.0) -> WeightMap:
    shapes = shapes or DEFAULT_SHAPES
    return WeightMap(
        {name: rng.uniform(low, high, size=shape).astype(np.float32) for name, shape in shapes.items()}
    )


def random_weightmaps(seed: int, count: int, shapes=None, low=-1.0, high=1.0) -> list[WeightMap]:
    rng = np.random.default_rng(seed)
    return [random_weightmap(rng, shapes, low, high) for _ in range(count)]


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """A test that ends with an exited, unreaped child process fails."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child processes at all
        return
    if pid:
        pytest.fail(f"child process {pid} was left unreaped (wait status {status})")


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """A test after which more threads run than before it fails: while other
    threads run, engine.run_in_workers forks nothing and quietly runs every
    task in this process, in task order."""
    before = threading.active_count()
    yield
    after = threading.active_count()
    if after > before:
        pytest.fail(f"{after - before} thread(s) left running: {threading.enumerate()}")


@contextmanager
def another_thread_running():
    """A second thread runs until the block ends, and a fork inside the block
    fails the test."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fork", lambda: pytest.fail("forked while another thread ran"))
        thread.start()
        try:
            yield
        finally:
            release.set()
            thread.join(timeout=10)
    assert not thread.is_alive()


@contextmanager
def no_warnings():
    """The block issues no warning, whatever the filters: every warning is
    recorded, once per occurrence, and a record that is not empty fails the
    test. It records this process's warnings only: a forked worker's show in
    the worker, or, under an error filter, fail its task."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert [f"{w.filename}:{w.lineno}: {w.category.__name__}: {w.message}" for w in caught] == []


@contextmanager
def traced_peak():
    """Traces the block's allocations and yields a function that gives, once
    the block has ended, its traced peak plus the length of every anonymous
    mapping the engine made in it. tracemalloc does not see such a mapping
    (``run_ensemble``'s iterate and log), so each counts as held to the block's end."""
    mapped, peak = [], []
    real = engine.mmap.mmap

    def counted(fileno, length, *args, **kwargs):
        if fileno == -1:
            mapped.append(length)
        return real(fileno, length, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "mmap", SimpleNamespace(mmap=counted))
        tracemalloc.start()
        try:
            yield lambda: peak[0]
            peak.append(tracemalloc.get_traced_memory()[1] + sum(mapped))
        finally:
            tracemalloc.stop()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def write_checkpoint(path, arrays, order=None, dtypes=None) -> None:
    """Write float32 `arrays` as a checkpoint by hand: tensor bodies in
    `order` (default: name order), each stored as dtypes[name] (default F32;
    F16 rounds, BF16 keeps the top half of each float32)."""
    dtypes = dtypes or {}
    header, chunks, offset = {}, [], 0
    for name in order if order is not None else sorted(arrays):
        values = np.asarray(arrays[name], dtype=np.float32)
        dtype = dtypes.get(name, "F32")
        if dtype == "F16":
            raw = values.astype("<f2").tobytes()
        elif dtype == "BF16":
            raw = (values.view(np.uint32) >> 16).astype("<u2").tobytes()
        else:
            raw = values.astype("<f4").tobytes()
        header[name] = {"dtype": dtype, "shape": list(values.shape), "data_offsets": [offset, offset + len(raw)]}
        chunks.append(raw)
        offset += len(raw)
    encoded = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(encoded)))
        fh.write(encoded)
        fh.write(b"".join(chunks))
