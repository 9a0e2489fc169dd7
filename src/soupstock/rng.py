"""Seeded, splittable random streams.

Every stochastic component draws from a Philox counter-based generator keyed
by (seed, domain-tagged stream index), so independent pieces of work (epochs,
trials, rounds) get non-overlapping, reproducible streams regardless of
execution order or parallelism.
"""

from __future__ import annotations

import numpy as np

# Domain tags keep streams from colliding when the same user seed feeds
# different subsystems.
DOMAIN_SHUFFLE = 1
DOMAIN_POPULATION = 2
DOMAIN_TRIAL = 3
DOMAIN_PARTICIPATION = 4
DOMAIN_WLLN = 5
DOMAIN_FIXTURE = 6

_MASK64 = (1 << 64) - 1
MAX_SEED = _MASK64  # a seed is one 64-bit word of the Philox key


def _key(seed: int, domain: int, index: int) -> tuple[int, int]:
    """The two 64-bit words of the Philox key of (seed, domain, index)."""
    if not 0 <= seed <= MAX_SEED:  # masked, it would alias a seed in range
        raise ValueError(f"seed must lie in [0, {MAX_SEED}], got {seed}")
    return seed, ((domain & 0xFFFF) << 48 | (index & _MASK64 >> 16)) & _MASK64


def stream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """A new Generator for (seed, domain, index), independent of all other streams."""
    # A uint64 array: from a list, numpy would make words >= 2**63 float64.
    return np.random.Generator(np.random.Philox(key=np.array(_key(seed, domain, index), dtype=np.uint64)))


def restart(gen: np.random.Generator, seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Put gen, a Generator made by :func:`stream`, at the start of the stream
    (seed, domain, index), and return it: it then draws what a new
    ``stream(seed, domain, index)`` would.

    Re-keying a generator costs a fraction of building one (Philox's
    constructor also draws OS entropy for a seed it then discards), so a
    loop over many short streams restarts one generator of its own. The
    generator must not be shared with other threads. The state setter reads
    each word by itself, so plain ints serve, at half the cost of arrays.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": (0, 0, 0, 0),
            "key": _key(seed, domain, index),
        },
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # empty: the next draw computes a block from counter 0
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen
