"""The flat-buffer kernels against per-tensor reference loops, bit for bit.

The references below are the per-tensor formulations the kernels replaced.
The maps mix a 0-d tensor, empty tensors, a tensor larger than one block and
tensors that straddle block boundaries, so blocking and layout are both
exercised.
"""

import math

import numpy as np
import pytest

from soupstock.optim import (
    GD,
    Adadelta,
    Adagrad,
    Adam,
    OptimizerSpec,
    OptimizerState,
    optimizer_step,
    project_to_ball,
)
from soupstock.pseudograd import Constant, Harmonic, Pseudogradient, pivot_identity, soup
from soupstock.weightstore import BLOCK, WeightMap, blocks, global_l2_norm, l2_distance

SHAPES = {
    "a.scalar": (),
    "b.empty": (0,),
    "c.small": (3, 5),
    "d.big": (BLOCK + 1234,),  # larger than a block, straddles the first boundary
    "e.straddle": (2, 40000),  # straddles the second boundary
    "f.empty": (0, 4),
    "g.tail": (7,),
}


def random_map(rng, scale=1.0):
    return WeightMap(
        {name: (rng.standard_normal(shape) * scale).astype(np.float32) for name, shape in SHAPES.items()}
    )


def test_fixture_layout_covers_block_edges():
    m = random_map(np.random.default_rng(0))
    offsets = dict(zip(m.names(), m.schema().offsets))
    assert m.array("a.scalar").shape == (1,)  # 0-d tensors are held as (1,)
    assert offsets["d.big"] < BLOCK < offsets["e.straddle"] < 2 * BLOCK
    assert offsets["e.straddle"] + 80000 > 2 * BLOCK
    assert len(blocks(m.flat.size)) == 3


# --- per-tensor references ---------------------------------------------------------


def ref_step(w, g, state, spec, step, eta):
    """One optimizer step, tensor by tensor; state maps buffer name -> {tensor: array}."""
    v = spec.variant
    out = {}
    for name, arr in w.arrays().items():
        grad = g.array(name)
        if spec.weight_decay > 0.0:
            work = arr * np.float32(1.0 - eta * spec.weight_decay)
        else:
            work = arr.copy()
        if isinstance(v, GD):
            work -= np.float32(eta) * grad
        elif isinstance(v, Adagrad):
            sq = state.setdefault("sq", {}).setdefault(name, np.zeros_like(arr))
            sq += grad * grad
            work -= np.float32(eta) * grad / (np.sqrt(sq) + np.float32(v.eps))
        elif isinstance(v, Adam):
            m = state.setdefault("m", {}).setdefault(name, np.full_like(arr, np.float32(v.m0)))
            vv = state.setdefault("v", {}).setdefault(name, np.full_like(arr, np.float32(v.v0)))
            m *= np.float32(v.beta1)
            m += np.float32(1.0 - v.beta1) * grad
            vv *= np.float32(v.beta2)
            vv += np.float32(1.0 - v.beta2) * grad * grad
            bias1 = 1.0 - float(v.beta1) ** step
            bias2 = 1.0 - float(v.beta2) ** step
            if v.standard_form:
                folded = np.float32(eta * math.sqrt(bias2) / bias1)
                work -= folded * m / (np.sqrt(vv) + np.float32(v.eps))
            else:
                denom = np.sqrt(vv) / np.float32(math.sqrt(bias2)) + np.float32(v.eps)
                work -= np.float32(eta / bias1) * m / denom
        else:
            acc_g = state.setdefault("acc_g", {}).setdefault(name, np.zeros_like(arr))
            acc_u = state.setdefault("acc_u", {}).setdefault(name, np.zeros_like(arr))
            rho, eps = np.float32(v.rho), np.float32(v.eps)
            acc_g *= rho
            acc_g += np.float32(1.0 - v.rho) * grad * grad
            delta = -np.sqrt(acc_u + eps) / np.sqrt(acc_g + eps) * grad
            acc_u *= rho
            acc_u += np.float32(1.0 - v.rho) * delta * delta
            work += np.float32(eta) * delta
        out[name] = work
    return WeightMap(out)


def ref_soup(maps):
    out = {}
    for name in maps[0]:
        acc = maps[0].array(name).astype(np.float64)
        for m in maps[1:]:
            acc += m.array(name)
        out[name] = (acc / float(len(maps))).astype(np.float32)
    return WeightMap(out)


def ref_norm(m):
    total = 0.0
    for arr in m.arrays().values():
        flat = arr.reshape(-1).astype(np.float64)
        total += float(np.dot(flat, flat))
    return math.sqrt(total)


def ref_distance(a, b):
    total = 0.0
    for name, arr in a.arrays().items():
        d = arr.reshape(-1).astype(np.float64) - b.array(name).reshape(-1).astype(np.float64)
        total += float(np.dot(d, d))
    return math.sqrt(total)


# --- kernels vs references -----------------------------------------------------------

VARIANTS = [
    GD(lr=Harmonic(offset=1)),
    Adagrad(lr=Constant(0.05), eps=1e-8),
    Adam(lr=Constant(0.01), beta1=0.8, beta2=0.99, eps=1e-8),
    Adam(lr=Constant(0.01), beta1=0.5, beta2=0.9, eps=1e-8, standard_form=True),
    Adam(lr=Constant(0.02), beta1=0.5, beta2=0.9, eps=1e-8, m0=0.1, v0=0.5),
    Adadelta(lr=Constant(1.0), rho=0.9, eps=1e-6),
]


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: f"{type(v).__name__}{getattr(v, 'standard_form', '')}")
@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_optimizer_kernels_match_per_tensor_reference(variant, weight_decay):
    rng = np.random.default_rng(11)
    spec = OptimizerSpec(variant, weight_decay=weight_decay)
    w = ref_w = random_map(rng)
    state, ref_state = OptimizerState(), {}
    for step in range(1, 5):
        g = random_map(rng, scale=0.1)
        w = optimizer_step(w, Pseudogradient(g), state, spec)
        ref_w = ref_step(ref_w, g, ref_state, spec, step, variant.lr(step))
        assert w == ref_w


def test_soup_and_pivot_identity_match_reference():
    rng = np.random.default_rng(12)
    maps = [random_map(rng) for _ in range(5)]
    assert soup(maps) == ref_soup(maps)
    pivot = random_map(rng, scale=3.0)
    n = float(len(maps))
    expected = {}
    for name, arr in pivot.arrays().items():
        p64 = arr.astype(np.float64)
        acc = np.zeros_like(p64)
        for m in maps:
            acc += p64 - m.array(name)
        expected[name] = (p64 - acc / n).astype(np.float32)
    assert pivot_identity(pivot, maps) == WeightMap(expected)


def test_norms_match_per_tensor_reference():
    rng = np.random.default_rng(13)
    a, b = random_map(rng), random_map(rng)
    assert global_l2_norm(a) == ref_norm(a)
    assert l2_distance(a, b) == ref_distance(a, b)
    # Many small tensors of mixed magnitude share one float64 chunk; each is
    # still summed on its own and the totals added in name order.
    shapes = {f"t{i:02d}": (int(rng.integers(50, 900)),) for i in range(40)}
    many = [
        WeightMap({n: rng.standard_normal(s) * 10.0 ** rng.uniform(-3, 3) for n, s in shapes.items()})
        for _ in range(2)
    ]
    assert global_l2_norm(many[0]) == ref_norm(many[0])
    assert l2_distance(*many) == ref_distance(*many)


def test_projection_matches_per_tensor_reference():
    rng = np.random.default_rng(14)
    w, center = random_map(rng), random_map(rng)
    radius = 0.5 * ref_distance(w, center)
    shrink = np.float32(radius / ref_distance(w, center))
    expected = WeightMap(
        {name: center.array(name) + (arr - center.array(name)) * shrink for name, arr in w.arrays().items()}
    )
    assert project_to_ball(w, center, radius) == expected
