"""The flat-buffer kernels against per-tensor reference loops, bit for bit.

The references below are the per-tensor formulations the kernels replaced,
and the merge loop as the separate passes the engine's fused step replaced.
The maps mix a 0-d tensor, empty tensors, a tensor larger than one block and
tensors that straddle block boundaries, so blocking and layout are both
exercised.
"""

import copy
import math
import tracemalloc
from contextlib import ExitStack
from dataclasses import replace

import numpy as np
import pytest

from soupstock import rng as rng_mod
from soupstock.engine import EnsembleConfig, Ingredient, Projection, greedy_run, run_ensemble
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
from soupstock.pseudograd import (
    AdaptivePivot,
    Constant,
    EmaPivot,
    FixedPivot,
    Harmonic,
    pivot_identity,
    soup,
)
from soupstock.weightstore import BLOCK, WeightMap, blocks, global_l2_norm, l2_distance, open_checkpoint

from conftest import write_checkpoint

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
    assert m.array("a.scalar").shape == ()
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


def ref_project(w, center, radius):
    dist = ref_distance(w, center)
    if dist <= radius:
        return w
    shrink = np.float32(radius / dist)
    return WeightMap(
        {name: center.array(name) + (arr - center.array(name)) * shrink for name, arr in w.arrays().items()}
    )


def ref_merge(cfg, ingredients, evaluate=None):
    """The merge loop as separate passes: per-tensor batch mean and
    pseudogradient, ref_step, ref_project and the two norms. Covers the
    "given" ordering and a soup initialization; returns the model and one
    (grad_norm, displacement, metric, accepted) entry per step."""
    sweep = [ing.weights for ing in ingredients]
    n_div = len(sweep) if cfg.n_divisor is None else cfg.n_divisor
    spec = cfg.optimizer
    w = pivot = ref_soup(sweep)
    state, step, log = {}, 0, []
    best = evaluate(w) if evaluate else None
    for epoch in range(1, cfg.epochs + 1):
        order = np.arange(len(sweep))
        if cfg.shuffle:
            order = rng_mod.stream(cfg.seed, rng_mod.DOMAIN_SHUFFLE, epoch).permutation(len(sweep))
        for start in range(0, len(sweep), cfg.batch_size):
            batch = [sweep[i] for i in order[start : start + cfg.batch_size]]
            scale = np.float32(cfg.amplification(step + 1) / n_div)
            if isinstance(cfg.pivot_policy, AdaptivePivot):
                pivot = w
            g = {}
            for name in w:
                mean = batch[0].array(name).copy()
                for m in batch[1:]:
                    mean += m.array(name)
                mean /= np.float32(len(batch))
                g[name] = (pivot.array(name) - mean) * scale
            g = WeightMap(g)
            trial = copy.deepcopy(state)
            w_new = ref_step(w, g, trial, spec, step + 1, spec.variant.lr(step + 1))
            if cfg.projection is not None:
                w_new = ref_project(w_new, cfg.projection.center, cfg.projection.radius)
            metric = evaluate(w_new) if evaluate else None
            accepted = None if evaluate is None else metric > best
            log.append((ref_norm(g), ref_distance(w_new, w), metric, accepted))
            if accepted is False:
                continue
            w, state, step = w_new, trial, step + 1
            if accepted:
                best = metric
            if isinstance(cfg.pivot_policy, EmaPivot):
                decay = cfg.pivot_policy.decay
                d, omd = np.float32(decay), np.float32(1.0 - decay)
                pivot = WeightMap({name: a * d + omd * w.array(name) for name, a in pivot.arrays().items()})
    return w, log


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
        w = optimizer_step(w, g, state, spec)
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
    assert project_to_ball(w, center, radius) == ref_project(w, center, radius)


# --- the fused merge step vs the separate passes -------------------------------------

# SHAPES plus small tensors of mixed magnitude, which share one norm chunk.
MERGE_SHAPES = {**SHAPES, **{f"h.{i:02d}": (50 + 21 * i,) for i in range(40)}}


def merge_map(rng):
    return WeightMap(
        {
            name: (rng.standard_normal(shape) * 10.0 ** (i % 7 - 3)).astype(np.float32)
            for i, (name, shape) in enumerate(MERGE_SHAPES.items())
        }
    )


MERGE_VARIANTS = [
    GD(lr=Harmonic(offset=1)),
    Adagrad(lr=Constant(0.05), eps=1e-8),
    Adam(lr=Constant(0.01), beta1=0.8, beta2=0.99, eps=1e-8),
    Adadelta(lr=Constant(1.0), rho=0.9, eps=1e-6),
]


@pytest.mark.parametrize("variant", MERGE_VARIANTS, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize(
    "policy", [FixedPivot(), AdaptivePivot(), EmaPivot(decay=0.6)], ids=["fixed", "adaptive", "ema"]
)
@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_fused_merge_matches_separate_passes(tmp_path, variant, policy, weight_decay):
    rng = np.random.default_rng(15)
    ingredients = [Ingredient(f"m{i}", merge_map(rng)) for i in range(5)]
    # The same ingredients streamed from their files; every other one is
    # stored in reverse order, so it is read piece by piece.
    for i, ing in enumerate(ingredients):
        order = None if i % 2 == 0 else sorted(MERGE_SHAPES, reverse=True)
        write_checkpoint(tmp_path / f"{ing.id}.safetensors", ing.weights.arrays(), order=order)
    target = merge_map(rng)
    base = EnsembleConfig(
        optimizer=OptimizerSpec(variant, weight_decay=weight_decay),
        pivot_policy=policy,
        amplification=Constant(1.3),
        epochs=2,
        shuffle=True,
        seed=5,
        ordering="given",
    )
    soup_norm = ref_norm(ref_soup([ing.weights for ing in ingredients]))
    zeros = WeightMap({name: np.zeros(shape, np.float32) for name, shape in MERGE_SHAPES.items()})
    runs = {
        "batch-1": (replace(base, batch_size=1), None),
        "batch-3-unrecorded": (replace(base, batch_size=3, record_steps=False), None),
        "projection": (replace(base, batch_size=3, projection=Projection(zeros, 0.9 * soup_norm)), None),
        "greedy": (replace(base, batch_size=1), lambda m: -ref_distance(m, target)),
    }
    with ExitStack() as stack:
        stored = [
            Ingredient(ing.id, stack.enter_context(open_checkpoint(str(tmp_path / f"{ing.id}.safetensors"))))
            for ing in ingredients
        ]
        for name, (cfg, evaluate) in runs.items():
            expected, log = ref_merge(cfg, ingredients, evaluate)
            for source, inputs in (("memory", ingredients), ("stored", stored)):
                if evaluate is None:
                    merged, record = run_ensemble(cfg, inputs)
                else:
                    merged, record = greedy_run(cfg, inputs, evaluate)
                assert merged == expected, (name, source)
                assert record.total_steps == len(log), (name, source)
                got = [(s.grad_norm, s.displacement, s.metric, s.accepted) for s in record.steps]
                assert got == (log if cfg.record_steps else []), (name, source)


def test_fused_step_allocates_only_state_and_norm_scratch():
    # A plain Adam run steps its iterate in place: beyond the iterate and the
    # two moments, it holds two float64 vectors of one norm chunk (here, the
    # largest tensor) and a few blocks of temporaries. The separate passes
    # also held a batch mean, a pseudogradient and a second iterate.
    rng = np.random.default_rng(16)
    shapes = {f"t{i}": (3 * BLOCK + 17 * i,) for i in range(8)}
    maps = [
        WeightMap({n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}) for _ in range(4)
    ]
    ingredients = [Ingredient(f"m{i}", m) for i, m in enumerate(maps)]
    cfg = EnsembleConfig(
        optimizer=OptimizerSpec(Adam(lr=Constant(0.01), beta1=0.8, beta2=0.99, eps=1e-8)),
        batch_size=2,
        ordering="given",
    )
    model = 4 * ingredients[0].weights.flat.size
    largest = max(math.prod(s) for s in shapes.values())
    tracemalloc.start()
    try:
        run_ensemble(cfg, ingredients)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * model + 2 * 8 * largest + 8 * 4 * BLOCK
