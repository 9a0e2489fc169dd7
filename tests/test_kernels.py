"""The flat-buffer kernels against per-tensor reference loops, bit for bit.

The references below are the per-tensor formulations the kernels replaced,
and the merge loop as the separate passes the engine's fused step replaced.
The maps mix a 0-d tensor, empty tensors, a tensor larger than one block and
tensors that straddle block boundaries, so blocking and layout are both
exercised.
"""

import copy
import math
import os
import tracemalloc
from contextlib import ExitStack
from dataclasses import replace

import numpy as np
import pytest

from soupstock import rng as rng_mod
from soupstock.engine import (
    EngineError,
    EnsembleConfig,
    Greedy,
    Ingredient,
    IngredientInit,
    Projection,
    ProvidedInit,
    SoupInit,
    run_ensemble,
)
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
from soupstock.weightstore import (
    BLOCK,
    CheckpointError,
    WeightMap,
    global_l2_norm,
    l2_distance,
    open_checkpoint,
    save_checkpoint,
)

from conftest import another_thread_running, write_checkpoint

SHAPES = {
    "a.scalar": (),
    "b.empty": (0,),
    "c.small": (3, 5),
    "d.big": (BLOCK + 1234,),  # larger than a block, straddles the first boundary
    "e.straddle": (2, 40000),  # straddles the second boundary
    "f.empty": (0, 4),
    "g.tail": (7,),
}


def equal_runs(big, even, broken):
    """Runs of adjacent equal-sized tensors, which share a block and are
    summed as rows of one view, under three name prefixes: three of 20,000
    elements (a size BLAS would split over threads); 500s with an empty
    tensor inside; and 300s broken by one odd size."""
    return {
        **{f"{big}{i}": (20000,) for i in range(3)},
        **{f"{even}{i:02d}": (0,) if i == 6 else (500,) for i in range(12)},
        **{f"{broken}{i:02d}": (301,) if i == 4 else (300,) for i in range(9)},
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
    assert math.ceil(m.flat.size / BLOCK) == 3


def test_blocks_tile_the_buffer_in_runs_of_one_size_or_pieces():
    schema = WeightMap({name: np.zeros(shape, np.float32) for name, shape in MERGE_SHAPES.items()}).schema()
    covered, pieces = 0, 0
    for begin, end, count, piece in schema.blocks:
        assert (begin, piece) == (covered, pieces)
        assert 0 < end - begin <= BLOCK and (end - begin) % count == 0
        covered, pieces = end, pieces + count
    assert covered == schema.size and pieces == len(schema.piece_ends)
    assert sum(schema.piece_ends) == sum(1 for shape in MERGE_SHAPES.values() if math.prod(shape) > 0)
    big = schema.index["d.big"]
    assert [b[:3] for b in schema.blocks if schema.offsets[big] <= b[0] < schema.offsets[big + 1]] == [
        (schema.offsets[big], schema.offsets[big] + BLOCK, 1),
        (schema.offsets[big] + BLOCK, schema.offsets[big + 1], 1),
    ]
    runs = [count for _begin, _end, count, _piece in schema.blocks if count > 1]
    assert runs == [3, 6, 5, 4, 4]  # e.t0-2; i.00-05 and i.07-11 around the empty i.06; j.00-03, j.05-08


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


def ref_squares(values):
    """A tensor's float64 sum of squares as the norms define it: the squares
    of each piece of BLOCK elements from its start summed by np.add.reduce,
    the pieces added in order."""
    total = 0.0
    for lo in range(0, values.size, BLOCK):
        piece = values[lo : lo + BLOCK]
        total += float(np.add.reduce(piece * piece))
    return total


def ref_norm(m):
    total = 0.0
    for arr in m.arrays().values():
        total += ref_squares(arr.reshape(-1).astype(np.float64))
    return math.sqrt(total)


def ref_distance(a, b):
    total = 0.0
    for name, arr in a.arrays().items():
        total += ref_squares(arr.reshape(-1).astype(np.float64) - b.array(name).reshape(-1).astype(np.float64))
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
    # Many small tensors of mixed magnitude; each is still summed on its own
    # and the totals added in name order, also in the runs of equal-sized
    # tensors that share a block.
    shapes = {f"t{i:02d}": (int(rng.integers(50, 900)),) for i in range(40)}
    shapes.update(equal_runs("s", "u", "v"))
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

# SHAPES plus small tensors of mixed sizes and magnitudes, and runs of
# equal-sized tensors (see equal_runs).
MERGE_SHAPES = {
    **SHAPES,
    **{f"h.{i:02d}": (50 + 21 * i,) for i in range(40)},
    **equal_runs("e.t", "i.", "j."),
}


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
        "greedy": (replace(base, batch_size=1, greedy=Greedy(target)), lambda m: -ref_distance(m, target)),
    }
    with ExitStack() as stack:
        stored = [
            Ingredient(ing.id, stack.enter_context(open_checkpoint(str(tmp_path / f"{ing.id}.safetensors"))))
            for ing in ingredients
        ]
        for name, (cfg, evaluate) in runs.items():
            expected, log = ref_merge(cfg, ingredients, evaluate)
            for source, inputs in (("memory", ingredients), ("stored", stored)):
                merged, record = run_ensemble(cfg, inputs)
                assert merged == expected, (name, source)
                assert record.total_steps == len(log), (name, source)
                got = [(s.grad_norm, s.displacement, s.metric, s.accepted) for s in record.steps]
                assert got == (log if cfg.record_steps else []), (name, source)


@pytest.mark.parametrize("threads", [2, 3])
def test_threaded_merge_matches_one_thread(tmp_path, threads):
    # Named for the step threads it once compared: a plain run now splits
    # into block ranges run in `threads` forked workers, and projected and
    # greedy runs step in one process whatever they are given.
    rng = np.random.default_rng(17)
    ingredients = [Ingredient(f"m{i}", merge_map(rng)) for i in range(4)]
    for ing in ingredients:
        write_checkpoint(tmp_path / f"{ing.id}.safetensors", ing.weights.arrays())
    target = merge_map(rng)
    zeros = WeightMap({name: np.zeros(shape, np.float32) for name, shape in MERGE_SHAPES.items()})
    base = EnsembleConfig(
        optimizer=OptimizerSpec(Adam(lr=Constant(0.01), beta1=0.8, beta2=0.99, eps=1e-8), weight_decay=0.05),
        amplification=Constant(1.3),
        epochs=2,
        batch_size=2,
        shuffle=True,
        seed=5,
        ordering="given",
    )
    radius = 0.9 * ref_norm(ref_soup([ing.weights for ing in ingredients]))
    runs = {
        "plain": base,
        "projection": replace(base, projection=Projection(zeros, radius)),
        "greedy": replace(base, greedy=Greedy(target)),
    }
    with ExitStack() as stack:
        stored = [
            Ingredient(ing.id, stack.enter_context(open_checkpoint(str(tmp_path / f"{ing.id}.safetensors"))))
            for ing in ingredients
        ]
        for name, cfg in runs.items():
            (want, want_log), (got, got_log) = (run_ensemble(cfg, stored, workers=n) for n in (1, threads))
            assert got == want, name
            assert got_log.steps == want_log.steps, name


def test_fused_step_allocates_only_state_and_norm_scratch():
    # A plain Adam run steps its iterate in place: beyond the iterate and the
    # two moments, each worker holds one block of float64 norm scratch and a
    # few blocks of temporaries. The separate passes also held a batch mean,
    # a pseudogradient and a second iterate. (tracemalloc sees this process:
    # with two workers, its moments and the scratch, not the shared iterate.)
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
    for workers in (1, 2):
        tracemalloc.start()
        try:
            run_ensemble(cfg, ingredients, workers=workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * model + workers * (8 * BLOCK + 8 * 4 * BLOCK), workers


def test_greedy_and_projected_runs_hold_one_pre_step_copy():
    # Every run steps its one iterate in place. Beyond the iterate and Adam's
    # two moments, a projected run holds one pre-step copy of the iterate,
    # and a greedy run that copy and a spare state (two more moments); a
    # plain run holds neither. In model sizes of 6 x 2M-parameter ingredients.
    rng = np.random.default_rng(22)
    maps = [
        WeightMap({f"t{j}": rng.standard_normal(250_000).astype(np.float32) for j in range(8)}) for _ in range(6)
    ]
    ingredients = [Ingredient(f"m{i}", m) for i, m in enumerate(maps)]
    center, target = soup(maps), maps[3]
    cfg = EnsembleConfig(
        optimizer=OptimizerSpec(Adam(lr=Constant(0.01), beta1=0.8, beta2=0.99, eps=1e-8)),
        batch_size=2,
        ordering="given",
        epochs=2,
    )
    runs = {
        "plain": (3.5, lambda: run_ensemble(cfg, ingredients)),
        "projected": (5.5, lambda: run_ensemble(replace(cfg, projection=Projection(center, 1.0)), ingredients)),
        "greedy": (6.5, lambda: run_ensemble(replace(cfg, greedy=Greedy(target)), ingredients)),
    }
    model = 4 * maps[0].flat.size
    for name, (bound, run) in runs.items():
        tracemalloc.start()
        try:
            merged, record = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / model <= bound, (name, peak / model)
        if name == "projected":  # the last step was shrunk onto the ball
            assert l2_distance(merged, center) == pytest.approx(1.0, rel=1e-5)
        if name == "greedy":  # and steps were both accepted and rejected
            assert {s.accepted for s in record.steps} == {True, False}


@pytest.mark.parametrize("init", ["soup", "ingredient", "provided"])
def test_merge_in_workers_matches_one_process(tmp_path, init):
    # Each range initializes, steps and averages its own elements; the
    # checkpoint and the log (norms added up from every range's pieces)
    # are those of one process, for every pivot policy and initialization.
    rng = np.random.default_rng(18)
    ingredients = [Ingredient(f"m{i}", merge_map(rng)) for i in range(4)]
    for ing in ingredients:
        write_checkpoint(tmp_path / f"{ing.id}.safetensors", ing.weights.arrays())
    pivot_init = {"soup": SoupInit(), "ingredient": IngredientInit("m2"), "provided": ProvidedInit(merge_map(rng))}
    with ExitStack() as stack:
        stored = [
            Ingredient(ing.id, stack.enter_context(open_checkpoint(str(tmp_path / f"{ing.id}.safetensors"))))
            for ing in ingredients
        ]
        for policy in (AdaptivePivot(), FixedPivot(), EmaPivot(decay=0.6)):
            for weight_decay in (0.0, 0.05):
                # Non-zero initial moments fill only each worker's range.
                variant = Adam(lr=Constant(0.01), beta1=0.8, beta2=0.99, eps=1e-8,
                               m0=0.1 if weight_decay else 0.0, v0=0.5 if weight_decay else 0.0)
                cfg = EnsembleConfig(
                    optimizer=OptimizerSpec(variant, weight_decay=weight_decay),
                    pivot_policy=policy,
                    pivot_init=pivot_init[init],
                    amplification=Constant(1.3),
                    epochs=2,
                    shuffle=True,
                    seed=9,
                    ordering="given",
                )
                (want, want_log), *others = [run_ensemble(cfg, stored, workers=n) for n in (1, 2, 3)]
                assert want_log.total_steps == 2 * (3 if init == "ingredient" else 4)
                assert len(want_log.steps) == want_log.total_steps
                for got, got_log in others:
                    assert got == want, (policy, weight_decay)
                    assert got_log == want_log, (policy, weight_decay)


# Eight blocks in four tensors: two workers take blocks 0-3 and 4-7.
RANGED = {f"t{i}": (2 * BLOCK,) for i in range(4)}


def ranged_map(rng):
    return WeightMap({n: rng.standard_normal(s).astype(np.float32) for n, s in RANGED.items()})


def test_later_range_failing_at_an_earlier_step_fails_as_one_process():
    # GD with lr 2 from zeros, batches of one in the given order: step k
    # lands on 2 * m_k - w, which overflows where m_k holds 3e38. m2 does in
    # the second range (step 2), m3 in the first (step 3).
    zeros = WeightMap({n: np.zeros(s, np.float32) for n, s in RANGED.items()})

    def ingredient(i, bad):
        values = np.zeros(8 * BLOCK, dtype=np.float32)
        values[bad] = 3e38
        return Ingredient(f"m{i}", WeightMap._wrap(values, zeros.schema()))

    ingredients = [ingredient(1, []), ingredient(2, [6 * BLOCK + 3]), ingredient(3, [BLOCK + 5]), ingredient(4, [])]
    cfg = EnsembleConfig(optimizer=OptimizerSpec(GD(lr=Constant(2.0))), pivot_init=ProvidedInit(zeros),
                         n_divisor=1, ordering="given")
    errors = []
    for workers in (1, 2):
        with pytest.warns(RuntimeWarning), pytest.raises(EngineError) as info:
            run_ensemble(cfg, ingredients, workers=workers)
        errors.append(info.value)
    serial, ranged = errors
    assert str(serial) == "non-finite iterate after step 2 (epoch 1, batch m2; first in tensor 't3')"
    assert str(ranged) == str(serial)
    assert ranged.__cause__.index == serial.__cause__.index == 6 * BLOCK + 3
    assert [s.step for s in ranged.record.steps] == [1]
    assert ranged.record == serial.record


def test_range_worker_that_dies_fails_the_run(monkeypatch):
    import soupstock.engine as engine

    parent, real = os.getpid(), engine._trajectory

    def trajectory_or_exit(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(engine, "_trajectory", trajectory_or_exit)
    rng = np.random.default_rng(20)
    ingredients = [Ingredient(f"m{i}", ranged_map(rng)) for i in range(2)]
    cfg = EnsembleConfig(optimizer=OptimizerSpec(GD(lr=Constant(0.5))), ordering="given")
    with pytest.raises(EngineError, match="^worker process exited with status 3 before reporting$"):
        run_ensemble(cfg, ingredients, workers=2)


def test_merge_in_workers_beside_another_thread_forks_nothing():
    # A child forked now could start with the other thread's locks held for
    # good, so both ranges run in this process, one after the other.
    rng = np.random.default_rng(21)
    ingredients = [Ingredient(f"m{i}", ranged_map(rng)) for i in range(3)]
    cfg = EnsembleConfig(
        optimizer=OptimizerSpec(Adam(lr=Constant(0.01), beta1=0.8, beta2=0.99, eps=1e-8), weight_decay=0.05),
        pivot_policy=EmaPivot(decay=0.6),
        epochs=2,
        shuffle=True,
        seed=4,
        ordering="given",
    )
    want, want_log = run_ensemble(cfg, ingredients)
    with another_thread_running():
        got, got_log = run_ensemble(cfg, ingredients, workers=2)
    assert got.flat.tobytes() == want.flat.tobytes()
    assert got_log == want_log and len(got_log.steps) == 6


def test_file_truncated_under_a_child_range_raises_its_checkpoint_error(tmp_path):
    rng = np.random.default_rng(19)
    paths = []
    for i in range(3):
        paths.append(str(tmp_path / f"m{i}.safetensors"))
        save_checkpoint(ranged_map(rng), paths[i])
    cfg = EnsembleConfig(optimizer=OptimizerSpec(GD(lr=Constant(0.5))), ordering="given")
    fds = sorted(os.listdir("/proc/self/fd"))
    with ExitStack() as stack:
        stored = [Ingredient(f"m{i}", stack.enter_context(open_checkpoint(p))) for i, p in enumerate(paths)]
        os.truncate(paths[1], os.path.getsize(paths[1]) - 4 * BLOCK)  # cuts block 7, in the second range
        with pytest.raises(CheckpointError, match="truncated buffer \\(file changed while reading\\)") as info:
            run_ensemble(cfg, stored, workers=2)
    assert paths[1] in str(info.value)
    assert sorted(os.listdir("/proc/self/fd")) == fds
