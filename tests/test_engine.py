import csv
import os
import re
import threading
import warnings
from contextlib import nullcontext
from dataclasses import replace
from functools import partial

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
    _epoch_order_fn,
    order_ingredients,
    run_ensemble,
    run_in_workers,
)
from soupstock.optim import GD, Adagrad, Adam, Adadelta, OptimizerSpec
from soupstock.pseudograd import (
    AdaptivePivot,
    Constant,
    EmaPivot,
    FixedPivot,
    Harmonic,
    schedule_eval,
    soup,
)
from soupstock.weightstore import WeightMap, l2_distance

from conftest import another_thread_running, random_weightmaps


def wm(**tensors):
    return WeightMap({k: np.asarray(v, dtype=np.float32) for k, v in tensors.items()})


def make_ingredients(seed, count, low=0.5, high=1.5):
    maps = random_weightmaps(seed=seed, count=count, low=low, high=high)
    return [Ingredient(id=f"m{i:02d}", weights=m) for i, m in enumerate(maps)]


def gd_cfg(**kw):
    defaults = dict(
        optimizer=OptimizerSpec(GD(lr=Harmonic(offset=0))),
        pivot_policy=AdaptivePivot(),
        n_divisor=1,
        ordering="given",
    )
    defaults.update(kw)
    return EnsembleConfig(**defaults)


# --- ordering -------------------------------------------------------------------


def test_order_by_metric_desc():
    ings = [
        Ingredient("a", wm(x=[0.0]), metric=0.3),
        Ingredient("b", wm(x=[0.0]), metric=0.9),
        Ingredient("c", wm(x=[0.0]), metric=0.5),
    ]
    assert [i.id for i in order_ingredients(ings, "metric_desc")] == ["b", "c", "a"]
    assert [i.id for i in order_ingredients(ings, "metric_asc")] == ["a", "c", "b"]


def test_order_ties_break_by_id():
    ings = [
        Ingredient("z", wm(x=[0.0]), metric=0.5),
        Ingredient("a", wm(x=[0.0]), metric=0.5),
    ]
    assert [i.id for i in order_ingredients(ings, "metric_desc")] == ["a", "z"]


def test_order_given_preserves_input():
    ings = [Ingredient("z", wm(x=[0.0])), Ingredient("a", wm(x=[0.0]))]
    assert [i.id for i in order_ingredients(ings, "given")] == ["z", "a"]


def test_order_missing_metric_rejected():
    ings = [Ingredient("a", wm(x=[0.0]), metric=0.5), Ingredient("b", wm(x=[0.0]))]
    with pytest.raises(EngineError, match="'b'"):
        order_ingredients(ings, "metric_desc")


# --- soup equivalences -------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 2, 4, 8, 16, 32])
def test_gd_harmonic_from_arbitrary_pivot_equals_soup(count):
    ingredients = make_ingredients(seed=100 + count, count=count)
    pivot = random_weightmaps(seed=999, count=1, low=-3, high=3)[0]
    cfg = gd_cfg(pivot_init=ProvidedInit(pivot))
    merged, record = run_ensemble(cfg, ingredients)
    target = soup([i.weights for i in ingredients])
    for name in target:
        np.testing.assert_allclose(merged.array(name), target.array(name), rtol=1e-6, atol=0)
    assert record.total_steps == count


@pytest.mark.parametrize("count", [2, 4, 8, 16, 32])
def test_gd_harmonic_offset1_from_first_ingredient_equals_soup(count):
    ingredients = make_ingredients(seed=200 + count, count=count)
    cfg = gd_cfg(
        optimizer=OptimizerSpec(GD(lr=Harmonic(offset=1))),
        pivot_init=IngredientInit("m00"),
    )
    merged, record = run_ensemble(cfg, ingredients)
    target = soup([i.weights for i in ingredients])
    for name in target:
        np.testing.assert_allclose(merged.array(name), target.array(name), rtol=1e-6, atol=0)
    assert record.total_steps == count - 1


def test_single_ingredient_equal_to_pivot_is_fixed_point():
    m = random_weightmaps(seed=7, count=1)[0]
    for opt in [
        OptimizerSpec(GD(lr=Constant(0.7))),
        OptimizerSpec(Adagrad(lr=Constant(0.7), eps=1e-8)),
        OptimizerSpec(Adam(lr=Constant(0.7), beta1=0.8, beta2=0.99, eps=1e-8)),
        OptimizerSpec(Adadelta(lr=Constant(0.7), rho=0.9, eps=1e-6)),
    ]:
        cfg = gd_cfg(optimizer=opt, pivot_init=ProvidedInit(m))
        merged, _ = run_ensemble(cfg, [Ingredient("only", m)])
        assert merged == m


# --- recurrence oracle ---------------------------------------------------------------


def test_adaptive_gd_matches_sequential_loop_oracle_exactly():
    # Straightforward recurrence: w <- w - eta_i * zeta/N * (w - x_i).
    ingredients = make_ingredients(seed=42, count=7, low=-2, high=2)
    zeta, n_div = 1.0, 7
    cfg = gd_cfg(n_divisor=n_div, epochs=3)
    merged, _ = run_ensemble(cfg, ingredients)

    w = {k: a.copy() for k, a in ingredients[0].weights.arrays().items()}
    # pivot_init defaults are soup in gd_cfg? No: gd_cfg pivot_init unset -> SoupInit.
    s = soup([i.weights for i in ingredients])
    w = {k: a.copy() for k, a in s.arrays().items()}
    factor = np.float32(zeta / n_div)
    step = 0
    for _epoch in range(3):
        for ing in ingredients:
            step += 1
            eta32 = np.float32(schedule_eval(Harmonic(offset=0), step))
            for name in w:
                g = (w[name] - ing.weights.array(name)) * factor
                w[name] = w[name] - eta32 * g
    for name in merged:
        np.testing.assert_array_equal(merged.array(name), w[name])


# --- batching / shuffling ---------------------------------------------------------------


def test_short_last_batch_kept():
    ingredients = make_ingredients(seed=5, count=5)
    cfg = gd_cfg(batch_size=2, pivot_init=ProvidedInit(ingredients[0].weights))
    _, record = run_ensemble(cfg, ingredients)
    sizes = [len(s.batch_ids) for s in record.steps]
    assert sizes == [2, 2, 1]


def test_batch_pseudogradient_is_member_mean():
    ingredients = make_ingredients(seed=6, count=4)
    pivot = random_weightmaps(seed=61, count=1)[0]
    cfg = gd_cfg(
        pivot_policy=FixedPivot(),
        pivot_init=ProvidedInit(pivot),
        batch_size=4,
        n_divisor=4,
        optimizer=OptimizerSpec(GD(lr=Constant(1.0))),
    )
    merged, record = run_ensemble(cfg, ingredients)
    # One step: w1 = pivot - mean_j((pivot - x_j)/4).
    for name in pivot:
        members = np.stack(
            [(pivot.array(name) - ing.weights.array(name)) / 4.0 for ing in ingredients]
        )
        expected = pivot.array(name) - members.mean(axis=0)
        np.testing.assert_allclose(merged.array(name), expected, rtol=1e-6, atol=1e-7)
    assert record.steps[0].batch_ids == ("m00", "m01", "m02", "m03")


def test_shuffle_determinism_and_seed_sensitivity():
    ingredients = make_ingredients(seed=8, count=6)
    cfg = gd_cfg(shuffle=True, seed=11, epochs=3, pivot_init=SoupInit())
    m1, r1 = run_ensemble(cfg, ingredients)
    m2, r2 = run_ensemble(cfg, ingredients)
    assert m1 == m2
    assert [s.batch_ids for s in r1.steps] == [s.batch_ids for s in r2.steps]

    cfg_other = gd_cfg(shuffle=True, seed=12, epochs=3, pivot_init=SoupInit())
    _, r3 = run_ensemble(cfg_other, ingredients)
    assert [s.batch_ids for s in r1.steps] != [s.batch_ids for s in r3.steps]


def test_reshuffled_each_epoch():
    ingredients = make_ingredients(seed=9, count=8)
    cfg = gd_cfg(shuffle=True, seed=3, epochs=2)
    _, record = run_ensemble(cfg, ingredients)
    first = [s.batch_ids for s in record.steps if s.epoch == 1]
    second = [s.batch_ids for s in record.steps if s.epoch == 2]
    assert first != second


# --- config surface --------------------------------------------------------------------


def test_epoch_lr_reset_changes_eta_sequence():
    ingredients = make_ingredients(seed=10, count=2)
    cfg = gd_cfg(epochs=2, pivot_init=SoupInit())
    _, global_rec = run_ensemble(cfg, ingredients)
    assert [s.eta for s in global_rec.steps] == [1.0, 0.5, 1.0 / 3.0, 0.25]

    cfg_reset = gd_cfg(epochs=2, epoch_lr_reset=True, pivot_init=SoupInit())
    _, reset_rec = run_ensemble(cfg_reset, ingredients)
    assert [s.eta for s in reset_rec.steps] == [1.0, 0.5, 1.0, 0.5]


def test_n_divisor_auto_counts_supplied_ingredients():
    ingredients = make_ingredients(seed=12, count=4)
    pivot = ingredients[0].weights
    auto = gd_cfg(n_divisor=None, pivot_init=ProvidedInit(pivot), epochs=1)
    fixed = gd_cfg(n_divisor=4, pivot_init=ProvidedInit(pivot), epochs=1)
    m_auto, _ = run_ensemble(auto, ingredients)
    m_fixed, _ = run_ensemble(fixed, ingredients)
    assert m_auto == m_fixed


def test_ema_pivot_with_decay_one_equals_fixed_pivot():
    ingredients = make_ingredients(seed=13, count=5)
    pivot = random_weightmaps(seed=131, count=1)[0]
    base = dict(pivot_init=ProvidedInit(pivot), n_divisor=5, epochs=2)
    m_fixed, _ = run_ensemble(gd_cfg(pivot_policy=FixedPivot(), **base), ingredients)
    m_ema, _ = run_ensemble(gd_cfg(pivot_policy=EmaPivot(decay=1.0), **base), ingredients)
    assert m_fixed == m_ema


def test_invalid_configs_rejected():
    with pytest.raises(EngineError):
        gd_cfg(epochs=0)
    with pytest.raises(EngineError):
        gd_cfg(batch_size=0)
    with pytest.raises(EngineError):
        gd_cfg(ordering="best_first")
    with pytest.raises(EngineError):
        gd_cfg(n_divisor=0)
    center = random_weightmaps(seed=13, count=1)[0]
    for radius in (0.0, float("nan")):
        with pytest.raises(EngineError, match="radius"):
            gd_cfg(projection=Projection(center, radius))


def test_duplicate_ids_rejected():
    m = random_weightmaps(seed=14, count=1)[0]
    with pytest.raises(EngineError, match="duplicate"):
        run_ensemble(gd_cfg(), [Ingredient("a", m), Ingredient("a", m)])


def test_batch_size_exceeding_sweep_rejected():
    ingredients = make_ingredients(seed=15, count=3)
    with pytest.raises(EngineError, match="batch_size"):
        run_ensemble(gd_cfg(batch_size=4), ingredients)


def test_missing_pivot_ingredient_rejected():
    ingredients = make_ingredients(seed=16, count=3)
    with pytest.raises(EngineError, match="nope"):
        run_ensemble(gd_cfg(pivot_init=IngredientInit("nope")), ingredients)


# --- logging -----------------------------------------------------------------------------


def test_log_displacement_matches_eta_times_grad_norm_for_gd():
    ingredients = make_ingredients(seed=17, count=10, low=-2, high=2)
    cfg = gd_cfg(n_divisor=10, epochs=2, optimizer=OptimizerSpec(GD(lr=Harmonic(offset=0))))
    _, record = run_ensemble(cfg, ingredients)
    # 1e-7 absolute: the displacement is measured from float32 iterates, whose
    # rounding floor sits just above a strict 1e-7 relative bound.
    for s in record.steps:
        assert s.displacement == pytest.approx(s.eta * s.grad_norm, abs=1e-7)


def test_run_record_csv(tmp_path):
    ingredients = make_ingredients(seed=18, count=3)
    _, record = run_ensemble(gd_cfg(), ingredients)
    path = tmp_path / "run.csv"
    record.to_csv(str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == "step,epoch,batch_ids,eta,zeta,grad_norm,displacement,metric,accepted".split(",")
    assert len(rows) == 1 + 3
    assert rows[1][0] == "1" and rows[1][2] == "m00"


def test_step_indices_strictly_increasing():
    ingredients = make_ingredients(seed=19, count=4)
    _, record = run_ensemble(gd_cfg(epochs=3), ingredients)
    steps = [s.step for s in record.steps]
    assert steps == sorted(set(steps))


def test_record_steps_off_keeps_summary():
    ingredients = make_ingredients(seed=20, count=4)
    cfg = gd_cfg(epochs=2, record_steps=False)
    merged, record = run_ensemble(cfg, ingredients)
    assert record.steps == []
    assert record.total_steps == 8
    merged_on, _ = run_ensemble(gd_cfg(epochs=2), ingredients)
    assert merged == merged_on


# --- greedy -----------------------------------------------------------------------------


def test_greedy_constant_evaluator_rejects_everything():
    # The target is the initialization: no step can come nearer to it than 0.
    ingredients = make_ingredients(seed=21, count=6)
    pivot = random_weightmaps(seed=211, count=1)[0]
    cfg = gd_cfg(pivot_init=ProvidedInit(pivot), n_divisor=6, greedy=Greedy(pivot))
    merged, record = run_ensemble(cfg, ingredients)
    assert merged == pivot
    assert len(record.steps) == 6
    assert all(s.accepted is False and s.metric < 0 for s in record.steps)


def test_greedy_monotone_acceptance_toward_target():
    target = random_weightmaps(seed=22, count=1)[0]
    ingredients = [Ingredient(f"m{i}", target) for i in range(5)]
    start = random_weightmaps(seed=221, count=1)[0]
    cfg = gd_cfg(
        optimizer=OptimizerSpec(GD(lr=Constant(0.4))),
        pivot_init=ProvidedInit(start),
        n_divisor=5,
        greedy=Greedy(target),
    )
    merged, record = run_ensemble(cfg, ingredients)
    metrics = [s.metric for s in record.steps]
    assert all(s.accepted for s in record.steps)
    assert all(b > a for a, b in zip(metrics, metrics[1:]))
    assert -l2_distance(merged, target) >= -l2_distance(start, target)


def test_greedy_rejects_adversarial_ingredient_only():
    target = random_weightmaps(seed=23, count=1)[0]
    adversarial = WeightMap(
        {name: arr + np.float32(50.0) for name, arr in target.arrays().items()}
    )
    ingredients = [
        Ingredient("good0", target),
        Ingredient("bad", adversarial),
        Ingredient("good1", target),
    ]
    start = random_weightmaps(seed=231, count=1)[0]
    cfg = gd_cfg(
        optimizer=OptimizerSpec(GD(lr=Constant(0.3))),
        pivot_init=ProvidedInit(start),
        n_divisor=3,
        greedy=Greedy(target),
    )
    merged, record = run_ensemble(cfg, ingredients)
    assert [s.accepted for s in record.steps] == [True, False, True]
    # The rejected step leaves no trace: replaying without it gives the same model.
    replay, _ = run_ensemble(cfg, [ingredients[0], ingredients[2]])
    # n_divisor differs (3 vs 2) would change steps, so pin it explicitly above.
    assert merged == replay


def test_greedy_reverts_optimizer_state():
    # With Adagrad, a rejected step must not leave squared-gradient residue:
    # replaying the accepted subsequence alone gives the identical model.
    target = random_weightmaps(seed=24, count=1)[0]
    adversarial = WeightMap(
        {name: arr + np.float32(25.0) for name, arr in target.arrays().items()}
    )
    ingredients = [
        Ingredient("good0", target),
        Ingredient("bad", adversarial),
        Ingredient("good1", target),
    ]
    start = random_weightmaps(seed=241, count=1)[0]
    cfg = gd_cfg(
        optimizer=OptimizerSpec(Adagrad(lr=Constant(0.5), eps=1e-8)),
        pivot_init=ProvidedInit(start),
        n_divisor=3,
        greedy=Greedy(target),
    )
    merged, record = run_ensemble(cfg, ingredients)
    assert [s.accepted for s in record.steps] == [True, False, True]
    replay, _ = run_ensemble(cfg, [ingredients[0], ingredients[2]])
    assert merged == replay


@pytest.mark.parametrize("feature", ["projection", "greedy"])
def test_nonfinite_reference_map_rejected_before_any_step(monkeypatch, feature):
    # Unchecked, a NaN centre gives an all-NaN model when the projection
    # lands on the last step, and an inf target rejects every step unseen.
    import soupstock.engine as engine

    ingredients = make_ingredients(seed=26, count=3)
    arrays = {name: np.full_like(a, 0.5) for name, a in ingredients[0].weights.arrays().items()}
    name = list(arrays)[-1]
    arrays[name].reshape(-1)[0] = np.nan if feature == "projection" else np.inf
    bad = WeightMap(arrays)
    extra = {"projection": Projection(bad, 1.0)} if feature == "projection" else {"greedy": Greedy(bad)}
    cfg = gd_cfg(batch_size=3, **extra)
    steps = []
    monkeypatch.setattr(engine, "optimizer_step", lambda *a, **k: steps.append(1))
    what = "projection center" if feature == "projection" else "greedy target"
    with pytest.raises(EngineError, match=re.escape(f"{what} holds a non-finite value in tensor {name!r}")):
        run_ensemble(cfg, ingredients)
    assert steps == []


def test_nonfinite_iterate_raises_naming_step_and_batch():
    ingredients = make_ingredients(seed=28, count=4)
    cfg = gd_cfg(optimizer=OptimizerSpec(GD(lr=Constant(1e30))), n_divisor=4, batch_size=2)
    with pytest.warns(RuntimeWarning), pytest.raises(
        EngineError, match=r"non-finite iterate after step 2 \(epoch 1, batch m02\|m03"
    ) as excinfo:
        run_ensemble(cfg, ingredients)
    assert [s.step for s in excinfo.value.record.steps] == [1]


def test_batch_mean_sums_in_batch_order():
    # One replica: a batch of B ingredients is added in batch order in float32
    # and divided by B, also for a one-element tensor and B >= 8, where
    # numpy's mean of a lone axis would sum pairwise instead.
    rng = np.random.default_rng(6)
    values = rng.uniform(-2, 2, size=(9, 1)).astype(np.float32)
    ingredients = [
        Ingredient(f"m{i}", wm(one=values[i], two=[values[i, 0], 1.0])) for i in range(9)
    ]
    zero = wm(one=[0.0], two=[0.0, 0.0])
    cfg = gd_cfg(optimizer=OptimizerSpec(GD(lr=Constant(1.0))), pivot_init=ProvidedInit(zero),
                 batch_size=9, record_steps=False)
    merged, _ = run_ensemble(cfg, ingredients)  # one GD step with lr 1 lands on the batch mean
    acc = values[0].copy()
    for row in values[1:]:
        acc += row
    in_order = acc / np.float32(9)
    assert values.mean(axis=0, dtype=np.float32) != in_order  # pairwise differs here
    assert merged.array("one").tobytes() == in_order.tobytes()
    assert merged.array("two")[0] == in_order[0]


# --- replica axis ---------------------------------------------------------------------------

REPLICA_SEEDS = [41, 7, 1234567, 2**62 + 3]
REPLICA_VARIANTS = [
    GD(lr=Harmonic(offset=0)),
    Adagrad(lr=Constant(0.3), eps=1e-8),
    Adam(lr=Constant(0.2), beta1=0.5, beta2=0.9, eps=1e-8),
    Adadelta(lr=Constant(0.8), rho=0.9, eps=1e-6),
]


def replica_ingredients(count, replicas=len(REPLICA_SEEDS)):
    """One ingredient set per replica, plus the same sets stacked on a leading replica axis."""
    sets = [make_ingredients(300 + r, count, low=-2.0, high=2.0) for r in range(replicas)]
    stacked = [
        Ingredient(sets[0][i].id, stack_replicas([s[i].weights for s in sets]))
        for i in range(count)
    ]
    return sets, stacked


def stack_replicas(maps):
    return WeightMap({name: np.stack([m.array(name) for m in maps]) for name in maps[0]})


def replica(m, r):
    return WeightMap({name: arr[r] for name, arr in m.arrays().items()})


@pytest.mark.parametrize("variant", REPLICA_VARIANTS, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffled"])
@pytest.mark.parametrize("policy", [AdaptivePivot(), EmaPivot(decay=0.7)], ids=["adaptive", "ema"])
@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_replicas_match_separate_runs_bit_for_bit(variant, shuffle, policy, weight_decay):
    sets, stacked = replica_ingredients(count=7)
    cfg = gd_cfg(
        optimizer=OptimizerSpec(variant, weight_decay=weight_decay),
        pivot_policy=policy,
        pivot_init=SoupInit(),
        n_divisor=None,
        epochs=3,
        batch_size=3,
        shuffle=shuffle,
        record_steps=False,
    )
    merged, record = run_ensemble(cfg, stacked, replica_seeds=REPLICA_SEEDS)
    for r, seed in enumerate(REPLICA_SEEDS):
        single, single_record = run_ensemble(replace(cfg, seed=seed), sets[r])
        assert replica(merged, r) == single
        assert record.total_steps == single_record.total_steps == 9


def test_replicas_with_provided_pivot_and_wide_batches():
    # Batches of 9 reach the length where numpy sums a lone axis pairwise, and
    # the conftest schema has a 0-d tensor whose batch is such an axis.
    sets, stacked = replica_ingredients(count=20)
    pivot = random_weightmaps(seed=301, count=1, low=-3, high=3)[0]
    replicated = WeightMap(
        {
            name: np.broadcast_to(arr, (len(REPLICA_SEEDS), *arr.shape))
            for name, arr in pivot.arrays().items()
        }
    )
    cfg = gd_cfg(
        optimizer=OptimizerSpec(Adam(lr=Constant(0.1), beta1=0.2, beta2=0.2, eps=1e-8)),
        pivot_init=ProvidedInit(replicated),
        n_divisor=None,
        epochs=2,
        batch_size=9,
        shuffle=True,
        record_steps=False,
    )
    merged, _ = run_ensemble(cfg, stacked, replica_seeds=REPLICA_SEEDS)
    for r, seed in enumerate(REPLICA_SEEDS):
        single_cfg = replace(cfg, seed=seed, pivot_init=ProvidedInit(pivot))
        single, _ = run_ensemble(single_cfg, sets[r])
        assert replica(merged, r) == single


def test_replica_batch_mean_sums_a_lone_last_column_in_batch_order():
    # Three replicas of 43691 elements make 2 * BLOCK + 1 columns, so the last
    # block of the stacked gather is one column, whose batch numpy would sum
    # pairwise.
    rng = np.random.default_rng(6)
    lone = rng.uniform(-2, 2, size=9).astype(np.float32)  # the batch of the test above
    values = rng.uniform(-2, 2, size=(9, 3, 43691)).astype(np.float32)
    values[:, 2, -1] = lone
    ingredients = [Ingredient(f"m{i}", WeightMap({"w": values[i]})) for i in range(9)]
    zero = WeightMap({"w": np.zeros((3, 43691), dtype=np.float32)})
    cfg = gd_cfg(optimizer=OptimizerSpec(GD(lr=Constant(1.0))), pivot_init=ProvidedInit(zero),
                 batch_size=9, record_steps=False)
    merged, _ = run_ensemble(cfg, ingredients, replica_seeds=[1, 2, 3])  # lands on the batch mean
    acc = values[0].copy()
    for row in values[1:]:
        acc += row
    in_order = acc / np.float32(9)
    assert np.add.reduce(values[:, 2, -1]) / np.float32(9) != in_order[2, -1]  # pairwise differs here
    assert merged.array("w").tobytes() == in_order.tobytes()


def test_single_replica_seed_list_matches_plain_run():
    sets, stacked = replica_ingredients(count=5, replicas=1)
    cfg = gd_cfg(shuffle=True, seed=99, epochs=2, batch_size=2)
    merged, record = run_ensemble(cfg, stacked, replica_seeds=[99])
    single, single_record = run_ensemble(cfg, sets[0])
    assert replica(merged, 0) == single
    assert [s.batch_ids for s in record.steps] == [s.batch_ids for s in single_record.steps]


def test_nonfinite_replica_is_named():
    sets, _ = replica_ingredients(count=4, replicas=2)
    calm = [Ingredient(ing.id, stack_replicas([sets[0][0].weights, ing.weights])) for ing in sets[1]]
    cfg = gd_cfg(optimizer=OptimizerSpec(GD(lr=Constant(1e30))), n_divisor=4, batch_size=2,
                 record_steps=False)
    # Replica 0 merges four copies of one model, so only replica 1 diverges.
    with pytest.warns(RuntimeWarning), pytest.raises(
        EngineError, match=r"after step 2 \(epoch 1, batch m02\|m03, replica 1;"
    ):
        run_ensemble(cfg, calm, replica_seeds=[5, 6])


def test_replicas_reject_whole_map_reductions():
    _, stacked = replica_ingredients(count=4)
    seeds = REPLICA_SEEDS
    with pytest.raises(EngineError, match="record_steps"):
        run_ensemble(gd_cfg(), stacked, replica_seeds=seeds)
    center = WeightMap({name: np.zeros_like(a) for name, a in stacked[0].weights.arrays().items()})
    projected = gd_cfg(record_steps=False, projection=Projection(center, 1.0))
    with pytest.raises(EngineError, match="projection"):
        run_ensemble(projected, stacked, replica_seeds=seeds)
    with pytest.raises(EngineError, match="greedy reduces over a whole map"):
        run_ensemble(gd_cfg(record_steps=False, greedy=Greedy(center)), stacked, replica_seeds=seeds)


def test_replicas_need_a_leading_axis_per_seed():
    _, stacked = replica_ingredients(count=4)
    with pytest.raises(EngineError, match="replica axis of length 3"):
        run_ensemble(gd_cfg(record_steps=False), stacked, replica_seeds=[1, 2, 3])
    with pytest.raises(EngineError, match="at least one replica"):
        run_ensemble(gd_cfg(record_steps=False), stacked, replica_seeds=[])


def replica_range_run(monkeypatch, replicas, batch_size, record_steps):
    """Maps, logs and range counts of a shuffled Adam replica run over
    tensors of several blocks, at 1, 2 and 3 workers."""
    import soupstock.engine as engine

    counts, real = [], engine.run_in_workers
    monkeypatch.setattr(engine, "run_in_workers", lambda task, n: counts.append(n) or real(task, n))
    rng = np.random.default_rng(30)
    shapes = {"a": (replicas, 70001), "b": (replicas, 5), "c": (replicas, 40000)}
    ingredients = [
        Ingredient(f"m{i}", WeightMap({n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}))
        for i in range(6)
    ]
    cfg = EnsembleConfig(
        optimizer=OptimizerSpec(Adam(lr=Constant(0.01), beta1=0.8, beta2=0.99, eps=1e-8), weight_decay=0.05),
        epochs=2,
        batch_size=batch_size,
        shuffle=True,
        seed=4,
        ordering="given",
        record_steps=record_steps,
    )
    seeds = [7, 8, 9][:replicas]
    runs = [run_ensemble(cfg, ingredients, replica_seeds=seeds, workers=w) for w in (1, 2, 3)]
    return runs, counts


def test_greedy_run_is_one_range_at_any_worker_count(monkeypatch):
    # Acceptance needs the whole map's distance after every step, so a
    # greedy run steps in this process whatever it is given; the map has
    # blocks enough for a plain run to take three ranges.
    import soupstock.engine as engine

    counts, real = [], engine.run_in_workers
    monkeypatch.setattr(engine, "run_in_workers", lambda task, n: counts.append(n) or real(task, n))
    rng = np.random.default_rng(31)
    shapes = {"a": (70001,), "b": (5,), "c": (90000,)}
    maps = [WeightMap({n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}) for _ in range(5)]
    cfg = EnsembleConfig(
        optimizer=OptimizerSpec(Adam(lr=Constant(0.01), beta1=0.8, beta2=0.99, eps=1e-8), weight_decay=0.05),
        epochs=2,
        batch_size=2,
        shuffle=True,
        seed=4,
        ordering="given",
        greedy=Greedy(maps[2]),
    )
    ingredients = [Ingredient(f"m{i}", m) for i, m in enumerate(maps)]
    (want, want_log), (got, got_log) = (run_ensemble(cfg, ingredients, workers=w) for w in (1, 3))
    assert counts == [1, 1]
    assert got == want and got_log == want_log
    assert {s.accepted for s in got_log.steps} == {True, False}
    run_ensemble(replace(cfg, greedy=None), ingredients, workers=3)
    assert counts[-1] == 3


@pytest.mark.parametrize("batch_size", [1, 2, 3])
def test_replica_run_splits_into_block_ranges(monkeypatch, batch_size):
    # Several replicas reduce over no whole map, so their blocks split into
    # ranges as a plain run's do, and the merged maps stay bit-identical.
    runs, counts = replica_range_run(monkeypatch, 3, batch_size, record_steps=False)
    assert counts == [1, 2, 3]
    assert runs[1][0] == runs[0][0] and runs[2][0] == runs[0][0]


def test_recorded_single_replica_run_splits_into_block_ranges(monkeypatch):
    runs, counts = replica_range_run(monkeypatch, 1, 2, record_steps=True)
    assert counts == [1, 2, 2]  # a (1, 110006) map has too few blocks for three ranges
    for merged, record in runs[1:]:
        assert merged == runs[0][0]
        assert record == runs[0][1]


def test_replica_batch_means_gathered_several_batches_at_a_time_match_separate_runs():
    # Two replicas of 8192 elements: a batch of 2 spans BLOCK / 2 gathered
    # values, so the means are gathered two batches at a time. 11 ingredients
    # make five full batches (chunks of 2, 2 and 1) and a short last batch.
    rng = np.random.default_rng(8)
    values = rng.uniform(-2, 2, size=(11, 2, 8192)).astype(np.float32)
    stacked = [Ingredient(f"m{i:02d}", WeightMap({"w": values[i]})) for i in range(11)]
    cfg = gd_cfg(
        optimizer=OptimizerSpec(Adam(lr=Constant(0.1), beta1=0.5, beta2=0.9, eps=1e-8)),
        n_divisor=None,
        epochs=2,
        batch_size=2,
        shuffle=True,
        record_steps=False,
    )
    seeds = [3, 4]
    merged, _ = run_ensemble(cfg, stacked, replica_seeds=seeds)
    for r, seed in enumerate(seeds):
        single = [Ingredient(ing.id, WeightMap({"w": values[i, r]})) for i, ing in enumerate(stacked)]
        expected, _ = run_ensemble(replace(cfg, seed=seed), single)
        assert merged.array("w")[r].tobytes() == expected.array("w").tobytes()


# --- shuffle streams --------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 7, 300])
def test_epoch_order_rows_are_the_shuffle_streams(n):
    seeds = [0, 7, 2**63 - 1]
    order = _epoch_order_fn(n, gd_cfg(shuffle=True), seeds)
    for epoch in (1, 2, 3, 200):
        rows = order(epoch)
        assert rows.shape == (len(seeds), n)
        for row, seed in zip(rows, seeds):
            expected = rng_mod.stream(seed, rng_mod.DOMAIN_SHUFFLE, epoch).permutation(n)
            assert row.tolist() == expected.tolist()


@pytest.mark.parametrize("seed", [2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1])
def test_streams_are_keyed_exactly_up_to_the_largest_seed(seed):
    gen = rng_mod.stream(0, rng_mod.DOMAIN_SHUFFLE)
    for index in (0, 5):
        expected = rng_mod.restart(gen, seed, rng_mod.DOMAIN_SHUFFLE, index).integers(2**63, size=4)
        got = rng_mod.stream(seed, rng_mod.DOMAIN_SHUFFLE, index).integers(2**63, size=4)
        assert got.tolist() == expected.tolist()
    # Neighbouring seeds key distinct streams (a float64 key word once merged them).
    neighbour = rng_mod.stream(seed - 1, rng_mod.DOMAIN_SHUFFLE).integers(2**63, size=4)
    assert neighbour.tolist() != rng_mod.stream(seed, rng_mod.DOMAIN_SHUFFLE).integers(2**63, size=4).tolist()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seeds_outside_one_key_word_are_rejected(seed):
    # Masked to 64 bits, -1 drew what 2**64 - 1 draws and 2**64 + 5 what 5 does.
    with pytest.raises(EngineError, match=r"seed must lie in \[0, 18446744073709551615\], got"):
        gd_cfg(seed=seed)
    with pytest.raises(ValueError, match="seed must lie in"):
        rng_mod.stream(seed, rng_mod.DOMAIN_SHUFFLE)
    gen = rng_mod.stream(0, rng_mod.DOMAIN_SHUFFLE)
    with pytest.raises(ValueError, match="seed must lie in"):
        rng_mod.restart(gen, seed, rng_mod.DOMAIN_SHUFFLE, 1)
    with pytest.raises(ValueError, match="seed must lie in"):
        run_ensemble(gd_cfg(shuffle=True, record_steps=False), replica_ingredients(count=3, replicas=3)[1],
                     replica_seeds=[1, seed, 2])


def test_the_largest_seed_is_accepted():
    ingredients = make_ingredients(seed=30, count=3)
    assert rng_mod.MAX_SEED == 2**64 - 1
    run_ensemble(gd_cfg(seed=rng_mod.MAX_SEED, shuffle=True), ingredients)
    rng_mod.stream(rng_mod.MAX_SEED, rng_mod.DOMAIN_SHUFFLE).integers(2**63, size=4)


def test_replica_run_builds_at_most_one_philox_per_epoch(monkeypatch):
    real = np.random.Philox
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    _, stacked = replica_ingredients(count=6)
    cfg = gd_cfg(epochs=3, batch_size=2, shuffle=True, record_steps=False)
    monkeypatch.setattr(np.random, "Philox", counting)
    run_ensemble(cfg, stacked, replica_seeds=REPLICA_SEEDS)
    assert 1 <= len(built) <= cfg.epochs  # not one per replica and epoch


def test_concurrent_replica_runs_match_serial_runs():
    sets, stacked = replica_ingredients(count=9)
    cfgs = [
        gd_cfg(
            optimizer=OptimizerSpec(Adam(lr=Constant(0.1), beta1=0.5, beta2=0.9, eps=1e-8)),
            n_divisor=None, epochs=60, batch_size=2, shuffle=True, record_steps=False,
        ),
        gd_cfg(epochs=60, batch_size=3, shuffle=True, record_steps=False),
    ]
    seed_lists = [REPLICA_SEEDS, REPLICA_SEEDS[::-1]]
    serial = [run_ensemble(c, stacked, replica_seeds=s)[0] for c, s in zip(cfgs, seed_lists)]
    results = [None, None]
    start = threading.Barrier(2, timeout=60)

    def work(i):
        start.wait()
        results[i] = run_ensemble(cfgs[i], stacked, replica_seeds=seed_lists[i])[0]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    for got, want in zip(results, serial):
        assert got is not None and got.flat.tobytes() == want.flat.tobytes()


# --- run_in_workers ---------------------------------------------------------------------------


def _warn_and_report(i):
    warnings.warn(f"task {i}", UserWarning)
    return i, os.getpid()


@pytest.mark.parametrize("beside_thread", [False, True], ids=["forked", "beside-thread"])
def test_run_in_workers_returns_results_and_warnings_in_task_order(beside_thread):
    tasks = [partial(_warn_and_report, i) for i in range(5)]
    with pytest.warns(UserWarning) as caught, another_thread_running() if beside_thread else nullcontext():
        results = run_in_workers(tasks, 2)
    assert [i for i, _ in results] == list(range(5))
    assert [str(w.message) for w in caught] == [f"task {i}" for i in range(5)]
    pids = [pid for _, pid in results]
    assert pids[0::2] == [os.getpid()] * 3
    if beside_thread:  # every task runs here
        assert pids[1::2] == [os.getpid()] * 2
    else:  # tasks 1 and 3 run in one child
        assert pids[1] == pids[3] != os.getpid()


def test_run_in_workers_returns_a_raising_tasks_exception_and_runs_the_rest():
    def task(i):
        if i in (1, 2):  # on the child's worker, then on this process's
            raise ValueError(f"task {i} failed")
        return i

    results = run_in_workers([partial(task, i) for i in range(5)], 2)
    assert [type(r) for r in results[1:3]] == [ValueError, ValueError]
    assert [str(r) for r in results[1:3]] == ["task 1 failed", "task 2 failed"]
    assert results[:1] + results[3:] == [0, 3, 4]


def test_run_in_workers_fails_only_the_tasks_a_dead_child_never_reported():
    parent = os.getpid()

    def task(i):
        if i == 3 and os.getpid() != parent:  # the child's second task
            os._exit(3)
        return i

    results = run_in_workers([partial(task, i) for i in range(6)], 2)
    assert results[:3] + results[4:5] == [0, 1, 2, 4]
    for lost in (results[3], results[5]):
        assert type(lost) is EngineError and str(lost) == "worker process exited with status 3 before reporting"


def test_run_in_workers_forks_no_child_without_a_task(monkeypatch):
    real_fork, children = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    assert run_in_workers([partial(int, i) for i in range(3)], 8) == [0, 1, 2]
    assert len(children) == 2
    assert run_in_workers([], 8) == [] and len(children) == 2
