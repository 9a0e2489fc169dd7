"""The ensemble engine: runs meta-optimization sweeps over model ingredients.

One run = order the ingredients, seed the iterate from the pivot
initialization, then for every epoch walk the (optionally shuffled) ingredient
batches, turning each batch into a pseudogradient and feeding it to the
configured optimizer. The pivot evolves per policy: fixed at the
initialization, tracking the latest iterate, or an exponential moving average
of it.

A run is logically sequential; only per-tensor work inside one step may be
parallelized. Independent runs (e.g. sweep cells) can execute concurrently
with isolated states.

Every step is elementwise apart from the batch gather, so independent runs
that share a config can also execute as one: with ``replica_seeds`` each
tensor carries a leading replica axis, and replica r walks its own shuffle
stream through the same loop. A plain run is the one-replica case, with the
axis added as a view of the stacked ingredients.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import rng as rng_mod
from .optim import OptimizerSpec, OptimizerState, optimizer_step, project_to_ball
from .pseudograd import (
    AdaptivePivot,
    Constant,
    EmaPivot,
    FixedPivot,
    PivotPolicy,
    Pseudogradient,
    Schedule,
    schedule_eval,
    soup,
)
from .weightstore import (
    WeightMap,
    global_l2_norm,
    l2_distance,
    validate_compatible,
)

__all__ = [
    "EngineError",
    "Ingredient",
    "SoupInit",
    "IngredientInit",
    "ProvidedInit",
    "PivotInit",
    "Projection",
    "EnsembleConfig",
    "StepRecord",
    "RunRecord",
    "ORDERINGS",
    "order_ingredients",
    "run_ensemble",
    "greedy_run",
]

ORDERINGS = ("given", "metric_desc", "metric_asc")


class EngineError(ValueError):
    """Engine-level configuration or runtime failure.

    Carries the partial RunRecord on aborts that happen mid-run (greedy
    evaluator failures).
    """

    def __init__(self, message: str, record: "RunRecord | None" = None) -> None:
        super().__init__(message)
        self.record = record


@dataclass(frozen=True)
class Ingredient:
    """One model entering the ensemble, with an optional held-out metric."""

    id: str
    weights: WeightMap
    metric: float | None = None


@dataclass(frozen=True)
class SoupInit:
    """Initialize the iterate at the uniform soup of all ingredients."""


@dataclass(frozen=True)
class IngredientInit:
    """Initialize at one named ingredient.

    That ingredient seeds the iterate and is excluded from pseudogradient
    sweeps (its information enters through the initialization); the n_divisor
    default still counts it.
    """

    id: str


@dataclass(frozen=True)
class ProvidedInit:
    """Initialize at an explicitly supplied weight map."""

    weights: WeightMap


PivotInit = SoupInit | IngredientInit | ProvidedInit


@dataclass(frozen=True)
class Projection:
    center: WeightMap
    radius: float


@dataclass(frozen=True)
class EnsembleConfig:
    """Everything the merge loop leaves open.

    n_divisor=None means "number of supplied ingredients". epoch_lr_reset
    restarts the lr schedule index at 1 each epoch (the amplification schedule
    and optimizer moment recurrences always run on the global step).
    record_steps=False drops per-step log entries for bulk runs.
    """

    optimizer: OptimizerSpec
    pivot_policy: PivotPolicy = field(default_factory=AdaptivePivot)
    pivot_init: PivotInit = field(default_factory=SoupInit)
    amplification: Schedule = field(default_factory=lambda: Constant(1.0))
    n_divisor: int | None = None
    epochs: int = 1
    batch_size: int = 1
    shuffle: bool = False
    seed: int = 0
    ordering: str = "metric_desc"
    projection: Projection | None = None
    epoch_lr_reset: bool = False
    record_steps: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise EngineError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise EngineError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_divisor is not None and self.n_divisor < 1:
            raise EngineError(f"n_divisor must be >= 1, got {self.n_divisor}")
        if self.ordering not in ORDERINGS:
            raise EngineError(f"ordering must be one of {ORDERINGS}, got {self.ordering!r}")
        if self.projection is not None and self.projection.radius <= 0:
            raise EngineError("projection radius must be > 0")


@dataclass(frozen=True)
class StepRecord:
    step: int
    epoch: int
    batch_ids: tuple[str, ...]
    eta: float
    zeta: float
    grad_norm: float
    displacement: float
    metric: float | None = None
    accepted: bool | None = None


CSV_HEADER = "step,epoch,batch_ids,eta,zeta,grad_norm,displacement,metric,accepted"


@dataclass
class RunRecord:
    """Per-step trajectory log; one entry per optimizer step when recording."""

    steps: list[StepRecord] = field(default_factory=list)
    total_steps: int = 0

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER.split(","))
            for s in self.steps:
                writer.writerow(
                    [
                        s.step,
                        s.epoch,
                        "|".join(s.batch_ids),
                        repr(s.eta),
                        repr(s.zeta),
                        repr(s.grad_norm),
                        repr(s.displacement),
                        "" if s.metric is None else repr(s.metric),
                        "" if s.accepted is None else str(s.accepted).lower(),
                    ]
                )


def order_ingredients(ingredients: Sequence[Ingredient], ordering: str) -> list[Ingredient]:
    """Stable ordering: by metric (ties broken by id), or the given order."""
    if ordering not in ORDERINGS:
        raise EngineError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    items = list(ingredients)
    if ordering == "given":
        return items
    missing = [ing.id for ing in items if ing.metric is None]
    if missing:
        raise EngineError(f"ordering {ordering!r} requires metrics; missing for {missing[0]!r}")
    if ordering == "metric_desc":
        return sorted(items, key=lambda ing: (-ing.metric, ing.id))
    return sorted(items, key=lambda ing: (ing.metric, ing.id))


def _resolve_pivot_init(
    cfg: EnsembleConfig, ordered: list[Ingredient]
) -> tuple[WeightMap, list[Ingredient]]:
    init = cfg.pivot_init
    if isinstance(init, SoupInit):
        return soup([ing.weights for ing in ordered]), ordered
    if isinstance(init, IngredientInit):
        matches = [ing for ing in ordered if ing.id == init.id]
        if not matches:
            raise EngineError(f"pivot_init ingredient {init.id!r} not found")
        sweep = [ing for ing in ordered if ing.id != init.id]
        return matches[0].weights, sweep
    return init.weights, ordered


def _epoch_order(sweep_size: int, cfg: EnsembleConfig, seeds: list[int], epoch: int) -> np.ndarray:
    """The (replicas, sweep_size) visiting order of one epoch; replica r shuffles with seeds[r]."""
    if not cfg.shuffle:
        return np.broadcast_to(np.arange(sweep_size), (len(seeds), sweep_size))
    streams = [rng_mod.stream(seed, rng_mod.DOMAIN_SHUFFLE, epoch) for seed in seeds]
    return np.stack([stream.permutation(sweep_size) for stream in streams])


def run_ensemble(
    cfg: EnsembleConfig,
    ingredients: Sequence[Ingredient],
    *,
    replica_seeds: Sequence[int] | None = None,
) -> tuple[WeightMap, RunRecord]:
    """Execute the full merge loop and return the final model plus its log.

    With ``replica_seeds``, len(replica_seeds) independent runs execute as
    one: every tensor (ingredients, a provided pivot, the result) carries a
    leading replica axis of that length, and replica r shuffles with
    replica_seeds[r] in place of cfg.seed. Replica r of the result equals a
    plain run on replica r's slices, bit for bit. Greedy acceptance,
    projection and per-step logs reduce over a whole map, so they need a
    single replica.
    """
    return _run(cfg, ingredients, evaluate=None, replica_seeds=replica_seeds)


def greedy_run(
    cfg: EnsembleConfig,
    ingredients: Sequence[Ingredient],
    evaluate: Callable[[WeightMap], float],
) -> tuple[WeightMap, RunRecord]:
    """Merge loop with greedy acceptance.

    After each optimizer step the candidate is scored; unless the metric
    strictly improves, the model, the optimizer state, and the pivot are all
    restored to their pre-step snapshots. An evaluator that raises or
    returns NaN aborts the run with an EngineError carrying the partial log.
    """
    if evaluate is None:
        raise EngineError("greedy_run requires a metric evaluator")
    return _run(cfg, ingredients, evaluate=evaluate)


def _score(
    evaluate: Callable[[WeightMap], float], w: WeightMap, where: str, record: RunRecord
) -> float:
    try:
        metric = float(evaluate(w))
    except Exception as exc:
        raise EngineError(f"greedy evaluator failed {where}: {exc}", record=record) from exc
    if math.isnan(metric):
        raise EngineError(f"greedy evaluator returned NaN {where}", record=record)
    return metric


def _check_replicas(
    cfg: EnsembleConfig, sample: WeightMap, replica_seeds: Sequence[int] | None
) -> list[int]:
    """Per-replica shuffle seeds, after checking that the run can carry them."""
    if replica_seeds is None:
        return [cfg.seed]
    seeds = [int(seed) for seed in replica_seeds]
    if not seeds:
        raise EngineError("replica_seeds must name at least one replica")
    for name, arr in sample.arrays().items():
        if arr.shape[:1] != (len(seeds),):
            raise EngineError(
                f"tensor {name!r} of shape {arr.shape} has no leading replica axis "
                f"of length {len(seeds)}"
            )
    # Greedy acceptance is the third whole-map reduction; greedy_run takes no replicas.
    whole_map = {"projection": cfg.projection is not None, "record_steps": cfg.record_steps}
    for feature, used in whole_map.items():
        if used and len(seeds) > 1:
            raise EngineError(
                f"{feature} reduces over a whole map and needs a single replica, got {len(seeds)}"
            )
    return seeds


def _run(
    cfg: EnsembleConfig,
    ingredients: Sequence[Ingredient],
    evaluate: Callable[[WeightMap], float] | None,
    replica_seeds: Sequence[int] | None = None,
) -> tuple[WeightMap, RunRecord]:
    items = list(ingredients)
    if not items:
        raise EngineError("run requires at least one ingredient")
    ids = [ing.id for ing in items]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})[0]
        raise EngineError(f"duplicate ingredient id {dup!r}")
    validate_compatible([ing.weights for ing in items])
    seeds = _check_replicas(cfg, items[0].weights, replica_seeds)

    ordered = order_ingredients(items, cfg.ordering)
    w, sweep = _resolve_pivot_init(cfg, ordered)
    validate_compatible([w, items[0].weights])
    if cfg.projection is not None:
        validate_compatible([cfg.projection.center, items[0].weights])
    if sweep and cfg.batch_size > len(sweep):
        raise EngineError(
            f"batch_size {cfg.batch_size} exceeds the {len(sweep)} ingredients in the sweep"
        )
    n_div = cfg.n_divisor if cfg.n_divisor is not None else len(items)

    # Stack the sweep once per tensor as (ingredient, replica, element), a view
    # of the stacked copy, so a batch mean is one gather and one reduction.
    names = list(w.arrays())
    shapes = {name: arr.shape for name, arr in w.arrays().items()}
    replicas = np.arange(len(seeds))
    stacked = {
        name: np.stack([ing.weights.array(name) for ing in sweep]).reshape(
            len(sweep), len(seeds), math.prod(shapes[name]) // len(seeds)
        )
        if sweep
        else None
        for name in names
    }
    sweep_ids = [ing.id for ing in sweep]

    state = OptimizerState()
    record = RunRecord()
    pivot = w
    adaptive = isinstance(cfg.pivot_policy, AdaptivePivot)
    ema_decay = cfg.pivot_policy.decay if isinstance(cfg.pivot_policy, EmaPivot) else None
    best_metric = (
        _score(evaluate, w, "for the initial model", record) if evaluate is not None else None
    )
    attempt = 0

    for epoch in range(1, cfg.epochs + 1):
        if not sweep:
            break
        order = _epoch_order(len(sweep), cfg, seeds, epoch)
        for step_in_epoch, start in enumerate(range(0, len(sweep), cfg.batch_size), 1):
            batch_idx = order[:, start : start + cfg.batch_size].T  # (batch, replica)
            attempt += 1
            global_step = state.step + 1
            sched_idx = step_in_epoch if cfg.epoch_lr_reset else global_step
            zeta = schedule_eval(cfg.amplification, global_step)

            if adaptive:
                pivot = w
            factor = np.float32(zeta / n_div)
            g_arrays: dict[str, np.ndarray] = {}
            for name in names:
                batch_mean = stacked[name][batch_idx, replicas].mean(axis=0, dtype=np.float32)
                arr = (pivot.array(name) - batch_mean.reshape(shapes[name])) * factor
                arr.setflags(write=False)
                g_arrays[name] = arr
            g = Pseudogradient(WeightMap._wrap(g_arrays), step=global_step)

            snapshot = (w, state.clone(), pivot) if evaluate is not None else None
            w_new = optimizer_step(w, g, state, cfg.optimizer, schedule_step=sched_idx)
            if cfg.projection is not None:
                w_new = project_to_ball(w_new, cfg.projection.center, cfg.projection.radius)

            metric: float | None = None
            accepted: bool | None = None
            if evaluate is not None:
                metric = _score(evaluate, w_new, f"at step {attempt}", record)
                accepted = metric > best_metric
            if cfg.record_steps:
                record.steps.append(
                    StepRecord(
                        step=attempt,
                        epoch=epoch,
                        batch_ids=tuple(sweep_ids[i] for i in batch_idx[:, 0]),
                        eta=schedule_eval(cfg.optimizer.variant.lr, sched_idx),
                        zeta=zeta,
                        grad_norm=global_l2_norm(g.values),
                        displacement=l2_distance(w_new, w),
                        metric=metric,
                        accepted=accepted,
                    )
                )
            if evaluate is not None and not accepted:
                w, state, pivot = snapshot
            else:
                w = w_new
                if accepted:
                    best_metric = metric
                if ema_decay is not None:
                    pivot = _ema_update(pivot, w, ema_decay)
    record.total_steps = attempt
    return w, record


def _ema_update(pivot: WeightMap, w: WeightMap, decay: float) -> WeightMap:
    d = np.float32(decay)
    omd = np.float32(1.0 - decay)
    out: dict[str, np.ndarray] = {}
    for name, arr in pivot.arrays().items():
        res = d * arr + omd * w.array(name)
        res.setflags(write=False)
        out[name] = res
    return WeightMap._wrap(out)
