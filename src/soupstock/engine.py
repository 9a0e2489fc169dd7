"""The ensemble engine: runs meta-optimization sweeps over model ingredients.

One run = order the ingredients, seed the iterate from the pivot
initialization, then for every epoch walk the (optionally shuffled) ingredient
batches, turning each batch into a pseudogradient and feeding it to the
configured optimizer. The pivot evolves per policy: fixed at the
initialization, tracking the latest iterate, or an exponential moving average
of it.

A run is logically sequential. Independent runs share nothing but their
read-only ingredients, so they can execute concurrently with isolated
states: the CLI runs the cells of a sweep in forked worker processes, one
per usable CPU (see ``cli``). Each step is one blocked pass of
``optim.optimizer_step`` over the maps' flat buffers, its blocks split
across the run's ``threads``: per block, the batch
members' values are read from their sources (views of in-memory maps, or
reads of stored maps that stay in their files), summed, turned into the
pseudogradient, and fed to the optimizer, and the new values are checked to
be finite (a NaN/Inf aborts the run with an EngineError naming the step and
batch) and staged for the log norms. No model-size mean or pseudogradient is
ever built, and stored ingredients are never held whole (only an
IngredientInit's ingredient is read into memory, as the initialization). A
run owns one iterate buffer, a copy of the initialization, and steps it in
place; greedy and projected runs, which still need the pre-step iterate,
step into a new buffer instead.

Every step is elementwise apart from the batch gather, so independent runs
that share a config can also execute as one: with ``replica_seeds`` each
tensor carries a leading replica axis, and replica r walks its own shuffle
stream through the same loop. Only then is the sweep read into one
(ingredient, element) array, so that the block means of several
consecutive batches are one gather. A shuffled run draws every epoch's
orders from one generator of its own, restarted at each replica's stream.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import rng as rng_mod
from .optim import (
    NonFiniteStep,
    OptimizerSpec,
    OptimizerState,
    StepNorms,
    optimizer_step,
    project_to_ball,
)
from .pseudograd import (
    AdaptivePivot,
    Constant,
    EmaPivot,
    FixedPivot,
    PivotPolicy,
    Schedule,
    pseudogradient_scale,
    schedule_eval,
    soup,
)
from .weightstore import (
    BLOCK,
    Schema,
    StoredMap,
    WeightMap,
    blocks,
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
    """One model entering the ensemble, with an optional held-out metric.

    The weights may stay in their file (a StoredMap): the merge loop reads
    them a block at a time.
    """

    id: str
    weights: WeightMap | StoredMap
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
        if self.projection is not None and not self.projection.radius > 0:
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
        weights = matches[0].weights
        return (weights.load() if isinstance(weights, StoredMap) else weights), sweep
    return init.weights, ordered


def _epoch_order_fn(sweep_size: int, cfg: EnsembleConfig, seeds: list[int]) -> Callable[[int], np.ndarray]:
    """The (replicas, sweep_size) visiting order as a function of the epoch,
    a new array each epoch; replica r shuffles with seeds[r].

    Row r is ``rng.stream(seeds[r], DOMAIN_SHUFFLE, epoch).permutation(sweep_size)``,
    drawn from one generator of the run's own, restarted for every replica
    and epoch.
    """
    if not cfg.shuffle:
        return lambda epoch: np.broadcast_to(np.arange(sweep_size), (len(seeds), sweep_size))
    gen = rng_mod.stream(cfg.seed, rng_mod.DOMAIN_SHUFFLE)

    def order(epoch: int) -> np.ndarray:
        rows = np.empty((len(seeds), sweep_size), dtype=np.int64)
        rows[...] = np.arange(sweep_size)
        for row, seed in zip(rows, seeds):
            # What permutation(n) does: shuffle arange(n) in place.
            rng_mod.restart(gen, seed, rng_mod.DOMAIN_SHUFFLE, epoch).shuffle(row)
        return rows

    return order


def run_ensemble(
    cfg: EnsembleConfig,
    ingredients: Sequence[Ingredient],
    *,
    replica_seeds: Sequence[int] | None = None,
    threads: int = 1,
) -> tuple[WeightMap, RunRecord]:
    """Execute the full merge loop and return the final model plus its log.

    With ``replica_seeds``, len(replica_seeds) independent runs execute as
    one: every tensor (ingredients, a provided pivot, the result) carries a
    leading replica axis of that length, and replica r shuffles with
    replica_seeds[r] in place of cfg.seed. Replica r of the result equals a
    plain run on replica r's slices, bit for bit. Greedy acceptance,
    projection and per-step logs reduce over a whole map, so they need a
    single replica.

    Each step splits its blocks across up to ``threads`` threads
    (:func:`optim.optimizer_step`); the result does not depend on their
    number. A replica run holds its batch means between steps, so it runs
    with one thread.
    """
    return _run(cfg, ingredients, evaluate=None, replica_seeds=replica_seeds, threads=threads)


def greedy_run(
    cfg: EnsembleConfig,
    ingredients: Sequence[Ingredient],
    evaluate: Callable[[WeightMap], float],
    *,
    threads: int = 1,
) -> tuple[WeightMap, RunRecord]:
    """Merge loop with greedy acceptance.

    After each optimizer step the candidate is scored; unless the metric
    strictly improves, the model, the optimizer state, and the pivot are all
    restored to their pre-step snapshots. An evaluator that raises or
    returns NaN aborts the run with an EngineError carrying the partial log.
    ``threads`` is as for :func:`run_ensemble`; the evaluator runs in the
    caller's thread.
    """
    if evaluate is None:
        raise EngineError("greedy_run requires a metric evaluator")
    return _run(cfg, ingredients, evaluate=evaluate, threads=threads)


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
    schema = sample.schema()
    for name, shape in zip(schema.names, schema.shapes):
        if shape[:1] != (len(seeds),):
            raise EngineError(
                f"tensor {name!r} of shape {shape} has no leading replica axis "
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
    threads: int = 1,
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
    init, sweep = _resolve_pivot_init(cfg, ordered)
    validate_compatible([init, items[0].weights])
    if cfg.projection is not None:
        validate_compatible([cfg.projection.center, items[0].weights])
    if sweep and cfg.batch_size > len(sweep):
        raise EngineError(
            f"batch_size {cfg.batch_size} exceeds the {len(sweep)} ingredients in the sweep"
        )
    n_div = cfg.n_divisor if cfg.n_divisor is not None else len(items)
    if len(seeds) > 1:
        threads = 1  # the replica batch mean keeps state between calls

    schema = init.schema()
    batch_mean = _batch_mean_fn(sweep, schema, len(seeds), cfg.batch_size)
    epoch_order = _epoch_order_fn(len(sweep), cfg, seeds)
    sweep_ids = [ing.id for ing in sweep]

    state = OptimizerState()
    record = RunRecord()
    norms = StepNorms(schema) if cfg.record_steps else None
    # Greedy restores the pre-step iterate on a reject, and a projected step
    # measures its displacement from it, so those runs step into a new buffer.
    # Every other run steps a private copy of the initialization in place.
    iterate = None if evaluate is not None or cfg.projection is not None else init.flat.copy()
    w = init if iterate is None else WeightMap._wrap(iterate.view(), schema)
    adaptive = isinstance(cfg.pivot_policy, AdaptivePivot)
    ema_decay = cfg.pivot_policy.decay if isinstance(cfg.pivot_policy, EmaPivot) else None
    ema = init.flat.copy() if ema_decay is not None else None  # updated in place
    if ema is not None:
        pivot = WeightMap._wrap(ema.view(), schema)
    else:
        pivot = w if adaptive else init
    del init  # a soup initialization lives on only as a fixed pivot or greedy's iterate
    best_metric = (
        _score(evaluate, w, "for the initial model", record) if evaluate is not None else None
    )
    attempt = 0

    for epoch in range(1, cfg.epochs + 1):
        if not sweep:
            break
        order = epoch_order(epoch)
        for step_in_epoch, start in enumerate(range(0, len(sweep), cfg.batch_size), 1):
            attempt += 1
            global_step = state.step + 1
            sched_idx = step_in_epoch if cfg.epoch_lr_reset else global_step
            zeta = schedule_eval(cfg.amplification, global_step)

            if adaptive:
                pivot = w
            scale = pseudogradient_scale(zeta, n_div)
            grad = partial(_pseudogradient_block, batch_mean, order, start, pivot.flat, scale)
            saved_state = state.clone() if evaluate is not None else None
            try:
                w_new = optimizer_step(
                    w, grad, state, cfg.optimizer, sched_idx, out=iterate, norms=norms, threads=threads
                )
            except NonFiniteStep as exc:
                batch_idx = order[:, start : start + cfg.batch_size].T  # (batch, replica)
                message = _nonfinite_message(schema, exc.index, batch_idx, sweep_ids, attempt, epoch)
                raise EngineError(message, record=record) from exc
            if norms is not None:
                grad_norm, displacement = norms.grad_norm, norms.displacement
            if cfg.projection is not None:
                projected = project_to_ball(w_new, cfg.projection.center, cfg.projection.radius)
                if norms is not None and projected is not w_new:
                    displacement = l2_distance(projected, w)
                w_new = projected

            metric: float | None = None
            accepted: bool | None = None
            if evaluate is not None:
                metric = _score(evaluate, w_new, f"at step {attempt}", record)
                accepted = metric > best_metric
            if norms is not None:
                record.steps.append(
                    StepRecord(
                        step=attempt,
                        epoch=epoch,
                        batch_ids=tuple(sweep_ids[i] for i in order[0, start : start + cfg.batch_size]),
                        eta=schedule_eval(cfg.optimizer.variant.lr, sched_idx),
                        zeta=zeta,
                        grad_norm=grad_norm,
                        displacement=displacement,
                        metric=metric,
                        accepted=accepted,
                    )
                )
            if evaluate is not None and not accepted:
                state = saved_state
            else:
                w = w_new
                if accepted:
                    best_metric = metric
                if ema is not None:
                    _ema_update(ema, w.flat, ema_decay)
    record.total_steps = attempt
    if iterate is not None:
        iterate.setflags(write=False)
    return w, record


def _batch_mean_fn(
    sweep: list[Ingredient], schema: Schema, replicas: int, batch_size: int
) -> Callable[[np.ndarray, int, slice], np.ndarray]:
    """The batch mean as a function of an epoch's (replica, sweep) order, the
    start of a batch in it, and a slice of the flat buffer; it returns a
    float32 array of that slice's values, which the caller may overwrite.

    One replica: the chosen ingredients' blocks are read from their sources
    (views of an in-memory map, reads of a stored one), added in batch order
    in float32, and the sum divided by float32(batch), with no copy of the
    sweep. Several replicas: the sweep is read once into an (ingredient,
    element) stack; every element of a (replicas, ...) tensor belongs to one
    replica, and each takes its own replica's batch members. The means of k
    consecutive full batches, k = max(1, BLOCK // (batch * map size)), are
    gathered and reduced at once and held until the last of them is taken;
    a short last batch is gathered alone, and a map of more than one block
    batch by batch. Each epoch's order must be a new array, and each batch's
    block is taken once.
    """
    sources = [ing.weights for ing in sweep]
    if replicas == 1:

        def mean(order: np.ndarray, start: int, s: slice) -> np.ndarray:
            rows = order[0, start : start + batch_size]
            acc = sources[rows[0]].read(s, np.empty(s.stop - s.start, dtype=np.float32))
            for i in rows[1:]:
                acc += sources[i].read(s)
            acc /= np.float32(len(rows))
            return acc

        return mean

    stacked = np.empty((len(sources), schema.size), dtype=np.float32)
    for row, source in zip(stacked, sources):
        source.read(slice(None), row)
    stacked = stacked.ravel()
    offsets = np.asarray(schema.offsets)
    sizes = np.diff(offsets)
    columns = np.arange(schema.size)
    replica_of = (columns - np.repeat(offsets[:-1], sizes)) * replicas // np.repeat(sizes, sizes)
    chunk_size = max(1, BLOCK // (batch_size * schema.size)) * batch_size
    full_end = len(sources) - len(sources) % batch_size  # where a short last batch starts
    held: tuple = (None, None, None, None)  # (order, chunk start, block start, means)

    def mean(order: np.ndarray, start: int, s: slice) -> np.ndarray:
        nonlocal held
        if start < full_end:
            chunk, width = start - start % chunk_size, batch_size
            end = min(chunk + chunk_size, full_end)
        else:
            chunk, width, end = start, len(sources) - start, len(sources)
        # A lone column is widened by the one before it (the map has at least
        # `replicas` elements): numpy would sum it pairwise, not in batch order.
        lo = min(s.start, s.stop - 2)
        if held[0] is not order or held[1:3] != (chunk, s.start):
            # A C-ordered (batch, member, column) gather keeps each batch's
            # reduction a float32 sum in member order, as above.
            members = order[:, chunk:end].reshape(replicas, -1, width).transpose(1, 2, 0)
            index = members.take(replica_of[lo : s.stop], axis=2)
            index *= schema.size
            index += columns[lo : s.stop]
            means = np.add.reduce(stacked.take(index), axis=1, dtype=np.float32)
            means /= np.float32(width)
            held = (order, chunk, s.start, means)
        return held[3][(start - chunk) // width, s.start - lo :]

    return mean


def _pseudogradient_block(
    batch_mean: Callable[[np.ndarray, int, slice], np.ndarray],
    order: np.ndarray,
    start: int,
    pivot: np.ndarray,
    scale: np.float32,
    s: slice,
) -> np.ndarray:
    """(pivot - batch mean) * scale over slice s: pseudograd.pseudogradient's operations."""
    g = batch_mean(order, start, s)
    np.subtract(pivot[s], g, out=g)
    g *= scale
    return g


def _nonfinite_message(
    schema: Schema,
    first_bad: int,
    batch_idx: np.ndarray,
    sweep_ids: list[str],
    step: int,
    epoch: int,
) -> str:
    replicas = batch_idx.shape[1]
    # Element e of a (replicas, ...) tensor belongs to replica (e - begin) * replicas // size.
    t = int(np.searchsorted(schema.offsets, first_bad, side="right")) - 1
    begin, end = schema.offsets[t], schema.offsets[t + 1]
    replica = (first_bad - begin) * replicas // (end - begin)
    ids = "|".join(sweep_ids[i] for i in batch_idx[:, replica])
    where = f", replica {replica}" if replicas > 1 else ""
    return (
        f"non-finite iterate after step {step} (epoch {epoch}, batch {ids}{where}; "
        f"first in tensor {schema.names[t]!r})"
    )


def _ema_update(pivot: np.ndarray, w: np.ndarray, decay: float) -> None:
    """pivot <- decay * pivot + (1 - decay) * w, in place."""
    d = np.float32(decay)
    omd = np.float32(1.0 - decay)
    for s in blocks(pivot.size):
        part = pivot[s]
        part *= d
        part += omd * w[s]
