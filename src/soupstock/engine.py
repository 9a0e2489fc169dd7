"""The ensemble engine: runs meta-optimization sweeps over model ingredients.

One run = order the ingredients, seed the iterate from the pivot
initialization, then for every epoch walk the (optionally shuffled) ingredient
batches, turning each batch into a pseudogradient and feeding it to the
configured optimizer. The pivot evolves per policy: fixed at the
initialization, tracking the latest iterate, or an exponential moving average
of it.

A run is logically sequential. Independent runs share nothing but their
read-only ingredients, so they can execute concurrently with isolated
states: the CLI runs the cells of a sweep as the tasks of
:func:`run_in_workers`, which returns each task's result in task order
(see ``cli``). Each step is one pass of
``optim.optimizer_step`` over the maps' flat buffers: per block, the batch
members' values are read from their sources (views of in-memory maps, or
reads of stored maps that stay in their files), summed, turned into the
pseudogradient, and fed to the optimizer, and the new values are checked to
be finite (a NaN/Inf aborts the run with an EngineError naming the step and
batch) and staged for the log norms. No model-size mean or pseudogradient is
ever built, and stored ingredients are never held whole. A run writes its
initialization straight into the one iterate buffer it owns and steps it in
place. A greedy or projected run also copies the iterate before each step
into one buffer it allocates once: a projection takes its displacement
against that copy, and a rejected greedy step copies it back and swaps the
optimizer state with a spare that holds a copy of the pre-step one. Greedy
acceptance scores each iterate by its distance to a target map (``Greedy``),
the only metric a data-free merge has.

Everything model-sized in a run (the initialization, the batch mean, the
pseudogradient, weight decay, the optimizer update, the EMA pivot) acts on
each element alone, and the batch order and the schedules never depend on
the weights. So a run splits into independent trajectories over contiguous
ranges of ``Schema.blocks``, which share only their per-piece sums of
squares for the log: with ``workers``, each range is one task of
:func:`run_in_workers` and runs the whole run in a process of its own, in
one shared iterate, and this process adds the sums up into the log in the
serial order and raises the failure a serial run would meet first. No
output depends on the number of workers. Greedy and projected runs, whose
steps need a whole-map scalar, are one range, run in this process.

Every step is elementwise apart from the batch gather, so independent runs
that share a config can also execute as one: with ``replica_seeds`` each
tensor carries a leading replica axis, and replica r walks its own shuffle
stream through the same loop. Only then is the sweep read into one
(ingredient, element) array, so that the block means of several
consecutive batches are one gather. A shuffled run draws every epoch's
orders from one generator of its own, restarted at each replica's stream.
"""

from __future__ import annotations

import bisect
import csv
import math
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable, NoReturn, Sequence

import numpy as np

from . import rng as rng_mod
from .optim import (
    NonFiniteStep,
    OptimizerSpec,
    OptimizerState,
    _project,
    optimizer_step,
)
from .pseudograd import (
    AdaptivePivot,
    Constant,
    EmaPivot,
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
    _add_pieces,
    _pieces_squared,
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
    "Greedy",
    "EnsembleConfig",
    "StepRecord",
    "RunRecord",
    "ORDERINGS",
    "order_ingredients",
    "run_ensemble",
    "run_in_workers",
]

ORDERINGS = ("given", "metric_desc", "metric_asc")


class EngineError(ValueError):
    """Engine-level configuration or runtime failure.

    Carries the partial RunRecord on aborts that happen mid-run (a
    non-finite step, or any other failure inside a step).
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
class Greedy:
    """Greedy acceptance: a step stands only if its metric,
    -l2_distance(iterate, target), strictly exceeds the best so far (the
    initialization's at first); otherwise the iterate, the optimizer state
    and the pivot return to their pre-step values."""

    target: WeightMap


@dataclass(frozen=True)
class EnsembleConfig:
    """Everything the merge loop leaves open.

    n_divisor=None means "number of supplied ingredients". epoch_lr_reset
    restarts the lr schedule index at 1 each epoch (the amplification schedule
    and optimizer moment recurrences always run on the global step).
    record_steps=False drops per-step log entries for bulk runs. A
    projection or greedy acceptance reduces over the whole map at every
    step.
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
    greedy: Greedy | None = None
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
        if not 0 <= self.seed <= rng_mod.MAX_SEED:
            raise EngineError(f"seed must lie in [0, {rng_mod.MAX_SEED}], got {self.seed}")
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
) -> tuple[list[WeightMap | StoredMap], list[Ingredient]]:
    """The maps whose soup is the initialization, and the sweep."""
    init = cfg.pivot_init
    if isinstance(init, SoupInit):
        return [ing.weights for ing in ordered], ordered
    if isinstance(init, IngredientInit):
        matches = [ing for ing in ordered if ing.id == init.id]
        if not matches:
            raise EngineError(f"pivot_init ingredient {init.id!r} not found")
        return [matches[0].weights], [ing for ing in ordered if ing.id != init.id]
    return [init.weights], ordered


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
    workers: int = 1,
) -> tuple[WeightMap, RunRecord]:
    """Execute the full merge loop and return the final model plus its log.

    With ``replica_seeds``, len(replica_seeds) independent runs execute as
    one: every tensor (ingredients, a provided pivot, the result) carries a
    leading replica axis of that length, and replica r shuffles with
    replica_seeds[r] in place of cfg.seed. Replica r of the result equals a
    plain run on replica r's slices, bit for bit. Projection, greedy
    acceptance and per-step logs reduce over a whole map, so they need a
    single replica.

    With ``workers``, the blocks of the maps (``Schema.blocks``) are split
    into up to that many contiguous ranges of about equal size, and each
    range is one task of :func:`run_in_workers`, which runs the whole run on
    its own: this process one, and a child forked from it each other one, or
    this process every one while other threads run. A range whose worker
    died before reporting raises that worker's EngineError. A greedy or
    projected run reduces over the whole map between steps, so it is one
    range, run in this process. No result depends on the number of workers.
    """
    plan = _Plan(cfg, ingredients, replica_seeds)
    schema = plan.schema
    ranges = _block_ranges(schema.blocks, 1 if plan.whole_map else workers)
    if len(ranges) == 1:
        iterate = np.empty(schema.size, dtype=np.float32)
    else:
        import mmap  # one shared anonymous mapping, which every range writes its part of
        iterate = np.frombuffer(mmap.mmap(-1, 4 * schema.size), dtype=np.float32)

    reports = run_in_workers([partial(_trajectory, plan, r, iterate) for r in ranges], len(ranges))
    for report in reports:
        if isinstance(report, Exception):
            raise report
    # The run ends at the earliest failure, as a serial run would: the lowest
    # step, then the lowest range, so the lowest element.
    done, _, _, failure = min(reports, key=lambda report: (report[3] is None, report[0]))
    entries = reports[0][1]
    record = RunRecord()
    if cfg.record_steps:
        ends = schema.piece_ends
        for k in range(done):
            sums = np.concatenate([report[2][k] for report in reports], axis=1)
            grad_norm, displacement = (math.sqrt(_add_pieces(row, ends)) for row in sums)
            record.steps.append(StepRecord(*entries[k][:5], grad_norm, displacement, *entries[k][5:]))
    if failure is not None:
        exc, message = failure
        if message is not None:
            raise EngineError(message, record=record) from exc
        if isinstance(exc, EngineError):
            exc.record = record
        raise exc
    record.total_steps = done
    iterate.setflags(write=False)
    return WeightMap._wrap(iterate.view(), schema), record


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
    whole_map = {
        "projection": cfg.projection is not None,
        "greedy": cfg.greedy is not None,
        "record_steps": cfg.record_steps,
    }
    for feature, used in whole_map.items():
        if used and len(seeds) > 1:
            raise EngineError(
                f"{feature} reduces over a whole map and needs a single replica, got {len(seeds)}"
            )
    return seeds


class _Plan:
    """A checked run: what every block range of it shares, namely its
    config, the initialization's sources and the weight-independent parts
    of its steps. A whole-map run (greedy or projected) is one range."""

    def __init__(
        self, cfg: EnsembleConfig, ingredients: Sequence[Ingredient], replica_seeds: Sequence[int] | None
    ) -> None:
        items = list(ingredients)
        if not items:
            raise EngineError("run requires at least one ingredient")
        ids = [ing.id for ing in items]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})[0]
            raise EngineError(f"duplicate ingredient id {dup!r}")
        self.schema = schema = validate_compatible([ing.weights for ing in items])
        seeds = _check_replicas(cfg, items[0].weights, replica_seeds)

        ordered = order_ingredients(items, cfg.ordering)
        self.init_sources, sweep = _resolve_pivot_init(cfg, ordered)
        validate_compatible([self.init_sources[0], items[0].weights])
        references = {
            "projection center": cfg.projection.center if cfg.projection is not None else None,
            "greedy target": cfg.greedy.target if cfg.greedy is not None else None,
        }
        for what, reference in references.items():
            if reference is not None:
                validate_compatible([reference, items[0].weights])
                bad = next((name for name, a in reference.arrays().items() if not np.isfinite(a).all()), None)
                if bad is not None:
                    raise EngineError(f"{what} holds a non-finite value in tensor {bad!r}")
        if sweep and cfg.batch_size > len(sweep):
            raise EngineError(
                f"batch_size {cfg.batch_size} exceeds the {len(sweep)} ingredients in the sweep"
            )
        self.cfg = cfg
        self.whole_map = cfg.projection is not None or cfg.greedy is not None
        self.sweep_ids = [ing.id for ing in sweep]
        self.n_div = cfg.n_divisor if cfg.n_divisor is not None else len(items)
        self.batch_mean = _batch_mean_fn(sweep, schema, len(seeds), cfg.batch_size)
        self.epoch_order = _epoch_order_fn(len(sweep), cfg, seeds)

    def init(self, out: np.ndarray, span: slice) -> WeightMap:
        """Write the span of the initialization into out; a view of out."""
        if isinstance(self.cfg.pivot_init, SoupInit):
            return soup(self.init_sources, out, span)
        self.init_sources[0].read(span, out[span])
        return WeightMap._wrap(out.view(), self.schema)


def _block_ranges(blocks: tuple[tuple[int, int, int, int], ...], count: int) -> list[range]:
    """Up to ``count`` contiguous, non-empty ranges of block indices with
    about equal numbers of elements; one range when count or the blocks
    allow no more."""
    count = min(count, len(blocks))
    if count <= 1:
        return [range(len(blocks))]
    starts = [begin for begin, _end, _count, _piece in blocks]
    begin, size = starts[0], blocks[-1][1] - starts[0]
    cuts = [0, *(bisect.bisect_left(starts, begin + k * size / count) for k in range(1, count)), len(blocks)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _trajectory(
    plan: _Plan, block_range: range, iterate: np.ndarray
) -> tuple[int, list[tuple], list[np.ndarray], tuple[Exception, str | None] | None]:
    """Every step of the run over the blocks of ``block_range``, from its
    share of the initialization, written into ``iterate`` and stepped there,
    to its share of the EMA pivot; no other element of any model-size buffer
    is touched.

    Returns (the steps done, entries, sums, failure). Per step done when the
    run records steps, entries holds the log entry's fields other than the
    norms, and sums the range's per-piece sums of squares for them, shape
    (2, pieces). A run stops at its first failure, returned as (the
    exception, the engine's message for a non-finite step or None).
    """
    cfg, schema, greedy = plan.cfg, plan.schema, plan.cfg.greedy
    stepped = schema.blocks[block_range.start : block_range.stop]
    span = slice(stepped[0][0], stepped[-1][1]) if stepped else slice(0, 0)
    pieces = slice(stepped[0][3], stepped[-1][3] + stepped[-1][2]) if stepped else slice(0, 0)
    entries: list[tuple] = []
    sums: list[np.ndarray] = []
    done = 0
    try:
        w = plan.init(iterate, span)
        ema_decay = cfg.pivot_policy.decay if isinstance(cfg.pivot_policy, EmaPivot) else None
        pivot, ema = w, None
        if not isinstance(cfg.pivot_policy, AdaptivePivot):
            # An EMA pivot is updated in place, and a fixed one must outlive
            # the iterate: each starts as a copy of the initialization.
            copy = np.empty(schema.size, dtype=np.float32)
            copy[span] = iterate[span]
            pivot = WeightMap._wrap(copy.view(), schema)
            ema = copy if ema_decay is not None else None
        state = OptimizerState()
        spare = OptimizerState() if greedy is not None else None
        before = np.empty(schema.size, dtype=np.float32) if plan.whole_map else None  # the pre-step iterate
        norms = np.empty((2, len(schema.piece_ends))) if cfg.record_steps else None
        best_metric = -l2_distance(w, greedy.target) if greedy is not None else None

        for epoch in range(1, cfg.epochs + 1):
            if not plan.sweep_ids:
                break
            order = plan.epoch_order(epoch)
            for step_in_epoch, start in enumerate(range(0, len(plan.sweep_ids), cfg.batch_size), 1):
                attempt = done + 1
                global_step = state.step + 1
                sched_idx = step_in_epoch if cfg.epoch_lr_reset else global_step
                zeta = schedule_eval(cfg.amplification, global_step)

                scale = pseudogradient_scale(zeta, plan.n_div)
                grad = partial(_pseudogradient_block, plan.batch_mean, order, start, pivot.flat, scale)
                if before is not None:
                    before[span] = iterate[span]
                if spare is not None:
                    _copy_state(state, spare)
                try:
                    optimizer_step(
                        w, grad, state, cfg.optimizer, sched_idx,
                        out=iterate, norms=norms, block_range=block_range,
                    )
                except NonFiniteStep as exc:
                    batch_idx = order[:, start : start + cfg.batch_size].T  # (batch, replica)
                    message = _nonfinite_message(schema, exc.index, batch_idx, plan.sweep_ids, attempt, epoch)
                    return done, entries, sums, (exc, message)
                step_sums = norms[:, pieces].copy() if norms is not None else None
                if cfg.projection is not None:
                    projected = _project(w, cfg.projection.center, cfg.projection.radius, out=iterate)
                    if norms is not None and projected is not w:
                        _pieces_squared(schema, iterate, before, out=step_sums[1])

                metric: float | None = None
                accepted: bool | None = None
                if greedy is not None:
                    metric = -l2_distance(w, greedy.target)
                    accepted = metric > best_metric
                if norms is not None:
                    batch_ids = tuple(plan.sweep_ids[i] for i in order[0, start : start + cfg.batch_size])
                    eta = schedule_eval(cfg.optimizer.variant.lr, sched_idx)
                    entries.append((attempt, epoch, batch_ids, eta, zeta, metric, accepted))
                    sums.append(step_sums)
                if greedy is not None and not accepted:
                    iterate[span] = before[span]
                    state, spare = spare, state
                else:
                    if accepted:
                        best_metric = metric
                    if ema is not None:
                        _ema_update(ema, iterate, ema_decay, stepped)
                done = attempt
    except Exception as exc:  # reported with the steps done before it
        return done, entries, sums, (exc, None)
    return done, entries, sums, None


def _copy_state(state: OptimizerState, into: OptimizerState) -> None:
    """into <- state, into's own buffers reused; a buffer that state has yet
    to allocate is dropped from into too, so that a step makes it afresh."""
    for f in fields(state):
        value, kept = getattr(state, f.name), getattr(into, f.name)
        if isinstance(value, np.ndarray) and kept is not None:
            np.copyto(kept, value)
        else:
            setattr(into, f.name, value.copy() if isinstance(value, np.ndarray) else value)


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


def _ema_update(pivot: np.ndarray, w: np.ndarray, decay: float, stepped: Sequence[tuple]) -> None:
    """pivot <- decay * pivot + (1 - decay) * w, in place, over the blocks ``stepped``."""
    d = np.float32(decay)
    omd = np.float32(1.0 - decay)
    for begin, end, _count, _piece in stepped:
        part = pivot[begin:end]
        part *= d
        part += omd * w[begin:end]


# --- forked workers ----------------------------------------------------------------


def run_in_workers(tasks: Sequence[Callable[[], Any]], workers: int) -> list[Any]:
    """Each task's result in task order, after every task's warnings are
    re-issued in task order (see :func:`_reissue`): what the task (a
    callable of no arguments) returned, the Exception it raised, or, if its
    worker died before reporting it, an EngineError naming the exit status.

    Task i runs on worker i % workers, and no worker is started without a
    task: worker 0 is this process, each other one a child forked from it,
    all at once; or, where the platform has no fork or other threads run (a
    child would start with their locks held for good), this process runs
    every task, in task order. A child pickles each result through a pipe as
    it is made and leaves by os._exit, so that nothing of this process's
    (its open files' cleanup, atexit hooks, callers' finally blocks) runs
    twice. Every child is reaped; on an exception here (an interrupt) the
    children left are killed and reaped before it propagates.
    """
    can_fork = hasattr(os, "fork") and threading.active_count() == 1
    workers = max(1, min(workers, len(tasks))) if can_fork else 1
    reports: list[Any] = [None] * len(tasks)  # (result, warnings) per task
    children: list[tuple[int, int, Any]] = []  # (worker, pid, read end of its pipe) until reaped
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for worker in range(1, workers):
            fd_read, fd_write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd_read)
                os.close(fd_write)
                raise
            if pid == 0:
                os.close(fd_read)
                _work_in_child(tasks[worker::workers], fd_write)
            os.close(fd_write)
            children.append((worker, pid, open(fd_read, "rb")))
        for index in range(0, len(tasks), workers):
            reports[index] = _held_back(tasks[index])
        while children:
            worker, pid, reader = children[0]
            with reader:
                for index in range(worker, len(tasks), workers):
                    try:
                        reports[index] = pickle.load(reader)
                    except (EOFError, pickle.UnpicklingError):  # the end, or a torn last record
                        break
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            ended = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
            for index in range(worker, len(tasks), workers):
                if reports[index] is None:
                    reports[index] = EngineError(f"worker process {ended} before reporting"), []
    finally:
        if children:
            import signal

            for _, pid, reader in children:
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    _reissue([caught for _, caught in reports])
    return [result for result, _ in reports]


def _held_back(task: Callable[[], Any]) -> tuple[Any, list]:
    """task()'s result, or the Exception it raised, with the warnings raised
    while it ran."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            result = task()
        except Exception as exc:
            result = exc
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _work_in_child(tasks: Sequence[Callable[[], Any]], fd: int) -> NoReturn:
    code = 1
    try:
        with open(fd, "wb") as pipe:
            for task in tasks:
                pickle.dump(_held_back(task), pipe)
                pipe.flush()
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _reissue(caught: list[list]) -> None:
    """Issue held-back warnings, list by list. One registry per source file,
    as warnings.warn keeps one per module: a warning shown once per location
    is shown once over all the lists."""
    registries: dict[str, dict] = {}
    for held in caught:
        for text, category, filename, lineno in held:
            warnings.warn_explicit(
                text, category, filename, lineno, registry=registries.setdefault(filename, {})
            )
