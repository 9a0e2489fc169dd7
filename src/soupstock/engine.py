"""The ensemble engine: runs meta-optimization sweeps over model ingredients.

One run = order the ingredients, seed the iterate from the pivot
initialization, then for every epoch walk the (optionally shuffled) ingredient
batches, turning each batch into a pseudogradient and feeding it to the
configured optimizer. The pivot evolves per policy: fixed at the
initialization, tracking the latest iterate, or an exponential moving average
of it.

A run is logically sequential. Independent runs share nothing but their
read-only ingredients, so they can execute concurrently with isolated
states: the CLI runs the cells of a merge as the tasks of
:func:`run_in_workers`, which returns each task's result in task order
(see ``cli``). Each step is one pass of ``optim.optimizer_step`` over the
maps' flat buffers: per block, the batch members' values are read from
their sources (in-memory maps, or stored maps that stay in their files),
averaged, turned into the pseudogradient by
``pseudograd._pseudogradient_values`` and fed to the optimizer, and the new
values are checked to be finite (a NaN/Inf aborts the run with an
EngineError naming the step and batch) and summed into the log, so no
model-size mean or pseudogradient is ever built. A trajectory's steps share
its layout's block buffers, and the batch mean holds its own, one set per
process. After each step that stands, an EMA pivot is updated over the same
layout, block by block. A run steps its one iterate in place, from its
initialization; a projected run projects it there. In :func:`run_ensemble`
the iterate is one shared anonymous mapping, for any number of workers, and
in :func:`ensemble_steps`, which never forks, an array of its own. A greedy
run, and a projected run that logs its steps, also copy the pre-step iterate
into one buffer: a logged projection takes its displacement against it, and
a rejected greedy step copies it back and swaps the contents (step and
buffers) of the optimizer state with those of a spare copy of the pre-step
one, so the caller's state object holds the live state. Greedy acceptance
scores each iterate by its distance to a target map (``Greedy``), the only
metric a data-free merge has. One loop takes every step: :func:`run_ensemble`
drives it to its end in each tile's task, and :func:`ensemble_steps` hands
its steps to a caller. It reports a non-finite step itself, so numpy's
overflow warnings are off for its steps: once per tile in
:func:`run_ensemble`, per step in :func:`ensemble_steps`.

Everything model-sized in a run (the initialization, the batch mean, the
pseudogradient, weight decay, the optimizer update, the EMA pivot) acts on
each element alone, and the batch order and the schedules never depend on
the weights. So a run splits into independent trajectories over contiguous
ranges of ``Schema.blocks``, which share only the log: per step attempted,
two rows of float64 per-piece sums of squares. :func:`run_ensemble` takes
each tile of at most :data:`TILE` elements through every step before the
next, so the optimizer state and a fixed or EMA pivot span one tile and stay
in cache across its steps. Each tile is one task of :func:`run_in_workers`,
in one shared iterate and log, and reports only how far it got; this
process adds each step's rows up in the serial order and raises the failure
a serial run would meet first. No output depends on the number of workers.
Greedy and projected runs, whose steps need a whole-map scalar, are one
trajectory over the whole map, run here.

Every step is elementwise apart from the batch gather, so independent runs
that share a config can also execute as one: with ``replica_seeds`` each
tensor carries a leading replica axis, and replica r walks its own shuffle
stream through the same loop. Only then is the sweep read into one
(ingredient, element) array, so that the block means of several
consecutive batches are one gather. A shuffled run draws every epoch's
orders from one generator of its own, restarted at each replica's stream.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Generator, NoReturn, Sequence

import numpy as np

from . import rng as rng_mod
from .optim import (
    NonFiniteStep,
    OptimizerSpec,
    OptimizerState,
    _step_blocks,
    optimizer_step,
    project_to_ball,
)
from .pseudograd import (
    AdaptivePivot,
    Constant,
    EmaPivot,
    PivotPolicy,
    Schedule,
    _pseudogradient_values,
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
    _first_nonfinite,
    _pieces_squared,
    l2_distance,
    validate_compatible,
    write_csv,
)

__all__ = [
    "TILE",
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
    "ensemble_steps",
    "cell_bytes",
    "run_in_workers",
]

ORDERINGS = ("given", "metric_desc", "metric_asc")

TILE = 4 * BLOCK
"""Elements per tile at most: a run without greedy acceptance or projection
steps its blocks a tile of consecutive blocks at a time."""


class EngineError(ValueError):
    """Engine-level configuration or runtime failure.

    A non-finite step carries the partial RunRecord of the steps before
    it; every other EngineError carries none. It pickles as its message
    alone, so the record does not cross processes: one raised in a forked
    worker arrives with none.
    """

    def __init__(self, message: str, record: "RunRecord | None" = None) -> None:
        super().__init__(message)
        self.record = record

    def __reduce__(self):  # its message alone: the record stays in the process that made it
        return EngineError, (str(self),)


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
    """Initialize at an explicitly supplied weight map, which may stay in its
    file (a StoredMap): each tile reads its span into the iterate."""

    weights: WeightMap | StoredMap


PivotInit = SoupInit | IngredientInit | ProvidedInit


@dataclass(frozen=True)
class Projection:
    """Projection onto the ball of ``radius`` around ``center``: a map (a
    StoredMap is read into memory when the run starts), or None for the
    float64 soup of every ingredient in the order given, which the run builds."""

    center: WeightMap | StoredMap | None
    radius: float


@dataclass(frozen=True)
class Greedy:
    """Greedy acceptance: a step stands only if -l2_distance(iterate, target)
    strictly exceeds the best so far (the initialization's at first);
    otherwise the iterate, the optimizer state and the pivot return to their
    pre-step values. A stored target is read into memory when the run starts."""

    target: WeightMap | StoredMap


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
        rows = (
            (s.step, s.epoch, "|".join(s.batch_ids), s.eta, s.zeta, s.grad_norm, s.displacement,
             s.metric, s.accepted)
            for s in self.steps
        )
        write_csv(path, CSV_HEADER.split(","), rows)


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
        given = np.broadcast_to(np.arange(sweep_size), (len(seeds), sweep_size))
        return lambda epoch: given.view()  # a new object, which _batch_mean_fn keys its held means on
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

    Each tile of the maps' blocks (:func:`_tiles`) runs the whole run on its
    own, as one task of :func:`run_in_workers` on up to ``workers`` workers:
    this process, and a child forked from it each other one, or this process
    every tile while other threads run. A tile whose worker died before
    reporting raises that worker's EngineError. A greedy or projected run
    reduces over the whole map between steps, so it is one trajectory, run
    in this process. No result depends on the number of workers.
    """
    plan = _Plan(cfg, ingredients, replica_seeds)
    schema = plan.schema
    tiles = [range(len(schema.blocks))] if plan.whole_map else _tiles(schema.blocks)
    # Shared anonymous mappings, whichever worker writes each tile of them.
    iterate = np.ndarray(schema.size, np.float32, mmap.mmap(-1, max(4 * schema.size, 1)))
    log = np.ndarray(plan.log_shape, buffer=mmap.mmap(-1, max(8 * math.prod(plan.log_shape), 1)))
    reports = run_in_workers([partial(_run_range, plan, tile, iterate, log) for tile in tiles], workers)
    iterate.setflags(write=False)
    return WeightMap._wrap(iterate.view(), schema), _record(plan, reports, log)


def ensemble_steps(cfg: EnsembleConfig, ingredients: Sequence[Ingredient],
                   state: OptimizerState) -> Generator[WeightMap, None, RunRecord]:
    """:func:`run_ensemble`'s run as one trajectory over the whole map in this
    process, stepped by the caller: it steps ``state`` in place and yields the
    same read-only view of the iterate after each step. Leaving the loop ends
    the run, with no further step; a run that ends returns its log, and a
    failure raises as there. Its steps run with numpy's overflow warnings
    off, restored before each yield. A state with buffers from a run over a
    map of another size raises ValueError."""
    plan = _Plan(cfg, ingredients, None)
    iterate = np.empty(plan.schema.size, dtype=np.float32)  # stepped in this process only
    log = np.empty(plan.log_shape)
    steps = _trajectory(plan, range(len(plan.schema.blocks)), iterate, log, state)
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                w = next(steps)
            except StopIteration as end:
                return _record(plan, [end.value], log)
        yield w


def _run_range(plan: _Plan, block_range: range, iterate: np.ndarray, log: np.ndarray) -> tuple:
    """The report of :func:`_trajectory` over ``block_range``, driven to its end."""
    steps = _trajectory(plan, block_range, iterate, log, OptimizerState())
    with np.errstate(over="ignore", invalid="ignore"):  # no divide: every denominator adds an eps
        while True:
            try:
                next(steps)
            except StopIteration as end:
                return end.value


def _record(plan: _Plan, reports: list, log: np.ndarray) -> RunRecord:
    """The log of a run from its tiles' reports and the sums they wrote into
    ``log``, in block order; raises the failure a serial run would meet first."""
    for report in reports:
        if isinstance(report, Exception):
            raise report
    # The run ends at the earliest failure, as a serial run would: the lowest
    # step, then the lowest tile, so the lowest element.
    done, _, failure = min(reports, key=lambda report: (report[2] is None, report[0]))
    entries = reports[0][1]
    record = RunRecord()
    if plan.cfg.record_steps:
        ends = plan.schema.piece_ends
        for k in range(done):
            grad_norm, displacement = (math.sqrt(_add_pieces(row, ends)) for row in log[k])
            record.steps.append(StepRecord(*entries[k][:5], grad_norm, displacement, *entries[k][5:]))
    if failure is not None:
        exc, message = failure
        if message is not None:
            raise EngineError(message, record=record) from exc
        raise exc
    record.total_steps = done
    return record


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
    """A checked run: what every tile of it shares, namely its config, the
    initialization's sources and the weight-independent parts of its steps.
    A whole-map run (greedy or projected) is one trajectory."""

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
        self.schema = schema = validate_compatible([ing.weights for ing in items],
                                                   [f"ingredient {ing.id!r}" for ing in items])
        seeds = _check_replicas(cfg, items[0].weights, replica_seeds)

        ordered = order_ingredients(items, cfg.ordering)
        self.init_sources, sweep = _resolve_pivot_init(cfg, ordered)
        init = cfg.pivot_init
        references = {
            "provided initialization": init.weights if isinstance(init, ProvidedInit) else None,
            "projection center": cfg.projection.center if cfg.projection is not None else None,
            "greedy target": cfg.greedy.target if cfg.greedy is not None else None,
        }
        for what, reference in references.items():
            if reference is not None:
                validate_compatible([items[0].weights, reference], [f"ingredient {items[0].id!r}", what])
                # A stored map was checked when its file was opened.
                bad = None if isinstance(reference, StoredMap) else _first_nonfinite(reference, schema.names)
                if bad is not None:
                    raise EngineError(f"{what} holds a non-finite value in tensor {bad!r}")
        if sweep and cfg.batch_size > len(sweep):
            raise EngineError(
                f"batch_size {cfg.batch_size} exceeds the {len(sweep)} ingredients in the sweep"
            )
        # Every whole-map step reads the centre and the target whole, so they are read into memory.
        self.center, self.target = (m.load() if isinstance(m, StoredMap) else m
                                    for m in (references["projection center"], references["greedy target"]))
        if cfg.projection is not None and self.center is None:
            self.center = soup([ing.weights for ing in items])
        self.cfg = cfg
        self.whole_map = cfg.projection is not None or cfg.greedy is not None
        self.sweep_ids = [ing.id for ing in sweep]
        # The log's two rows of per-piece sums of squares per step attempted (a rejected greedy step too).
        steps = cfg.epochs * -(-len(sweep) // cfg.batch_size) if cfg.record_steps else 0
        self.log_shape = (steps, 2, len(schema.piece_ends))
        self.n_div = cfg.n_divisor if cfg.n_divisor is not None else len(items)
        self.batch_mean = _batch_mean_fn(sweep, schema, len(seeds), cfg.batch_size)
        self.epoch_order = _epoch_order_fn(len(sweep), cfg, seeds)


def _tiles(blocks: tuple[tuple[int, int, int, int], ...]) -> list[range]:
    """The blocks as consecutive runs of block indices of at most TILE
    elements each, in order; one empty range for a map without blocks."""
    cuts = [0]
    for index, (_begin, end, _count, _piece) in enumerate(blocks):
        if end - blocks[cuts[-1]][0] > TILE:
            cuts.append(index)
    return [range(a, b) for a, b in zip(cuts, [*cuts[1:], len(blocks)])]


def cell_bytes(cfg: EnsembleConfig, size: int, workers: int = 1) -> int:
    """The bytes a run of ``cfg`` over ``size`` elements holds at its peak on
    ``workers`` workers (see :func:`_trajectory`): its iterate; per tile it
    steps at once (a greedy or projected run is one tile, the whole map), the
    optimizer state, greedy's spare and any fixed or EMA pivot over the tile
    and 32 bytes per block element; greedy's target, a projection's centre
    and the pre-step iterate of a greedy or a logged projected run. A logged
    run's log, 16 bytes per piece per step attempted, is not counted."""
    greedy, projected = cfg.greedy is not None, cfg.projection is not None
    tiles, span = (1, size) if greedy or projected else (min(workers, -(-size // TILE)), min(size, workers * TILE))
    spanned = len(cfg.optimizer.variant.fills) * (1 + greedy) + (not isinstance(cfg.pivot_policy, AdaptivePivot))
    whole = 1 + greedy + projected + (greedy or (projected and cfg.record_steps))
    return 4 * size * whole + 4 * span * spanned + 32 * min(size, BLOCK) * tiles


def _trajectory(
    plan: _Plan, block_range: range, iterate: np.ndarray, log: np.ndarray, state: OptimizerState
) -> Generator[WeightMap, None, tuple[int, list[tuple], tuple[Exception, str | None] | None]]:
    """Every step of the run over the blocks of ``block_range``, from its
    share of the initialization, written into ``iterate`` and stepped there,
    to the EMA pivot over its span; no other element of ``iterate`` is
    touched. Every step, and every update of an EMA pivot, walks one layout
    of those blocks, and the batch means come from the plan's batch mean, in
    buffers it holds. ``state``, the run's optimizer state stepped in place,
    is new or has buffers over them.

    Yields the one read-only view of ``iterate`` it builds after each step, and
    returns (the steps done, entries, failure). When the run records steps,
    step k writes the range's per-piece sums of squares for the log norms into
    ``log[k]``, and entries holds (in the range from block 0 alone) each step
    done's other log fields. A run stops at its first failure, returned as
    (the exception, the engine's message for a non-finite step or None).
    """
    cfg, schema, greedy = plan.cfg, plan.schema, plan.cfg.greedy
    entries: list[tuple] = []
    done = 0
    try:
        w = soup(plan.init_sources, iterate, block_range)  # a soup of one finite map is that map, bit for bit
        # Built once the soup has freed its own block buffers, which would otherwise raise the peak.
        # Its work buffers also hold an EMA pivot's update between steps.
        layout = _step_blocks(schema.blocks[block_range.start : block_range.stop])
        span, rows = layout
        pivot, base = iterate, 0  # pivot[i - base] is element i's
        if not isinstance(cfg.pivot_policy, AdaptivePivot):
            # An EMA pivot is updated in place, and a fixed one must outlive
            # the iterate: each starts as a copy of the span's initialization.
            pivot, base = iterate[span].copy(), span.start
        ema = None  # (decay, 1 - decay) in float32, for an EMA pivot
        if isinstance(cfg.pivot_policy, EmaPivot):
            ema = np.float32(cfg.pivot_policy.decay), np.float32(1.0 - cfg.pivot_policy.decay)
        batch_mean = plan.batch_mean
        spare = OptimizerState() if greedy is not None else None
        # The pre-step iterate, read by a greedy revert and a logged projection's displacement.
        keep_before = greedy is not None or (cfg.projection is not None and cfg.record_steps)
        before = np.empty(schema.size, dtype=np.float32) if keep_before else None
        best_metric = -l2_distance(w, plan.target) if greedy is not None else None

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

                def grad(s: slice) -> np.ndarray:  # the batch's pseudogradient over slice s
                    g = batch_mean(order, start, s)
                    return _pseudogradient_values(pivot[s.start - base : s.stop - base], g, scale, out=g)

                if before is not None:
                    before[span] = iterate[span]
                if spare is not None:
                    _copy_state(state, spare)
                try:
                    optimizer_step(
                        w, grad, state, cfg.optimizer, sched_idx,
                        out=iterate, norms=log[done] if cfg.record_steps else None, layout=layout,
                    )
                    moved = cfg.projection is not None and project_to_ball(
                        w, plan.center, cfg.projection.radius, out=iterate) is not w
                except NonFiniteStep as exc:
                    batch_idx = order[:, start : start + cfg.batch_size].T  # (batch, replica)
                    message = _nonfinite_message(schema, exc.index, batch_idx, plan.sweep_ids, attempt, epoch)
                    return done, entries, (exc, message)
                if moved and cfg.record_steps:
                    _pieces_squared(schema, iterate, before, out=log[done, 1])

                metric: float | None = None
                accepted: bool | None = None
                if greedy is not None:
                    metric = -l2_distance(w, plan.target)
                    accepted = metric > best_metric
                if cfg.record_steps and block_range.start == 0:  # _record reads this range's entries alone
                    batch_ids = tuple(plan.sweep_ids[i] for i in order[0, start : start + cfg.batch_size])
                    eta = schedule_eval(cfg.optimizer.variant.lr, sched_idx)
                    entries.append((attempt, epoch, batch_ids, eta, zeta, metric, accepted))
                if greedy is not None and not accepted:
                    iterate[span] = before[span]
                    state.step, spare.step = spare.step, state.step
                    state.buffers, spare.buffers = spare.buffers, state.buffers
                else:
                    if accepted:
                        best_metric = metric
                    if ema is not None:  # pivot <- decay * pivot + (1 - decay) * iterate, over the layout
                        for s, at, work, *_ in rows:
                            pivot[at] *= ema[0]
                            pivot[at] += np.multiply(ema[1], iterate[s], out=work)
                done = attempt
                yield w
    except Exception as exc:  # reported with the steps done before it
        return done, entries, (exc, None)
    return done, entries, None


def _copy_state(state: OptimizerState, into: OptimizerState) -> None:
    """into <- state, into's own buffers reused; buffers that state has yet
    to allocate are dropped from into too, so that a step makes them afresh."""
    into.step = state.step
    if into.buffers and state.buffers:
        for kept, value in zip(into.buffers, state.buffers):
            np.copyto(kept, value)
    else:
        into.buffers = tuple(value.copy() for value in state.buffers)


def _batch_mean_fn(
    sweep: list[Ingredient], schema: Schema, replicas: int, batch_size: int
) -> Callable[[np.ndarray, int, slice], np.ndarray]:
    """The batch mean as a function of an epoch's (replica, sweep) order, the
    start of a batch in it and a slice of at most one block of the flat
    buffer; it returns a float32 array of that slice's values, which the
    caller may overwrite until its next call. The function holds every
    buffer the mean is built in, one set per process.

    One replica: the chosen ingredients' blocks are read from their sources,
    the first into a block buffer of the function's own and each other one
    into a second, added in batch order in float32, and the sum divided by
    float32(batch), with no copy of the sweep; the mean returned is a view
    of the first buffer. Several replicas: the sweep is read once
    into an (ingredient, element) stack; every element of a (replicas, ...)
    tensor belongs to one replica, and each takes its own replica's batch
    members. The means of k consecutive full batches, k = max(1, BLOCK //
    (batch * map size)), are gathered and reduced at once and held until the
    last of them is taken; a short last batch is gathered alone, and a map of
    more than one block batch by batch. Each epoch's order must be a new
    array, and each batch's block is taken once.
    """
    sources = [ing.weights for ing in sweep]
    if replicas == 1:
        sums = np.empty(min(BLOCK, schema.size), dtype=np.float32)
        reads = np.empty(len(sums) if batch_size > 1 else 0, dtype=np.float32)

        def mean(order: np.ndarray, start: int, s: slice) -> np.ndarray:
            rows = order[0, start : start + batch_size]
            acc = sources[rows[0]].read(s, sums[: s.stop - s.start])
            for i in rows[1:]:
                acc += sources[i].read(s, reads[: s.stop - s.start])
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


# --- forked workers ----------------------------------------------------------------


def run_in_workers(tasks: Sequence[Callable[[], Any]], workers: int) -> list[Any]:
    """Each task's result in task order: what the task (a callable of no
    arguments) returned, the Exception it raised, or, if its worker died
    before reporting it, an EngineError naming the exit status.

    Task i runs on worker i % workers, and no worker is started without a
    task: worker 0 is this process, each other one a child forked from it,
    all at once; or, where the platform has no fork or other threads run (a
    child would start with their locks held for good), this process runs
    every task, in task order. A child pickles each result through a pipe as
    it is made and leaves by os._exit, so that nothing of this process's
    (its open files' cleanup, atexit hooks, callers' finally blocks) runs
    twice. A child's result larger than the pipe's buffer holds the child
    until this process has run its own tasks, so callers return small
    results. Every child is reaped; on an exception here (an interrupt) the
    children left are killed and reaped before it propagates.
    """
    can_fork = hasattr(os, "fork") and threading.active_count() == 1
    workers = max(1, min(workers, len(tasks))) if can_fork else 1
    unreported = object()  # a task may return None
    results: list[Any] = [unreported] * len(tasks)
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
            results[index] = _outcome(tasks[index])
        while children:
            worker, pid, reader = children[0]
            with reader:
                for index in range(worker, len(tasks), workers):
                    try:
                        results[index] = pickle.load(reader)
                    except (EOFError, pickle.UnpicklingError):  # the end, or a torn last record
                        break
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            ended = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
            for index in range(worker, len(tasks), workers):
                if results[index] is unreported:
                    results[index] = EngineError(f"worker process {ended} before reporting")
    finally:
        if children:
            import signal

            for _, pid, reader in children:
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _outcome(task: Callable[[], Any]) -> Any:
    """task()'s result, or the Exception it raised."""
    try:
        return task()
    except Exception as exc:
        return exc


def _work_in_child(tasks: Sequence[Callable[[], Any]], fd: int) -> NoReturn:
    code = 1
    try:
        with open(fd, "wb") as pipe:
            for task in tasks:
                pickle.dump(_outcome(task), pipe)
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
