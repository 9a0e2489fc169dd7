"""Command-line surface.

Commands: soup, merge, greedy (merge with greedy acceptance forced on in
every cell), synth {estimators,cycle,convergence,wlln}, fed, verify. All
randomness comes from explicit seed fields; identical config + seed therefore
produces byte-identical outputs.

Exit codes: 0 success; 1 config/flag validation failure (detected before any
run starts, and for a merge's metrics before any checkpoint is opened); 2
runtime or I/O failure (unreadable, missing, or incompatible checkpoint or
metrics files, mid-run errors).

Input paths inside a config resolve relative to the config file's directory;
output paths resolve relative to --out (default: the config directory).

A sweep opens its ingredients once and runs its cells in up to one worker
per usable CPU (its CPU affinity, within any cgroup v2 cpu.max quota), as
many as the cells' model-size buffers fit into the memory available
(MemAvailable, within any cgroup v2 memory.max); if the ingredients fail to
open, every cell fails with that error. Each cell is one task of
``engine.run_in_workers``; its worker writes its outputs and returns its
manifest entry, or the cell fails with the worker's exit status. A
single-cell merge is not a sweep and runs here directly. Every cell is one
``engine.run_ensemble`` call, given as many block-range workers as the
usable CPUs for a single cell, and the usable CPUs divided by the sweep's
workers (at least one) for each cell of a sweep; the engine runs a greedy or
projected cell as one range, stepped in place in the process that runs the
cell beside one pre-step copy of its iterate. ``synth estimators`` runs one
chunk of trials per worker, at most one per usable CPU. Worker 0 is this
process, and ``engine.run_in_workers`` forks the others, or, while other
threads run, runs every task here. No output depends on the number of
workers.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from contextlib import ExitStack
from functools import partial
from typing import Any

import numpy as np

from .config import (
    ConfigError,
    FedRunConfig,
    MergeConfig,
    enumerate_sweep,
    load_json,
    parse_fed_config,
    sweep_cell_name,
)
from .engine import (
    EngineError,
    EnsembleConfig,
    Greedy,
    Ingredient,
    Projection,
    ProvidedInit,
    run_ensemble,
    run_in_workers,
)
from .fedlab import ClientSpec, FedConfig, simulate_fedopt, simulate_fedsoup
from .optim import OptimizerSpec
from .pseudograd import AdaptivePivot, ScheduleError, soup
from .rng import MAX_SEED
from .synthlab import (
    DistributionSpec,
    TrialConfig,
    convergence_check,
    cycle_counterexample,
    cycle_ingredients,
    default_estimator_config,
    run_estimator_trials,
    soup_wlln,
)
from .verify import SUITES, run_suites
from .weightstore import (
    CheckpointError,
    SchemaMismatch,
    StoredMap,
    WeightMap,
    atomic_output,
    load_checkpoint,
    open_checkpoint,
    save_checkpoint,
)


class UsageError(ValueError):
    """Flag-level validation failure (exit code 1)."""


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _check_unchanged(stored: list[StoredMap]) -> None:
    """Before an output replaces its target: every open input still holds what was read."""
    for m in stored:
        m.check_unchanged()


# --- soup ------------------------------------------------------------------------


def cmd_soup(args) -> int:
    with ExitStack() as stack:
        maps = [stack.enter_context(open_checkpoint(path)) for path in args.inputs]
        merged = soup(maps)
        with atomic_output(args.output) as tmp:
            save_checkpoint(merged, tmp)
            _check_unchanged(maps)
    _say(args, f"souped {len(maps)} ingredients -> {args.output} ({len(merged)} tensors)")
    return 0


# --- merge / greedy ---------------------------------------------------------------


def _read_metrics_csv(path: str) -> dict[str, float]:
    metrics: dict[str, float] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["id", "metric"]:
            raise UsageError(f"{path}: metrics CSV must have header 'id,metric'")
        for row in reader:
            if None in row:
                raise UsageError(f"{path}: row of {row['id']!r} has more fields than 'id,metric'")
            if row["id"] in metrics:
                raise UsageError(f"{path}: id {row['id']!r} appears on more than one row")
            try:
                metric = float(row["metric"])
            except (TypeError, ValueError):
                metric = math.nan
            if not math.isfinite(metric):
                raise UsageError(
                    f"{path}: metric of {row['id']!r} must be a finite number, got {row['metric']!r}"
                )
            metrics[row["id"]] = metric
    return metrics


def _open_ingredients(
    cells: list[tuple[dict[str, Any], MergeConfig]], base_dir: str, stack: ExitStack
) -> list[Ingredient]:
    """Open the ingredient files in config order; `stack` closes them. The
    metrics CSV is read first, and every metric some cell's ordering needs
    is checked to be there, before any file is opened."""
    cfg = cells[0][1]  # every cell shares the ingredient list and metrics CSV
    metrics: dict[str, float] = {}
    if cfg.metrics_csv is not None:
        metrics = _read_metrics_csv(os.path.join(base_dir, cfg.metrics_csv))
    values = [entry.metric if entry.metric is not None else metrics.get(entry.id) for entry in cfg.ingredients]
    needing = [cell.ensemble.ordering for _, cell in cells if cell.ensemble.ordering != "given"]
    if needing and None in values:
        missing = cfg.ingredients[values.index(None)].id
        raise UsageError(f"ordering {needing[0]!r} requires metrics; missing for {missing!r}")
    ingredients = []
    for entry, metric in zip(cfg.ingredients, values):
        weights = stack.enter_context(open_checkpoint(os.path.join(base_dir, entry.path)))
        ingredients.append(Ingredient(id=entry.id, weights=weights, metric=metric))
    return ingredients


def _build_engine_config(cfg: MergeConfig, base_dir: str, ingredients: list[Ingredient]) -> EnsembleConfig:
    pivot_init = cfg.ensemble.pivot_init
    if cfg.pivot_init_path is not None:
        pivot_init = ProvidedInit(load_checkpoint(os.path.join(base_dir, cfg.pivot_init_path)))
    projection = None
    if cfg.projection is not None:
        if cfg.projection.center == "soup":
            center = soup([ing.weights for ing in ingredients])
        else:
            center = load_checkpoint(os.path.join(base_dir, cfg.projection.center))
        projection = Projection(center=center, radius=cfg.projection.radius)
    greedy = None
    if cfg.greedy.enabled:
        greedy = Greedy(load_checkpoint(os.path.join(base_dir, cfg.greedy.target_path)))
    return dataclasses.replace(cfg.ensemble, pivot_init=pivot_init, projection=projection, greedy=greedy)


def _run_merge_cell(
    cfg: MergeConfig, base_dir: str, out_dir: str, ingredients: list[Ingredient], workers: int
) -> tuple[str, str]:
    engine_cfg = _build_engine_config(cfg, base_dir, ingredients)
    merged, record = run_ensemble(engine_cfg, ingredients, workers=workers)
    out_ckpt = os.path.join(out_dir, cfg.out_checkpoint)
    out_log = os.path.join(out_dir, cfg.out_log)
    # Both files are complete before either replaces its predecessor.
    with atomic_output(out_ckpt) as tmp_ckpt, atomic_output(out_log) as tmp_log:
        save_checkpoint(merged, tmp_ckpt)
        record.to_csv(tmp_log)
        _check_unchanged([ing.weights for ing in ingredients])
    return out_ckpt, out_log


def cmd_merge(args) -> int:
    return _merge(args, enumerate_sweep(load_json(args.config)))


def cmd_greedy(args) -> int:
    cells = enumerate_sweep(load_json(args.config))
    if any(cfg.greedy.target_path is None for _, cfg in cells):
        raise UsageError("greedy requested but the config has no greedy evaluator")
    forced = [(overrides, dataclasses.replace(cfg, greedy=dataclasses.replace(cfg.greedy, enabled=True)))
              for overrides, cfg in cells]
    return _merge(args, forced)


def _merge(args, cells: list[tuple[dict[str, Any], MergeConfig]]) -> int:
    base_dir = os.path.dirname(os.path.abspath(args.config))
    out_dir = args.out if args.out is not None else base_dir

    # The ingredients stay open, one file each, until the merge ends.
    with ExitStack() as stack:
        if len(cells) == 1 and not cells[0][0]:
            ingredients = _open_ingredients(cells, base_dir, stack)
            out_ckpt, out_log = _run_merge_cell(cells[0][1], base_dir, out_dir, ingredients, _usable_cpus())
            _say(args, f"merged -> {out_ckpt} (log {out_log})")
            return 0

        def run_cell(overrides: dict[str, Any], cell_cfg: MergeConfig, workers: int) -> dict[str, Any]:
            """The cell's manifest fields besides its name and overrides: a
            plain dict, so that its error text is the same in any worker."""
            try:
                cell_dir = os.path.join(out_dir, sweep_cell_name(overrides))
                out_ckpt, out_log = _run_merge_cell(cell_cfg, base_dir, cell_dir, ingredients, workers)
            except Exception as exc:  # a failing cell must not abort the others
                return {"status": "error", "error": str(exc)}
            return {
                "status": "ok",
                "checkpoint": os.path.relpath(out_ckpt, out_dir),
                "log": os.path.relpath(out_log, out_dir),
            }

        # Sweep paths all start with "ensemble.", so every cell shares the
        # ingredient list and metrics CSV: open them once.
        ingredients: list[Ingredient] = []
        try:
            ingredients = _open_ingredients(cells, base_dir, stack)
        except UsageError:  # a config fault: no cell runs
            raise
        except Exception as exc:  # fails every cell, as it would if each cell opened them itself
            outcomes: list[Any] = [exc] * len(cells)
        else:
            workers = _sweep_workers(cells, ingredients)
            cell_workers = max(1, _usable_cpus() // workers)  # each sweep worker's share of the CPUs
            outcomes = run_in_workers([partial(run_cell, *cell, cell_workers) for cell in cells], workers)
        manifest: list[dict[str, Any]] = [
            {"cell": sweep_cell_name(overrides), "overrides": overrides,
             **({"status": "error", "error": str(outcome)} if isinstance(outcome, Exception) else outcome)}
            for (overrides, _), outcome in zip(cells, outcomes)
        ]
        failures = sum(entry["status"] != "ok" for entry in manifest)
        manifest_path = os.path.join(out_dir, "sweep_manifest.json")
        with atomic_output(manifest_path) as tmp:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
            _check_unchanged([ing.weights for ing in ingredients])
        for entry in manifest:
            _say(args, f"{entry['cell']}: {entry['status']}")
        _say(args, f"sweep: {len(manifest) - failures}/{len(manifest)} cells ok -> {manifest_path}")
        return 0 if failures == 0 else 2


def _cell_buffers(cfg: MergeConfig) -> int:
    """The model-size buffers a cell holds at its peak (see
    engine._trajectory): the iterate and the optimizer state, plus where the
    config has them a fixed or EMA pivot's copy of the initialization, a
    provided initialization, greedy's target and spare state, a projection's
    center, and the pre-step iterate of a greedy or projected run."""
    state = cfg.ensemble.optimizer.variant.state_buffers
    greedy = cfg.greedy.enabled
    projected = cfg.projection is not None
    buffers = 1 + state
    buffers += not isinstance(cfg.ensemble.pivot_policy, AdaptivePivot)
    buffers += cfg.pivot_init_path is not None
    buffers += 1 + state if greedy else 0
    buffers += projected
    buffers += greedy or projected
    return buffers


def _cgroup_dirs(proc: str = "/proc/self") -> list[str]:
    """This process's cgroup v2 directory and its ancestors up to the mount
    of the v2 hierarchy, innermost first; [] where there is none to read."""
    try:
        with open(os.path.join(proc, "cgroup"), encoding="utf-8") as fh:
            paths = [line[3:].rstrip("\n") for line in fh if line.startswith("0::")]
        with open(os.path.join(proc, "mountinfo"), encoding="utf-8") as fh:
            mounts = [line.split() for line in fh if " - cgroup2 " in line]
    except OSError:
        return []
    if not paths or not mounts:
        return []
    root, mount = mounts[0][3], mounts[0][4]  # the mounted subtree, and where
    relative = os.path.relpath(paths[0], root)
    if relative.startswith(".."):  # this cgroup lies outside the mounted subtree
        return []
    directory = os.path.normpath(os.path.join(mount, relative))
    dirs = [directory]
    while directory != mount:
        directory = os.path.dirname(directory)
        dirs.append(directory)
    return dirs


def _cgroup_values(directory: str, name: str) -> list[str] | None:
    """The fields of the cgroup file `name` in `directory`, or None if it cannot be read."""
    try:
        with open(os.path.join(directory, name), encoding="ascii") as fh:
            return fh.read().split()
    except OSError:
        return None


def _usable_cpus() -> int:
    """The CPUs this process may run on (1 where the platform does not say),
    as many as the cpu.max quotas of its cgroups grant whole."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    for directory in _cgroup_dirs():
        quota = _cgroup_values(directory, "cpu.max")  # "<quota> <period>" or "max <period>"
        if quota and quota[0] != "max":
            cpus = min(cpus, max(1, int(quota[0]) // int(quota[1])))
    return cpus


def _available_memory() -> int:
    """Bytes of memory the kernel reports as available (MemAvailable), or 0
    if it reports none, and no more than any of this process's cgroups has
    left below its memory.max (the page cache counts against that, so the
    cap errs toward fewer workers)."""
    available = 0
    try:
        with open("/proc/meminfo", "rb") as fh:
            for line in fh:
                if line.startswith(b"MemAvailable:"):
                    available = int(line.split()[1]) * 1024
                    break
    except OSError:
        pass
    for directory in _cgroup_dirs():
        limit = _cgroup_values(directory, "memory.max")
        used = _cgroup_values(directory, "memory.current")
        if limit and used and limit[0] != "max":
            available = min(available, max(0, int(limit[0]) - int(used[0])))
    return available


def _sweep_workers(
    cells: list[tuple[dict[str, Any], MergeConfig]], ingredients: list[Ingredient]
) -> int:
    """Processes to run the sweep's cells in: one per usable CPU, at most one
    per cell, and only as many as hold their cells' buffers at once in the
    available memory."""
    workers = min(len(cells), _usable_cpus())
    if workers > 1:
        cell_bytes = 4 * ingredients[0].weights.num_elements() * max(
            _cell_buffers(cfg) for _, cfg in cells
        )
        if cell_bytes > 0:
            workers = min(workers, _available_memory() // cell_bytes)
    return max(workers, 1)


# --- synth -----------------------------------------------------------------------------


def cmd_synth_estimators(args) -> int:
    _require(args.workers >= 1, f"--workers must be >= 1, got {args.workers}")
    base = default_estimator_config(args.dist, seed=args.seed)
    optimizer = base.optimizer
    # Building the optimizer and the trial config checks every other flag.
    try:
        if args.lr is not None or args.beta1 is not None or args.beta2 is not None or args.eps is not None:
            from .optim import Adam
            from .pseudograd import Constant

            variant: Adam = base.optimizer.variant
            optimizer = OptimizerSpec(
                Adam(
                    lr=Constant(args.lr if args.lr is not None else variant.lr.value),
                    beta1=args.beta1 if args.beta1 is not None else variant.beta1,
                    beta2=args.beta2 if args.beta2 is not None else variant.beta2,
                    eps=args.eps if args.eps is not None else variant.eps,
                )
            )
        cfg = TrialConfig(
            distribution=DistributionSpec(kind=args.dist),
            optimizer=optimizer,
            population_size=args.population,
            subsample_size=args.subsample,
            trials=args.trials,
            init_point=(args.init_x, args.init_y),
            batch_size=args.batch_size,
            ensemble_epochs=args.epochs,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # The rows do not depend on the worker count; more workers than CPUs only cost memory.
    result = run_estimator_trials(cfg, workers=min(args.workers, _usable_cpus()))
    with atomic_output(args.output) as tmp:
        result.to_csv(tmp)
    _say(
        args,
        f"{args.trials} trials -> {args.output}; median distance to reference: "
        f"soup {result.median_dist_soup():.4f}, merged {result.median_dist_ame():.4f}",
    )
    return 0


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def cmd_synth_cycle(args) -> int:
    _require(args.k > 0 and args.omega > 0, f"--k and --omega must be > 0, got {args.k} and {args.omega}")
    _require(args.cycles >= 1, f"--cycles must be >= 1, got {args.cycles}")
    result = cycle_counterexample(k=args.k, omega=args.omega, cycles=args.cycles)
    with atomic_output(args.output) as tmp:
        result.to_csv(tmp)
    _say(
        args,
        f"{4 * args.cycles} steps -> {args.output}; return error {result.return_error():.3e}, "
        f"max l1 drift {result.max_l1_drift():.3e}",
    )
    return 0


def cmd_synth_convergence(args) -> int:
    _require(args.alpha < -1, f"--alpha must be < -1, got {args.alpha}")
    _require(args.c > 0, f"--c must be > 0, got {args.c}")
    _require(args.steps >= 10, f"--steps must be >= 10, got {args.steps}")
    _require(args.k > 0 and args.omega > 0, f"--k and --omega must be > 0, got {args.k} and {args.omega}")
    pts = cycle_ingredients(args.k, args.omega)
    trajectory, report = convergence_check(
        alpha=args.alpha,
        c=args.c,
        ingredients=pts,
        steps=args.steps,
        init=np.array([args.omega, 0.0]),
    )
    if args.output is not None:
        with atomic_output(args.output) as tmp, open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "x", "y", "l1_norm"])
            for step, pt in enumerate(trajectory):
                writer.writerow(
                    [step, repr(float(pt[0])), repr(float(pt[1])), repr(float(abs(pt[0]) + abs(pt[1])))]
                )
    _say(
        args,
        f"tail displacement {report.max_tail_displacement:.3e} vs bound {report.tail_bound:.3e} "
        f"(radius {report.radius:.4f}, cap {report.cap:.4f}): "
        f"{'converged' if report.converged else 'NOT converged'}",
    )
    return 0 if report.converged else 2


def cmd_synth_wlln(args) -> int:
    _require(args.dist != "cauchy", "first moment undefined for the Cauchy family; soups do not converge")
    try:
        sizes = [int(size) for size in args.sizes.split(",")]
    except ValueError:
        raise UsageError(f"--sizes must be a comma-separated list of integers, got {args.sizes!r}") from None
    _require(min(sizes) >= 1, f"--sizes must all be >= 1, got {args.sizes}")
    _require(args.trials >= 1, f"--trials must be >= 1, got {args.trials}")
    _require(args.epsilon > 0, f"--epsilon must be > 0, got {args.epsilon}")
    result = soup_wlln(
        DistributionSpec(kind=args.dist),
        sizes=sizes,
        trials=args.trials,
        seed=args.seed,
        epsilon=args.epsilon,
    )
    with atomic_output(args.output) as tmp:
        result.to_csv(tmp)
    _say(args, "coverage: " + ", ".join(f"n={n}: {f:.3f}" for n, f in result.rows))
    return 0


# --- fed -------------------------------------------------------------------------------


def _point_map(values: tuple[float, ...] | None, path: str | None, base_dir: str) -> WeightMap:
    if values is not None:
        return WeightMap({"w": np.asarray(values, dtype=np.float32)})
    return load_checkpoint(os.path.join(base_dir, path))


def cmd_fed(args) -> int:
    cfg: FedRunConfig = parse_fed_config(load_json(args.config))
    base_dir = os.path.dirname(os.path.abspath(args.config))
    out_dir = args.out if args.out is not None else base_dir

    clients = tuple(
        ClientSpec(
            id=c.id,
            objective_center=_point_map(c.center_values, c.center_path, base_dir),
            local_optimizer=c.optimizer,
            local_steps=c.local_steps,
        )
        for c in cfg.clients
    )
    fed_cfg = FedConfig(
        clients=clients,
        init=_point_map(cfg.init_values, cfg.init_path, base_dir),
        rounds=cfg.rounds,
        sample_size=cfg.sample_size,
        seed=cfg.seed,
        server=cfg.server,
        client_soup=cfg.client_soup,
        server_stew=cfg.server_stew,
    )
    result = simulate_fedopt(fed_cfg) if cfg.algorithm == "fedopt" else simulate_fedsoup(fed_cfg)
    out_log = os.path.join(out_dir, cfg.out_log)
    out_ckpt = os.path.join(out_dir, cfg.out_checkpoint)
    # Both files are complete before either replaces its predecessor.
    with atomic_output(out_log) as tmp_log, atomic_output(out_ckpt) as tmp_ckpt:
        result.to_csv(tmp_log)
        save_checkpoint(result.final, tmp_ckpt)
    _say(
        args,
        f"{cfg.algorithm}: {cfg.rounds} rounds -> {out_ckpt}; final distance to center mean "
        f"{result.rounds[-1].distance_to_center_mean:.6f}",
    )
    return 0


# --- verify -----------------------------------------------------------------------------


def cmd_verify(args) -> int:
    results = run_suites([args.suite])
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        _say(args, f"{status}  {r.name:<{width}}  {r.detail}")
    if failures:
        _say(args, f"{failures}/{len(results)} suites failed")
        return 1
    _say(args, f"all {len(results)} suites passed")
    return 0


# --- parser -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soupstock",
        description="Data-free model merging: souping, pseudogradient meta-optimization, "
        "synthetic and federated verification labs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=False):
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.add_argument("--out", default=None, help="output directory override")
        if config:
            p.add_argument("--config", required=True, help="JSON run configuration")

    p_soup = sub.add_parser("soup", help="uniform average of compatible checkpoints")
    p_soup.add_argument("inputs", nargs="+", help="ingredient checkpoint files")
    p_soup.add_argument("-o", "--output", required=True, help="output checkpoint path")
    p_soup.add_argument("--quiet", action="store_true")
    p_soup.set_defaults(func=cmd_soup)

    p_merge = sub.add_parser("merge", help="run a configured ensemble merge (or a sweep)")
    add_common(p_merge, config=True)
    p_merge.set_defaults(func=cmd_merge)

    p_greedy = sub.add_parser("greedy", help="merge with greedy acceptance forced on")
    add_common(p_greedy, config=True)
    p_greedy.set_defaults(func=cmd_greedy)

    p_synth = sub.add_parser("synth", help="synthetic verification labs")
    synth_sub = p_synth.add_subparsers(dest="lab", required=True)

    p_est = synth_sub.add_parser("estimators", help="subsample-and-merge estimator trials")
    p_est.add_argument("--dist", choices=["gaussian", "cauchy"], required=True)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--population", type=int, default=60000)
    p_est.add_argument("--subsample", type=int, default=300)
    p_est.add_argument("--trials", type=int, default=300)
    p_est.add_argument("--batch-size", type=int, default=20)
    p_est.add_argument("--epochs", type=int, default=200)
    p_est.add_argument("--init-x", type=float, default=10.0)
    p_est.add_argument("--init-y", type=float, default=10.0)
    p_est.add_argument("--lr", type=float, default=None, help="default 0.1 cauchy / 0.01 gaussian")
    p_est.add_argument("--beta1", type=float, default=None, help="default 0.2")
    p_est.add_argument("--beta2", type=float, default=None, help="default 0.2")
    p_est.add_argument("--eps", type=float, default=None, help="default 1e-8")
    p_est.add_argument("--workers", type=int, default=1)
    p_est.add_argument("-o", "--output", default="estimators.csv")
    p_est.add_argument("--quiet", action="store_true")
    p_est.set_defaults(func=cmd_synth_estimators)

    p_cycle = synth_sub.add_parser("cycle", help="constant-step cycling dynamics")
    p_cycle.add_argument("--k", type=float, default=1.0)
    p_cycle.add_argument("--omega", type=float, default=1.0)
    p_cycle.add_argument("--cycles", type=int, default=2500)
    p_cycle.add_argument("-o", "--output", default="cycle.csv")
    p_cycle.add_argument("--quiet", action="store_true")
    p_cycle.set_defaults(func=cmd_synth_cycle)

    p_conv = synth_sub.add_parser("convergence", help="decaying-schedule tail-bound check")
    p_conv.add_argument("--alpha", type=float, default=-1.5)
    p_conv.add_argument("--c", type=float, default=1.0)
    p_conv.add_argument("--steps", type=int, default=100000)
    p_conv.add_argument("--k", type=float, default=1.0)
    p_conv.add_argument("--omega", type=float, default=1.0)
    p_conv.add_argument("-o", "--output", default=None)
    p_conv.add_argument("--quiet", action="store_true")
    p_conv.set_defaults(func=cmd_synth_convergence)

    p_wlln = synth_sub.add_parser("wlln", help="soup coverage over growing sample sizes")
    p_wlln.add_argument("--dist", choices=["gaussian", "cauchy"], default="gaussian")
    p_wlln.add_argument("--sizes", default="10,100,1000,10000")
    p_wlln.add_argument("--trials", type=int, default=200)
    p_wlln.add_argument("--seed", type=int, default=0)
    p_wlln.add_argument("--epsilon", type=float, default=0.1)
    p_wlln.add_argument("-o", "--output", default="wlln.csv")
    p_wlln.add_argument("--quiet", action="store_true")
    p_wlln.set_defaults(func=cmd_synth_wlln)

    p_fed = sub.add_parser("fed", help="federated protocol simulators")
    add_common(p_fed, config=True)
    p_fed.set_defaults(func=cmd_fed)

    p_verify = sub.add_parser("verify", help="built-in verification suites")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--quiet", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _check_flags(args) -> None:
    """Every float flag (the synth labs' parameters) must be a finite number,
    and a --seed must fit the 64-bit word it keys the random streams with."""
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{dest.replace('_', '-')} must be a finite number, got {value}")
    seed = getattr(args, "seed", 0)
    if not 0 <= seed <= MAX_SEED:
        raise UsageError(f"--seed must be in [0, {MAX_SEED}], got {seed}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CheckpointError, SchemaMismatch, EngineError, ScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
