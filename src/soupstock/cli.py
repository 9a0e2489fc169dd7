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

A merge opens each file it names once, the ingredients first and in config
order, and builds every cell's engine config before any cell runs. A sweep
runs its cells in up to one worker per usable CPU, as many as the cells'
peaks (``engine.cell_bytes``) fit into the memory available; if the
ingredients fail to open, every cell fails with that error, and a cell whose
own file fails to open fails alone. Each cell is one task of
``engine.run_in_workers``; its worker writes its outputs and returns its
manifest entry, or the cell fails with the worker's exit status. A
single-cell merge is not a sweep and runs here directly. Every cell is one
``engine.run_ensemble`` call, given as many tile workers as the usable CPUs
for a single cell, and the usable CPUs divided by the sweep's workers (at
least one) for each cell of a sweep. ``synth estimators`` runs one chunk of
trials per worker, at most one per usable CPU. Worker 0 is this process, and
``engine.run_in_workers`` forks the others, or, while other threads run,
runs every task here. No output depends on the number of workers.
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
from typing import Any, Callable

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
    EnsembleConfig,
    Greedy,
    Ingredient,
    Projection,
    ProvidedInit,
    _outcome,
    cell_bytes,
    run_ensemble,
    run_in_workers,
)
from .fedlab import ClientSpec, FedConfig, simulate_fedopt, simulate_fedsoup
from .optim import OptimizerSpec
from .pseudograd import Constant, soup
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
    StoredMap,
    WeightMap,
    open_checkpoint,
    publish,
    save_checkpoint,
    validate_compatible,
    write_csv,
)


class UsageError(ValueError):
    """Flag-level validation failure (exit code 1)."""


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# --- soup ------------------------------------------------------------------------


def cmd_soup(args) -> int:
    with ExitStack() as stack:
        maps = [stack.enter_context(open_checkpoint(path)) for path in args.inputs]
        validate_compatible(maps, args.inputs)
        merged = soup(maps)
        publish({args.output: partial(save_checkpoint, merged)}, maps)
    _say(args, f"souped {len(maps)} ingredients -> {args.output} ({len(merged)} tensors)")
    return 0


# --- merge / greedy ---------------------------------------------------------------


def _read_metrics_csv(path: str) -> dict[str, float]:
    metrics: dict[str, float] = {}
    with open(path, encoding="utf-8-sig", newline="") as fh:  # as written with or without a BOM
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
    cells: list[tuple[dict[str, Any], MergeConfig]], base_dir: str, open_map: Callable[[str], StoredMap]
) -> list[Ingredient]:
    """Open the ingredient files in config order with `open_map`. The
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
    ingredients = [Ingredient(id=entry.id, weights=open_map(entry.path), metric=metric)
                   for entry, metric in zip(cfg.ingredients, values)]
    # One check for every cell (a sweep is sized from the first's size), naming each by id as the engine does.
    validate_compatible([ing.weights for ing in ingredients], [f"ingredient {ing.id!r}" for ing in ingredients])
    return ingredients


def _build_engine_config(cfg: MergeConfig, open_map: Callable[[str], StoredMap]) -> EnsembleConfig:
    """The cell's engine config, each file it names opened by `open_map` and
    left in its file; the engine builds a "soup" centre itself."""
    provided = cfg.pivot_init_path is not None
    pivot_init = ProvidedInit(open_map(cfg.pivot_init_path)) if provided else cfg.ensemble.pivot_init
    projection = None
    if cfg.projection is not None:
        center = None if cfg.projection.center == "soup" else open_map(cfg.projection.center)
        projection = Projection(center=center, radius=cfg.projection.radius)
    greedy = Greedy(open_map(cfg.greedy.target_path)) if cfg.greedy.enabled else None
    return dataclasses.replace(cfg.ensemble, pivot_init=pivot_init, projection=projection, greedy=greedy)


def _run_merge_cell(
    cfg: MergeConfig, engine_cfg: EnsembleConfig, out_dir: str, ingredients: list[Ingredient], workers: int
) -> tuple[str, str]:
    out_ckpt = os.path.join(out_dir, cfg.out_checkpoint)
    out_log = os.path.join(out_dir, cfg.out_log)
    merged, record = run_ensemble(engine_cfg, ingredients, workers=workers)
    init, projection, greedy = engine_cfg.pivot_init, engine_cfg.projection, engine_cfg.greedy
    named = [getattr(init, "weights", None), projection and projection.center, greedy and greedy.target]
    publish({out_ckpt: partial(save_checkpoint, merged), out_log: record.to_csv},
            [ing.weights for ing in ingredients] + [m for m in named if isinstance(m, StoredMap)])
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


def _check_outputs(outputs: list[tuple[str, str]], inputs: list[tuple[str, str | None]], base_dir: str) -> None:
    """Raise one ConfigError naming every output (what, path) whose real path
    is an output's before it or an input's (what, path under base_dir, or
    None). A merge checkpoint may replace an ingredient: the merge reads the
    file it opened, which the rename leaves in place."""
    errors: list[str] = []
    taken = list(dict.fromkeys((what, os.path.realpath(os.path.join(base_dir, path)))
                               for what, path in inputs if path is not None))
    for what, path in outputs:
        path = os.path.realpath(path)
        for other, at in taken:
            if at == path and not (what.endswith("checkpoint") and other.startswith("ingredient")):
                errors.append(f"{what} and {other} share the path {path}")
        taken.append((what, path))
    if errors:
        raise ConfigError(errors)


def _check_merge_outputs(cells: list[tuple[dict[str, Any], MergeConfig]], base_dir: str, out_dir: str) -> None:
    """Check every cell's outputs (in a sweep, each under its cell's
    directory) and the sweep manifest against one another and the inputs."""
    sweep = bool(cells[0][0])
    first = cells[0][1]  # every cell shares the ingredient list and metrics CSV
    inputs = [(f"ingredient {entry.id!r}", entry.path) for entry in first.ingredients]
    inputs.append(("metrics_csv", first.metrics_csv))
    outputs = [("sweep_manifest.json", os.path.join(out_dir, "sweep_manifest.json"))] if sweep else []
    for overrides, cfg in cells:
        center = cfg.projection.center if cfg.projection is not None else "soup"
        inputs += [("ensemble.pivot_init", cfg.pivot_init_path),
                   ("ensemble.projection.center", None if center == "soup" else center),
                   ("ensemble.greedy.evaluator.target", cfg.greedy.target_path if cfg.greedy.enabled else None)]
        cell = sweep_cell_name(overrides) if sweep else ""
        outputs += [(f"{cell} output.{key}".lstrip(), os.path.join(out_dir, cell, path))
                    for key, path in (("checkpoint", cfg.out_checkpoint), ("log", cfg.out_log))]
    _check_outputs(outputs, inputs, base_dir)


def _merge(args, cells: list[tuple[dict[str, Any], MergeConfig]]) -> int:
    base_dir = os.path.dirname(os.path.abspath(args.config))
    out_dir = args.out if args.out is not None else base_dir
    _check_merge_outputs(cells, base_dir, out_dir)

    # Every file the merge names is opened once, ingredients first, and stays open until the merge ends.
    with ExitStack() as stack:
        opened: dict[str, StoredMap | Exception] = {}
        stack.callback(lambda: [m.close() for m in opened.values() if isinstance(m, StoredMap)])

        def open_map(path: str) -> StoredMap:
            path = os.path.join(base_dir, path)
            if path not in opened:  # a failure is kept, and raised for each cell that names the file
                opened[path] = _outcome(partial(open_checkpoint, path))
            if isinstance(opened[path], Exception):
                raise opened[path]
            return opened[path]

        if len(cells) == 1 and not cells[0][0]:
            ingredients = _open_ingredients(cells, base_dir, open_map)
            engine_cfg = _build_engine_config(cells[0][1], open_map)
            out_ckpt, out_log = _run_merge_cell(cells[0][1], engine_cfg, out_dir, ingredients, _usable_cpus())
            _say(args, f"merged -> {out_ckpt} (log {out_log})")
            return 0

        def run_cell(overrides: dict[str, Any], cell_cfg: MergeConfig, engine_cfg: EnsembleConfig | Exception,
                     workers: int) -> dict[str, Any]:
            """The cell's manifest fields besides its name and overrides: a
            plain dict, so that its error text is the same in any worker."""
            try:
                if isinstance(engine_cfg, Exception):  # a file the cell names failed to open
                    raise engine_cfg
                cell_dir = os.path.join(out_dir, sweep_cell_name(overrides))
                out_ckpt, out_log = _run_merge_cell(cell_cfg, engine_cfg, cell_dir, ingredients, workers)
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
            ingredients = _open_ingredients(cells, base_dir, open_map)
        except UsageError:  # a config fault: no cell runs
            raise
        except Exception as exc:  # fails every cell, as it would if each cell opened them itself
            outcomes: list[Any] = [exc] * len(cells)
        else:
            configs = [_outcome(partial(_build_engine_config, cell_cfg, open_map)) for _, cell_cfg in cells]
            built = [engine_cfg for engine_cfg in configs if not isinstance(engine_cfg, Exception)]
            workers = _sweep_workers(built, ingredients[0].weights.num_elements())
            cell_workers = max(1, _usable_cpus() // workers)  # each sweep worker's share of the CPUs
            tasks = [partial(run_cell, *cell, engine_cfg, cell_workers) for cell, engine_cfg in zip(cells, configs)]
            outcomes = run_in_workers(tasks, workers)
        manifest: list[dict[str, Any]] = [
            {"cell": sweep_cell_name(overrides), "overrides": overrides,
             **({"status": "error", "error": str(outcome)} if isinstance(outcome, Exception) else outcome)}
            for (overrides, _), outcome in zip(cells, outcomes)
        ]
        failures = sum(entry["status"] != "ok" for entry in manifest)
        manifest_path = os.path.join(out_dir, "sweep_manifest.json")

        def write_manifest(path: str) -> None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
        publish({manifest_path: write_manifest}, [m for m in opened.values() if isinstance(m, StoredMap)])
        for entry in manifest:
            _say(args, f"{entry['cell']}: {entry['status']}")
        _say(args, f"sweep: {len(manifest) - failures}/{len(manifest)} cells ok -> {manifest_path}")
        return 0 if failures == 0 else 2


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


def _sweep_workers(configs: list[EnsembleConfig], size: int) -> int:
    """Processes to run the sweep's cells in: one per usable CPU and cell at
    most, and only as many, W, as hold W times the largest cell's peak in the
    available memory (``engine.cell_bytes``, its tiles on its share of the CPUs)."""
    cpus, available = _usable_cpus(), _available_memory()
    for workers in range(min(len(configs), cpus), 1, -1):
        if workers * max(cell_bytes(cfg, size, cpus // workers) for cfg in configs) <= available:
            return workers
    return 1


# --- synth -----------------------------------------------------------------------------


def cmd_synth_estimators(args) -> int:
    _require(args.workers >= 1, f"--workers must be >= 1, got {args.workers}")
    base = default_estimator_config(args.dist, seed=args.seed)
    # The Adam flags given replace the reference rule's fields; the rest stay.
    given = {k: v for k, v in vars(args).items() if k in ("beta1", "beta2", "eps") and v is not None}
    if args.lr is not None:
        given["lr"] = Constant(args.lr)
    # Building the optimizer and the trial config checks every other flag.
    try:
        cfg = TrialConfig(
            distribution=DistributionSpec(kind=args.dist),
            optimizer=OptimizerSpec(dataclasses.replace(base.optimizer.variant, **given)),
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
    publish({args.output: result.to_csv})
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
    publish({args.output: result.to_csv})
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
        rows = ((step, x, y, abs(x) + abs(y)) for step, (x, y) in enumerate(trajectory))
        publish({args.output: partial(write_csv, header=["step", "x", "y", "l1_norm"], rows=rows)})
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
    publish({args.output: result.to_csv})
    _say(args, "coverage: " + ", ".join(f"n={n}: {f:.3f}" for n, f in result.rows))
    return 0


# --- fed -------------------------------------------------------------------------------


def cmd_fed(args) -> int:
    cfg: FedRunConfig = parse_fed_config(load_json(args.config))
    base_dir = os.path.dirname(os.path.abspath(args.config))
    out_dir = args.out if args.out is not None else base_dir
    out_log = os.path.join(out_dir, cfg.out_log)
    out_ckpt = os.path.join(out_dir, cfg.out_checkpoint)
    points = [("init", cfg.init_path), *((f"client {c.id!r} center", c.center_path) for c in cfg.clients)]
    _check_outputs([("output.log", out_log), ("output.checkpoint", out_ckpt)], points, base_dir)

    # A point file stays open until the outputs are written, and is checked unchanged then.
    with ExitStack() as stack:
        opened: list[StoredMap] = []

        def point(values: tuple[float, ...] | None, path: str | None) -> WeightMap:
            if values is not None:
                return WeightMap({"w": np.asarray(values, dtype=np.float32)})
            opened.append(stack.enter_context(open_checkpoint(os.path.join(base_dir, path))))
            return opened[-1].load()

        clients = tuple(
            ClientSpec(
                id=c.id,
                objective_center=point(c.center_values, c.center_path),
                local_optimizer=c.optimizer,
                local_steps=c.local_steps,
            )
            for c in cfg.clients
        )
        fed_cfg = FedConfig(
            clients=clients,
            init=point(cfg.init_values, cfg.init_path),
            rounds=cfg.rounds,
            sample_size=cfg.sample_size,
            seed=cfg.seed,
            server=cfg.server,
            client_soup=cfg.client_soup,
            server_stew=cfg.server_stew,
        )
        result = simulate_fedopt(fed_cfg) if cfg.algorithm == "fedopt" else simulate_fedsoup(fed_cfg)
        publish({out_log: result.to_csv, out_ckpt: partial(save_checkpoint, result.final)}, opened)
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
    quiet = argparse.ArgumentParser(add_help=False)  # a parent of every leaf command
    quiet.add_argument("--quiet", action="store_true", help="suppress progress output")
    configured = argparse.ArgumentParser(add_help=False, parents=[quiet])  # merge, greedy, fed
    configured.add_argument("--out", default=None, help="output directory override")
    configured.add_argument("--config", required=True, help="JSON run configuration")

    p_soup = sub.add_parser("soup", parents=[quiet], help="uniform average of compatible checkpoints")
    p_soup.add_argument("inputs", nargs="+", help="ingredient checkpoint files")
    p_soup.add_argument("-o", "--output", required=True, help="output checkpoint path")
    p_soup.set_defaults(func=cmd_soup)

    p_merge = sub.add_parser("merge", parents=[configured], help="run a configured ensemble merge (or a sweep)")
    p_merge.set_defaults(func=cmd_merge)

    p_greedy = sub.add_parser("greedy", parents=[configured], help="merge with greedy acceptance forced on")
    p_greedy.set_defaults(func=cmd_greedy)

    p_synth = sub.add_parser("synth", help="synthetic verification labs")
    synth_sub = p_synth.add_subparsers(dest="lab", required=True)

    p_est = synth_sub.add_parser("estimators", parents=[quiet], help="subsample-and-merge estimator trials")
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
    p_est.set_defaults(func=cmd_synth_estimators)

    p_cycle = synth_sub.add_parser("cycle", parents=[quiet], help="constant-step cycling dynamics")
    p_cycle.add_argument("--k", type=float, default=1.0)
    p_cycle.add_argument("--omega", type=float, default=1.0)
    p_cycle.add_argument("--cycles", type=int, default=2500)
    p_cycle.add_argument("-o", "--output", default="cycle.csv")
    p_cycle.set_defaults(func=cmd_synth_cycle)

    p_conv = synth_sub.add_parser("convergence", parents=[quiet], help="decaying-schedule tail-bound check")
    p_conv.add_argument("--alpha", type=float, default=-1.5)
    p_conv.add_argument("--c", type=float, default=1.0)
    p_conv.add_argument("--steps", type=int, default=100000)
    p_conv.add_argument("--k", type=float, default=1.0)
    p_conv.add_argument("--omega", type=float, default=1.0)
    p_conv.add_argument("-o", "--output", default=None)
    p_conv.set_defaults(func=cmd_synth_convergence)

    p_wlln = synth_sub.add_parser("wlln", parents=[quiet], help="soup coverage over growing sample sizes")
    p_wlln.add_argument("--dist", choices=["gaussian", "cauchy"], default="gaussian")
    p_wlln.add_argument("--sizes", default="10,100,1000,10000")
    p_wlln.add_argument("--trials", type=int, default=200)
    p_wlln.add_argument("--seed", type=int, default=0)
    p_wlln.add_argument("--epsilon", type=float, default=0.1)
    p_wlln.add_argument("-o", "--output", default="wlln.csv")
    p_wlln.set_defaults(func=cmd_synth_wlln)

    p_fed = sub.add_parser("fed", parents=[configured], help="federated protocol simulators")
    p_fed.set_defaults(func=cmd_fed)

    p_verify = sub.add_parser("verify", parents=[quiet], help="built-in verification suites")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
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
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
