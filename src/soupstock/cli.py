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
order, and builds every cell's engine config before any cell runs. Its
cells, one for a single merge (written to --out, with no manifest), run in
up to one worker per usable CPU, as many as the cells' peaks
(``engine.cell_bytes``) fit into the memory available; if the ingredients
fail to open, every cell fails with that error, and a cell whose own file
fails to open fails alone. Each cell is one task of
``engine.run_in_workers``; its worker writes its outputs and returns their
paths, or the cell fails with the exception it raised or the worker's exit
status. A sweep's manifest records each failure, and a single merge raises
its cell's. Every cell is one ``engine.run_ensemble`` call, given the usable
CPUs divided by the merge's workers (at least one) as tile workers.
``synth estimators`` runs one chunk of trials per worker, at most one per
usable CPU. Worker 0 is this process, and ``engine.run_in_workers`` forks
the others, or, while other threads run, runs every task here. No output
depends on the number of workers.

A parsed config names each file as a ``config.FileRef``: ``_found`` lists
them for the check that no output lands on an input, and ``_replaced`` opens them.

Each command imports only the modules it runs: ``engine`` (and with it
``optim``), ``config``, the labs (``synthlab``, ``fedlab``) and ``verify``
are imported by the commands that use them, so ``soup`` loads none of them,
``merge`` and ``greedy`` load no lab, and ``synth`` loads neither ``fedlab``
nor ``config``. Once its own imports are done,
this module freezes the collector's view of them (``gc.freeze``), since they
live until exit.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import math
import os
import sys
from contextlib import ExitStack
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .pseudograd import Constant, soup
from .rng import MAX_SEED
from .weightstore import (
    StoredMap,
    open_checkpoint,
    publish,
    save_checkpoint,
    validate_compatible,
    write_csv,
)

if TYPE_CHECKING:
    from .config import FileRef, MergeConfig
    from .engine import EnsembleConfig, Ingredient

# What is imported by now lives until exit: about 22,000 objects the collector
# tracks, most of them numpy's. Frozen, they are skipped by every later
# collection, the one at interpreter shutdown included, and a forked worker's
# collections leave the pages it shares with this process alone.
gc.freeze()

# The names of verify.SUITES, so that building the parser does not import verify.
_SUITE_NAMES = ["adagrad-gd", "convergence", "cycle", "fed-reduction", "soup-eq"]


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


def _found(obj: Any, kind: type) -> list[Any]:
    """Every `kind` in `obj`: obj itself, or each in its tuples and dataclass
    fields, in order."""
    if isinstance(obj, kind):
        return [obj]
    return [found for item in _items(obj) for found in _found(item, kind)]


def _replaced(obj: Any, kind: type, new: Callable[[Any], Any]) -> Any:
    """`obj` with each `kind` in it (see :func:`_found`) replaced by new(it);
    what holds none is returned as it is."""
    if isinstance(obj, kind):
        return new(obj)
    items = _items(obj)
    replaced = tuple(_replaced(item, kind, new) for item in items)
    if all(a is b for a, b in zip(replaced, items)):
        return obj
    if isinstance(obj, tuple):
        return replaced
    changed = zip(dataclasses.fields(obj), replaced, items)
    return dataclasses.replace(obj, **{f.name: new for f, new, old in changed if new is not old})


def _items(obj: Any) -> tuple:
    """The items of a tuple or the field values of a dataclass instance; () for anything else."""
    if isinstance(obj, tuple):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return ()


def _open_ingredients(
    cells: list[tuple[dict[str, Any], MergeConfig]], base_dir: str, open_map: Callable[[FileRef], StoredMap]
) -> tuple[Ingredient, ...]:
    """Open the ingredient files in config order with `open_map`. The
    metrics CSV is read first, and every metric some cell's ordering needs
    is checked to be there, before any file is opened."""
    from .config import FileRef

    cfg = cells[0][1]  # every cell shares the ingredient list and metrics CSV
    metrics: dict[str, float] = {}
    if cfg.metrics_csv is not None:
        metrics = _read_metrics_csv(os.path.join(base_dir, cfg.metrics_csv.path))
    ingredients = tuple(ing if ing.metric is not None else dataclasses.replace(ing, metric=metrics.get(ing.id))
                        for ing in cfg.ingredients)
    needing = [cell.ensemble.ordering for _, cell in cells if cell.ensemble.ordering != "given"]
    missing = [ing.id for ing in ingredients if ing.metric is None]
    if needing and missing:
        raise UsageError(f"ordering {needing[0]!r} requires metrics; missing for {missing[0]!r}")
    ingredients = _replaced(ingredients, FileRef, open_map)
    # One check for every cell (a sweep is sized from the first's size), naming each by id as the engine does.
    validate_compatible([ing.weights for ing in ingredients], [f"ingredient {ing.id!r}" for ing in ingredients])
    return ingredients


def _run_merge_cell(cfg: MergeConfig, engine_cfg: EnsembleConfig | Exception, out_dir: str,
                    ingredients: tuple[Ingredient, ...], workers: int) -> tuple[str, str]:
    """Run the cell into out_dir and return its (checkpoint, log) paths, or
    raise the exception given for its engine config (a file it names failed to open)."""
    from .engine import run_ensemble

    if isinstance(engine_cfg, Exception):
        raise engine_cfg
    out_ckpt = os.path.join(out_dir, cfg.out_checkpoint)
    out_log = os.path.join(out_dir, cfg.out_log)
    merged, record = run_ensemble(engine_cfg, ingredients, workers=workers)
    publish({out_ckpt: partial(save_checkpoint, merged), out_log: record.to_csv},
            _found((ingredients, engine_cfg), StoredMap))
    return out_ckpt, out_log


def cmd_merge(args) -> int:
    from .config import enumerate_sweep, load_json

    return _merge(args, enumerate_sweep(load_json(args.config)))


def cmd_greedy(args) -> int:
    from .config import enumerate_sweep, load_json
    from .engine import Greedy

    cells = enumerate_sweep(load_json(args.config))
    if any(cfg.evaluator is None for _, cfg in cells):
        raise UsageError("greedy requested but the config has no greedy evaluator")
    forced = []
    for overrides, cfg in cells:
        ensemble = dataclasses.replace(cfg.ensemble, greedy=Greedy(cfg.evaluator))
        forced.append((overrides, dataclasses.replace(cfg, ensemble=ensemble)))
    return _merge(args, forced)


def _check_outputs(outputs: list[tuple[str, str]], inputs: list[FileRef], base_dir: str) -> None:
    """Raise one ConfigError naming every output (what, path) whose real path
    is an output's before it or an input's (its path under base_dir). A
    merge checkpoint may replace an ingredient: the merge reads the file it
    opened, which the rename leaves in place."""
    errors: list[str] = []
    taken = list(dict.fromkeys((ref.what, os.path.realpath(os.path.join(base_dir, ref.path))) for ref in inputs))
    for what, path in outputs:
        path = os.path.realpath(path)
        for other, at in taken:
            if at == path and not (what.endswith("checkpoint") and other.startswith("ingredient")):
                errors.append(f"{what} and {other} share the path {path}")
        taken.append((what, path))
    if errors:
        from .config import ConfigError

        raise ConfigError(errors)


def _check_merge_outputs(cells: list[tuple[dict[str, Any], MergeConfig]], names: list[str], base_dir: str,
                         out_dir: str) -> None:
    """Check every cell's outputs (each under its directory of `names`, ""
    for a single merge) and the sweep manifest against one another and the inputs."""
    from .config import FileRef

    sweep = bool(cells[0][0])
    inputs: list[FileRef] = []
    outputs = [("sweep_manifest.json", os.path.join(out_dir, "sweep_manifest.json"))] if sweep else []
    for cell, (_, cfg) in zip(names, cells):
        # A cell reads the evaluator's target only where ensemble.greedy holds it.
        inputs += _found(dataclasses.replace(cfg, evaluator=None), FileRef)
        outputs += [(f"{cell} output.{key}".lstrip(), os.path.join(out_dir, cell, path))
                    for key, path in (("checkpoint", cfg.out_checkpoint), ("log", cfg.out_log))]
    _check_outputs(outputs, inputs, base_dir)


def _merge(args, cells: list[tuple[dict[str, Any], MergeConfig]]) -> int:
    from .config import FileRef, sweep_cell_name
    from .engine import _outcome, run_in_workers

    base_dir = os.path.dirname(os.path.abspath(args.config))
    out_dir = args.out if args.out is not None else base_dir
    sweep = bool(cells[0][0])
    names = [sweep_cell_name(overrides) if sweep else "" for overrides, _ in cells]
    _check_merge_outputs(cells, names, base_dir, out_dir)

    # Every file the merge names is opened once, ingredients first, and stays open until the merge ends.
    with ExitStack() as stack:
        opened: dict[str, StoredMap | Exception] = {}
        stack.callback(lambda: [m.close() for m in opened.values() if isinstance(m, StoredMap)])

        def open_map(ref: FileRef) -> StoredMap:
            path = os.path.join(base_dir, ref.path)
            if path not in opened:  # a failure is kept, and raised for each cell that names the file
                opened[path] = _outcome(partial(open_checkpoint, path))
            if isinstance(opened[path], Exception):
                raise opened[path]
            return opened[path]

        # Sweep paths all start with "ensemble.", so every cell shares the
        # ingredient list and metrics CSV: open them once.
        try:
            ingredients = _open_ingredients(cells, base_dir, open_map)
        except UsageError:  # a config fault: no cell runs
            raise
        except Exception as exc:  # fails every cell, as it would if each cell opened them itself
            outcomes: list[Any] = [exc] * len(cells)
        else:
            configs = [_outcome(partial(_replaced, cell_cfg.ensemble, FileRef, open_map)) for _, cell_cfg in cells]
            built = [engine_cfg for engine_cfg in configs if not isinstance(engine_cfg, Exception)]
            workers = _sweep_workers(built, ingredients[0].weights.num_elements())
            cell_workers = max(1, _usable_cpus() // workers)  # each worker's share of the CPUs
            tasks = [partial(_run_merge_cell, cell_cfg, engine_cfg, os.path.join(out_dir, name), ingredients,
                             cell_workers) for (_, cell_cfg), engine_cfg, name in zip(cells, configs, names)]
            outcomes = run_in_workers(tasks, workers)
        if not sweep:
            [outcome] = outcomes
            if isinstance(outcome, Exception):
                raise outcome
            _say(args, f"merged -> {outcome[0]} (log {outcome[1]})")
            return 0
        manifest: list[dict[str, Any]] = [
            {"cell": name, "overrides": overrides,
             **({"status": "error", "error": str(outcome)} if isinstance(outcome, Exception) else
                {"status": "ok", "checkpoint": os.path.relpath(outcome[0], out_dir),
                 "log": os.path.relpath(outcome[1], out_dir)})}
            for name, (overrides, _), outcome in zip(names, cells, outcomes)
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
    """Processes to run the merge's cells in: one per usable CPU and cell at
    most, and only as many, W, as hold W times the largest cell's peak in the
    available memory (``engine.cell_bytes``, its tiles on its share of the CPUs)."""
    from .engine import cell_bytes

    cpus, available = _usable_cpus(), _available_memory()
    for workers in range(min(len(configs), cpus), 1, -1):
        if workers * max(cell_bytes(cfg, size, cpus // workers) for cfg in configs) <= available:
            return workers
    return 1


# --- synth -----------------------------------------------------------------------------


def cmd_synth_estimators(args) -> int:
    from .optim import OptimizerSpec
    from .synthlab import DistributionSpec, TrialConfig, default_estimator_config, run_estimator_trials

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
    from .synthlab import cycle_counterexample

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
    from .synthlab import convergence_check, cycle_ingredients

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
    from .synthlab import DistributionSpec, soup_wlln

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
    from .config import FileRef, load_json, parse_fed_config
    from .fedlab import simulate_fedopt, simulate_fedsoup

    cfg = parse_fed_config(load_json(args.config))
    base_dir = os.path.dirname(os.path.abspath(args.config))
    out_dir = args.out if args.out is not None else base_dir
    out_log = os.path.join(out_dir, cfg.out_log)
    out_ckpt = os.path.join(out_dir, cfg.out_checkpoint)
    _check_outputs([("output.log", out_log), ("output.checkpoint", out_ckpt)], _found(cfg.fed, FileRef), base_dir)

    # A point file stays open until the outputs are written, and is checked unchanged then.
    with ExitStack() as stack:
        opened: list[StoredMap] = []

        def load(ref: FileRef):
            opened.append(stack.enter_context(open_checkpoint(os.path.join(base_dir, ref.path))))
            return opened[-1].load()

        fed = _replaced(cfg.fed, FileRef, load)
        result = simulate_fedopt(fed) if cfg.algorithm == "fedopt" else simulate_fedsoup(fed)
        publish({out_log: result.to_csv, out_ckpt: partial(save_checkpoint, result.final)}, opened)
    _say(
        args,
        f"{cfg.algorithm}: {fed.rounds} rounds -> {out_ckpt}; final distance to center mean "
        f"{result.rounds[-1].distance_to_center_mean:.6f}",
    )
    return 0


# --- verify -----------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .verify import run_suites

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
    p_verify.add_argument("suite", choices=_SUITE_NAMES + ["all"])
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        from .config import ConfigError  # here, so that a command that reads no config file never loads it

        if isinstance(exc, ConfigError):
            for line in exc.errors:
                print(f"config error: {line}", file=sys.stderr)
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
