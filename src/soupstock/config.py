"""JSON run-configuration parsing for the command-line tools.

Validation is strict and total: unknown keys are rejected, every violation in
the document is reported in one pass, and no checkpoint file is touched until
the schema has been accepted. Parsed configs carry file *paths*; commands load
the referenced checkpoints afterwards.

Schedules are JSON objects such as {"kind": "harmonic", "offset": 0}; a bare
number is shorthand for a constant schedule (convenient in sweep lists).
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from .engine import ORDERINGS, EnsembleConfig, IngredientInit, SoupInit
from .optim import GD, Adadelta, Adagrad, Adam, OptimizerSpec
from .pseudograd import (
    AdaptivePivot,
    CappedPower,
    Constant,
    EmaPivot,
    Explicit,
    FixedPivot,
    Harmonic,
    PivotPolicy,
    Power,
    Schedule,
)
from .rng import MAX_SEED

__all__ = [
    "ConfigError",
    "IngredientEntry",
    "ProjectionSpec",
    "GreedySpec",
    "MergeConfig",
    "ClientEntry",
    "FedRunConfig",
    "parse_merge_config",
    "parse_fed_config",
    "enumerate_sweep",
    "sweep_cell_name",
    "load_json",
]

SUPPORTED_VERSION = 1


class ConfigError(ValueError):
    """All schema violations found in a config document, reported together."""

    def __init__(self, errors: list[str]) -> None:
        self.errors = list(errors)
        super().__init__("invalid config:\n  " + "\n  ".join(self.errors))


class _Ctx:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def err(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def raise_if_failed(self) -> None:
        if self.errors:
            raise ConfigError(self.errors)


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError([f"{path}: cannot read config ({exc})"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc


def _expect_object(ctx: _Ctx, path: str, value: Any, allowed: set[str], required: set[str]) -> bool:
    """Record unknown/missing keys; return False only when descending further
    is impossible (not an object, or a required key absent). Unknown keys are
    reported without aborting the walk so one pass surfaces every violation."""
    if not isinstance(value, dict):
        ctx.err(path, f"expected an object, got {type(value).__name__}")
        return False
    for key in value:
        if key not in allowed:
            ctx.err(f"{path}.{key}", "unknown key")
    ok = True
    for key in sorted(required):  # a set's order depends on the string hash seed
        if key not in value:
            ctx.err(f"{path}.{key}", "missing required key")
            ok = False
    return ok


def _number(ctx: _Ctx, path: str, value: Any, *, minimum=None, maximum=None, strict_min=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        ctx.err(path, f"expected a number, got {type(value).__name__}")
        return None
    try:
        v = float(value)
    except OverflowError:  # an integer too large for a float
        v = math.inf if value > 0 else -math.inf
    if not math.isfinite(v):
        ctx.err(path, f"must be finite, got {v}")
        return None
    if minimum is not None and (v <= minimum if strict_min else v < minimum):
        ctx.err(path, f"must be {'>' if strict_min else '>='} {minimum}, got {value}")
        return None
    if maximum is not None and v > maximum:
        ctx.err(path, f"must be <= {maximum}, got {value}")
        return None
    return v


def _integer(ctx: _Ctx, path: str, value: Any, *, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        ctx.err(path, f"expected an integer, got {type(value).__name__}")
        return None
    if minimum is not None and value < minimum:
        ctx.err(path, f"must be >= {minimum}, got {value}")
        return None
    if maximum is not None and value > maximum:
        ctx.err(path, f"must be <= {maximum}, got {value}")
        return None
    return value


def _string(ctx: _Ctx, path: str, value: Any, choices=None):
    if not isinstance(value, str):
        ctx.err(path, f"expected a string, got {type(value).__name__}")
        return None
    if choices is not None and value not in choices:
        ctx.err(path, f"must be one of {sorted(choices)}, got {value!r}")
        return None
    return value


def _boolean(ctx: _Ctx, path: str, value: Any):
    if not isinstance(value, bool):
        ctx.err(path, f"expected a boolean, got {type(value).__name__}")
        return None
    return value


# --- schedules -------------------------------------------------------------------


_SCHEDULE_KEYS = {
    "constant": {"value"},
    "harmonic": {"offset"},
    "power": {"coeff", "exponent"},
    "capped_power": {"coeff", "exponent", "cap"},
    "explicit": {"values"},
}


def parse_schedule(ctx: _Ctx, path: str, value: Any) -> Schedule | None:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        v = _number(ctx, path, value)
        return None if v is None else Constant(v)
    if not isinstance(value, dict):
        ctx.err(path, "expected a schedule object or a number")
        return None
    kind = _string(ctx, f"{path}.kind", value.get("kind"), choices=set(_SCHEDULE_KEYS))
    if kind is None:
        return None
    if not _expect_object(ctx, path, value, {"kind"} | _SCHEDULE_KEYS[kind], {"kind"} | _SCHEDULE_KEYS[kind]):
        return None
    try:
        if kind == "constant":
            v = _number(ctx, f"{path}.value", value["value"])
            return None if v is None else Constant(v)
        if kind == "harmonic":
            off = _integer(ctx, f"{path}.offset", value["offset"], minimum=0)
            if off is None:
                return None
            if off not in (0, 1):
                ctx.err(f"{path}.offset", f"must be 0 or 1, got {off}")
                return None
            return Harmonic(offset=off)
        if kind == "power":
            c = _number(ctx, f"{path}.coeff", value["coeff"])
            e = _number(ctx, f"{path}.exponent", value["exponent"])
            return None if None in (c, e) else Power(coeff=c, exponent=e)
        if kind == "capped_power":
            c = _number(ctx, f"{path}.coeff", value["coeff"])
            e = _number(ctx, f"{path}.exponent", value["exponent"])
            cap = _number(ctx, f"{path}.cap", value["cap"])
            return None if None in (c, e, cap) else CappedPower(coeff=c, exponent=e, cap=cap)
        values = value["values"]
        if not isinstance(values, list) or not values:
            ctx.err(f"{path}.values", "expected a non-empty list of numbers")
            return None
        nums = []
        for i, item in enumerate(values):
            n = _number(ctx, f"{path}.values[{i}]", item)
            if n is None:
                return None
            nums.append(n)
        return Explicit(values=tuple(nums))
    except ValueError as exc:
        ctx.err(path, str(exc))
        return None


# --- optimizer ----------------------------------------------------------------------


_OPTIMIZER_KEYS = {
    "gd": {"lr"},
    "adagrad": {"lr", "eps"},
    "adam": {"lr", "eps", "beta1", "beta2", "standard_form", "m0", "v0"},
    "adadelta": {"lr", "eps", "rho"},
}


def parse_optimizer(ctx: _Ctx, path: str, value: Any) -> OptimizerSpec | None:
    if not isinstance(value, dict):
        ctx.err(path, "expected an optimizer object")
        return None
    kind = _string(ctx, f"{path}.kind", value.get("kind"), choices=set(_OPTIMIZER_KEYS))
    if kind is None:
        return None
    allowed = {"kind", "weight_decay"} | _OPTIMIZER_KEYS[kind]
    if not _expect_object(ctx, path, value, allowed, {"kind", "lr"}):
        return None
    lr = parse_schedule(ctx, f"{path}.lr", value["lr"])
    decay = 0.0
    if "weight_decay" in value:
        decay = _number(ctx, f"{path}.weight_decay", value["weight_decay"], minimum=0.0)
        if decay is None:
            return None
    if lr is None:
        return None

    def num(key: str, default: float, **kw) -> float | None:
        if key not in value:
            return default
        return _number(ctx, f"{path}.{key}", value[key], **kw)

    try:
        if kind == "gd":
            variant = GD(lr=lr)
        elif kind == "adagrad":
            eps = num("eps", 1e-8, minimum=0.0, strict_min=True)
            if eps is None:
                return None
            variant = Adagrad(lr=lr, eps=eps)
        elif kind == "adam":
            beta1 = num("beta1", 0.9, minimum=0.0)
            beta2 = num("beta2", 0.999, minimum=0.0)
            eps = num("eps", 1e-8, minimum=0.0, strict_min=True)
            m0 = num("m0", 0.0)
            v0 = num("v0", 0.0)
            standard = value.get("standard_form", False)
            if not isinstance(standard, bool):
                ctx.err(f"{path}.standard_form", "expected a boolean")
                return None
            if None in (beta1, beta2, eps, m0, v0):
                return None
            variant = Adam(lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                           standard_form=standard, m0=m0, v0=v0)
        else:
            rho = num("rho", 0.9, minimum=0.0)
            eps = num("eps", 1e-6, minimum=0.0, strict_min=True)
            if None in (rho, eps):
                return None
            variant = Adadelta(lr=lr, rho=rho, eps=eps)
        return OptimizerSpec(variant=variant, weight_decay=decay)
    except ValueError as exc:
        ctx.err(path, str(exc))
        return None


# --- merge config ----------------------------------------------------------------------


@dataclass(frozen=True)
class IngredientEntry:
    path: str
    id: str
    metric: float | None = None


@dataclass(frozen=True)
class ProjectionSpec:
    center: str  # "soup" or a checkpoint path
    radius: float


@dataclass(frozen=True)
class GreedySpec:
    enabled: bool = False
    target_path: str | None = None  # neg-L2-distance evaluator target


@dataclass(frozen=True)
class MergeConfig:
    """A parsed merge config. `ensemble` holds the engine's settings except
    those that need a file: a provided pivot initialization (its path is
    `pivot_init_path`, and `ensemble.pivot_init` is then the default) and a
    projection, which the command loads before the run."""

    ingredients: tuple[IngredientEntry, ...]
    metrics_csv: str | None
    ensemble: EnsembleConfig
    pivot_init_path: str | None
    projection: ProjectionSpec | None
    greedy: GreedySpec
    out_checkpoint: str
    out_log: str
    sweep: dict[str, list[Any]] | None = None


def _parse_pivot_policy(ctx: _Ctx, path: str, value: Any) -> PivotPolicy | None:
    if not _expect_object(ctx, path, value, {"kind", "decay"}, {"kind"}):
        return None
    kind = _string(ctx, f"{path}.kind", value.get("kind"), choices={"fixed", "adaptive", "ema"})
    if kind is None:
        return None
    if kind == "ema":
        if "decay" not in value:
            ctx.err(f"{path}.decay", "missing required key for ema policy")
            return None
        decay = _number(ctx, f"{path}.decay", value["decay"], minimum=0.0)
        if decay is None:
            return None
        try:
            return EmaPivot(decay=decay)
        except ValueError as exc:
            ctx.err(f"{path}.decay", str(exc))
            return None
    if "decay" in value:
        ctx.err(f"{path}.decay", f"only valid for the ema policy, not {kind!r}")
        return None
    return FixedPivot() if kind == "fixed" else AdaptivePivot()


_PIVOT_INIT_KEYS = {"soup": {"kind"}, "ingredient": {"kind", "id"}, "provided": {"kind", "path"}}


def _parse_pivot_init(ctx: _Ctx, path: str, value: Any) -> SoupInit | IngredientInit | str | None:
    """SoupInit(), IngredientInit(id), or the checkpoint path of a provided initialization."""
    if not isinstance(value, dict):
        ctx.err(path, "expected an object")
        return None
    kind = _string(ctx, f"{path}.kind", value.get("kind"), choices=set(_PIVOT_INIT_KEYS))
    if kind is None or not _expect_object(ctx, path, value, _PIVOT_INIT_KEYS[kind], _PIVOT_INIT_KEYS[kind]):
        return None
    if kind == "soup":
        return SoupInit()
    if kind == "ingredient":
        ing_id = _string(ctx, f"{path}.id", value["id"])
        return None if ing_id is None else IngredientInit(ing_id)
    return _string(ctx, f"{path}.path", value["path"])


def _parse_n_divisor(ctx: _Ctx, path: str, value: Any) -> int | None:
    return None if value == "auto" else _integer(ctx, path, value, minimum=1)


def _parse_projection(ctx: _Ctx, path: str, value: Any) -> ProjectionSpec | None:
    if value is None:
        return None
    if not _expect_object(ctx, path, value, {"center", "radius"}, {"center", "radius"}):
        return None
    center = value["center"]
    if not isinstance(center, str):
        ctx.err(f"{path}.center", "expected 'soup' or a checkpoint path")
    radius = _number(ctx, f"{path}.radius", value["radius"], minimum=0.0, strict_min=True)
    if not isinstance(center, str) or radius is None:
        return None
    return ProjectionSpec(center=center, radius=radius)


def _parse_greedy(ctx: _Ctx, path: str, value: Any) -> GreedySpec | None:
    if not _expect_object(ctx, path, value, {"enabled", "evaluator"}, {"enabled"}):
        return None
    enabled = _boolean(ctx, f"{path}.enabled", value["enabled"])
    target = None
    if "evaluator" in value:
        ev = value["evaluator"]
        if _expect_object(ctx, f"{path}.evaluator", ev, {"kind", "target"}, {"kind", "target"}):
            kind = _string(ctx, f"{path}.evaluator.kind", ev["kind"], choices={"neg_distance"})
            target = _string(ctx, f"{path}.evaluator.target", ev["target"])
            if kind is None:
                target = None
    if enabled and target is None:
        ctx.err(path, "enabled greedy runs need a neg_distance evaluator")
        return None
    return None if enabled is None else GreedySpec(enabled=enabled, target_path=target)


# The keys of the `ensemble` section, each with its parser(ctx, path, value),
# in the order their errors are reported. A key left out takes the default of
# the EnsembleConfig field of its name. `pivot_init`, `projection` and
# `greedy` may parse to what MergeConfig holds beside `ensemble`.
_ENSEMBLE_FIELDS: dict[str, Callable[[_Ctx, str, Any], Any]] = {
    "optimizer": parse_optimizer,
    "pivot_policy": _parse_pivot_policy,
    "pivot_init": _parse_pivot_init,
    "amplification": parse_schedule,
    "n_divisor": _parse_n_divisor,
    "epochs": partial(_integer, minimum=1),
    "batch_size": partial(_integer, minimum=1),
    "shuffle": _boolean,
    "seed": partial(_integer, minimum=0, maximum=MAX_SEED),
    "ordering": partial(_string, choices=set(ORDERINGS)),
    "epoch_lr_reset": _boolean,
    "record_steps": _boolean,
    "projection": _parse_projection,
    "greedy": _parse_greedy,
}


def parse_merge_config(doc: Any) -> MergeConfig:
    ctx = _Ctx()
    top_allowed = {"version", "ingredients", "metrics_csv", "ensemble", "output", "sweep"}
    _expect_object(ctx, "$", doc, top_allowed, {"version", "ingredients", "ensemble", "output"})
    if not isinstance(doc, dict):
        ctx.raise_if_failed()
    version = doc.get("version")
    if "version" in doc and version != SUPPORTED_VERSION:
        ctx.err("$.version", f"expected {SUPPORTED_VERSION}, got {version!r}")

    entries: list[IngredientEntry] = []
    raw_ings = doc.get("ingredients")
    if "ingredients" not in doc:
        pass  # already reported as missing
    elif not isinstance(raw_ings, list) or not raw_ings:
        ctx.err("$.ingredients", "expected a non-empty list")
    else:
        seen_ids: set[str] = set()
        for i, item in enumerate(raw_ings):
            path = f"$.ingredients[{i}]"
            if not _expect_object(ctx, path, item, {"path", "id", "metric"}, {"path"}):
                continue
            p = _string(ctx, f"{path}.path", item["path"])
            if p is None:
                continue
            ing_id = item.get("id")
            if ing_id is not None and _string(ctx, f"{path}.id", ing_id) is None:
                continue
            if ing_id is None:
                ing_id = p.rsplit("/", 1)[-1].rsplit(".", 1)[0]
            metric = None
            if "metric" in item:
                metric = _number(ctx, f"{path}.metric", item["metric"])
                if metric is None:
                    continue
            if ing_id in seen_ids:
                ctx.err(f"{path}.id", f"duplicate ingredient id {ing_id!r}")
                continue
            seen_ids.add(ing_id)
            entries.append(IngredientEntry(path=p, id=ing_id, metric=metric))

    metrics_csv = None
    if "metrics_csv" in doc:
        metrics_csv = _string(ctx, "$.metrics_csv", doc["metrics_csv"])

    fields: dict[str, Any] = {}
    ens = doc.get("ensemble")
    if "ensemble" in doc and _expect_object(ctx, "$.ensemble", ens, set(_ENSEMBLE_FIELDS), {"optimizer"}):
        fields = {key: parse(ctx, f"$.ensemble.{key}", ens[key])
                  for key, parse in _ENSEMBLE_FIELDS.items() if key in ens}

    out_checkpoint = out_log = None
    out = doc.get("output")
    if "output" in doc and _expect_object(ctx, "$.output", out, {"checkpoint", "log"}, {"checkpoint", "log"}):
        out_checkpoint = _string(ctx, "$.output.checkpoint", out["checkpoint"])
        out_log = _string(ctx, "$.output.log", out["log"])

    sweep = None
    if "sweep" in doc:
        raw_sweep = doc["sweep"]
        if not isinstance(raw_sweep, dict) or not raw_sweep:
            ctx.err("$.sweep", "expected a non-empty object of field paths to value lists")
        else:
            sweep = {}
            for key, values in raw_sweep.items():
                if not key.startswith("ensemble."):
                    ctx.err(f"$.sweep.{key}", "sweep paths must start with 'ensemble.'")
                    continue
                if not isinstance(values, list) or not values:
                    ctx.err(f"$.sweep.{key}", "expected a non-empty list of values")
                    continue
                sweep[key] = values

    ctx.raise_if_failed()
    pivot_init_path = fields.pop("pivot_init") if isinstance(fields.get("pivot_init"), str) else None
    projection = fields.pop("projection", None)
    greedy = fields.pop("greedy", GreedySpec())
    return MergeConfig(
        ingredients=tuple(entries),
        metrics_csv=metrics_csv,
        ensemble=EnsembleConfig(**fields),
        pivot_init_path=pivot_init_path,
        projection=projection,
        greedy=greedy,
        out_checkpoint=out_checkpoint,
        out_log=out_log,
        sweep=sweep,
    )


def _set_dotted(doc: dict, dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def sweep_cell_name(overrides: dict[str, Any]) -> str:
    """Deterministic, order-independent cell id: hash of the canonical JSON."""
    canonical = json.dumps(overrides, sort_keys=True, separators=(",", ":"))
    return "cell-" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def enumerate_sweep(doc: Any) -> list[tuple[dict[str, Any], MergeConfig]]:
    """Expand the grid: every cell is fully validated before anything runs.

    Returns (overrides, parsed config) pairs in a deterministic order (sorted
    field paths, value lists in given order).
    """
    base = parse_merge_config(doc)
    if base.sweep is None:
        return [({}, base)]
    keys = sorted(base.sweep)
    cells: list[tuple[dict[str, Any], MergeConfig]] = []
    errors: list[str] = []
    for combo in itertools.product(*(base.sweep[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        cell_doc = copy.deepcopy(doc)
        cell_doc.pop("sweep", None)
        for dotted, value in overrides.items():
            _set_dotted(cell_doc, dotted, value)
        try:
            cells.append((overrides, parse_merge_config(cell_doc)))
        except ConfigError as exc:
            name = sweep_cell_name(overrides)
            errors.extend(f"{name}: {e}" for e in exc.errors)
    if errors:
        raise ConfigError(errors)
    return cells


# --- fed config ------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientEntry:
    id: str
    center_values: tuple[float, ...] | None
    center_path: str | None
    optimizer: OptimizerSpec
    local_steps: int


@dataclass(frozen=True)
class FedRunConfig:
    algorithm: str  # "fedopt" | "fedsoup"
    rounds: int
    sample_size: int
    seed: int
    init_values: tuple[float, ...] | None
    init_path: str | None
    clients: tuple[ClientEntry, ...]
    server: OptimizerSpec | None
    client_soup: str
    server_stew: OptimizerSpec | None
    out_log: str
    out_checkpoint: str


def _parse_point(ctx: _Ctx, path: str, value: Any) -> tuple[tuple[float, ...] | None, str | None]:
    if not isinstance(value, dict):
        ctx.err(path, "expected {'values': [...]} or {'path': ...}")
        return None, None
    if "values" in value:
        if not _expect_object(ctx, path, value, {"values"}, {"values"}):
            return None, None
        raw = value["values"]
        if not isinstance(raw, list) or not raw:
            ctx.err(f"{path}.values", "expected a non-empty list of numbers")
            return None, None
        nums = []
        for i, item in enumerate(raw):
            n = _number(ctx, f"{path}.values[{i}]", item)
            if n is None:
                return None, None
            nums.append(n)
        return tuple(nums), None
    if not _expect_object(ctx, path, value, {"path"}, {"path"}):
        return None, None
    p = _string(ctx, f"{path}.path", value["path"])
    return None, p


def parse_fed_config(doc: Any) -> FedRunConfig:
    ctx = _Ctx()
    allowed = {"version", "algorithm", "rounds", "sample_size", "seed", "init",
               "clients", "server", "client_soup", "server_stew", "output"}
    required = {"version", "algorithm", "rounds", "sample_size", "init", "clients", "output"}
    _expect_object(ctx, "$", doc, allowed, required)
    if not isinstance(doc, dict):
        ctx.raise_if_failed()
    # A missing required key is reported once, above; the walk goes on without it.
    if "version" in doc and doc["version"] != SUPPORTED_VERSION:
        ctx.err("$.version", f"expected {SUPPORTED_VERSION}, got {doc['version']!r}")
    algorithm = rounds = sample_size = None
    if "algorithm" in doc:
        algorithm = _string(ctx, "$.algorithm", doc["algorithm"], choices={"fedopt", "fedsoup"})
    if "rounds" in doc:
        rounds = _integer(ctx, "$.rounds", doc["rounds"], minimum=1)
    seed = 0
    if "seed" in doc:
        seed = _integer(ctx, "$.seed", doc["seed"], minimum=0, maximum=MAX_SEED)
    init_values = init_path = None
    if "init" in doc:
        init_values, init_path = _parse_point(ctx, "$.init", doc["init"])

    clients: list[ClientEntry] = []
    raw_clients = doc.get("clients")
    if "clients" not in doc:
        pass  # already reported as missing
    elif not isinstance(raw_clients, list) or not raw_clients:
        ctx.err("$.clients", "expected a non-empty list")
    else:
        for i, item in enumerate(raw_clients):
            path = f"$.clients[{i}]"
            if not _expect_object(ctx, path, item, {"id", "center", "optimizer", "local_steps"},
                                  {"id", "center", "optimizer"}):
                continue
            cid = _string(ctx, f"{path}.id", item["id"])
            cvals, cpath = _parse_point(ctx, f"{path}.center", item["center"])
            opt = parse_optimizer(ctx, f"{path}.optimizer", item["optimizer"])
            steps = 1
            if "local_steps" in item:
                steps = _integer(ctx, f"{path}.local_steps", item["local_steps"], minimum=1)
            if None in (cid, opt, steps) or (cvals is None and cpath is None):
                continue
            clients.append(ClientEntry(id=cid, center_values=cvals, center_path=cpath,
                                       optimizer=opt, local_steps=steps))

    if "sample_size" in doc:
        sample_size = _integer(ctx, "$.sample_size", doc["sample_size"], minimum=1)
    if sample_size is not None and clients and sample_size > len(clients):
        ctx.err("$.sample_size", f"must be <= number of clients ({len(clients)})")

    server = parse_optimizer(ctx, "$.server", doc["server"]) if "server" in doc else None
    stew = parse_optimizer(ctx, "$.server_stew", doc["server_stew"]) if "server_stew" in doc else None
    client_soup = "linear"
    if "client_soup" in doc:
        client_soup = _string(ctx, "$.client_soup", doc["client_soup"], choices={"linear"})
    if algorithm == "fedopt" and server is None:
        ctx.err("$.server", "fedopt requires a server optimizer")
    if algorithm == "fedsoup" and stew is None:
        ctx.err("$.server_stew", "fedsoup requires a server_stew optimizer")

    out_log = out_checkpoint = None
    out = doc.get("output")
    if "output" in doc and _expect_object(ctx, "$.output", out, {"log", "checkpoint"}, {"log", "checkpoint"}):
        out_log = _string(ctx, "$.output.log", out["log"])
        out_checkpoint = _string(ctx, "$.output.checkpoint", out["checkpoint"])

    ctx.raise_if_failed()
    return FedRunConfig(
        algorithm=algorithm,
        rounds=rounds,
        sample_size=sample_size,
        seed=seed,
        init_values=init_values,
        init_path=init_path,
        clients=tuple(clients),
        server=server,
        client_soup=client_soup,
        server_stew=stew,
        out_log=out_log,
        out_checkpoint=out_checkpoint,
    )
