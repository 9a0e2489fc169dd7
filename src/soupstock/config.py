"""JSON run-configuration parsing for the command-line tools.

Validation is strict and total: unknown keys are rejected, every violation in
the document is reported in one pass, and no checkpoint file is touched until
the schema has been accepted. Parsed configs carry file *paths*; commands load
the referenced checkpoints afterwards.

Every JSON object of a document is read by one walk, `_fields`, through a
field table that maps each of its keys to a parser(ctx, path, value): the
object reports its unknown keys, then its missing required keys, then the
faults of every key it has, so each object reports all of its faults. An
object with a `kind` key takes the table of its kind (`_kinds`). Only checks
across fields are written out by hand.

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
    """A document's error lines, and a count of the faults among them: the
    lines other than unknown keys, which leave a value unparsed."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.faults = 0

    def err(self, path: str, message: str, fault: bool = True) -> None:
        self.errors.append(f"{path}: {message}")
        self.faults += fault

    def raise_if_failed(self) -> None:
        if self.errors:
            raise ConfigError(self.errors)


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # as written with or without a BOM
            return json.load(fh)
    except OSError as exc:
        raise ConfigError([f"{path}: cannot read config ({exc})"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc


_Parser = Callable[[_Ctx, str, Any], Any]
_Kind = tuple[dict[str, _Parser], set[str], Callable[..., Any]]  # (table, required keys, build)


def _fields(
    ctx: _Ctx,
    path: str,
    value: Any,
    table: dict[str, _Parser],
    required: set[str] = frozenset(),
    build: Callable[..., Any] | None = None,
    expected: str | None = None,
) -> Any:
    """Walk the object `value` through `table`, whose keys are parsed in the
    order their errors are reported: report its unknown keys, then its
    missing required ones, then parse every key it has.

    Without `build`, returns the parsed keys (a key with a fault parses to
    None). With it, returns build(**parsed keys), or None if a key is
    missing or has a fault; a ValueError of build is reported at `path`.
    A value that is not an object is reported as `expected` (default:
    "expected an object, got <type>") and gives None.
    """
    if not isinstance(value, dict):
        ctx.err(path, expected or f"expected an object, got {type(value).__name__}")
        return None
    faults = ctx.faults
    for key in value:
        if key not in table:
            ctx.err(f"{path}.{key}", "unknown key", fault=False)
    for key in sorted(required):  # a set's order depends on the string hash seed
        if key not in value:
            ctx.err(f"{path}.{key}", "missing required key")
    parsed = {key: parse(ctx, f"{path}.{key}", value[key]) for key, parse in table.items() if key in value}
    if build is None:
        return parsed
    if ctx.faults > faults:
        return None
    try:
        return build(**parsed)
    except ValueError as exc:
        ctx.err(path, str(exc))
        return None


def _kinds(ctx: _Ctx, path: str, value: Any, kinds: dict[str, _Kind], expected: str) -> Any:
    """`_fields` for an object whose `kind` picks its table, required keys
    and build from `kinds`; a bad kind is the object's only fault reported."""
    if not isinstance(value, dict):
        ctx.err(path, expected)
        return None
    kind = _string(ctx, f"{path}.kind", value.get("kind"), choices=set(kinds))
    if kind is None:
        return None
    table, required, build = kinds[kind]
    rest = {key: item for key, item in value.items() if key != "kind"}
    return _fields(ctx, path, rest, table, required, build)


def _number(ctx: _Ctx, path: str, value: Any, *, minimum=None, strict_min=False):
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


def _string(ctx: _Ctx, path: str, value: Any, choices=None, message=None):
    if not isinstance(value, str):
        ctx.err(path, message or f"expected a string, got {type(value).__name__}")
        return None
    if choices is not None and value not in choices:
        ctx.err(path, f"must be one of {sorted(choices)}, got {value!r}")
        return None
    return value


def _boolean(ctx: _Ctx, path: str, value: Any, message=None):
    if not isinstance(value, bool):
        ctx.err(path, message or f"expected a boolean, got {type(value).__name__}")
        return None
    return value


def _numbers(ctx: _Ctx, path: str, value: Any) -> tuple[float, ...] | None:
    """A non-empty list of numbers, as a tuple."""
    if not isinstance(value, list) or not value:
        ctx.err(path, "expected a non-empty list of numbers")
        return None
    numbers = tuple(_number(ctx, f"{path}[{i}]", item) for i, item in enumerate(value))
    return None if None in numbers else numbers


def _version(ctx: _Ctx, path: str, value: Any) -> Any:
    if type(value) is not int or value != SUPPORTED_VERSION:  # not True, not 1.0
        ctx.err(path, f"expected {SUPPORTED_VERSION}, got {value!r}")
    return value


def _unless(special: Any, parse: _Parser) -> _Parser:
    """`parse`, except that `special` parses to None."""
    return lambda ctx, path, value: None if value == special else parse(ctx, path, value)


_SEED = partial(_integer, minimum=0, maximum=MAX_SEED)
_OUTPUT_FIELDS = {"checkpoint": _string, "log": _string}
_parse_output = partial(_fields, table=_OUTPUT_FIELDS, required=set(_OUTPUT_FIELDS))


def _unique_entries(
    ctx: _Ctx, path: str, value: Any, *,
    table: dict[str, _Parser], required: set[str], build: Callable[..., Any], noun: str,
) -> tuple | None:
    """A non-empty list of objects, each built by `build`; an entry whose id
    an entry before it has is reported. The entries with no fault of their
    own are returned, so that checks across fields count them."""
    if not isinstance(value, list) or not value:
        ctx.err(path, "expected a non-empty list")
        return None
    entries, ids = [], set()
    for i, item in enumerate(value):
        entry = _fields(ctx, f"{path}[{i}]", item, table, required, build)
        if entry is not None:
            if entry.id in ids:
                ctx.err(f"{path}[{i}].id", f"duplicate {noun} id {entry.id!r}")
            ids.add(entry.id)
            entries.append(entry)
    return tuple(entries)


# --- schedules and optimizers ---------------------------------------------------------


def _offset(ctx: _Ctx, path: str, value: Any) -> int | None:
    offset = _integer(ctx, path, value, minimum=0)
    if offset not in (None, 0, 1):
        ctx.err(path, f"must be 0 or 1, got {offset}")
        return None
    return offset


_SCHEDULES = {
    kind: (table, set(table), build)
    for kind, table, build in [
        ("constant", {"value": _number}, Constant),
        ("harmonic", {"offset": _offset}, Harmonic),
        ("power", {"coeff": _number, "exponent": _number}, Power),
        ("capped_power", {"coeff": _number, "exponent": _number, "cap": _number}, CappedPower),
        ("explicit", {"values": _numbers}, Explicit),
    ]
}


def parse_schedule(ctx: _Ctx, path: str, value: Any) -> Schedule | None:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        v = _number(ctx, path, value)
        return None if v is None else Constant(v)
    return _kinds(ctx, path, value, _SCHEDULES, "expected a schedule object or a number")


def _optimizer(variant: type, weight_decay: float = 0.0, **rule: Any) -> OptimizerSpec:
    """A key left out takes the default of the update rule's field of its name."""
    return OptimizerSpec(variant=variant(**rule), weight_decay=weight_decay)


_NON_NEGATIVE = partial(_number, minimum=0.0)
_POSITIVE = partial(_number, minimum=0.0, strict_min=True)
_RULE_FIELDS = {"lr": parse_schedule, "weight_decay": _NON_NEGATIVE}
_OPTIMIZERS = {
    kind: ({**_RULE_FIELDS, **table}, {"lr"}, partial(_optimizer, variant))
    for kind, table, variant in [
        ("gd", {}, GD),
        ("adagrad", {"eps": _POSITIVE}, Adagrad),
        ("adam", {"beta1": _NON_NEGATIVE, "beta2": _NON_NEGATIVE, "eps": _POSITIVE, "m0": _number,
                  "v0": _number, "standard_form": partial(_boolean, message="expected a boolean")}, Adam),
        ("adadelta", {"rho": _NON_NEGATIVE, "eps": _POSITIVE}, Adadelta),
    ]
}


parse_optimizer = partial(_kinds, kinds=_OPTIMIZERS, expected="expected an optimizer object")


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


_PIVOT_POLICY_FIELDS = {"kind": partial(_string, choices={"fixed", "adaptive", "ema"}),
                        "decay": _NON_NEGATIVE}


def _parse_pivot_policy(ctx: _Ctx, path: str, value: Any) -> PivotPolicy | None:
    fields = _fields(ctx, path, value, _PIVOT_POLICY_FIELDS, {"kind"}) or {}
    kind, decay = fields.get("kind"), fields.get("decay")
    if kind in ("fixed", "adaptive") and "decay" in fields:
        ctx.err(f"{path}.decay", f"only valid for the ema policy, not {kind!r}")
    elif kind in ("fixed", "adaptive"):
        return FixedPivot() if kind == "fixed" else AdaptivePivot()
    elif kind == "ema" and "decay" not in fields:
        ctx.err(f"{path}.decay", "missing required key for ema policy")
    elif kind == "ema" and decay is not None:
        try:
            return EmaPivot(decay=decay)
        except ValueError as exc:
            ctx.err(f"{path}.decay", str(exc))
    return None


# A provided initialization parses to the path of its checkpoint.
_PIVOT_INITS = {
    "soup": ({}, set(), SoupInit),
    "ingredient": ({"id": _string}, {"id"}, IngredientInit),
    "provided": ({"path": _string}, {"path"}, lambda path: path),
}


_PROJECTION_FIELDS = {"center": partial(_string, message="expected 'soup' or a checkpoint path"),
                      "radius": _POSITIVE}


# The evaluator parses to its target's path.
_EVALUATOR_FIELDS = {"kind": partial(_string, choices={"neg_distance"}), "target": _string}
_GREEDY_FIELDS = {
    "enabled": _boolean,
    "evaluator": partial(_fields, table=_EVALUATOR_FIELDS, required=set(_EVALUATOR_FIELDS),
                         build=lambda kind, target: target),
}


def _parse_greedy(ctx: _Ctx, path: str, value: Any) -> GreedySpec | None:
    fields = _fields(ctx, path, value, _GREEDY_FIELDS, {"enabled"}) or {}
    enabled, target = fields.get("enabled"), fields.get("evaluator")
    if enabled and target is None:
        ctx.err(path, "enabled greedy runs need a neg_distance evaluator")
        return None
    return None if enabled is None else GreedySpec(enabled=enabled, target_path=target)


# A key left out of `ensemble` takes the default of the EnsembleConfig field
# of its name. `pivot_init`, `projection` and `greedy` may parse to what
# MergeConfig holds beside `ensemble`.
_ENSEMBLE_FIELDS: dict[str, _Parser] = {
    "optimizer": parse_optimizer,
    "pivot_policy": _parse_pivot_policy,
    "pivot_init": partial(_kinds, kinds=_PIVOT_INITS, expected="expected an object"),
    "amplification": parse_schedule,
    "n_divisor": _unless("auto", partial(_integer, minimum=1)),
    "epochs": partial(_integer, minimum=1),
    "batch_size": partial(_integer, minimum=1),
    "shuffle": _boolean,
    "seed": _SEED,
    "ordering": partial(_string, choices=set(ORDERINGS)),
    "epoch_lr_reset": _boolean,
    "record_steps": _boolean,
    "projection": _unless(None, partial(_fields, table=_PROJECTION_FIELDS, required=set(_PROJECTION_FIELDS),
                                        build=ProjectionSpec)),
    "greedy": _parse_greedy,
}


def _ingredient(path: str, id: str | None = None, metric: float | None = None) -> IngredientEntry:
    if id is None:  # no id, or null: the file name without its extension
        id = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return IngredientEntry(path=path, id=id, metric=metric)


def _parse_sweep(ctx: _Ctx, path: str, value: Any) -> dict[str, list[Any]] | None:
    if not isinstance(value, dict) or not value:
        ctx.err(path, "expected a non-empty object of field paths to value lists")
        return None
    for key, values in value.items():
        if not key.startswith("ensemble."):
            ctx.err(f"{path}.{key}", "sweep paths must start with 'ensemble.'")
        elif not isinstance(values, list) or not values:
            ctx.err(f"{path}.{key}", "expected a non-empty list of values")
        else:  # two equal values would run one cell twice, into one directory
            for i, item in enumerate(values):
                if values.index(item) < i:
                    ctx.err(f"{path}.{key}[{i}]", f"duplicate value {json.dumps(item)}")
    return dict(value)


_MERGE_FIELDS: dict[str, _Parser] = {
    "version": _version,
    "ingredients": partial(
        _unique_entries, table={"path": _string, "id": _unless(None, _string), "metric": _number},
        required={"path"}, build=_ingredient, noun="ingredient",
    ),
    "metrics_csv": _string,
    "ensemble": partial(_fields, table=_ENSEMBLE_FIELDS, required={"optimizer"}),
    "output": _parse_output,
    "sweep": _parse_sweep,
}


def parse_merge_config(doc: Any) -> MergeConfig:
    ctx = _Ctx()
    fields = _fields(ctx, "$", doc, _MERGE_FIELDS, {"version", "ingredients", "ensemble", "output"})
    ctx.raise_if_failed()
    ensemble = fields["ensemble"]
    pivot_init_path = ensemble.pop("pivot_init") if isinstance(ensemble.get("pivot_init"), str) else None
    projection = ensemble.pop("projection", None)
    greedy = ensemble.pop("greedy", GreedySpec())
    return MergeConfig(
        ingredients=fields["ingredients"],
        metrics_csv=fields.get("metrics_csv"),
        ensemble=EnsembleConfig(**ensemble),
        pivot_init_path=pivot_init_path,
        projection=projection,
        greedy=greedy,
        out_checkpoint=fields["output"]["checkpoint"],
        out_log=fields["output"]["log"],
        sweep=fields.get("sweep"),
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


_POINT_FIELDS = {"values": _numbers, "path": _string}


def _parse_point(ctx: _Ctx, path: str, value: Any) -> tuple[tuple[float, ...] | None, str | None] | None:
    """{"values": [...]} or {"path": ...}, as (values, path) with one of them None."""
    key = "values" if isinstance(value, dict) and "values" in value else "path"
    return _fields(ctx, path, value, {key: _POINT_FIELDS[key]}, {key},
                   lambda values=None, path=None: (values, path),
                   expected="expected {'values': [...]} or {'path': ...}")


_FED_FIELDS: dict[str, _Parser] = {
    "version": _version,
    "algorithm": partial(_string, choices={"fedopt", "fedsoup"}),
    "rounds": partial(_integer, minimum=1),
    "seed": _SEED,
    "init": _parse_point,
    "clients": partial(
        _unique_entries,
        table={"id": _string, "center": _parse_point, "optimizer": parse_optimizer,
               "local_steps": partial(_integer, minimum=1)},
        required={"id", "center", "optimizer"}, noun="client",
        build=lambda id, center, optimizer, local_steps=1: ClientEntry(id, *center, optimizer, local_steps),
    ),
    "sample_size": partial(_integer, minimum=1),
    "server": parse_optimizer,
    "server_stew": parse_optimizer,
    "client_soup": partial(_string, choices={"linear"}),
    "output": _parse_output,
}


def parse_fed_config(doc: Any) -> FedRunConfig:
    ctx = _Ctx()
    required = {"version", "algorithm", "rounds", "sample_size", "init", "clients", "output"}
    fields = _fields(ctx, "$", doc, _FED_FIELDS, required) or {}
    algorithm, clients, sample_size = (fields.get(key) for key in ("algorithm", "clients", "sample_size"))
    entries = doc["clients"] if clients is not None else []  # every entry, with a fault or not
    if sample_size is not None and entries and sample_size > len(entries):
        ctx.err("$.sample_size", f"must be <= number of clients ({len(entries)})")
    if algorithm == "fedopt" and fields.get("server") is None:
        ctx.err("$.server", "fedopt requires a server optimizer")
    if algorithm == "fedsoup" and fields.get("server_stew") is None:
        ctx.err("$.server_stew", "fedsoup requires a server_stew optimizer")
    ctx.raise_if_failed()
    return FedRunConfig(
        algorithm=algorithm,
        rounds=fields["rounds"],
        sample_size=sample_size,
        seed=fields.get("seed", 0),
        init_values=fields["init"][0],
        init_path=fields["init"][1],
        clients=clients,
        server=fields.get("server"),
        client_soup=fields.get("client_soup", "linear"),
        server_stew=fields.get("server_stew"),
        out_log=fields["output"]["log"],
        out_checkpoint=fields["output"]["checkpoint"],
    )
