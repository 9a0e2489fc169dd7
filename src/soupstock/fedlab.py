"""Desk-scale federated simulators over synthetic quadratic clients.

Each client owns the loss 0.5*||x - c_i||^2, whose exact gradient x - c_i is
the pseudogradient toward c_i: clients and the server step through
``engine.ensemble_steps``, and every protocol identity is checkable in closed
form. Two server protocols:

* fedopt — clients send deltas x_{i,K} - x_{t-1}; the server averages them and
  descends along the negated average with its own optimizer.
* fedsoup — client results are souped first (linearly, or by a nested engine
  run), and the server "stews": it keeps one optimizer state across rounds and
  descends along (x_{t-1} - w_t), the pull toward the round's soup.

A GD server with lr 1 collapses both to FedAvg: x_t = mean of client results.
With a linear client soup the two protocols are the same arithmetic: both run
one round loop, which takes the server optimizer and the client soup.
Client training within a round is independent; the server step is a
sequential barrier between rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rng as rng_mod
from .engine import EngineError, EnsembleConfig, Ingredient, ProvidedInit, ensemble_steps, run_ensemble
from .optim import OptimizerSpec, OptimizerState
from .pseudograd import soup
from .weightstore import WeightMap, l2_distance, validate_compatible, write_csv

__all__ = [
    "ClientSpec",
    "FedConfig",
    "RoundLog",
    "FedResult",
    "client_train",
    "simulate_fedopt",
    "simulate_fedsoup",
]


@dataclass(frozen=True)
class ClientSpec:
    """One synthetic client: quadratic optimum, local optimizer, K local steps."""

    id: str
    objective_center: WeightMap
    local_optimizer: OptimizerSpec
    local_steps: int = 1

    def __post_init__(self) -> None:
        if self.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.local_steps}")


@dataclass(frozen=True)
class FedConfig:
    """A federated run: clients, per-round participation, and the server side.

    For fedopt, `server` drives the global update. For fedsoup, `client_soup`
    aggregates the round's client results ("linear" or a nested EnsembleConfig)
    and `server_stew` is the persistent server optimizer.
    """

    init: WeightMap
    clients: tuple[ClientSpec, ...]
    rounds: int
    sample_size: int
    seed: int = 0
    server: OptimizerSpec | None = None
    client_soup: str | EnsembleConfig = "linear"
    server_stew: OptimizerSpec | None = None

    def __post_init__(self) -> None:
        if not self.clients:
            raise ValueError("need at least one client")
        ids = [c.id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise ValueError("client ids must be unique")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not (1 <= self.sample_size <= len(self.clients)):
            raise ValueError(
                f"sample_size must lie in [1, {len(self.clients)}], got {self.sample_size}"
            )
        if isinstance(self.client_soup, str) and self.client_soup != "linear":
            raise ValueError(f"client_soup must be 'linear' or an EnsembleConfig, got {self.client_soup!r}")


@dataclass(frozen=True)
class RoundLog:
    round: int
    participants: tuple[str, ...]
    delta_norm: float
    distance_to_center_mean: float


@dataclass
class FedResult:
    rounds: list[RoundLog]
    final: WeightMap

    def to_csv(self, path: str) -> None:
        rows = ((r.round, "|".join(r.participants), r.delta_norm, r.distance_to_center_mean) for r in self.rounds)
        write_csv(path, ["round", "participants", "delta_norm", "distance_to_center_mean"], rows)


def client_train(start: WeightMap, spec: ClientSpec) -> WeightMap:
    """K local optimizer steps on the exact quadratic gradient (x - center)."""
    return _descend(start, spec.objective_center, OptimizerState(), spec.local_optimizer, spec.local_steps)


def _sample_participants(cfg: FedConfig, round_idx: int) -> list[ClientSpec]:
    # Uniform without replacement; keyed per round so any seed reproduces the
    # same participation stream in fedopt and fedsoup alike.
    rng = rng_mod.stream(cfg.seed, rng_mod.DOMAIN_PARTICIPATION, round_idx)
    chosen = rng.choice(len(cfg.clients), size=cfg.sample_size, replace=False)
    chosen.sort()
    return [cfg.clients[i] for i in chosen]


def _descend(x: WeightMap, target: WeightMap, state: OptimizerState, spec: OptimizerSpec, steps: int) -> WeightMap:
    # `steps` engine steps from x on the pseudogradient (iterate - target), which moves it toward target.
    cfg = EnsembleConfig(spec, pivot_init=ProvidedInit(x), n_divisor=1, epochs=steps, ordering="given",
                         record_steps=False)
    return [*ensemble_steps(cfg, [Ingredient("target", target)], state)][-1]


def _in_round(t: int, party: str, run, *args):
    """run(*args), an engine run, with an EngineError's message prefixed by the round and the party."""
    try:
        return run(*args)
    except EngineError as exc:
        raise EngineError(f"round {t}, {party}: {exc}") from exc


def _simulate(cfg: FedConfig, server: OptimizerSpec, client_soup: str | EnsembleConfig) -> FedResult:
    """The rounds: train the sampled clients from the global iterate, soup
    their results into w_t (linearly, or by a nested engine run), and take
    one server step along x_{t-1} - w_t, with one optimizer state across
    rounds."""
    validate_compatible([cfg.init, *(c.objective_center for c in cfg.clients)],
                        ["init", *(f"client {c.id!r} center" for c in cfg.clients)])
    center_mean = soup([c.objective_center for c in cfg.clients])
    state = OptimizerState()
    x = cfg.init
    logs: list[RoundLog] = []
    for t in range(1, cfg.rounds + 1):
        participants = _sample_participants(cfg, t)
        results = [_in_round(t, f"client {c.id!r}", client_train, x, c) for c in participants]
        if isinstance(client_soup, EnsembleConfig):
            ingredients = [Ingredient(c.id, w) for c, w in zip(participants, results)]
            w_t, _ = _in_round(t, "client soup", run_ensemble, client_soup, ingredients)
        else:
            w_t = soup(results)
        x_prev = x
        x = _in_round(t, "server", _descend, x, w_t, state, server, 1)
        logs.append(
            RoundLog(
                round=t,
                participants=tuple(c.id for c in participants),
                delta_norm=l2_distance(w_t, x_prev),
                distance_to_center_mean=l2_distance(x, center_mean),
            )
        )
    return FedResult(rounds=logs, final=x)


def simulate_fedopt(cfg: FedConfig) -> FedResult:
    """Adaptive federated optimization: server optimizer over averaged deltas.

    delta_t = mean_i(x_{i,K} - x_{t-1}) = client_mean - x_{t-1}; the server
    descends along its negation, moving toward the client mean.
    """
    if cfg.server is None:
        raise ValueError("fedopt requires a server optimizer")
    return _simulate(cfg, cfg.server, "linear")


def simulate_fedsoup(cfg: FedConfig) -> FedResult:
    """Nested ensembling: soup the round's clients, then stew on the server.

    The stew's pseudogradient is x_{t-1} - w_t, the closed form whose GD lr-1
    step reproduces FedAvg; the server optimizer state persists across rounds.
    With a linear client soup this is fedopt with the stew as its server.
    """
    if cfg.server_stew is None:
        raise ValueError("fedsoup requires a server_stew optimizer")
    return _simulate(cfg, cfg.server_stew, cfg.client_soup)
