"""Built-in verification suites: generated fixtures, pass/fail verdicts.

Each suite re-derives its expected values from an independent route (direct
means, hand recurrences, closed-form iterates) and checks the production path
against them at a fixed tolerance. `run_suites` returns results in a stable
order; the CLI renders them as a table. Each suite imports the lab it runs,
so importing this module loads no lab.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .engine import EnsembleConfig, Ingredient, IngredientInit, ProvidedInit, run_ensemble
from .optim import GD, Adagrad, OptimizerSpec, OptimizerState, optimizer_step
from .pseudograd import AdaptivePivot, Constant, Harmonic, soup
from .weightstore import WeightMap, l2_distance

__all__ = ["SuiteResult", "SUITES", "run_suites"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _random_maps(seed: int, count: int, size: int = 12, low=0.5, high=1.5) -> list[WeightMap]:
    rng = rng_mod.stream(seed, rng_mod.DOMAIN_FIXTURE)
    return [
        WeightMap({"w": rng.uniform(low, high, size=size).astype(np.float32)})
        for _ in range(count)
    ]


def _max_rel_err(a: WeightMap, b: WeightMap) -> float:
    x, y = a.flat.astype(np.float64), b.flat.astype(np.float64)
    return float(np.max(np.abs(x - y) / np.maximum(np.abs(y), 1e-30)))


def suite_soup_eq(seed: int = 2024) -> SuiteResult:
    """GD merges with harmonic decay reproduce the uniform soup."""
    worst = 0.0
    for n in (1, 2, 4, 8, 16, 32):
        maps = _random_maps(seed + n, n)
        ingredients = [Ingredient(f"m{i:02d}", m) for i, m in enumerate(maps)]
        target = soup(maps)

        pivot = _random_maps(seed + 1000 + n, 1, low=-3, high=3)[0]
        cfg = EnsembleConfig(
            optimizer=OptimizerSpec(GD(lr=Harmonic(offset=0))),
            pivot_policy=AdaptivePivot(),
            pivot_init=ProvidedInit(pivot),
            n_divisor=1,
            ordering="given",
        )
        merged, _ = run_ensemble(cfg, ingredients)
        worst = max(worst, _max_rel_err(merged, target))

        if n >= 2:
            cfg_footnote = EnsembleConfig(
                optimizer=OptimizerSpec(GD(lr=Harmonic(offset=1))),
                pivot_policy=AdaptivePivot(),
                pivot_init=IngredientInit("m00"),
                n_divisor=1,
                ordering="given",
            )
            merged2, _ = run_ensemble(cfg_footnote, ingredients)
            worst = max(worst, _max_rel_err(merged2, target))
    return SuiteResult("soup-eq", worst <= 1e-6, f"max relative error {worst:.3e} (tol 1e-6)")


def suite_cycle() -> SuiteResult:
    """Constant-step descent around the four-point cycle never settles."""
    from .synthlab import cycle_counterexample

    res = cycle_counterexample(k=1.0, omega=1.0, cycles=2500)
    ret = res.return_error()
    drift = res.max_l1_drift()
    expected = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
    orbit_err = float(np.max(np.abs(res.points[1:5] - expected)))
    ok = ret < 1e-4 and drift < 1e-4 and orbit_err < 1e-9
    return SuiteResult(
        "cycle", ok, f"return error {ret:.3e}, l1 drift {drift:.3e} over 10000 steps (tol 1e-4)"
    )


def suite_convergence() -> SuiteResult:
    """Decaying steps settle below the analytic tail bound; constant steps break it."""
    from .synthlab import convergence_check, cycle_counterexample, cycle_ingredients

    pts = cycle_ingredients(1.0, 1.0)
    _, report = convergence_check(
        alpha=-1.5, c=1.0, ingredients=pts, steps=100_000, init=np.array([1.0, 0.0])
    )
    cyc = cycle_counterexample(k=1.0, omega=1.0, cycles=2500)
    tail = cyc.points[int(0.9 * len(cyc.points)) :]
    control = float(np.max(np.linalg.norm(tail - tail[0], axis=1)))
    ok = report.converged and control > report.tail_bound
    return SuiteResult(
        "convergence",
        ok,
        f"tail displacement {report.max_tail_displacement:.3e} < bound {report.tail_bound:.3e}; "
        f"constant-lr control {control:.3e} violates it",
    )


def suite_adagrad_gd(seed: int = 7) -> SuiteResult:
    """Huge adaptivity with a matched lr collapses adagrad onto plain GD."""
    eps = 1e6
    rng = rng_mod.stream(seed, rng_mod.DOMAIN_FIXTURE)
    w = WeightMap({"w": rng.standard_normal(16).astype(np.float32)})
    spec_ada = OptimizerSpec(Adagrad(lr=Constant(eps), eps=eps))
    spec_gd = OptimizerSpec(GD(lr=Constant(1.0)))
    state_ada = OptimizerState()
    worst = 0.0
    for _ in range(100):
        g = WeightMap({"w": rng.standard_normal(16).astype(np.float32)})
        stepped_gd = optimizer_step(w, g, OptimizerState(), spec_gd)
        stepped_ada = optimizer_step(w, g, state_ada, spec_ada)
        rel = l2_distance(stepped_ada, stepped_gd) / max(l2_distance(stepped_gd, w), 1e-30)
        worst = max(worst, rel)
        w = stepped_gd
    return SuiteResult("adagrad-gd", worst < 1e-3, f"max per-step relative deviation {worst:.3e} (tol 1e-3)")


def suite_fed_reduction(seed: int = 3) -> SuiteResult:
    """Souping clients + GD lr-1 stew == averaged-delta GD server == FedAvg."""
    from .fedlab import ClientSpec, FedConfig, simulate_fedopt, simulate_fedsoup

    rng = rng_mod.stream(seed, rng_mod.DOMAIN_FIXTURE)
    worst = 0.0
    for trial in range(10):
        n_clients = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 4))
        clients = tuple(
            ClientSpec(
                id=f"c{i}",
                objective_center=WeightMap({"w": rng.uniform(-1, 1, size=dim).astype(np.float32)}),
                local_optimizer=OptimizerSpec(GD(lr=Constant(float(rng.uniform(0.3, 1.0))))),
                local_steps=int(rng.integers(1, 4)),
            )
            for i in range(n_clients)
        )
        init = WeightMap({"w": rng.uniform(-1, 1, size=dim).astype(np.float32)})
        base = dict(clients=clients, init=init, rounds=5, sample_size=n_clients, seed=seed + trial)
        res_opt = simulate_fedopt(FedConfig(server=OptimizerSpec(GD(lr=Constant(1.0))), **base))
        res_soup = simulate_fedsoup(
            FedConfig(server_stew=OptimizerSpec(GD(lr=Constant(1.0))), client_soup="linear", **base)
        )
        # closed-form FedAvg iterate: contraction of each client's K-step map
        x = init.array("w").astype(np.float64)
        for _round in range(5):
            locals_ = []
            for c in clients:
                lr = c.local_optimizer.variant.lr.value
                center = c.objective_center.array("w").astype(np.float64)
                locals_.append(center + (1.0 - lr) ** c.local_steps * (x - center))
            x = np.mean(locals_, axis=0)
        worst = max(worst, l2_distance(res_opt.final, res_soup.final))
        worst = max(worst, float(np.max(np.abs(res_opt.final.array("w") - x))))
        for a, b in zip(res_opt.rounds, res_soup.rounds):
            worst = max(worst, abs(a.delta_norm - b.delta_norm))
            worst = max(worst, abs(a.distance_to_center_mean - b.distance_to_center_mean))

    # two-client hand example
    hand_clients = tuple(
        ClientSpec(
            id=f"h{i}",
            objective_center=WeightMap({"w": np.array(c, dtype=np.float32)}),
            local_optimizer=OptimizerSpec(GD(lr=Constant(1.0))),
        )
        for i, c in enumerate([(0.0, 0.0), (2.0, 0.0)])
    )
    hand = simulate_fedsoup(
        FedConfig(
            clients=hand_clients,
            init=WeightMap({"w": np.zeros(2, dtype=np.float32)}),
            rounds=1,
            sample_size=2,
            server_stew=OptimizerSpec(GD(lr=Constant(1.0))),
        )
    )
    hand_ok = np.array_equal(hand.final.array("w"), np.array([1.0, 0.0], dtype=np.float32))
    ok = worst < 1e-7 and hand_ok
    return SuiteResult(
        "fed-reduction", ok, f"max discrepancy {worst:.3e} (tol 1e-7); hand example x1=(1,0): {hand_ok}"
    )


SUITES = {
    "soup-eq": suite_soup_eq,
    "cycle": suite_cycle,
    "convergence": suite_convergence,
    "adagrad-gd": suite_adagrad_gd,
    "fed-reduction": suite_fed_reduction,
}


def run_suites(names: list[str]) -> list[SuiteResult]:
    if names == ["all"]:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; choose from {list(SUITES) + ['all']}")
    return [SUITES[name]() for name in names]
