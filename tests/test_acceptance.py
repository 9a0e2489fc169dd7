"""Acceptance suite: one test per criterion, each printing a PASS line.

Every criterion pins its tolerance and its runtime budget; fixtures are seeded
and the expected values come from independent routes (direct means, hand
recurrences, closed-form iterates, quadrature bounds).
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from soupstock.cli import main
from soupstock.engine import (
    EnsembleConfig,
    Greedy,
    Ingredient,
    IngredientInit,
    ProvidedInit,
    run_ensemble,
)
from soupstock.fedlab import ClientSpec, FedConfig, simulate_fedopt, simulate_fedsoup
from soupstock.optim import GD, Adagrad, OptimizerSpec, OptimizerState, optimizer_step
from soupstock.pseudograd import (
    AdaptivePivot,
    Constant,
    Harmonic,
    pivot_identity,
    soup,
)
from soupstock.synthlab import (
    DistributionSpec,
    convergence_check,
    cycle_counterexample,
    cycle_ingredients,
    default_estimator_config,
    run_estimator_trials,
    soup_wlln,
)
from soupstock.weightstore import (
    WeightMap,
    l2_distance,
    load_checkpoint,
    save_checkpoint,
)

from conftest import random_weightmaps


class Budget:
    def __init__(self, number: int, name: str, limit_s: float):
        self.number, self.name, self.limit = number, name, limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} ({elapsed:.2f}s, budget {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded budget: {elapsed:.2f}s"


def _assert_close_rel(actual: WeightMap, expected: WeightMap, rtol: float) -> None:
    for name in expected:
        np.testing.assert_allclose(actual.array(name), expected.array(name), rtol=rtol, atol=0)


def _fixture_sets():
    return {
        n: [Ingredient(f"m{i:02d}", m) for i, m in enumerate(random_weightmaps(5000 + n, n, low=0.5, high=1.5))]
        for n in (1, 2, 4, 8, 16, 32)
    }


def test_criterion_01_soup_equivalence():
    with Budget(1, "soup-equivalence", 5.0):
        for n, ingredients in _fixture_sets().items():
            target = soup([i.weights for i in ingredients])
            pivot = random_weightmaps(6000 + n, 1, low=-3.0, high=3.0)[0]
            cfg = EnsembleConfig(
                optimizer=OptimizerSpec(GD(lr=Harmonic(offset=0))),
                pivot_policy=AdaptivePivot(),
                pivot_init=ProvidedInit(pivot),
                amplification=Constant(1.0),
                n_divisor=1,
                epochs=1,
                batch_size=1,
                shuffle=False,
                ordering="given",
            )
            merged, _ = run_ensemble(cfg, ingredients)
            _assert_close_rel(merged, target, rtol=1e-6)


def test_criterion_02_soup_equivalence_footnote_variant():
    with Budget(2, "soup-equivalence-from-first-ingredient", 5.0):
        for n, ingredients in _fixture_sets().items():
            target = soup([i.weights for i in ingredients])
            cfg = EnsembleConfig(
                optimizer=OptimizerSpec(GD(lr=Harmonic(offset=1))),
                pivot_policy=AdaptivePivot(),
                pivot_init=IngredientInit("m00"),
                amplification=Constant(1.0),
                n_divisor=1,
                epochs=1,
                batch_size=1,
                shuffle=False,
                ordering="given",
            )
            merged, _ = run_ensemble(cfg, ingredients)
            _assert_close_rel(merged, target, rtol=1e-6)


def test_criterion_03_pivot_identity():
    with Budget(3, "pivot-identity", 2.0):
        maps = random_weightmaps(7000, 16, low=0.5, high=1.5)
        target = soup(maps)
        rng = np.random.default_rng(7001)
        for _ in range(100):
            pivot = WeightMap(
                {name: rng.uniform(-100, 100, size=arr.shape) for name, arr in target.arrays().items()}
            )
            out = pivot_identity(pivot, maps)
            _assert_close_rel(out, target, rtol=1e-6)


def test_criterion_04_cycle_counterexample():
    with Budget(4, "cycle-counterexample", 1.0):
        res = cycle_counterexample(k=1.0, omega=1.0, cycles=2500)  # 10,000 steps
        expected_orbit = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
        for c in range(4):
            np.testing.assert_allclose(res.points[1 + 4 * c : 5 + 4 * c], expected_orbit, atol=1e-9)
        assert res.return_error() < 1e-4
        assert res.max_l1_drift() < 1e-4


def test_criterion_05_decaying_schedule_convergence():
    with Budget(5, "decaying-schedule-convergence", 10.0):
        pts = cycle_ingredients(1.0, 1.0)
        _, report = convergence_check(
            alpha=-1.5, c=1.0, ingredients=pts, steps=100_000, init=np.array([1.0, 0.0])
        )
        assert report.cap == pytest.approx(1.0 / (2.0 * np.sqrt(5.0)))
        assert report.max_tail_displacement < report.tail_bound
        # the constant-lr control from criterion 4 keeps orbiting and breaks the bound
        control = cycle_counterexample(k=1.0, omega=1.0, cycles=2500)
        tail = control.points[int(0.9 * len(control.points)) :]
        control_disp = float(np.max(np.linalg.norm(tail - tail[0], axis=1)))
        assert control_disp > report.tail_bound


def test_criterion_06_soup_wlln_coverage():
    with Budget(6, "soup-wlln-coverage", 30.0):
        result = soup_wlln(
            DistributionSpec(kind="gaussian", dimension=2),
            sizes=[10, 100, 1000, 10000],
            trials=200,
            seed=42,
            epsilon=0.1,
        )
        fractions = result.fractions()
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] > 0.99


def test_criterion_07_adagrad_matches_gd_with_huge_eps():
    with Budget(7, "adagrad-approaches-gd", 2.0):
        eps = 1e6
        eta_tilde = 1.0
        rng = np.random.default_rng(7777)
        w = WeightMap({"w": rng.standard_normal(16).astype(np.float32)})
        spec_ada = OptimizerSpec(Adagrad(lr=Constant(eta_tilde * eps), eps=eps))
        spec_gd = OptimizerSpec(GD(lr=Constant(eta_tilde)))
        state_ada = OptimizerState()
        for _ in range(100):
            g = WeightMap({"w": rng.standard_normal(16).astype(np.float32)})
            stepped_gd = optimizer_step(w, g, OptimizerState(), spec_gd)
            stepped_ada = optimizer_step(w, g, state_ada, spec_ada)
            step_size = l2_distance(stepped_gd, w)
            assert l2_distance(stepped_ada, stepped_gd) < 1e-3 * step_size
            w = stepped_gd


def test_criterion_08_cauchy_estimator_trials():
    with Budget(8, "cauchy-estimators", 120.0):
        cfg = default_estimator_config("cauchy", seed=7)
        assert cfg.optimizer.variant.lr == Constant(0.1)
        assert (cfg.trials, cfg.subsample_size, cfg.population_size) == (300, 300, 60000)
        result = run_estimator_trials(cfg)
        assert result.median_dist_ame() < result.median_dist_soup()


def test_criterion_09_gaussian_estimator_control():
    with Budget(9, "gaussian-estimator-control", 120.0):
        cfg = default_estimator_config("gaussian", seed=7)
        assert cfg.optimizer.variant.lr == Constant(0.01)
        result = run_estimator_trials(cfg)
        gap = result.median_abs_gap()
        assert np.all(gap < 0.5)


def test_criterion_10_fedsoup_reduction():
    with Budget(10, "fedsoup-reduction", 5.0):
        rng = np.random.default_rng(1010)
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
            base = dict(clients=clients, init=init, rounds=5, sample_size=n_clients, seed=trial)
            res_opt = simulate_fedopt(FedConfig(server=OptimizerSpec(GD(lr=Constant(1.0))), **base))
            res_soup = simulate_fedsoup(
                FedConfig(server_stew=OptimizerSpec(GD(lr=Constant(1.0))), client_soup="linear", **base)
            )
            # closed-form FedAvg iterate over the quadratic clients
            x = init.array("w").astype(np.float64)
            for _round in range(5):
                locals_ = [
                    c.objective_center.array("w")
                    + (1.0 - c.local_optimizer.variant.lr.value) ** c.local_steps
                    * (x - c.objective_center.array("w"))
                    for c in clients
                ]
                x = np.mean(locals_, axis=0)
            assert l2_distance(res_opt.final, res_soup.final) < 1e-7
            assert float(np.max(np.abs(res_opt.final.array("w") - x))) < 1e-7
            for a, b in zip(res_opt.rounds, res_soup.rounds):
                assert a.participants == b.participants
                assert abs(a.delta_norm - b.delta_norm) < 1e-7
                assert abs(a.distance_to_center_mean - b.distance_to_center_mean) < 1e-7

        # two-client hand example
        hand = simulate_fedsoup(
            FedConfig(
                clients=tuple(
                    ClientSpec(
                        id=f"h{i}",
                        objective_center=WeightMap({"w": np.array(c, dtype=np.float32)}),
                        local_optimizer=OptimizerSpec(GD(lr=Constant(1.0))),
                    )
                    for i, c in enumerate([(0.0, 0.0), (2.0, 0.0)])
                ),
                init=WeightMap({"w": np.zeros(2, dtype=np.float32)}),
                rounds=1,
                sample_size=2,
                server_stew=OptimizerSpec(GD(lr=Constant(1.0))),
            )
        )
        np.testing.assert_array_equal(hand.final.array("w"), [1.0, 0.0])


def test_criterion_11_greedy_monotonicity():
    with Budget(11, "greedy-monotonicity", 5.0):
        for run in range(20):
            target = random_weightmaps(9000 + run, 1)[0]
            start = random_weightmaps(9100 + run, 1, low=-2.0, high=2.0)[0]
            ingredients = [Ingredient(f"m{i}", target) for i in range(6)]
            cfg = EnsembleConfig(
                optimizer=OptimizerSpec(GD(lr=Constant(0.35))),
                pivot_policy=AdaptivePivot(),
                pivot_init=ProvidedInit(start),
                n_divisor=6,
                ordering="given",
            )
            merged, record = run_ensemble(replace(cfg, greedy=Greedy(target)), ingredients)
            accepted_metrics = [s.metric for s in record.steps if s.accepted]
            assert all(b > a for a, b in zip(accepted_metrics, accepted_metrics[1:]))
            assert -l2_distance(merged, target) >= -l2_distance(start, target)

            # adversarial fixture: exactly the far ingredient's steps are rejected
            adversarial = WeightMap(
                {name: arr + np.float32(40.0) for name, arr in target.arrays().items()}
            )
            adv_ingredients = [
                Ingredient("good0", target),
                Ingredient("bad", adversarial),
                Ingredient("good1", target),
            ]
            adv_cfg = EnsembleConfig(
                optimizer=OptimizerSpec(GD(lr=Constant(0.3))),
                pivot_policy=AdaptivePivot(),
                pivot_init=ProvidedInit(start),
                n_divisor=3,
                ordering="given",
            )
            _, adv_record = run_ensemble(replace(adv_cfg, greedy=Greedy(target)), adv_ingredients)
            flags = {s.batch_ids[0]: s.accepted for s in adv_record.steps}
            assert flags == {"good0": True, "bad": False, "good1": True}


def _run_cli_pair(tmp_path, name, build_argv, outputs):
    payloads = []
    for tag in ("a", "b"):
        run_dir = tmp_path / f"{name}-{tag}"
        run_dir.mkdir()
        assert main(build_argv(run_dir)) == 0
        payloads.append([(run_dir / o).read_bytes() for o in outputs])
    assert payloads[0] == payloads[1], f"{name}: outputs differ between identical runs"


def test_criterion_12_determinism_and_roundtrip(tmp_path, capsys):
    with Budget(12, "determinism-and-roundtrip", 30.0):
        # byte-identical outputs for every command under a fixed seed
        rng = np.random.default_rng(0)
        ing_paths = []
        for i in range(4):
            m = WeightMap(
                {
                    "layer.w": rng.uniform(0.5, 1.5, size=(2, 3)).astype(np.float32),
                    "bias": rng.uniform(0.5, 1.5, size=3).astype(np.float32),
                }
            )
            path = tmp_path / f"ing{i}.safetensors"
            save_checkpoint(m, str(path))
            ing_paths.append(str(path))

        _run_cli_pair(
            tmp_path,
            "soup",
            lambda d: ["soup", *ing_paths, "-o", str(d / "soup.safetensors"), "--quiet"],
            ["soup.safetensors"],
        )

        merge_cfg = {
            "version": 1,
            "ingredients": [{"path": p} for p in ing_paths],
            "ensemble": {
                "optimizer": {"kind": "adam", "lr": 0.05, "beta1": 0.5, "beta2": 0.9},
                "pivot_policy": {"kind": "adaptive"},
                "epochs": 3,
                "batch_size": 2,
                "shuffle": True,
                "seed": 99,
                "ordering": "given",
            },
            "output": {"checkpoint": "merged.safetensors", "log": "run.csv"},
        }
        cfg_path = tmp_path / "merge.json"
        cfg_path.write_text(json.dumps(merge_cfg))
        _run_cli_pair(
            tmp_path,
            "merge",
            lambda d: ["merge", "--config", str(cfg_path), "--out", str(d), "--quiet"],
            ["merged.safetensors", "run.csv"],
        )

        greedy_cfg = json.loads(cfg_path.read_text())
        greedy_cfg["ensemble"]["greedy"] = {
            "enabled": True,
            "evaluator": {"kind": "neg_distance", "target": ing_paths[0]},
        }
        greedy_path = tmp_path / "greedy.json"
        greedy_path.write_text(json.dumps(greedy_cfg))
        _run_cli_pair(
            tmp_path,
            "greedy",
            lambda d: ["greedy", "--config", str(greedy_path), "--out", str(d), "--quiet"],
            ["merged.safetensors", "run.csv"],
        )

        _run_cli_pair(
            tmp_path,
            "estimators",
            lambda d: ["synth", "estimators", "--dist", "cauchy", "--seed", "11",
                       "--population", "800", "--subsample", "50", "--trials", "4",
                       "--batch-size", "10", "--epochs", "8",
                       "-o", str(d / "est.csv"), "--quiet"],
            ["est.csv"],
        )
        _run_cli_pair(
            tmp_path,
            "cycle",
            lambda d: ["synth", "cycle", "--cycles", "50", "-o", str(d / "cycle.csv"), "--quiet"],
            ["cycle.csv"],
        )
        _run_cli_pair(
            tmp_path,
            "convergence",
            lambda d: ["synth", "convergence", "--steps", "5000",
                       "-o", str(d / "traj.csv"), "--quiet"],
            ["traj.csv"],
        )
        _run_cli_pair(
            tmp_path,
            "wlln",
            lambda d: ["synth", "wlln", "--sizes", "10,100", "--trials", "25", "--seed", "6",
                       "-o", str(d / "wlln.csv"), "--quiet"],
            ["wlln.csv"],
        )

        fed_cfg = {
            "version": 1,
            "algorithm": "fedsoup",
            "rounds": 4,
            "sample_size": 2,
            "seed": 13,
            "init": {"values": [0.0, 0.0]},
            "clients": [
                {"id": "c0", "center": {"values": [0.0, 1.0]}, "optimizer": {"kind": "gd", "lr": 0.5}},
                {"id": "c1", "center": {"values": [2.0, 0.0]}, "optimizer": {"kind": "gd", "lr": 0.5}},
                {"id": "c2", "center": {"values": [1.0, 3.0]}, "optimizer": {"kind": "gd", "lr": 0.5}},
            ],
            "server_stew": {"kind": "adagrad", "lr": 0.5, "eps": 1e-8},
            "output": {"log": "rounds.csv", "checkpoint": "final.safetensors"},
        }
        fed_path = tmp_path / "fed.json"
        fed_path.write_text(json.dumps(fed_cfg))
        _run_cli_pair(
            tmp_path,
            "fed",
            lambda d: ["fed", "--config", str(fed_path), "--out", str(d), "--quiet"],
            ["rounds.csv", "final.safetensors"],
        )

        # verify: identical stdout across runs
        assert main(["verify", "soup-eq"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "soup-eq"]) == 0
        second = capsys.readouterr().out
        assert first == second

        # checkpoint round-trip, 1000 random maps, bit-exact
        rng = np.random.default_rng(777)
        path = tmp_path / "roundtrip.safetensors"
        for i in range(1000):
            n_tensors = int(rng.integers(1, 4))
            m = WeightMap(
                {
                    f"t{j}": rng.standard_normal(
                        tuple(int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 3))))
                    ).astype(np.float32)
                    for j in range(n_tensors)
                },
                metadata={"i": str(i)},
            )
            save_checkpoint(m, str(path))
            assert load_checkpoint(str(path)) == m
