import dataclasses
import tracemalloc

import numpy as np
import pytest

from soupstock.engine import EngineError, EnsembleConfig
from soupstock.fedlab import (
    ClientSpec,
    FedConfig,
    FedResult,
    RoundLog,
    client_train,
    simulate_fedopt,
    simulate_fedsoup,
)
from soupstock.optim import GD, Adagrad, Adam, OptimizerSpec, OptimizerState, optimizer_step
from soupstock.pseudograd import (
    AdaptivePivot,
    Constant,
    Harmonic,
    Power,
    _pseudogradient_values,
    pseudogradient_scale,
    soup,
)
from soupstock.weightstore import WeightMap, l2_distance


def wm(*values):
    return WeightMap({"w": np.asarray(values, dtype=np.float32)})


def gd(lr):
    return OptimizerSpec(GD(lr=Constant(lr)))


def make_clients(centers, lr=1.0, steps=1):
    return tuple(
        ClientSpec(id=f"c{i}", objective_center=wm(*c), local_optimizer=gd(lr), local_steps=steps)
        for i, c in enumerate(centers)
    )


def fed_cfg(centers, rounds=1, sample=None, seed=0, **kw):
    clients = make_clients(centers, **{k: kw.pop(k) for k in ("lr", "steps") if k in kw})
    return FedConfig(
        clients=clients,
        init=wm(*([0.0] * len(centers[0]))),
        rounds=rounds,
        sample_size=sample if sample is not None else len(clients),
        seed=seed,
        **kw,
    )


def round_models(simulate, cfg):
    """Round t's model, for every round of cfg: the final model of the run
    of its first t rounds, whose log is the first t rounds' log of the
    whole run (participation is keyed per round)."""
    runs = [simulate(dataclasses.replace(cfg, rounds=t)) for t in range(1, cfg.rounds + 1)]
    for t, run in enumerate(runs, 1):
        assert run.rounds == runs[-1].rounds[:t]
    return [run.final for run in runs]


# --- client training --------------------------------------------------------------


def test_client_one_full_gd_step_reaches_center():
    client = ClientSpec("c", wm(2.0, -1.0), gd(1.0), local_steps=1)
    out = client_train(wm(0.0, 0.0), client)
    assert out == wm(2.0, -1.0)


def test_client_contraction_converges():
    client = ClientSpec("c", wm(3.0), gd(0.5), local_steps=40)
    out = client_train(wm(0.0), client)
    assert l2_distance(out, wm(3.0)) < 1e-6


def test_client_at_center_is_fixed_point():
    center = wm(1.5, -2.5)
    for opt in (gd(1.0), OptimizerSpec(Adam(lr=Constant(0.1), beta1=0.5, beta2=0.9, eps=1e-8))):
        client = ClientSpec("c", center, opt, local_steps=3)
        assert client_train(center, client) == center


# --- fedopt -----------------------------------------------------------------------


def test_fedopt_round_one_is_fedavg_for_two_clients():
    cfg = fed_cfg([(0.0, 0.0), (2.0, 0.0)], rounds=1, server=gd(1.0))
    result = simulate_fedopt(cfg)
    assert result.final == wm(1.0, 0.0)
    assert result.rounds[0].participants == ("c0", "c1")


def test_fedopt_single_client_single_round():
    cfg = fed_cfg([(4.0, 2.0)], rounds=1, sample=1, server=gd(1.0))
    result = simulate_fedopt(cfg)
    client = cfg.clients[0]
    assert result.final == client_train(cfg.init, client)


def test_fedopt_adam_step_magnitude_bounded_by_lr():
    # With beta1 == beta2 the per-coordinate update never exceeds eta.
    eta = 1e-3
    server = OptimizerSpec(Adam(lr=Constant(eta), beta1=0.9, beta2=0.9, eps=1e-8))
    cfg = fed_cfg([(5.0, -3.0), (1.0, 7.0), (-4.0, 2.0)], rounds=20, server=server)
    prev = cfg.init
    for it in round_models(simulate_fedopt, cfg):
        gap = np.abs(it.array("w").astype(np.float64) - prev.array("w"))
        assert np.all(gap <= eta * (1.0 + 1e-6))
        prev = it


def test_fedopt_requires_server():
    cfg = fed_cfg([(1.0,)], rounds=1)
    with pytest.raises(ValueError, match="server"):
        simulate_fedopt(cfg)


def test_fedsoup_requires_a_server_stew():
    cfg = fed_cfg([(1.0,)], rounds=1)
    with pytest.raises(ValueError, match="^fedsoup requires a server_stew optimizer$"):
        simulate_fedsoup(cfg)


def test_fedopt_linear_convergence_to_center_mean():
    centers = [(0.0, 0.0), (2.0, 2.0), (4.0, -1.0), (-2.0, 3.0)]
    cfg = fed_cfg(centers, rounds=50, server=gd(1.0), lr=0.5, steps=1)
    result = simulate_fedopt(cfg)
    dists = [r.distance_to_center_mean for r in result.rounds]
    # contraction factor (1 - lr)^K = 0.5 per round until float noise
    for a, b in zip(dists, dists[1:]):
        if a > 1e-5:
            assert b <= 0.6 * a
    assert dists[-1] < 1e-5


# --- fedsoup ----------------------------------------------------------------------


def test_fedsoup_reduces_to_fedopt_with_gd_servers():
    centers = [(0.0, 0.0), (2.0, 0.0), (1.0, 4.0), (-3.0, 2.0), (0.5, -1.0)]
    base = dict(rounds=8, sample=3, seed=11, lr=0.7, steps=2)
    cfg_opt = fed_cfg(centers, server=gd(1.0), **base)
    cfg_soup = fed_cfg(centers, server_stew=gd(1.0), client_soup="linear", **base)
    res_opt = simulate_fedopt(cfg_opt)
    res_soup = simulate_fedsoup(cfg_soup)
    for a, b in zip(res_opt.rounds, res_soup.rounds):
        assert a.participants == b.participants
        assert a.delta_norm == pytest.approx(b.delta_norm, abs=1e-7)
        assert a.distance_to_center_mean == pytest.approx(b.distance_to_center_mean, abs=1e-7)
    assert l2_distance(res_opt.final, res_soup.final) < 1e-7


def test_fedsoup_frozen_server():
    cfg = fed_cfg([(5.0, 5.0), (1.0, 1.0)], rounds=4, server_stew=gd(0.0))
    result = simulate_fedsoup(cfg)
    assert result.final == cfg.init


def test_fedsoup_two_client_hand_example():
    cfg = fed_cfg([(0.0, 0.0), (2.0, 0.0)], rounds=1, server_stew=gd(1.0))
    result = simulate_fedsoup(cfg)
    assert result.final == wm(1.0, 0.0)
    # delta_1 = ||w_1 - x_0|| with w_1 = (1, 0) and x_0 = (0, 0)
    assert result.rounds[0].delta_norm == pytest.approx(1.0)


def test_fedsoup_nested_engine_client_soup():
    # A nested GD merge with harmonic decay reproduces the linear soup, so the
    # nested-fedsoup run must match the linear one.
    centers = [(0.0, 0.0), (2.0, 0.0), (1.0, 3.0)]
    nested = EnsembleConfig(
        optimizer=OptimizerSpec(GD(lr=Harmonic(offset=0))),
        pivot_policy=AdaptivePivot(),
        n_divisor=1,
        ordering="given",
    )
    cfg_nested = fed_cfg(centers, rounds=3, server_stew=gd(1.0), client_soup=nested, seed=5)
    cfg_linear = fed_cfg(centers, rounds=3, server_stew=gd(1.0), client_soup="linear", seed=5)
    res_nested = simulate_fedsoup(cfg_nested)
    res_linear = simulate_fedsoup(cfg_linear)
    assert l2_distance(res_nested.final, res_linear.final) < 1e-5


def test_server_pseudogradient_identity_every_round():
    # ||w_t - x_{t-1}|| must equal ||mean of client results - x_{t-1}||.
    centers = [(1.0, 0.0), (0.0, 2.0), (-1.0, 1.0)]
    cfg = fed_cfg(centers, rounds=6, sample=2, seed=3, server_stew=gd(0.8), lr=0.6, steps=2)
    result = simulate_fedsoup(cfg)
    x = cfg.init
    for log, model in zip(result.rounds, round_models(simulate_fedsoup, cfg), strict=True):
        participants = [c for c in cfg.clients if c.id in log.participants]
        client_mean = soup([client_train(x, c) for c in participants])
        assert log.delta_norm == pytest.approx(l2_distance(client_mean, x), abs=1e-7)
        x = model


def reference_descend(x, target, state, spec):
    """One optimizer_step on the pseudogradient x - target: the step the
    clients and the server took before they stepped through the engine."""
    g = _pseudogradient_values(x.flat, target.flat, pseudogradient_scale(1.0, 1))
    return optimizer_step(x, WeightMap._wrap(g, x.schema()), state, spec)


def reference_iterates(cfg, server, rounds):
    state, x, iterates = OptimizerState(), cfg.init, []
    for log in rounds:
        results = []
        for client in (c for c in cfg.clients if c.id in log.participants):
            local, w = OptimizerState(), x
            for _ in range(client.local_steps):
                w = reference_descend(w, client.objective_center, local, client.local_optimizer)
            results.append(w)
        x = reference_descend(x, soup(results), state, server)
        iterates.append(x)
    return iterates


@pytest.mark.parametrize("server", [
    OptimizerSpec(Adam(lr=Constant(0.1), beta1=0.5, beta2=0.9, eps=1e-8)),
    OptimizerSpec(Adagrad(lr=Constant(0.3), eps=1e-8), weight_decay=0.02),
], ids=["adam", "adagrad"])
@pytest.mark.parametrize("algorithm", ["fedopt", "fedsoup"])
def test_rounds_match_the_reference_loop(server, algorithm):
    rng = np.random.default_rng(11)
    local = [
        (OptimizerSpec(GD(lr=Constant(0.4)), weight_decay=0.1), 1),
        (OptimizerSpec(Adam(lr=Power(coeff=0.3, exponent=-0.5), beta1=0.5, beta2=0.9, eps=1e-8)), 3),
        (OptimizerSpec(Adagrad(lr=Constant(0.3), eps=1e-8)), 5),
        (gd(0.7), 2),
    ]
    clients = tuple(ClientSpec(f"c{i}", wm(*rng.uniform(-1, 1, 3)), spec, k) for i, (spec, k) in enumerate(local))
    base = dict(clients=clients, init=wm(*rng.uniform(-1, 1, 3)), rounds=6, sample_size=3, seed=5)
    if algorithm == "fedopt":
        simulate, cfg = simulate_fedopt, FedConfig(server=server, **base)
    else:
        simulate, cfg = simulate_fedsoup, FedConfig(server_stew=server, **base)
    result = simulate(cfg)
    models = round_models(simulate, cfg)
    assert models == reference_iterates(FedConfig(**base), server, result.rounds)
    assert result.final == models[-1]


def test_a_runs_memory_does_not_grow_with_its_rounds():
    # No round's model outlives the next round, so 40 rounds peak within one
    # model of 5.
    n = 100_000
    rng = np.random.default_rng(4)
    adam = OptimizerSpec(Adam(lr=Constant(0.1), beta1=0.5, beta2=0.9, eps=1e-8))
    clients = tuple(ClientSpec(f"c{i}", WeightMap({"w": rng.standard_normal(n, dtype=np.float32)}), adam, 2)
                    for i in range(3))
    init = WeightMap({"w": np.zeros(n, dtype=np.float32)})
    peaks = []
    for rounds in (5, 40):
        cfg = FedConfig(clients=clients, init=init, rounds=rounds, sample_size=2, seed=1, server_stew=adam)
        tracemalloc.start()
        try:
            simulate_fedsoup(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 4 * n, peaks


def test_nested_client_soup_that_leaves_the_floats_names_the_round():
    soup_cfg = EnsembleConfig(optimizer=gd(1e38), pivot_policy=AdaptivePivot(), n_divisor=1, ordering="given")
    cfg = fed_cfg([(0.0,), (10.0,)], server_stew=gd(1.0), client_soup=soup_cfg)
    with pytest.raises(EngineError, match=r"^round 1, client soup: non-finite iterate after step 1 \(epoch 1, "):
        simulate_fedsoup(cfg)


# --- participation & config ---------------------------------------------------------


def test_participation_seeded_and_reproducible():
    centers = [(float(i), 0.0) for i in range(10)]
    cfg = fed_cfg(centers, rounds=5, sample=4, seed=21, server=gd(1.0))
    a = simulate_fedopt(cfg)
    b = simulate_fedopt(cfg)
    assert [r.participants for r in a.rounds] == [r.participants for r in b.rounds]
    cfg2 = fed_cfg(centers, rounds=5, sample=4, seed=22, server=gd(1.0))
    c = simulate_fedopt(cfg2)
    assert [r.participants for r in a.rounds] != [r.participants for r in c.rounds]
    sizes = {len(r.participants) for r in a.rounds}
    assert sizes == {4}


def test_fed_config_validation():
    clients = make_clients([(0.0,), (1.0,)])
    with pytest.raises(ValueError, match="rounds"):
        FedConfig(clients=clients, init=wm(0.0), rounds=0, sample_size=1)
    with pytest.raises(ValueError, match="sample_size"):
        FedConfig(clients=clients, init=wm(0.0), rounds=1, sample_size=3)
    with pytest.raises(ValueError, match="client_soup"):
        FedConfig(clients=clients, init=wm(0.0), rounds=1, sample_size=1, client_soup="fancy")
    with pytest.raises(ValueError, match="unique"):
        FedConfig(clients=(clients[0], clients[0]), init=wm(0.0), rounds=1, sample_size=1)
    with pytest.raises(ValueError, match="local_steps"):
        ClientSpec("c", wm(0.0), gd(1.0), local_steps=0)
    with pytest.raises(ValueError, match="^need at least one client$"):
        FedConfig(clients=(), init=wm(0.0), rounds=1, sample_size=1)


def test_round_log_csv(tmp_path):
    cfg = fed_cfg([(0.0, 0.0), (2.0, 0.0)], rounds=2, server=gd(1.0))
    result = simulate_fedopt(cfg)
    path = tmp_path / "rounds.csv"
    result.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,participants,delta_norm,distance_to_center_mean"
    assert len(lines) == 3
    assert lines[1].startswith("1,c0|c1,")


def test_round_log_csv_text(tmp_path):
    rounds = [RoundLog(1, ("c0", "c1"), 0.1, 2 / 3), RoundLog(2, ("c1",), 1e-05, 0.0)]
    result = FedResult(rounds=rounds, final=wm(0.0))
    path = tmp_path / "rounds.csv"
    result.to_csv(str(path))
    assert path.read_bytes() == (
        b"round,participants,delta_norm,distance_to_center_mean\r\n"
        b"1,c0|c1,0.1,0.6666666666666666\r\n"
        b"2,c1,1e-05,0.0\r\n"
    )
