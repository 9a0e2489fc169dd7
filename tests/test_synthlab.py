import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from soupstock import rng as rng_mod
from soupstock import synthlab
from soupstock.engine import EngineError, EnsembleConfig, Ingredient, ProvidedInit, run_ensemble
from soupstock.optim import Adadelta, Adam, OptimizerSpec
from soupstock.pseudograd import CappedPower, Constant
from soupstock.synthlab import (
    ConvergenceReport,
    DistributionSpec,
    TrialConfig,
    cauchy_from_uniform,
    convergence_check,
    cycle_counterexample,
    cycle_ingredients,
    default_estimator_config,
    run_estimator_trials,
    sample_population,
    sequential_mean,
    soup_wlln,
    _median,
    _tail_schedule_sum,
)
from soupstock.weightstore import WeightMap

from conftest import another_thread_running


# --- sampling -------------------------------------------------------------------


def test_cauchy_inverse_cdf_median_is_zero():
    assert cauchy_from_uniform(np.array([0.5]))[0] == 0.0


def test_gaussian_population_mean_near_zero():
    spec = DistributionSpec(kind="gaussian", dimension=2)
    pts = sample_population(spec, 100_000, seed=5)
    mean = pts.astype(np.float64).mean(axis=0)
    assert np.all(np.abs(mean) < 4.0 / math.sqrt(100_000))


def test_sampling_deterministic():
    spec = DistributionSpec(kind="cauchy", dimension=2)
    a = sample_population(spec, 1000, seed=9)
    b = sample_population(spec, 1000, seed=9)
    np.testing.assert_array_equal(a, b)
    c = sample_population(spec, 1000, seed=10)
    assert not np.array_equal(a, c)


def test_custom_affine_and_validation():
    spec = DistributionSpec(kind="gaussian", dimension=1, mean=3.0, scale=0.0)
    pts = sample_population(spec, 50, seed=1)
    np.testing.assert_array_equal(pts, np.full((50, 1), 3.0, dtype=np.float32))
    with pytest.raises(ValueError):
        DistributionSpec(kind="pareto")
    with pytest.raises(ValueError):
        DistributionSpec(kind="gaussian", scale=-1.0)


# --- cycle ----------------------------------------------------------------------


def test_cycle_single_cycle_orbit():
    res = cycle_counterexample(k=1.0, omega=1.0, cycles=1)
    np.testing.assert_allclose(
        res.points[1:], [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]], atol=1e-12
    )


def test_cycle_period_four_for_random_parameters():
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = float(rng.uniform(0.1, 5.0))
        omega = float(rng.uniform(0.1, 10.0))
        res = cycle_counterexample(k=k, omega=omega, cycles=3)
        # every 4th point returns to (omega, 0) up to float drift
        for c in range(1, 4):
            err = np.linalg.norm(res.points[4 * c] - res.points[0])
            assert err < 1e-5 * omega
        assert res.max_l1_drift() < 1e-5 * omega


def test_cycle_long_run_drift():
    res = cycle_counterexample(k=1.0, omega=1.0, cycles=2500)
    assert res.return_error() < 1e-5
    assert res.max_l1_drift() < 1e-5


def test_cycle_csv(tmp_path):
    res = cycle_counterexample(k=1.0, omega=1.0, cycles=3)
    path = tmp_path / "cycle.csv"
    res.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,x,y,l1_norm"
    assert len(lines) == 1 + 12  # one row per step taken


def test_cycle_validation():
    with pytest.raises(ValueError):
        cycle_counterexample(k=0.0, omega=1.0, cycles=1)
    with pytest.raises(ValueError):
        cycle_counterexample(k=1.0, omega=1.0, cycles=0)


# --- convergence check -------------------------------------------------------------


def test_convergence_alpha_validated():
    pts = cycle_ingredients(1.0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        convergence_check(alpha=-1.0, c=1.0, ingredients=pts, steps=100)
    with pytest.raises(ValueError, match="alpha"):
        convergence_check(alpha=-0.5, c=1.0, ingredients=pts, steps=100)


def test_convergence_decaying_schedule_settles():
    pts = cycle_ingredients(1.0, 1.0)
    traj, report = convergence_check(
        alpha=-1.5, c=1.0, ingredients=pts, steps=20_000, init=np.array([1.0, 0.0])
    )
    assert isinstance(report, ConvergenceReport)
    assert report.radius == pytest.approx(math.sqrt(5.0))
    assert report.cap == pytest.approx(1.0 / (2.0 * math.sqrt(5.0)))
    assert report.converged
    assert report.max_tail_displacement < report.tail_bound
    assert traj.shape == (20_001, 2)


def test_convergence_steeper_decay_gives_smaller_tail():
    pts = cycle_ingredients(1.0, 1.0)
    _, mild = convergence_check(alpha=-1.01, c=1.0, ingredients=pts, steps=20_000, init=np.array([1.0, 0.0]))
    _, steep = convergence_check(alpha=-2.0, c=1.0, ingredients=pts, steps=20_000, init=np.array([1.0, 0.0]))
    assert steep.max_tail_displacement < mild.max_tail_displacement


def test_constant_lr_control_violates_decayed_bound():
    pts = cycle_ingredients(1.0, 1.0)
    _, report = convergence_check(
        alpha=-1.5, c=1.0, ingredients=pts, steps=20_000, init=np.array([1.0, 0.0])
    )
    cyc = cycle_counterexample(k=1.0, omega=1.0, cycles=500)
    tail = cyc.points[int(0.9 * len(cyc.points)) :]
    control_disp = float(np.max(np.linalg.norm(tail - tail[0], axis=1)))
    assert control_disp > report.tail_bound
    assert control_disp >= 1.0  # the orbit keeps moving by a full radius


def test_convergence_cumulative_bound_holds_at_many_tail_points():
    pts = cycle_ingredients(1.0, 1.0)
    for frac in (0.5, 0.25, 0.1):
        _, report = convergence_check(
            alpha=-1.5, c=1.0, ingredients=pts, steps=10_000,
            init=np.array([1.0, 0.0]), tail_fraction=frac,
        )
        assert report.converged


def test_tail_schedule_sum_closed_form():
    # alpha = -2: the remainder int_U^inf c*t^-2 dt is exactly c/U.
    sched = CappedPower(coeff=3.0, exponent=-2.0, cap=10.0)
    assert _tail_schedule_sum(sched, 9, 8) == pytest.approx(3.0 / 8, rel=1e-15)
    explicit = math.fsum(min(3.0 * t**-2.0, 10.0) for t in range(1, 9))
    assert _tail_schedule_sum(sched, 1, 8) == pytest.approx(explicit + 3.0 / 8, rel=1e-14)
    capped = CappedPower(coeff=3.0, exponent=-2.0, cap=0.5)
    expected = math.fsum(min(3.0 * t**-2.0, 0.5) for t in range(1, 9)) + 3.0 / 8
    assert _tail_schedule_sum(capped, 1, 8) == pytest.approx(expected, rel=1e-14)


def test_convergence_adam_projected_variant():
    pts = cycle_ingredients(1.0, 1.0)
    spec = OptimizerSpec(Adam(lr=Constant(1.0), beta1=0.5, beta2=0.9, eps=1e-8))
    _, report = convergence_check(
        alpha=-1.5, c=1.0, ingredients=pts, steps=20_000,
        optimizer=spec, init=np.array([1.0, 0.0]),
    )
    assert report.converged


def test_convergence_adam_requires_momentum_inequality():
    pts = cycle_ingredients(1.0, 1.0)
    with pytest.warns(UserWarning):
        spec = OptimizerSpec(Adam(lr=Constant(1.0), beta1=0.9, beta2=0.8, eps=1e-8))
    with pytest.raises(ValueError, match="beta1"), pytest.warns(UserWarning):
        convergence_check(alpha=-1.5, c=1.0, ingredients=pts, steps=1000, optimizer=spec)


def test_convergence_rejects_adadelta():
    pts = cycle_ingredients(1.0, 1.0)
    spec = OptimizerSpec(Adadelta(lr=Constant(1.0), rho=0.9, eps=1e-6))
    with pytest.raises(ValueError, match="no tail bound"):
        convergence_check(alpha=-1.5, c=1.0, ingredients=pts, steps=1000, optimizer=spec)


# --- WLLN ----------------------------------------------------------------------------


def test_wlln_coverage_improves_with_n():
    spec = DistributionSpec(kind="gaussian", dimension=2)
    result = soup_wlln(spec, sizes=[10, 100, 1000, 10000], trials=60, seed=33, epsilon=0.1)
    fractions = result.fractions()
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] > fractions[0]


def test_wlln_degenerate_distribution_exact():
    spec = DistributionSpec(kind="gaussian", dimension=2, mean=1.5, scale=0.0)
    result = soup_wlln(spec, sizes=[10, 100], trials=20, seed=1, epsilon=1e-12)
    assert result.fractions() == [1.0, 1.0]


def test_wlln_rejects_cauchy():
    with pytest.raises(ValueError, match="first moment undefined"):
        soup_wlln(DistributionSpec(kind="cauchy"), sizes=[10], trials=5, seed=0)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")])
def test_wlln_rejects_an_epsilon_that_covers_nothing(epsilon):
    with pytest.raises(ValueError, match="epsilon must be > 0"):
        soup_wlln(DistributionSpec(kind="gaussian"), sizes=[10], trials=5, seed=0, epsilon=epsilon)


def test_wlln_csv(tmp_path):
    result = soup_wlln(DistributionSpec(kind="gaussian"), sizes=[10, 100], trials=10, seed=3)
    path = tmp_path / "wlln.csv"
    result.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,fraction"
    assert len(lines) == 3


# --- estimator trials -------------------------------------------------------------------


def small_trial_config(kind: str, **kw) -> TrialConfig:
    base = default_estimator_config(kind, seed=7)
    defaults = dict(population_size=2000, subsample_size=60, trials=6, batch_size=10, ensemble_epochs=20)
    defaults.update(kw)
    return replace(base, **defaults)


def test_estimator_trials_reproducible():
    cfg = small_trial_config("cauchy")
    a = run_estimator_trials(cfg)
    b = run_estimator_trials(cfg)
    assert a.rows == b.rows
    assert a.reference == b.reference


def test_estimator_full_subsample_soup_equals_population_mean():
    cfg = small_trial_config("gaussian", population_size=200, subsample_size=200, trials=2, batch_size=20)
    res = run_estimator_trials(cfg)
    for row in res.rows:
        assert row.soup == res.population_mean


def test_estimator_reference_selection():
    res_c = run_estimator_trials(small_trial_config("cauchy", trials=2))
    assert res_c.reference == res_c.population_median
    res_g = run_estimator_trials(small_trial_config("gaussian", trials=2))
    assert res_g.reference == res_g.population_mean


def test_estimator_csv(tmp_path):
    res = run_estimator_trials(small_trial_config("gaussian", trials=3))
    path = tmp_path / "trials.csv"
    res.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial,soup_x,soup_y,ame_x,ame_y,dist_soup,dist_ame"
    assert len(lines) == 4


def test_estimator_adam_tracks_robust_center_on_heavy_tails():
    # Scaled-down version of the heavy-tail experiment: the adaptive merge
    # lands closer to the population median than the plain soup does.
    cfg = small_trial_config("cauchy", trials=12, ensemble_epochs=60)
    res = run_estimator_trials(cfg)
    assert res.median_dist_ame() < res.median_dist_soup()


def test_estimator_gap_shrinks_with_gentler_adam():
    # Pinned 3-point grid: smaller momenta and lr with more epochs bring the
    # merged estimate monotonically closer to the soup on Gaussian data.
    gaps = []
    for lr, beta, epochs in [(0.1, 0.5, 50), (0.05, 0.35, 100), (0.01, 0.2, 200)]:
        cfg = TrialConfig(
            distribution=DistributionSpec(kind="gaussian"),
            optimizer=OptimizerSpec(Adam(lr=Constant(lr), beta1=beta, beta2=beta, eps=1e-8)),
            trials=20,
            ensemble_epochs=epochs,
            seed=1234,
        )
        gaps.append(float(run_estimator_trials(cfg).median_abs_gap().max()))
    assert gaps[0] > gaps[1] > gaps[2]


def per_trial_estimates(cfg: TrialConfig) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """(soup, merged) per trial, each trial merged by its own plain engine run."""
    pts = sample_population(cfg.distribution, cfg.population_size, cfg.seed)
    init = WeightMap({"point": np.asarray(cfg.init_point, dtype=np.float32)})
    out = []
    for trial in range(cfg.trials):
        rng = rng_mod.stream(cfg.seed, rng_mod.DOMAIN_TRIAL, trial)
        idx = np.sort(rng.choice(cfg.population_size, size=cfg.subsample_size, replace=False))
        sample = pts[idx]
        ingredients = [Ingredient(f"p{i:05d}", WeightMap({"point": x})) for i, x in enumerate(sample)]
        run_cfg = EnsembleConfig(
            optimizer=cfg.optimizer,
            pivot_init=ProvidedInit(init),
            epochs=cfg.ensemble_epochs,
            batch_size=cfg.batch_size,
            shuffle=cfg.shuffle,
            seed=int(rng.integers(0, 2**63)),
            ordering="given",
            record_steps=False,
        )
        merged, _ = run_ensemble(run_cfg, ingredients)
        soup = tuple(float(v) for v in sequential_mean(sample))
        out.append((soup, tuple(float(v) for v in merged.array("point"))))
    return out


@pytest.mark.parametrize("kind", ["cauchy", "gaussian"])
def test_estimator_trials_match_per_trial_engine_runs(kind):
    cfg = small_trial_config(kind, trials=5, batch_size=7)
    rows = run_estimator_trials(cfg).rows
    assert [(r.soup, r.ame) for r in rows] == per_trial_estimates(cfg)


def test_estimator_worker_pool_matches_serial():
    cfg = small_trial_config("gaussian", trials=6)
    serial = run_estimator_trials(cfg, workers=1)
    for workers in (2, 3, 20):  # 20 runs six chunks of one trial
        assert run_estimator_trials(cfg, workers=workers).rows == serial.rows
    with another_thread_running():
        assert run_estimator_trials(cfg, workers=2).rows == serial.rows


def test_estimator_chunk_failing_in_a_child_raises_as_in_one_process(monkeypatch):
    real_estimates, real_fork, forks = synthlab._trial_estimates, os.fork, []

    def estimates(cfg, trials):
        if 4 in trials:  # in the second of two chunks
            raise ValueError("trial 4 failed")
        return real_estimates(cfg, trials)

    def fork():
        forks.append(len(forks))
        return real_fork()

    monkeypatch.setattr(synthlab, "_trial_estimates", estimates)
    monkeypatch.setattr(os, "fork", fork)
    cfg = small_trial_config("gaussian", trials=6)
    for workers in (1, 2):
        with pytest.raises(ValueError) as info:
            run_estimator_trials(cfg, workers=workers)
        assert type(info.value) is ValueError and str(info.value) == "trial 4 failed"
    assert forks == [0]


def test_estimator_worker_that_dies_raises_its_exit_status(monkeypatch):
    parent, real = os.getpid(), synthlab._trial_estimates

    def estimates_or_exit(cfg, trials):
        if os.getpid() != parent:
            os._exit(3)
        return real(cfg, trials)

    monkeypatch.setattr(synthlab, "_trial_estimates", estimates_or_exit)
    with pytest.raises(EngineError, match="^worker process exited with status 3 before reporting$"):
        run_estimator_trials(small_trial_config("gaussian", trials=4), workers=2)


def test_trial_config_validation():
    base = default_estimator_config("gaussian")
    with pytest.raises(ValueError):
        replace(base, subsample_size=base.population_size + 1)
    with pytest.raises(ValueError):
        replace(base, batch_size=0)
    with pytest.raises(ValueError):
        replace(base, distribution=DistributionSpec(kind="gaussian", dimension=3))


def test_sequential_mean_matches_loop():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((500, 2)).astype(np.float32)
    acc = pts[0].astype(np.float64).copy()
    for row in pts[1:]:
        acc += row
    np.testing.assert_array_equal(sequential_mean(pts), acc / 500.0)


# --- median ------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (8,), (301, 2), (300, 3)], ids=str)
def test_median_matches_numpy_bit_for_bit(shape):
    rng = np.random.default_rng(31)
    values = rng.standard_cauchy(shape)
    values.flat[::5] = 0.0
    values.flat[1::5] = -0.0
    assert np.asarray(_median(values)).tobytes() == np.asarray(np.median(values, axis=0)).tobytes()
    listed = values.tolist()
    assert np.asarray(_median(listed)).tobytes() == np.asarray(np.median(listed, axis=0)).tobytes()
    values[len(values) // 2] = np.nan
    assert np.asarray(_median(values)).tobytes() == np.asarray(np.median(values, axis=0)).tobytes()


def test_estimator_run_does_not_import_numpy_ma(tmp_path):
    import soupstock

    src = os.path.dirname(os.path.dirname(os.path.abspath(soupstock.__file__)))
    code = (
        "import sys; from soupstock.cli import main; "
        "code = main(sys.argv[1:]); print('numpy.ma' in sys.modules); sys.exit(code)"
    )
    argv = ["synth", "estimators", "--dist", "cauchy", "--population", "2000", "--subsample", "40",
            "--trials", "3", "--batch-size", "8", "--epochs", "5", "-o", str(tmp_path / "est.csv")]
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"

