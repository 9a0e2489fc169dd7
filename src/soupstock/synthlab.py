"""Synthetic verification labs.

Three independent checks of the merge machinery on analytic ground truth:

* estimator trials — subsample a heavy-tailed or Gaussian population, treat
  each point as a one-tensor ingredient, and compare the engine's output
  against the plain soup and the population's robust center;
* cycle dynamics — the four-ingredient construction whose constant-step
  descent orbits the l1 sphere forever, plus the decaying-schedule variant
  that provably settles, with a numeric tail bound;
* soup law-of-large-numbers coverage over growing sample sizes.

Lab dynamics that are not weight-map computations (trajectories, bounds,
population statistics) run in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import rng as rng_mod
from .engine import EnsembleConfig, Ingredient, ProvidedInit, run_ensemble, run_in_workers
from .optim import GD, Adagrad, Adam, OptimizerSpec, OptimizerState, optimizer_step, project_to_ball
from .pseudograd import AdaptivePivot, CappedPower, Constant, pseudogradient
from .weightstore import Schema, WeightMap

__all__ = [
    "DistributionSpec",
    "TrialConfig",
    "EstimatorRow",
    "EstimatorResult",
    "CycleResult",
    "ConvergenceReport",
    "WllnResult",
    "sample_population",
    "default_estimator_config",
    "run_estimator_trials",
    "cycle_ingredients",
    "cycle_counterexample",
    "convergence_check",
    "soup_wlln",
    "sequential_mean",
]

KINDS = ("gaussian", "cauchy")


@dataclass(frozen=True)
class DistributionSpec:
    """A sampling family: standard when mean=0 and scale=1, custom otherwise.

    scale=0 degenerates to a point mass at `mean`.
    """

    kind: str
    dimension: int = 2
    mean: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.scale < 0:
            raise ValueError(f"scale must be >= 0, got {self.scale}")


def cauchy_from_uniform(u: np.ndarray) -> np.ndarray:
    """Inverse-CDF transform: tan(pi*(u - 1/2)) for u in (0, 1)."""
    return np.tan(np.pi * (u - 0.5))


def _open_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    # Generator.random() covers [0, 1); nudge exact zeros into the open interval.
    u = rng.random(count)
    return np.where(u == 0.0, np.nextafter(0.0, 1.0), u)


def _standard_normal(rng: np.random.Generator, count: int) -> np.ndarray:
    # Box-Muller: portable and exactly reproducible from the uniform stream.
    half = (count + 1) // 2
    u1 = _open_uniform(rng, half)
    u2 = rng.random(half)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:count]


def sample_population(spec: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """n points from the distribution, rows = points, float32, reproducible."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = rng_mod.stream(seed, rng_mod.DOMAIN_POPULATION)
    count = n * spec.dimension
    if spec.kind == "cauchy":
        raw = cauchy_from_uniform(_open_uniform(rng, count))
    else:
        raw = _standard_normal(rng, count)
    pts = spec.mean + spec.scale * raw
    return pts.reshape(n, spec.dimension).astype(np.float32)


def sequential_mean(points: np.ndarray) -> np.ndarray:
    """Row-order float64 running sum divided by n (matches the soup's rounding)."""
    acc = np.cumsum(points.astype(np.float64), axis=0)
    return acc[-1] / float(len(points))


# --- estimator trials ------------------------------------------------------------


@dataclass(frozen=True)
class TrialConfig:
    distribution: DistributionSpec
    optimizer: OptimizerSpec
    population_size: int = 60000
    subsample_size: int = 300
    trials: int = 300
    init_point: tuple[float, float] = (10.0, 10.0)
    batch_size: int = 20
    ensemble_epochs: int = 200
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.distribution.dimension != 2:
            raise ValueError("estimator trials are two-dimensional (x/y output schema)")
        if self.subsample_size > self.population_size:
            raise ValueError("subsample_size must be <= population_size")
        if not (1 <= self.batch_size <= self.subsample_size):
            raise ValueError("batch_size must lie in [1, subsample_size]")
        if self.trials < 1 or self.ensemble_epochs < 1:
            raise ValueError("trials and ensemble_epochs must be >= 1")
        if len(self.init_point) != self.distribution.dimension:
            raise ValueError("init_point dimension mismatch")


def default_estimator_config(kind: str, seed: int = 0) -> TrialConfig:
    """The reference configuration per distribution: Adam with short-memory
    momenta (beta1=beta2=0.2, eps=1e-8), lr 0.1 for the heavy-tailed run and
    0.01 for the Gaussian control."""
    lr = 0.1 if kind == "cauchy" else 0.01
    return TrialConfig(
        distribution=DistributionSpec(kind=kind),
        optimizer=OptimizerSpec(Adam(lr=Constant(lr), beta1=0.2, beta2=0.2, eps=1e-8)),
        seed=seed,
    )


@dataclass(frozen=True)
class EstimatorRow:
    trial: int
    soup: tuple[float, ...]
    ame: tuple[float, ...]
    dist_soup: float
    dist_ame: float


@dataclass
class EstimatorResult:
    rows: list[EstimatorRow]
    population_mean: tuple[float, ...]
    population_median: tuple[float, ...]
    reference: tuple[float, ...]

    def to_csv(self, path: str) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "soup_x", "soup_y", "ame_x", "ame_y", "dist_soup", "dist_ame"])
            for r in self.rows:
                writer.writerow(
                    [r.trial, *(repr(v) for v in r.soup), *(repr(v) for v in r.ame),
                     repr(r.dist_soup), repr(r.dist_ame)]
                )

    def median_dist_soup(self) -> float:
        return float(_median([r.dist_soup for r in self.rows]))

    def median_dist_ame(self) -> float:
        return float(_median([r.dist_ame for r in self.rows]))

    def median_abs_gap(self) -> np.ndarray:
        """Per-coordinate median over trials of |ame - soup|."""
        gaps = np.abs(np.array([r.ame for r in self.rows]) - np.array([r.soup for r in self.rows]))
        return _median(gaps)


def _median(values) -> np.ndarray:
    """np.median(values, axis=0) of non-empty float64 values, bit for bit:
    the same partition and mean of the middle one or two, and NaN wherever a
    column holds one. np.median's own NaN check imports numpy.ma (a
    noticeable share of a short estimator run) on first use."""
    a = np.asarray(values, dtype=np.float64)
    half = len(a) // 2
    middle = [half - 1, half] if len(a) % 2 == 0 else [half]
    part = np.partition(a, [*middle, -1], axis=0)
    result = np.mean(part[middle[0] : half + 1], axis=0)
    return np.where(np.isnan(part[-1]), part[-1], result)


@lru_cache(maxsize=4)
def _population_cached(kind: str, dimension: int, mean: float, scale: float, n: int, seed: int):
    spec = DistributionSpec(kind=kind, dimension=dimension, mean=mean, scale=scale)
    pts = sample_population(spec, n, seed)
    pts.setflags(write=False)
    return pts


def _trial_estimates(cfg: TrialConfig, trials: range) -> tuple[np.ndarray, np.ndarray]:
    """Soup and merged estimates, float64 (len(trials), d), for a run of trials.

    Each trial draws its subsample and then its shuffle seed from the stream
    (seed, trial index); the trials merge together as replicas of one engine
    run, and each replica's result equals that of a run on its own.
    """
    dist = cfg.distribution
    pts = _population_cached(
        dist.kind, dist.dimension, dist.mean, dist.scale, cfg.population_size, cfg.seed
    )
    samples, seeds = [], []
    for trial in trials:
        rng = rng_mod.stream(cfg.seed, rng_mod.DOMAIN_TRIAL, trial)
        idx = rng.choice(cfg.population_size, size=cfg.subsample_size, replace=False)
        idx.sort()  # population order, so a full-size subsample reproduces it exactly
        samples.append(pts[idx])
        seeds.append(int(rng.integers(0, 2**63)))
    # (point, trial, coordinate): ingredient i is the i-th point of every trial.
    stacked = np.stack(samples, axis=1)
    schema = Schema.from_shapes({"point": stacked.shape[1:]})
    rows = stacked.reshape(cfg.subsample_size, -1)
    ingredients = [
        Ingredient(id=f"p{i:05d}", weights=WeightMap._wrap(rows[i], schema))
        for i in range(cfg.subsample_size)
    ]
    # Same float64 sequential-mean path as the population statistics, so a
    # full-size subsample reproduces the population mean bit for bit.
    soup_est = sequential_mean(stacked)

    init = np.tile(np.asarray(cfg.init_point, dtype=np.float32), len(trials))
    run_cfg = EnsembleConfig(
        optimizer=cfg.optimizer,
        pivot_policy=AdaptivePivot(),
        pivot_init=ProvidedInit(WeightMap._wrap(init, schema)),
        n_divisor=None,
        epochs=cfg.ensemble_epochs,
        batch_size=cfg.batch_size,
        shuffle=cfg.shuffle,
        ordering="given",
        record_steps=False,
    )
    merged, _ = run_ensemble(run_cfg, ingredients, replica_seeds=seeds)
    return soup_est, merged.array("point").astype(np.float64)


def run_estimator_trials(cfg: TrialConfig, workers: int = 1) -> EstimatorResult:
    """Repeated subsample-and-merge trials against one fixed population.

    Each trial owns the stream (seed, trial index) for its subsample and its
    shuffle seed. All trials run as replicas of a single engine run, one
    (trials, d) iterate; with workers > 1 the trials split into that many
    contiguous chunks, each one task of :func:`engine.run_in_workers` run
    that way, and the first chunk to fail raises its exception here (one
    whose worker died, the EngineError naming its exit status). Rows are
    identical for any worker count and come back in trial order.
    """
    dist = cfg.distribution
    pts = _population_cached(
        dist.kind, dist.dimension, dist.mean, dist.scale, cfg.population_size, cfg.seed
    )
    pop_mean = sequential_mean(pts)
    pop_median = _median(pts)
    reference = pop_median if dist.kind == "cauchy" else pop_mean

    workers = max(1, min(workers, cfg.trials))
    bounds = [cfg.trials * k // workers for k in range(workers + 1)]

    chunks = [partial(_trial_estimates, cfg, range(a, b)) for a, b in zip(bounds, bounds[1:])]
    parts = run_in_workers(chunks, workers)
    for part in parts:
        if isinstance(part, Exception):
            raise part
    soups = np.concatenate([soup_est for soup_est, _ in parts])
    ames = np.concatenate([ame_est for _, ame_est in parts])

    rows = []
    for trial, (soup_est, ame_est) in enumerate(zip(soups, ames)):
        rows.append(
            EstimatorRow(
                trial=trial,
                soup=tuple(float(v) for v in soup_est),
                ame=tuple(float(v) for v in ame_est),
                dist_soup=float(np.linalg.norm(soup_est - reference)),
                dist_ame=float(np.linalg.norm(ame_est - reference)),
            )
        )
    return EstimatorResult(
        rows=rows,
        population_mean=tuple(float(v) for v in pop_mean),
        population_median=tuple(float(v) for v in pop_median),
        reference=tuple(float(v) for v in reference),
    )


# --- cycle counterexample -----------------------------------------------------------


def cycle_ingredients(k: float, omega: float) -> np.ndarray:
    """The four points whose constant-step descent orbits the l1 sphere of
    radius omega: (-kw, (k+1)w), (-(k+1)w, -kw), (kw, -(k+1)w), ((k+1)w, kw)."""
    return np.array(
        [
            [-k * omega, (k + 1) * omega],
            [-(k + 1) * omega, -k * omega],
            [k * omega, -(k + 1) * omega],
            [(k + 1) * omega, k * omega],
        ],
        dtype=np.float64,
    )


@dataclass
class CycleResult:
    points: np.ndarray  # (4*cycles + 1, 2) including the initial point
    k: float
    omega: float

    def l1_norms(self) -> np.ndarray:
        return np.abs(self.points).sum(axis=1)

    def return_error(self) -> float:
        """Distance between the start and the end of the last full cycle."""
        return float(np.linalg.norm(self.points[-1] - self.points[0]))

    def max_l1_drift(self) -> float:
        return float(np.max(np.abs(self.l1_norms() - self.omega)))

    def to_csv(self, path: str) -> None:
        # One row per step taken; the starting point (step 0) is not a row.
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "x", "y", "l1_norm"])
            norms = self.l1_norms()
            for step in range(1, len(self.points)):
                pt, norm = self.points[step], norms[step]
                writer.writerow([step, repr(float(pt[0])), repr(float(pt[1])), repr(float(norm))])


def cycle_counterexample(k: float, omega: float, cycles: int) -> CycleResult:
    """Run w <- w - (w - x_t)/(k+1) around the four-ingredient cycle.

    Starting from (omega, 0) the orbit is exactly (omega,0) -> (0,omega) ->
    (-omega,0) -> (0,-omega) -> ... regardless of k; only float drift
    accumulates.
    """
    if k <= 0 or omega <= 0 or cycles < 1:
        raise ValueError("k and omega must be > 0 and cycles >= 1")
    xs = cycle_ingredients(k, omega)
    eta = 1.0 / (k + 1.0)
    w = np.array([omega, 0.0], dtype=np.float64)
    points = np.empty((4 * cycles + 1, 2), dtype=np.float64)
    points[0] = w
    for t in range(4 * cycles):
        w = w - eta * (w - xs[t % 4])
        points[t + 1] = w
    return CycleResult(points=points, k=k, omega=omega)


# --- decaying-schedule convergence ------------------------------------------------------


@dataclass
class ConvergenceReport:
    radius: float
    cap: float
    tail_start: int
    max_tail_displacement: float
    tail_bound: float
    converged: bool
    per_step_factor: float


def _tail_schedule_sum(sched: CappedPower, start: int, explicit_until: int) -> float:
    """Sum_{t >= start} eta_t: explicit partial sum plus an integral bound on
    the remainder (eta_t <= c*t^alpha and the integrand is decreasing, so the
    integral from explicit_until upward dominates the discarded terms).

    For alpha < -1 the remainder has the closed form
    int_U^inf c*t^alpha dt = c*U^(alpha+1) / (-alpha-1).
    """
    t = np.arange(start, explicit_until + 1, dtype=np.float64)
    total = float(np.minimum(sched.coeff * t**sched.exponent, sched.cap).sum())
    alpha = float(sched.exponent)
    remainder = sched.coeff * float(explicit_until) ** (alpha + 1.0) / (-alpha - 1.0)
    return total + remainder


def _bound_factor(spec: OptimizerSpec, radius: float, n_divisor: int, dimension: int) -> float:
    """Per-step displacement factor F with ||w_t - w_{t-1}|| <= F * eta_t."""
    variant = spec.variant
    if isinstance(variant, GD):
        return 2.0 * radius / n_divisor
    if isinstance(variant, Adagrad):
        # per coordinate |g_t| / (sqrt(sum g^2) + eps) <= 1
        return math.sqrt(dimension)
    if isinstance(variant, Adam):
        b1, b2 = variant.beta1, variant.beta2
        if b1**2 >= b2:
            raise ValueError("adam tail bound requires beta1^2 < beta2")
        moment_ratio = (variant.m0**2 / variant.v0) if variant.v0 > 0 else 0.0
        k = math.sqrt(
            moment_ratio + ((1 - b1) ** 2 / (1 - b2)) * (b1 / (b2 - b1**2) + 1.0)
        ) / (1 - b1)
        return math.sqrt(dimension) * k
    raise ValueError(f"no tail bound available for {type(variant).__name__}")


def convergence_check(
    alpha: float,
    c: float,
    ingredients: np.ndarray,
    steps: int,
    optimizer: OptimizerSpec | None = None,
    init: np.ndarray | None = None,
    tail_fraction: float = 0.1,
) -> tuple[np.ndarray, ConvergenceReport]:
    """Cyclic-ingredient descent under eta_t = min(c*t^alpha, 1/(2*radius)).

    Runs the configured optimizer (GD by default; Adam is projected onto the
    origin ball every step) and checks that the maximum displacement over the
    trailing `tail_fraction` of the run stays below the analytic tail bound
    F * sum_{t>n} eta_t.
    """
    if alpha >= -1.0:
        raise ValueError(f"alpha must be < -1 for the decaying-schedule bound, got {alpha}")
    if c <= 0 or steps < 10:
        raise ValueError("c must be > 0 and steps >= 10")
    pts = np.asarray(ingredients, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("ingredients must be an (N, d) array of points")
    if init is None:
        init = pts[0]
    init = np.asarray(init, dtype=np.float64)
    dimension = pts.shape[1]
    n_divisor = 1

    radius = max(float(np.max(np.linalg.norm(pts, axis=1))), float(np.linalg.norm(init)))
    if radius == 0.0:
        raise ValueError("the ingredients and init are all at the origin; the step cap needs a radius > 0")
    cap = 1.0 / (2.0 * radius)
    sched = CappedPower(coeff=c, exponent=alpha, cap=cap)
    spec = optimizer or OptimizerSpec(GD(lr=sched))
    spec = OptimizerSpec(replace(spec.variant, lr=sched), weight_decay=spec.weight_decay)
    factor = _bound_factor(spec, radius, n_divisor, dimension)
    project_adam = isinstance(spec.variant, Adam)
    center = WeightMap({"point": np.zeros(dimension, dtype=np.float32)})

    w = WeightMap({"point": init.astype(np.float32)})
    state = OptimizerState()
    trajectory = np.empty((steps + 1, dimension), dtype=np.float64)
    trajectory[0] = init
    ing_maps = [WeightMap({"point": pts[i].astype(np.float32)}) for i in range(len(pts))]
    for t in range(1, steps + 1):
        g = pseudogradient(w, ing_maps[(t - 1) % len(ing_maps)], 1.0, n_divisor)
        w = optimizer_step(w, g, state, spec)
        if project_adam:
            w = project_to_ball(w, center, radius)
        trajectory[t] = w.flat

    tail_start = int(math.floor(steps * (1.0 - tail_fraction)))
    tail = trajectory[tail_start:]
    max_tail_disp = float(np.max(np.linalg.norm(tail - tail[0], axis=1)))
    bound = factor * _tail_schedule_sum(sched, tail_start + 1, max(steps, 2 * tail_start))
    report = ConvergenceReport(
        radius=radius,
        cap=cap,
        tail_start=tail_start,
        max_tail_displacement=max_tail_disp,
        tail_bound=bound,
        converged=max_tail_disp < bound,
        per_step_factor=factor,
    )
    return trajectory, report


# --- weak law of large numbers -----------------------------------------------------------


@dataclass
class WllnResult:
    rows: list[tuple[int, float]]
    epsilon: float

    def to_csv(self, path: str) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "fraction"])
            for n, fraction in self.rows:
                writer.writerow([n, repr(fraction)])

    def fractions(self) -> list[float]:
        return [f for _n, f in self.rows]


def soup_wlln(
    spec: DistributionSpec,
    sizes: list[int],
    trials: int,
    seed: int,
    epsilon: float = 0.1,
) -> WllnResult:
    """Coverage of |soup_n - mean| < epsilon over growing sample sizes.

    Only finite-mean distributions are accepted; Cauchy-kind specs are
    rejected (first moment undefined).
    """
    if spec.kind == "cauchy":
        raise ValueError("first moment undefined for the Cauchy family; soups do not converge")
    if trials < 1 or not sizes:
        raise ValueError("need at least one size and one trial")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if min(sizes) < 1:
        raise ValueError(f"sample sizes must be >= 1, got {min(sizes)}")
    mean_true = np.full(spec.dimension, float(spec.mean), dtype=np.float64)
    rows: list[tuple[int, float]] = []
    for size_idx, n in enumerate(sizes):
        hits = 0
        for trial in range(trials):
            stream_idx = (size_idx << 32) | trial
            rng = rng_mod.stream(seed, rng_mod.DOMAIN_WLLN, stream_idx)
            raw = _standard_normal(rng, n * spec.dimension)
            pts = (spec.mean + spec.scale * raw).reshape(n, spec.dimension).astype(np.float32)
            soup_n = sequential_mean(pts)
            if float(np.linalg.norm(soup_n - mean_true)) < epsilon:
                hits += 1
        rows.append((n, hits / trials))
    return WllnResult(rows=rows, epsilon=epsilon)
