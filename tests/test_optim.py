import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from soupstock.optim import (
    GD,
    Adadelta,
    Adagrad,
    Adam,
    NonFiniteStep,
    OptimizerSpec,
    OptimizerState,
    _step_blocks,
    optimizer_step,
    project_to_ball,
)
from soupstock.engine import EngineError, EnsembleConfig, Ingredient, ProvidedInit, run_ensemble
from soupstock.pseudograd import (
    CappedPower,
    Constant,
    Explicit,
    Harmonic,
    Power,
    _pseudogradient_values,
    pseudogradient_scale,
)
from soupstock.weightstore import (
    BLOCK,
    CheckpointError,
    WeightMap,
    _add_pieces,
    l2_distance,
    open_checkpoint,
    save_checkpoint,
)



def wm(**tensors):
    return WeightMap({k: np.asarray(v, dtype=np.float32) for k, v in tensors.items()})


def pseudogradient(pivot: WeightMap, x: WeightMap, zeta: float, n_divisor: int) -> WeightMap:
    """(pivot - x) * fl(zeta / n_divisor) over whole maps: the engine's kernel."""
    scale = pseudogradient_scale(zeta, n_divisor)
    return WeightMap._wrap(_pseudogradient_values(pivot.flat, x.flat, scale), pivot.schema())


def grad(values: WeightMap):
    return pseudogradient(values, WeightMap({n: np.zeros_like(a) for n, a in values.arrays().items()}), 1.0, 1)


# --- GD ------------------------------------------------------------------------


def test_gd_basic_step():
    spec = OptimizerSpec(GD(lr=Constant(1.0)))
    out = optimizer_step(wm(a=[1.0]), grad(wm(a=[1.0])), OptimizerState(), spec)
    np.testing.assert_array_equal(out.array("a"), [0.0])


def test_gd_first_harmonic_step_erases_pivot():
    # Values in [1, 2): the subtraction w - x is exact (Sterbenz), so the first
    # step at lr 1 lands exactly on the ingredient.
    rng = np.random.default_rng(0)
    w = wm(a=rng.uniform(1.0, 2.0, size=8))
    x = wm(a=rng.uniform(1.0, 2.0, size=8))
    g = pseudogradient(w, x, zeta=1.0, n_divisor=1)
    out = optimizer_step(w, g, OptimizerState(), OptimizerSpec(GD(lr=Harmonic(offset=0))))
    assert out == x


def test_gd_pure_decay_step():
    spec = OptimizerSpec(GD(lr=Constant(1.0)), weight_decay=0.1)
    out = optimizer_step(wm(a=[10.0]), grad(wm(a=[0.0])), OptimizerState(), spec)
    np.testing.assert_allclose(out.array("a"), [9.0], rtol=1e-6)


def test_gd_step_counter_and_schedule():
    spec = OptimizerSpec(GD(lr=Harmonic(offset=0)))
    state = OptimizerState()
    w = wm(a=[0.0])
    g = grad(wm(a=[1.0]))
    w = optimizer_step(w, g, state, spec)  # eta=1
    w = optimizer_step(w, g, state, spec)  # eta=1/2
    np.testing.assert_allclose(w.array("a"), [-1.5], rtol=1e-7)
    assert state.step == 2


# --- Adagrad ---------------------------------------------------------------------


def test_adagrad_first_step_magnitude():
    # sum of squares is 4 after the first step; eps=1e-12 vanishes in float32.
    spec = OptimizerSpec(Adagrad(lr=Constant(1.0), eps=1e-12))
    out = optimizer_step(wm(a=[5.0]), grad(wm(a=[2.0])), OptimizerState(), spec)
    np.testing.assert_array_equal(out.array("a"), [4.0])


def test_adagrad_zero_gradient_noop():
    spec = OptimizerSpec(Adagrad(lr=Constant(1.0), eps=1e-8))
    state = OptimizerState()
    w = wm(a=[1.0, -2.0])
    out = optimizer_step(w, grad(wm(a=[0.0, 0.0])), state, spec)
    assert out == w
    assert not state.buffers[0].any()


def test_adagrad_matches_gd_with_huge_eps():
    # eta = eta_tilde * eps with eps >> accumulated squared gradients.
    eps = 1e6
    eta_tilde = 1.0
    rng = np.random.default_rng(17)
    w = wm(a=rng.standard_normal(16))
    spec_ada = OptimizerSpec(Adagrad(lr=Constant(eta_tilde * eps), eps=eps))
    spec_gd = OptimizerSpec(GD(lr=Constant(eta_tilde)))
    state_ada = OptimizerState()
    for _ in range(100):
        g = grad(wm(a=rng.standard_normal(16)))
        state_gd = OptimizerState()
        stepped_gd = optimizer_step(w, g, state_gd, spec_gd)
        stepped_ada = optimizer_step(w, g, state_ada, spec_ada)
        denom = l2_distance(stepped_gd, w)
        assert l2_distance(stepped_ada, stepped_gd) < 1e-3 * denom
        w = stepped_gd


def test_adagrad_effective_step_monotone_damping():
    spec = OptimizerSpec(Adagrad(lr=Constant(0.5), eps=1e-8))
    state = OptimizerState()
    rng = np.random.default_rng(3)
    w = wm(a=rng.standard_normal(8))
    prev = None
    for _ in range(20):
        g = grad(wm(a=rng.standard_normal(8)))
        w = optimizer_step(w, g, state, spec)
        eff = 0.5 / (np.sqrt(state.buffers[0]) + np.float32(1e-8))
        if prev is not None:
            assert np.all(eff <= prev + 1e-12)
        prev = eff


# --- Adam -------------------------------------------------------------------------


def test_adam_zero_betas_is_sign_step():
    with pytest.warns(UserWarning, match="beta1"):  # beta1^2 >= beta2 at 0, 0
        spec = OptimizerSpec(Adam(lr=Constant(1.0), beta1=0.0, beta2=0.0, eps=1e-12))
    w = wm(a=[10.0, 10.0])
    out = optimizer_step(w, grad(wm(a=[4.0, -9.0])), OptimizerState(), spec)
    np.testing.assert_array_equal(w.array("a") - out.array("a"), [1.0, -1.0])


def test_adam_zero_gradient_first_step_noop():
    spec = OptimizerSpec(Adam(lr=Constant(0.1), beta1=0.9, beta2=0.999, eps=1e-8))
    w = wm(a=[3.0])
    out = optimizer_step(w, grad(wm(a=[0.0])), OptimizerState(), spec)
    assert out == w


def test_adam_single_step_regression_constant():
    # One step from (10,10) toward (0,0): displacement per coordinate is
    #   1/(1-b1) * eta * (1-b1)*10 / ( sqrt(0.8*100)/sqrt(1-b2) + eps )
    # evaluated here with 64-bit scalars and pinned against the float32 path.
    b = 0.2
    eta = 0.1
    eps = 1e-8
    expected = (1.0 / (1.0 - b)) * eta * ((1.0 - b) * 10.0) / (
        math.sqrt(b * 0.0 + (1.0 - b) * 100.0) / math.sqrt(1.0 - b) + eps
    )
    assert expected == pytest.approx(0.09999999990000001)
    spec = OptimizerSpec(Adam(lr=Constant(eta), beta1=b, beta2=b, eps=eps))
    w = wm(point=[10.0, 10.0])
    g = pseudogradient(w, wm(point=[0.0, 0.0]), zeta=1.0, n_divisor=1)
    out = optimizer_step(w, g, OptimizerState(), spec)
    np.testing.assert_allclose(out.array("point"), [10.0 - expected] * 2, rtol=1e-6)


def test_adam_standard_form_matches_folded_oracle():
    b1, b2, eta, eps = 0.9, 0.999, 0.05, 1e-8
    spec = OptimizerSpec(Adam(lr=Constant(eta), beta1=b1, beta2=b2, eps=eps, standard_form=True))
    state = OptimizerState()
    rng = np.random.default_rng(5)
    w = np.array([0.5, -1.5], dtype=np.float32)
    m = np.zeros(2)
    v = np.zeros(2)
    wmap = wm(a=w)
    for t in range(1, 6):
        gvals = rng.standard_normal(2).astype(np.float32)
        wmap = optimizer_step(wmap, grad(wm(a=gvals)), state, spec)
        m = b1 * m + (1 - b1) * gvals.astype(np.float64)
        v = b2 * v + (1 - b2) * gvals.astype(np.float64) ** 2
        folded = eta * math.sqrt(1 - b2**t) / (1 - b1**t)
        w = w - (folded * m / (np.sqrt(v) + eps)).astype(np.float32)
        np.testing.assert_allclose(wmap.array("a"), w, rtol=1e-5, atol=1e-7)


def test_adam_verbatim_vs_standard_differ():
    # eps is scaled by the bias correction in one form and not the other, so
    # with a large eps the two variants separate.
    kwargs = dict(lr=Constant(0.5), beta1=0.5, beta2=0.75, eps=0.1)
    w = wm(a=[1.0])
    g = grad(wm(a=[0.3]))
    verbatim = optimizer_step(w, g, OptimizerState(), OptimizerSpec(Adam(**kwargs)))
    standard = optimizer_step(w, g, OptimizerState(), OptimizerSpec(Adam(**kwargs, standard_form=True)))
    # verbatim: 0.15/(0.3+0.1)=0.375 off w; folded: 0.5*0.15/(0.15+0.1)=0.3.
    np.testing.assert_allclose(verbatim.array("a"), [0.625], rtol=1e-6)
    np.testing.assert_allclose(standard.array("a"), [0.7], rtol=1e-6)


def test_adam_beta_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        OptimizerSpec(Adam(lr=Constant(0.1), beta1=0.95, beta2=0.9))
    assert any("beta1^2" in str(w.message) for w in caught)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        OptimizerSpec(Adam(lr=Constant(0.1), beta1=0.8, beta2=0.99))
    assert not caught


def test_adam_beta_warning_names_its_caller():
    with pytest.warns(UserWarning, match=r"beta1\^2") as caught:
        OptimizerSpec(Adam(lr=Constant(0.1), beta1=0.95, beta2=0.9))
    assert [w.filename for w in caught] == [__file__]


def test_adam_initial_moment_validation():
    with pytest.raises(ValueError):
        OptimizerSpec(Adam(lr=Constant(0.1), m0=1.0, v0=0.0))
    OptimizerSpec(Adam(lr=Constant(0.1), m0=1.0, v0=0.5))


# --- Adadelta -----------------------------------------------------------------------


def test_adadelta_zero_gradient_noop_and_decay():
    spec = OptimizerSpec(Adadelta(lr=Constant(1.0), rho=0.5, eps=1e-6))
    state = OptimizerState()
    w = wm(a=[2.0])
    w2 = optimizer_step(w, grad(wm(a=[1.0])), state, spec)
    acc_before = state.buffers[0].copy()
    w3 = optimizer_step(w2, grad(wm(a=[0.0])), state, spec)
    assert w3 == w2
    assert np.all(state.buffers[0] < acc_before)


def test_adadelta_first_step_oracle():
    spec = OptimizerSpec(Adadelta(lr=Constant(1.0), rho=0.0, eps=1e-6))
    w = wm(a=[5.0])
    out = optimizer_step(w, grad(wm(a=[1.0])), OptimizerState(), spec)
    expected = math.sqrt(1e-6) / math.sqrt(1.0 + 1e-6)
    np.testing.assert_allclose(w.array("a") - out.array("a"), [expected], rtol=1e-4)


def test_adadelta_growing_steps_under_constant_gradient():
    spec = OptimizerSpec(Adadelta(lr=Constant(1.0), rho=0.9, eps=1e-6))
    state = OptimizerState()
    w = wm(a=[5.0])
    g = grad(wm(a=[1.0]))
    w1 = optimizer_step(w, g, state, spec)
    w2 = optimizer_step(w1, g, state, spec)
    d1 = float(w.array("a")[0] - w1.array("a")[0])
    d2 = float(w1.array("a")[0] - w2.array("a")[0])
    assert d2 > d1 > 0

    # 64-bit oracle for the same two steps.
    acc_g = 0.1 * 1.0
    delta1 = -math.sqrt(1e-6) / math.sqrt(acc_g + 1e-6)
    acc_u = 0.1 * delta1**2
    acc_g2 = 0.9 * acc_g + 0.1
    delta2 = -math.sqrt(acc_u + 1e-6) / math.sqrt(acc_g2 + 1e-6)
    assert d1 == pytest.approx(-delta1, rel=1e-4)
    assert d2 == pytest.approx(-delta2, rel=1e-4)


# --- projection ----------------------------------------------------------------------


def test_projection_inside_ball_is_identity():
    w = wm(a=[0.5, 0.0])
    c = wm(a=[0.0, 0.0])
    assert project_to_ball(w, c, radius=1.0) is w


def test_projection_radial_scaling():
    c = wm(a=[1.0, 1.0])
    w = wm(a=[1.0 + 2.0, 1.0])
    out = project_to_ball(w, c, radius=1.0)
    np.testing.assert_allclose(out.array("a"), [2.0, 1.0], rtol=1e-7)


def test_projection_idempotent():
    rng = np.random.default_rng(8)
    c = wm(a=rng.standard_normal(6))
    w = wm(a=(rng.standard_normal(6) * 10))
    once = project_to_ball(w, c, radius=0.7)
    twice = project_to_ball(once, c, radius=0.7)
    np.testing.assert_allclose(twice.array("a"), once.array("a"), rtol=1e-7, atol=1e-9)


def test_projection_writes_into_out_only_where_it_moves():
    c = wm(a=[1.0, 1.0])
    out = np.full(2, 7.0, dtype=np.float32)
    inside = wm(a=[1.5, 1.0])
    assert project_to_ball(inside, c, radius=1.0, out=out) is inside
    assert out.tolist() == [7.0, 7.0]
    w = wm(a=[4.0, -3.0])
    projected = project_to_ball(w, c, radius=1.0, out=out)
    assert np.shares_memory(projected.flat, out)
    assert projected == project_to_ball(w, c, radius=1.0)


def test_moving_projection_allocates_no_model_size_temporary():
    # 40 blocks: beyond out, the distance's one block of float64 scratch and
    # one block's finiteness mask, not a mask or a copy of the whole map.
    rng = np.random.default_rng(9)
    w = wm(**{f"t{i}": rng.standard_normal(BLOCK) for i in range(40)})
    c = wm(**{name: np.zeros(BLOCK) for name in w})
    out = np.empty_like(w.flat)
    tracemalloc.start()
    try:
        projected = project_to_ball(w, c, radius=1.0, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert projected is not w
    assert peak < 2 * 8 * BLOCK, peak
    assert projected == project_to_ball(w, c, radius=1.0)


def test_projection_overflow_names_its_flat_index_in_a_later_block():
    center = np.zeros(3 * BLOCK, dtype=np.float32)
    w = center + np.float32(1.0)
    w[2 * BLOCK + 7], center[2 * BLOCK + 7] = 3e38, -3e38  # w - center overflows float32 here only
    with np.errstate(over="ignore"), pytest.raises(NonFiniteStep) as info:
        project_to_ball(wm(a=w), wm(a=center), radius=1.0)
    assert info.value.index == 2 * BLOCK + 7 == 131079


def test_projection_rejects_bad_radius():
    w = wm(a=[1.0])
    for radius in (0.0, float("nan")):
        with pytest.raises(ValueError, match="radius"):
            project_to_ball(w, w, radius=radius)


# --- shared invariants ------------------------------------------------------------------


@pytest.mark.parametrize(
    "variant",
    [GD(lr=Constant(0.1)), Adagrad(lr=Constant(0.1)),
     Adam(lr=Constant(0.1), beta1=0.5, beta2=0.75, m0=0.5, v0=0.25), Adadelta(lr=Constant(0.1))],
    ids=["gd", "adagrad", "adam", "adadelta"],
)
def test_state_buffers_counts_the_buffers_a_step_allocates(variant):
    # The pseudogradient is every buffer's fixed point (0, or m0 = sqrt(v0) for
    # Adam), so after the step each buffer still holds its fill: it covers the
    # stepped span alone, from the span's start.
    value = variant.fills[0] if variant.fills else 0.0
    w = wm(a=np.zeros(3 * BLOCK))
    state, out = OptimizerState(), w.flat.copy()
    optimizer_step(w, lambda s: np.full(s.stop - s.start, value, dtype=np.float32), state,
                   OptimizerSpec(variant), out=out, layout=_step_blocks(w.schema().blocks[1:2]))
    assert len(state.buffers) == len(variant.fills)
    for buf, fill in zip(state.buffers, variant.fills):
        np.testing.assert_array_equal(buf, np.full(BLOCK, fill, dtype=np.float32))


@pytest.mark.parametrize(
    "spec",
    [
        OptimizerSpec(GD(lr=Constant(0.5))),
        OptimizerSpec(Adagrad(lr=Constant(0.5), eps=1e-8)),
        OptimizerSpec(Adam(lr=Constant(0.5), beta1=0.5, beta2=0.9, eps=1e-8)),
        OptimizerSpec(Adadelta(lr=Constant(0.5), rho=0.5, eps=1e-6)),
    ],
    ids=["gd", "adagrad", "adam", "adadelta"],
)
def test_translation_equivariance(spec):
    # Integer lattice: pseudogradients from translated inputs are bitwise equal,
    # so adaptive-optimizer trajectories shift by t up to one rounding; the GD
    # trajectory with dyadic lr shifts exactly.
    rng = np.random.default_rng(23)
    w0 = wm(a=rng.integers(-32, 32, size=6).astype(np.float32))
    t = wm(a=np.full(6, 16.0, dtype=np.float32))
    xs = [wm(a=rng.integers(-32, 32, size=6).astype(np.float32)) for _ in range(6)]

    state_a, state_b = OptimizerState(), OptimizerState()
    w_a, w_b = w0, wm(a=w0.array("a") + t.array("a"))
    exact = isinstance(spec.variant, GD)
    for x in xs:
        g_a = pseudogradient(w_a, x, 1.0, 2)
        g_b = pseudogradient(w_b, wm(a=x.array("a") + t.array("a")), 1.0, 2)
        if exact:
            assert g_a == g_b
        w_a = optimizer_step(w_a, g_a, state_a, spec)
        w_b = optimizer_step(w_b, g_b, state_b, spec)
        shifted = wm(a=w_a.array("a") + t.array("a"))
        if exact:
            assert w_b == shifted
        else:
            np.testing.assert_allclose(w_b.array("a"), shifted.array("a"), rtol=1e-6, atol=1e-5)
    assert state_a.step == state_b.step == 6


def test_gd_scale_equivariance_exact_for_power_of_two():
    rng = np.random.default_rng(31)
    spec = OptimizerSpec(GD(lr=Harmonic(offset=0)))
    w0 = wm(a=rng.standard_normal(5).astype(np.float32))
    xs = [wm(a=rng.standard_normal(5).astype(np.float32)) for _ in range(4)]
    c = 4.0

    state_a, state_b = OptimizerState(), OptimizerState()
    w_a = w0
    w_b = WeightMap({"a": (c * w0.array("a")).astype(np.float32)})
    for x in xs:
        g_a = pseudogradient(w_a, x, 1.0, 4)
        g_b = pseudogradient(w_b, WeightMap({"a": (c * x.array("a")).astype(np.float32)}), 1.0, 4)
        w_a = optimizer_step(w_a, g_a, state_a, spec)
        w_b = optimizer_step(w_b, g_b, state_b, spec)
        np.testing.assert_array_equal(w_b.array("a"), (c * w_a.array("a")).astype(np.float32))


@pytest.mark.parametrize(
    "spec",
    [
        OptimizerSpec(GD(lr=Harmonic(offset=0))),
        OptimizerSpec(Adagrad(lr=Constant(0.3), eps=1e-8)),
        OptimizerSpec(Adam(lr=Constant(0.3), beta1=0.8, beta2=0.99, eps=1e-8)),
        OptimizerSpec(Adadelta(lr=Constant(1.0), rho=0.9, eps=1e-6)),
    ],
    ids=["gd", "adagrad", "adam", "adadelta"],
)
def test_state_determinism_bitwise(spec):
    def run():
        rng = np.random.default_rng(77)
        state = OptimizerState()
        w = wm(a=rng.standard_normal(10))
        for _ in range(25):
            g = grad(wm(a=rng.standard_normal(10)))
            w = optimizer_step(w, g, state, spec)
        return w

    assert run() == run()


def test_weight_decay_applied_before_update():
    # With lr 1 and decay 0.5, w shrinks first and then the gradient applies.
    spec = OptimizerSpec(GD(lr=Constant(1.0)), weight_decay=0.5)
    out = optimizer_step(wm(a=[8.0]), grad(wm(a=[1.0])), OptimizerState(), spec)
    np.testing.assert_allclose(out.array("a"), [3.0], rtol=1e-6)


def test_spec_validation():
    with pytest.raises(ValueError):
        OptimizerSpec(GD(lr=Constant(1.0)), weight_decay=-0.1)
    with pytest.raises(ValueError):
        OptimizerSpec(Adagrad(lr=Constant(1.0), eps=0.0))
    with pytest.raises(ValueError):
        OptimizerSpec(Adam(lr=Constant(1.0), beta1=1.0))
    with pytest.raises(ValueError):
        OptimizerSpec(Adadelta(lr=Constant(1.0), rho=1.0))


@pytest.mark.parametrize("variant", [Adam, Adadelta])
@pytest.mark.parametrize("eps", [0.0, -1e-8])
def test_adam_and_adadelta_reject_an_eps_that_is_not_positive(variant, eps):
    with pytest.raises(ValueError, match=f"{variant.__name__.lower()} eps must be > 0, got {eps}"):
        OptimizerSpec(variant(lr=Constant(1.0), eps=eps))


@pytest.mark.parametrize(
    "lr",
    [
        Constant(-0.1),
        Constant(float("nan")),
        Power(coeff=-1.0, exponent=-0.5),
        CappedPower(coeff=1.0, exponent=-0.5, cap=-1.0),
        CappedPower(coeff=-1.0, exponent=-0.5, cap=1.0),
        Explicit(values=(0.1, -0.2)),
    ],
    ids=["constant", "nan", "power", "cap", "capped-coeff", "explicit"],
)
def test_negative_learning_rate_rejected(lr):
    for variant in (GD(lr=lr), Adam(lr=lr, beta1=0.5, beta2=0.9)):
        with pytest.raises(ValueError, match="learning rate .* must be >= 0"):
            OptimizerSpec(variant)


def test_zero_learning_rate_freezes_the_iterate():
    spec = OptimizerSpec(GD(lr=Explicit(values=(0.0, 0.0))))
    w = wm(a=[1.0, -2.0])
    assert optimizer_step(w, grad(wm(a=[3.0, 4.0])), OptimizerState(), spec) == w


# --- steps in block ranges ----------------------------------------------------------
#
# The names of the tests below are kept from when the ranges ran in threads
# of one step; the ranges now run as whole runs in forked workers.

# Four tensors of two blocks each: two workers take blocks 0-3 and 4-7.
THREADED = {f"t{i}": np.arange(2 * BLOCK, dtype=np.float32) / BLOCK for i in range(4)}


def _provided_run(ingredients, spec, **kwargs):
    cfg = EnsembleConfig(optimizer=spec, pivot_init=ProvidedInit(WeightMap(THREADED)), n_divisor=1,
                         ordering="given", **kwargs)
    return cfg, [Ingredient(f"g{i}", g) for i, g in enumerate(ingredients)]


def test_steps_in_more_threads_than_blocks_and_cpus_match_one_thread():
    spec = OptimizerSpec(Adam(lr=Constant(0.01), beta1=0.8, beta2=0.99, eps=1e-8), weight_decay=0.01)
    w = WeightMap(THREADED)
    g = WeightMap({name: np.cos(a) for name, a in THREADED.items()})
    schema = w.schema()
    # Each range stepped alone, with a state of its own over its span, gives the whole step's bits.
    runs = []
    for ranges in ([range(8)], [range(b, b + 1) for b in range(8)]):
        out, norms, m, v = w.flat.copy(), np.empty((2, len(schema.piece_ends))), [], []
        for block_range in ranges:
            state, layout = OptimizerState(), _step_blocks(schema.blocks[block_range.start : block_range.stop])
            for _ in range(3):
                optimizer_step(WeightMap._wrap(out.view(), schema), g, state, spec, out=out, norms=norms,
                               layout=layout)
            m.append(state.buffers[0])
            v.append(state.buffers[1])
        runs.append((out.tobytes(), np.concatenate(m).tobytes(), np.concatenate(v).tobytes(),
                     _add_pieces(norms[0], schema.piece_ends), _add_pieces(norms[1], schema.piece_ends)))
    assert len(schema.blocks) == 8
    assert runs[0] == runs[1]
    # The same three steps as a run in 12 workers, more than blocks and CPUs.
    cfg, ingredients = _provided_run([g, g, g], spec)
    results = [run_ensemble(cfg, ingredients, workers=workers) for workers in (1, 12)]
    assert [(merged.flat.tobytes(), record.steps) for merged, record in results] == [
        (results[0][0].flat.tobytes(), results[0][1].steps)
    ] * 2


def test_threaded_nonfinite_step_names_the_lowest_bad_element():
    spec = OptimizerSpec(GD(lr=Constant(1.0)))
    before = threading.active_count()
    for bad, first in (([6 * BLOCK + 3, BLOCK + 5], BLOCK + 5), ([7 * BLOCK + 1, 5 * BLOCK], 5 * BLOCK)):
        g = np.zeros(4 * 2 * BLOCK, dtype=np.float32)
        g[bad] = np.nan
        cfg, ingredients = _provided_run([WeightMap._wrap(g, WeightMap(THREADED).schema())], spec)
        with pytest.raises(EngineError, match=f"first in tensor 't{first // (2 * BLOCK)}'") as info:
            run_ensemble(cfg, ingredients, workers=2)
        assert isinstance(info.value.__cause__, NonFiniteStep)
        assert info.value.__cause__.index == first
        assert threading.active_count() == before


def test_threaded_step_raises_a_read_error_of_any_range(tmp_path):
    path = str(tmp_path / "g.safetensors")
    save_checkpoint(WeightMap(THREADED), path)
    spec = OptimizerSpec(GD(lr=Constant(1.0)))
    before = threading.active_count()
    with open_checkpoint(path) as stored:
        os.truncate(path, os.path.getsize(path) - 4 * BLOCK)  # cuts block 7, in the second range
        cfg, ingredients = _provided_run([stored], spec)
        with pytest.raises(CheckpointError, match="truncated buffer \\(file changed while reading\\)") as info:
            run_ensemble(cfg, ingredients, workers=2)
    assert path in str(info.value)
    assert threading.active_count() == before
