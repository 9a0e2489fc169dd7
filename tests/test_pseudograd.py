import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soupstock.pseudograd import (
    AdaptivePivot,
    CappedPower,
    Constant,
    EmaPivot,
    Explicit,
    Harmonic,
    Power,
    ScheduleError,
    _pseudogradient_values,
    pivot_identity,
    pseudogradient_scale,
    schedule_eval,
    soup,
)
from soupstock.weightstore import WeightMap

from conftest import random_weightmaps


def wm(**tensors):
    return WeightMap({k: np.asarray(v, dtype=np.float32) for k, v in tensors.items()})


# --- pseudogradient -------------------------------------------------------------


def pseudogradient(pivot, ingredient, zeta, n_divisor):
    """The engine's kernel over whole float32 arrays: (pivot - ingredient) * fl(zeta / n_divisor)."""
    return _pseudogradient_values(np.asarray(pivot, np.float32), np.asarray(ingredient, np.float32),
                                  pseudogradient_scale(zeta, n_divisor))


def test_pseudogradient_self_difference_is_zero():
    m = random_weightmaps(seed=11, count=1)[0]
    g = pseudogradient(m.flat, m.flat, zeta=3.7, n_divisor=5)
    assert g.dtype == np.float32 and not g.any()


def test_pseudogradient_hand_value():
    g = pseudogradient([1.0, 1.0], [0.0, 2.0], zeta=1.0, n_divisor=2)
    np.testing.assert_array_equal(g, [0.5, -0.5])


def test_pseudogradient_zeta_cancels_divisor():
    # zeta == n_divisor leaves the raw difference; recompute with scalars.
    pivot, ing, zeta, n = 3.0, 1.0, 4.0, 4
    expected = zeta * (pivot - ing) / n
    g = pseudogradient([pivot], [ing], zeta=zeta, n_divisor=n)
    np.testing.assert_array_equal(g, [np.float32(expected)])
    assert expected == 2.0


def test_pseudogradient_antisymmetry_exact():
    p, x = random_weightmaps(seed=21, count=2)
    fwd = pseudogradient(p.flat, x.flat, zeta=0.3, n_divisor=3)
    bwd = pseudogradient(x.flat, p.flat, zeta=0.3, n_divisor=3)
    np.testing.assert_array_equal(fwd, -bwd)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-64, 64))
def test_pseudogradient_translation_invariance_exact_on_integer_lattice(seed, shift):
    # Integer-valued float32 tensors in a range where +/- shift stays exact.
    rng = np.random.default_rng(seed)
    p = rng.integers(-512, 512, size=6).astype(np.float32)
    x = rng.integers(-512, 512, size=6).astype(np.float32)
    base = pseudogradient(p, x, zeta=1.5, n_divisor=2)
    moved = pseudogradient(p + np.float32(shift), x + np.float32(shift), zeta=1.5, n_divisor=2)
    np.testing.assert_array_equal(base, moved)


def test_pseudogradient_rejects_bad_divisor():
    with pytest.raises(ValueError, match="^n_divisor must be >= 1, got 0$"):
        pseudogradient_scale(1.0, 0)


# --- soup -----------------------------------------------------------------------


def test_soup_two_point_mean():
    s = soup([wm(a=[0.0, 0.0]), wm(a=[1.0, 1.0])])
    np.testing.assert_array_equal(s.array("a"), [0.5, 0.5])


def test_soup_identity():
    m = random_weightmaps(seed=5, count=1)[0]
    assert soup([m]) == m


def test_soup_gaussian_matches_float64_oracle():
    rng = np.random.default_rng(99)
    points = rng.standard_normal((300, 2))
    maps = [wm(p=row.astype(np.float32)) for row in points]
    s = soup(maps)
    oracle = np.zeros(2, dtype=np.float64)
    for row in points:
        oracle += row.astype(np.float32).astype(np.float64)
    oracle /= 300.0
    np.testing.assert_allclose(s.array("p"), oracle.astype(np.float32), rtol=0, atol=0)
    assert np.all(np.abs(s.array("p")) < 3.0 / np.sqrt(300))


def test_soup_empty_rejected():
    with pytest.raises(ValueError):
        soup([])


def test_soup_permutation_invariance():
    maps = random_weightmaps(seed=31, count=17)
    base = soup(maps)
    rng = np.random.default_rng(0)
    for _ in range(5):
        perm = list(rng.permutation(len(maps)))
        other = soup([maps[i] for i in perm])
        for name in base:
            np.testing.assert_allclose(
                other.array(name), base.array(name), rtol=1e-7, atol=1e-12
            )


# --- pivot identity ---------------------------------------------------------------


def test_pivot_identity_hand_value():
    out = pivot_identity(wm(a=[100.0]), [wm(a=[0.0]), wm(a=[2.0])])
    np.testing.assert_array_equal(out.array("a"), [1.0])


def test_pivot_identity_empty_rejected():
    with pytest.raises(ValueError, match="^pivot_identity requires at least one ingredient$"):
        pivot_identity(wm(a=[1.0]), [])


def test_pivot_identity_fixed_point():
    maps = random_weightmaps(seed=41, count=8)
    s = soup(maps)
    assert pivot_identity(s, maps) == s


def test_pivot_identity_matches_soup_for_random_pivots():
    maps = random_weightmaps(seed=51, count=16)
    s = soup(maps)
    rng = np.random.default_rng(52)
    for _ in range(20):
        pivot = wm(
            **{name: rng.uniform(-100, 100, size=arr.shape) for name, arr in s.arrays().items()}
        )
        out = pivot_identity(pivot, maps)
        for name in s:
            np.testing.assert_allclose(out.array(name), s.array(name), rtol=1e-6, atol=1e-7)


def test_pivot_independence():
    maps = random_weightmaps(seed=61, count=9)
    p1, p2 = random_weightmaps(seed=62, count=2, low=-50, high=50)
    a = pivot_identity(p1, maps)
    b = pivot_identity(p2, maps)
    for name in a:
        np.testing.assert_allclose(a.array(name), b.array(name), rtol=1e-6, atol=1e-7)


# --- schedules --------------------------------------------------------------------


def test_harmonic_values():
    assert schedule_eval(Harmonic(offset=0), 3) == pytest.approx(1.0 / 3.0)
    assert schedule_eval(Harmonic(offset=1), 1) == pytest.approx(0.5)
    assert schedule_eval(Harmonic(offset=0), 1) == 1.0


def test_harmonic_offset_validated():
    with pytest.raises(ScheduleError):
        Harmonic(offset=2)


def test_capped_power_cap_binds():
    assert schedule_eval(CappedPower(coeff=1.0, exponent=-1.5, cap=0.1), 1) == 0.1
    assert schedule_eval(CappedPower(coeff=1.0, exponent=-1.5, cap=0.1), 100) == pytest.approx(
        100.0**-1.5
    )


def test_power_and_constant():
    assert schedule_eval(Power(coeff=2.0, exponent=-1.0), 4) == 0.5
    assert schedule_eval(Constant(0.25), 1000) == 0.25


def test_explicit_and_exhaustion():
    sched = Explicit(values=(0.5, 0.25))
    assert schedule_eval(sched, 1) == 0.5
    assert schedule_eval(sched, 2) == 0.25
    with pytest.raises(ScheduleError, match="exhausted"):
        schedule_eval(sched, 3)


def test_step_must_be_positive():
    with pytest.raises(ScheduleError):
        schedule_eval(Constant(1.0), 0)


def test_pivot_policy_validation():
    with pytest.raises(ValueError):
        EmaPivot(decay=0.0)
    EmaPivot(decay=1.0)
    AdaptivePivot()
