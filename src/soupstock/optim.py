"""Stateful elementwise optimizers over weight maps.

Four update rules — GD, Adagrad, Adam, Adadelta — consume pseudogradients and
produce new iterates. Each step is one kernel over the weight map's flat
float32 buffer, run block by block (``weightstore.blocks``), and all state
lives in flat float32 buffers of the same layout; the step counter increments
inside each step call *before* the learning-rate schedule is evaluated, so
the first update runs at index 1.

Adam follows the ensembling formulation exactly: the moving averages are the
moments themselves (no separate bias-corrected copies),

    m_i = b1*m_{i-1} + (1-b1)*g_i        v_i = b2*v_{i-1} + (1-b2)*g_i^2
    w_i = w_{i-1} - eta_i/(1-b1^i) * m_i / (sqrt(v_i)/sqrt(1-b2^i) + eps)

with eps *inside* the denominator after the corrected root (algebraically the
original bias-corrected rule). Set ``standard_form=True`` for the common
library rewrite that folds the corrections into the step size and adds eps to
the *uncorrected* root,

    w_i = w_{i-1} - eta_i * sqrt(1-b2^i)/(1-b1^i) * m_i / (sqrt(v_i) + eps),

which genuinely differs (its eps is not scaled by the bias correction).

Weight decay is decoupled: w <- w - eta_i*lambda*w before the optimizer update.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .pseudograd import (
    CappedPower,
    Constant,
    Explicit,
    Power,
    Pseudogradient,
    Schedule,
    schedule_eval,
)
from .weightstore import WeightMap, _check_compatible, _sq_distance, blocks

__all__ = [
    "GD",
    "Adagrad",
    "Adam",
    "Adadelta",
    "OptimizerVariant",
    "OptimizerSpec",
    "OptimizerState",
    "gd_step",
    "adagrad_step",
    "adam_step",
    "adadelta_step",
    "optimizer_step",
    "project_to_ball",
]


@dataclass(frozen=True)
class GD:
    lr: Schedule


@dataclass(frozen=True)
class Adagrad:
    lr: Schedule
    eps: float = 1e-8


@dataclass(frozen=True)
class Adam:
    lr: Schedule
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    standard_form: bool = False
    # Scalar initial moments, broadcast over every tensor. v0 must be positive
    # whenever either is overridden (the convergence analysis divides by it).
    m0: float = 0.0
    v0: float = 0.0


@dataclass(frozen=True)
class Adadelta:
    lr: Schedule
    rho: float = 0.9
    eps: float = 1e-6


OptimizerVariant = GD | Adagrad | Adam | Adadelta


@dataclass(frozen=True)
class OptimizerSpec:
    variant: OptimizerVariant
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        v = self.variant
        _check_lr_sign(v.lr)
        if isinstance(v, Adagrad) and v.eps <= 0:
            raise ValueError(f"adagrad eps must be > 0, got {v.eps}")
        if isinstance(v, Adam):
            if not (0.0 <= v.beta1 < 1.0 and 0.0 <= v.beta2 < 1.0):
                raise ValueError(f"adam betas must lie in [0, 1), got {v.beta1}, {v.beta2}")
            if v.eps <= 0:
                raise ValueError(f"adam eps must be > 0, got {v.eps}")
            if (v.m0 != 0.0 or v.v0 != 0.0) and v.v0 <= 0.0:
                raise ValueError("adam v0 must be > 0 when initial moments are overridden")
            if v.beta1**2 >= v.beta2:
                warnings.warn(
                    f"adam beta1^2={v.beta1 ** 2:g} >= beta2={v.beta2:g}: the decaying-schedule "
                    "convergence guarantee needs beta1^2 < beta2",
                    stacklevel=2,
                )
        if isinstance(v, Adadelta):
            if not (0.0 <= v.rho < 1.0):
                raise ValueError(f"adadelta rho must lie in [0, 1), got {v.rho}")
            if v.eps <= 0:
                raise ValueError(f"adadelta eps must be > 0, got {v.eps}")


def _check_lr_sign(lr: Schedule) -> None:
    """Reject a schedule that can yield a negative or NaN step size.

    Zero stays allowed: a zero learning rate freezes the iterate.
    """
    if isinstance(lr, Constant):
        values = {"value": lr.value}
    elif isinstance(lr, Power):
        values = {"coeff": lr.coeff}
    elif isinstance(lr, CappedPower):
        values = {"coeff": lr.coeff, "cap": lr.cap}
    elif isinstance(lr, Explicit):
        values = {f"values[{i}]": value for i, value in enumerate(lr.values)}
    else:  # Harmonic: 1/(step + offset) is positive by construction
        return
    for field_name, value in values.items():
        if not value >= 0:
            raise ValueError(
                f"learning rate {type(lr).__name__}.{field_name} must be >= 0, got {value}"
            )


@dataclass
class OptimizerState:
    """Flat float32 accumulators (one element per parameter, in the weight
    map's buffer order) plus the global step counter.

    Buffers are allocated lazily at the first step: sq_sum (Adagrad), m/v
    (Adam moments), acc_grad_sq/acc_update_sq (Adadelta).
    """

    step: int = 0
    sq_sum: np.ndarray | None = None
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    acc_grad_sq: np.ndarray | None = None
    acc_update_sq: np.ndarray | None = None

    def clone(self) -> "OptimizerState":
        def copy(buf: np.ndarray | None) -> np.ndarray | None:
            return None if buf is None else buf.copy()

        return OptimizerState(
            step=self.step,
            sq_sum=copy(self.sq_sum),
            m=copy(self.m),
            v=copy(self.v),
            acc_grad_sq=copy(self.acc_grad_sq),
            acc_update_sq=copy(self.acc_update_sq),
        )


def _buffer(buf: np.ndarray | None, size: int, fill: float = 0.0) -> np.ndarray:
    return np.full(size, np.float32(fill), dtype=np.float32) if buf is None else buf


def _begin_step(
    w: WeightMap,
    g: Pseudogradient,
    state: OptimizerState,
    spec: OptimizerSpec,
    schedule_step: int | None,
) -> tuple[np.ndarray, float, int]:
    """Advance the counter, evaluate the lr, and apply decoupled weight decay.

    Returns the new iterate's buffer (still writable), the step size, and the
    global step.
    """
    _check_compatible(w, g.values)
    state.step += 1
    idx = state.step if schedule_step is None else schedule_step
    eta = schedule_eval(spec.variant.lr, idx)
    if spec.weight_decay > 0.0:
        work = w.flat * np.float32(1.0 - eta * spec.weight_decay)
    else:
        work = w.flat.copy()
    return work, eta, state.step


def gd_step(
    w: WeightMap,
    g: Pseudogradient,
    state: OptimizerState,
    spec: OptimizerSpec,
    schedule_step: int | None = None,
) -> WeightMap:
    """w - eta_i * g."""
    work, eta, _ = _begin_step(w, g, state, spec, schedule_step)
    eta32 = np.float32(eta)
    grad = g.values.flat
    for s in blocks(work.size):
        out = work[s]
        out -= eta32 * grad[s]
    return WeightMap._wrap(work, w.schema())


def adagrad_step(
    w: WeightMap,
    g: Pseudogradient,
    state: OptimizerState,
    spec: OptimizerSpec,
    schedule_step: int | None = None,
) -> WeightMap:
    """w - eta_i * g / (sqrt(sum of squared gradients) + eps), per element."""
    work, eta, _ = _begin_step(w, g, state, spec, schedule_step)
    variant: Adagrad = spec.variant
    state.sq_sum = sq_sum = _buffer(state.sq_sum, work.size)
    eta32 = np.float32(eta)
    eps32 = np.float32(variant.eps)
    grad = g.values.flat
    for s in blocks(work.size):
        gb, sq, out = grad[s], sq_sum[s], work[s]
        sq += gb * gb
        out -= eta32 * gb / (np.sqrt(sq) + eps32)
    return WeightMap._wrap(work, w.schema())


def adam_step(
    w: WeightMap,
    g: Pseudogradient,
    state: OptimizerState,
    spec: OptimizerSpec,
    schedule_step: int | None = None,
) -> WeightMap:
    work, eta, step = _begin_step(w, g, state, spec, schedule_step)
    variant: Adam = spec.variant
    state.m = m_all = _buffer(state.m, work.size, variant.m0)
    state.v = v_all = _buffer(state.v, work.size, variant.v0)
    b1 = np.float32(variant.beta1)
    b2 = np.float32(variant.beta2)
    one_m_b1 = np.float32(1.0 - variant.beta1)
    one_m_b2 = np.float32(1.0 - variant.beta2)
    eps32 = np.float32(variant.eps)
    bias1 = 1.0 - float(variant.beta1) ** step
    bias2 = 1.0 - float(variant.beta2) ** step
    if variant.standard_form:
        lr32 = np.float32(eta * math.sqrt(bias2) / bias1)
    else:
        lr32 = np.float32(eta / bias1)
        root_bias2 = np.float32(math.sqrt(bias2))
    grad = g.values.flat
    for s in blocks(work.size):
        gb, m, v, out = grad[s], m_all[s], v_all[s], work[s]
        m *= b1
        m += one_m_b1 * gb
        v *= b2
        v += one_m_b2 * gb * gb
        if variant.standard_form:
            out -= lr32 * m / (np.sqrt(v) + eps32)
        else:
            out -= lr32 * m / (np.sqrt(v) / root_bias2 + eps32)
    return WeightMap._wrap(work, w.schema())


def adadelta_step(
    w: WeightMap,
    g: Pseudogradient,
    state: OptimizerState,
    spec: OptimizerSpec,
    schedule_step: int | None = None,
) -> WeightMap:
    """Accumulator-ratio updates, scaled by eta_i.

    acc_g <- rho*acc_g + (1-rho)*g^2
    delta  = -sqrt(acc_u + eps)/sqrt(acc_g + eps) * g
    acc_u <- rho*acc_u + (1-rho)*delta^2
    w     <- w + eta_i*delta
    """
    work, eta, _ = _begin_step(w, g, state, spec, schedule_step)
    variant: Adadelta = spec.variant
    state.acc_grad_sq = acc_g_all = _buffer(state.acc_grad_sq, work.size)
    state.acc_update_sq = acc_u_all = _buffer(state.acc_update_sq, work.size)
    rho = np.float32(variant.rho)
    one_m_rho = np.float32(1.0 - variant.rho)
    eps32 = np.float32(variant.eps)
    eta32 = np.float32(eta)
    grad = g.values.flat
    for s in blocks(work.size):
        gb, acc_g, acc_u, out = grad[s], acc_g_all[s], acc_u_all[s], work[s]
        acc_g *= rho
        acc_g += one_m_rho * gb * gb
        delta = -np.sqrt(acc_u + eps32) / np.sqrt(acc_g + eps32) * gb
        acc_u *= rho
        acc_u += one_m_rho * delta * delta
        out += eta32 * delta
    return WeightMap._wrap(work, w.schema())


_STEP_FNS = {GD: gd_step, Adagrad: adagrad_step, Adam: adam_step, Adadelta: adadelta_step}


def optimizer_step(
    w: WeightMap,
    g: Pseudogradient,
    state: OptimizerState,
    spec: OptimizerSpec,
    schedule_step: int | None = None,
) -> WeightMap:
    """Dispatch to the step rule for spec.variant."""
    return _STEP_FNS[type(spec.variant)](w, g, state, spec, schedule_step)


def project_to_ball(w: WeightMap, center: WeightMap, radius: float) -> WeightMap:
    """Euclidean projection onto the closed ball of given radius around center."""
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    _check_compatible(w, center)
    dist = math.sqrt(_sq_distance(w, center))
    if dist <= radius:
        return w
    shrink = np.float32(radius / dist)
    out = np.subtract(w.flat, center.flat)
    out *= shrink
    out += center.flat
    return WeightMap._wrap(out, w.schema())
