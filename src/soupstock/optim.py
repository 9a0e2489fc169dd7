"""Stateful elementwise optimizers over weight maps.

Four update rules — GD, Adagrad, Adam, Adadelta — consume pseudogradients and
produce new iterates. :func:`optimizer_step` is the one driver: it makes a
single pass over the weight map's flat float32 buffer in blocks of at most
``weightstore.BLOCK`` elements (``Schema.blocks``) and, per block, takes the
pseudogradient (from a map or a per-block function), applies decoupled weight
decay and the rule's block update, checks the result is finite, and, when
asked, sums the float64 squares its log norms are taken from. With
``block_range``, it steps only a contiguous range of those blocks, and reads
and writes no element outside it: the engine runs the ranges of one merge in
separate processes. All state lives in flat float32 buffers of the same
layout; the step counter increments inside each step call *before* the
learning-rate schedule is evaluated, so the first update runs at index 1.

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
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from .pseudograd import (
    CappedPower,
    Constant,
    Explicit,
    Power,
    Schedule,
    schedule_eval,
)
from .weightstore import (
    BLOCK,
    WeightMap,
    _check_compatible,
    _piece_sums,
    _sq_distance,
)

__all__ = [
    "GD",
    "Adagrad",
    "Adam",
    "Adadelta",
    "OptimizerVariant",
    "OptimizerSpec",
    "OptimizerState",
    "NonFiniteStep",
    "optimizer_step",
    "project_to_ball",
]


@dataclass(frozen=True)
class GD:
    lr: Schedule

    state_buffers: ClassVar[int] = 0  # model-size buffers in its OptimizerState


@dataclass(frozen=True)
class Adagrad:
    lr: Schedule
    eps: float = 1e-8

    state_buffers: ClassVar[int] = 1

    @cached_property
    def _float32(self) -> tuple[np.float32, ...]:
        """eps in float32; the constants every step uses are converted once."""
        return (np.float32(self.eps),)


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

    state_buffers: ClassVar[int] = 2

    @cached_property
    def _float32(self) -> tuple[np.float32, ...]:
        """beta1, beta2, 1 - beta1, 1 - beta2 and eps in float32."""
        b1, b2 = self.beta1, self.beta2
        return tuple(np.float32(x) for x in (b1, b2, 1.0 - b1, 1.0 - b2, self.eps))


@dataclass(frozen=True)
class Adadelta:
    lr: Schedule
    rho: float = 0.9
    eps: float = 1e-6

    state_buffers: ClassVar[int] = 2

    @cached_property
    def _float32(self) -> tuple[np.float32, ...]:
        """rho, 1 - rho and eps in float32."""
        return tuple(np.float32(x) for x in (self.rho, 1.0 - self.rho, self.eps))


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
    (Adam moments), acc_grad_sq/acc_update_sq (Adadelta); each variant's
    ``state_buffers`` says how many it uses.
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


def _buffer(buf: np.ndarray | None, size: int, span: slice, fill: float = 0.0) -> np.ndarray:
    """buf, or a new buffer of size elements holding fill over span and 0
    elsewhere. np.zeros maps pages that are faulted in only when first
    touched, so a process that steps one range of the blocks holds only that
    range of its state."""
    if buf is None:
        buf = np.zeros(size, dtype=np.float32)
        if fill:
            buf[span] = fill
    return buf


# --- block updates ------------------------------------------------------------------
#
# Each rule is a factory: given the state, the step size, the global step, the
# buffer size and the span of elements the step covers, it returns
# update(s, g, out), which applies the rule to the elements in slice s, with g
# their pseudogradient and out their decayed iterate (updated in place).

BlockUpdate = Callable[[slice, np.ndarray, np.ndarray], None]


def _gd_update(
    variant: GD, state: OptimizerState, eta: float, step: int, size: int, span: slice
) -> BlockUpdate:
    """w - eta_i * g."""
    eta32 = np.float32(eta)

    def update(s: slice, g: np.ndarray, out: np.ndarray) -> None:
        out -= eta32 * g

    return update


def _adagrad_update(
    variant: Adagrad, state: OptimizerState, eta: float, step: int, size: int, span: slice
) -> BlockUpdate:
    """w - eta_i * g / (sqrt(sum of squared gradients) + eps), per element."""
    state.sq_sum = sq_sum = _buffer(state.sq_sum, size, span)
    eta32 = np.float32(eta)
    (eps32,) = variant._float32

    def update(s: slice, g: np.ndarray, out: np.ndarray) -> None:
        sq = sq_sum[s]
        sq += g * g
        out -= eta32 * g / (np.sqrt(sq) + eps32)

    return update


def _adam_update(
    variant: Adam, state: OptimizerState, eta: float, step: int, size: int, span: slice
) -> BlockUpdate:
    state.m = m_all = _buffer(state.m, size, span, variant.m0)
    state.v = v_all = _buffer(state.v, size, span, variant.v0)
    b1, b2, one_m_b1, one_m_b2, eps32 = variant._float32
    bias1 = 1.0 - float(variant.beta1) ** step
    bias2 = 1.0 - float(variant.beta2) ** step
    standard_form = variant.standard_form
    if standard_form:
        lr32 = np.float32(eta * math.sqrt(bias2) / bias1)
    else:
        lr32 = np.float32(eta / bias1)
        root_bias2 = np.float32(math.sqrt(bias2))

    def update(s: slice, g: np.ndarray, out: np.ndarray) -> None:
        m, v = m_all[s], v_all[s]
        m *= b1
        m += one_m_b1 * g
        v *= b2
        v += one_m_b2 * g * g
        if standard_form:
            out -= lr32 * m / (np.sqrt(v) + eps32)
        else:
            out -= lr32 * m / (np.sqrt(v) / root_bias2 + eps32)

    return update


def _adadelta_update(
    variant: Adadelta, state: OptimizerState, eta: float, step: int, size: int, span: slice
) -> BlockUpdate:
    """Accumulator-ratio updates, scaled by eta_i.

    acc_g <- rho*acc_g + (1-rho)*g^2
    delta  = -sqrt(acc_u + eps)/sqrt(acc_g + eps) * g
    acc_u <- rho*acc_u + (1-rho)*delta^2
    w     <- w + eta_i*delta
    """
    state.acc_grad_sq = acc_g_all = _buffer(state.acc_grad_sq, size, span)
    state.acc_update_sq = acc_u_all = _buffer(state.acc_update_sq, size, span)
    rho, one_m_rho, eps32 = variant._float32
    eta32 = np.float32(eta)

    def update(s: slice, g: np.ndarray, out: np.ndarray) -> None:
        acc_g, acc_u = acc_g_all[s], acc_u_all[s]
        acc_g *= rho
        acc_g += one_m_rho * g * g
        delta = -np.sqrt(acc_u + eps32) / np.sqrt(acc_g + eps32) * g
        acc_u *= rho
        acc_u += one_m_rho * delta * delta
        out += eta32 * delta

    return update


_UPDATES = {GD: _gd_update, Adagrad: _adagrad_update, Adam: _adam_update, Adadelta: _adadelta_update}


# --- the step driver ---------------------------------------------------------------


class NonFiniteStep(ValueError):
    """A step produced a NaN/Inf; ``index`` is its first such element in the flat buffer."""

    def __init__(self, index: int) -> None:
        super().__init__(f"non-finite iterate at element {index}")
        self.index = index

    def __reduce__(self):  # pickled with its index, as from another process
        return NonFiniteStep, (self.index,)


def optimizer_step(
    w: WeightMap,
    g: WeightMap | Callable[[slice], np.ndarray],
    state: OptimizerState,
    spec: OptimizerSpec,
    schedule_step: int | None = None,
    *,
    out: np.ndarray | None = None,
    norms: np.ndarray | None = None,
    block_range: range | None = None,
) -> WeightMap:
    """One step of spec's rule: decoupled weight decay, then the update.

    ``g`` is the pseudogradient: a map, or a function that returns the float32
    values of any slice of the flat buffer. The step makes one pass over the
    schema's blocks (:attr:`Schema.blocks`), or over the blocks of
    ``block_range``, indices into them; each block is decayed, updated and
    checked to be finite (a NaN/Inf raises :class:`NonFiniteStep`, leaving
    the state and ``out`` partly stepped) before it is written to ``out``, a
    new buffer by default. ``out`` may be w's own buffer: every block is read
    before it is written. A step of some of the blocks reads, writes and
    allocates state for none of the other elements, so ``out`` must then be
    given: the step leaves its other elements as they are.

    With ``norms``, a float64 array of shape (2, len(schema.piece_ends)), the
    block's pseudogradient and displacement are also widened to float64,
    squared and summed per piece into ``norms[0]`` and ``norms[1]`` (those
    of the stepped blocks only); ``weightstore._add_pieces`` adds a row up
    to the square of :func:`global_l2_norm` or :func:`l2_distance`.
    """
    if isinstance(g, WeightMap):
        _check_compatible(w, g)
        g = g.flat.__getitem__
    state.step += 1
    idx = state.step if schedule_step is None else schedule_step
    eta = schedule_eval(spec.variant.lr, idx)
    old = w.flat
    schema = w.schema()
    stepped = schema.blocks if block_range is None else schema.blocks[block_range.start : block_range.stop]
    span = slice(stepped[0][0], stepped[-1][1]) if stepped else slice(0, 0)
    update = _UPDATES[type(spec.variant)](spec.variant, state, eta, state.step, old.size, span)
    decay = np.float32(1.0 - eta * spec.weight_decay) if spec.weight_decay > 0.0 else None
    new = np.empty_like(old) if out is None else out
    scratch = np.empty(min(BLOCK, old.size)) if norms is not None else None
    for lo, hi, count, piece in stepped:
        s = slice(lo, hi)
        gb = g(s)
        work = old[s] * decay if decay is not None else old[s].copy()
        update(s, gb, work)
        if not np.isfinite(work).all():
            raise NonFiniteStep(lo + int(np.flatnonzero(~np.isfinite(work))[0]))
        if norms is not None:
            part = slice(piece, piece + count)
            _piece_sums(gb, None, count, scratch[: hi - lo], norms[0, part])
            _piece_sums(work, old[s], count, scratch[: hi - lo], norms[1, part])
        new[s] = work
    return WeightMap._wrap(new if out is None else new.view(), schema)


def project_to_ball(w: WeightMap, center: WeightMap, radius: float) -> WeightMap:
    """Euclidean projection onto the closed ball of given radius around center."""
    if not radius > 0:
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
