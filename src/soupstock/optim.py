"""Stateful elementwise optimizers over weight maps.

Four update rules — GD, Adagrad, Adam, Adadelta — consume pseudogradients and
produce new iterates. :func:`optimizer_step` is the one driver: it makes a
single pass over the weight map's flat float32 buffer in blocks of at most
``weightstore.BLOCK`` elements (``Schema.blocks``) and, per block, takes the
pseudogradient (from a map or a per-block function), applies decoupled weight
decay and the rule's block update, checks the result is finite, and, when
asked, sums the float64 squares its log norms are taken from. Given the
layout of a contiguous run of those blocks, it steps only them, and reads and
writes no element outside them: the engine steps one merge a tile of blocks
at a time, through a layout it builds once per tile. All state lives in flat
float32 buffers over the stepped span, one per entry of the variant's
``fills``; the step counter increments inside each step call *before* the
learning-rate schedule is read, so the first update runs at index 1.

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
    WeightMap,
    _check_compatible,
    _piece_sums,
    l2_distance,
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

    fills: ClassVar[tuple[float, ...]] = ()  # initial value of each model-size buffer of its state


@dataclass(frozen=True)
class Adagrad:
    lr: Schedule
    eps: float = 1e-8

    fills: ClassVar[tuple[float, ...]] = (0.0,)

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

    @property
    def fills(self) -> tuple[float, ...]:
        return (self.m0, self.v0)

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

    fills: ClassVar[tuple[float, ...]] = (0.0, 0.0)

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
                    stacklevel=3,  # past the dataclass's generated __init__, to its caller
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
    """The global step counter plus the rule's state: one flat float32 buffer
    per entry of the variant's ``fills``, allocated by the first step over the
    span of the blocks it steps, in the weight map's buffer order from the
    span's start: Adagrad's sum of squared gradients, Adam's moments m and v,
    Adadelta's accumulated squared gradients and updates."""

    step: int = 0
    buffers: tuple[np.ndarray, ...] = ()


# --- block updates ------------------------------------------------------------------
#
# Each rule is a factory: given the variant, the step size and the global step,
# it returns update(g, out, *blocks), which applies the rule to one block of
# elements, with g their pseudogradient, out their decayed iterate and blocks
# the same elements of the state's buffers, all updated in place.

BlockUpdate = Callable[..., None]


def _gd_update(variant: GD, eta: float, step: int) -> BlockUpdate:
    """w - eta_i * g."""
    eta32 = np.float32(eta)

    def update(g: np.ndarray, out: np.ndarray) -> None:
        out -= eta32 * g

    return update


def _adagrad_update(variant: Adagrad, eta: float, step: int) -> BlockUpdate:
    """w - eta_i * g / (sqrt(sum of squared gradients) + eps), per element."""
    eta32 = np.float32(eta)
    (eps32,) = variant._float32

    def update(g: np.ndarray, out: np.ndarray, sq: np.ndarray) -> None:
        sq += g * g
        out -= eta32 * g / (np.sqrt(sq) + eps32)

    return update


def _adam_update(variant: Adam, eta: float, step: int) -> BlockUpdate:
    b1, b2, one_m_b1, one_m_b2, eps32 = variant._float32
    bias1 = 1.0 - float(variant.beta1) ** step
    bias2 = 1.0 - float(variant.beta2) ** step
    standard_form = variant.standard_form
    if standard_form:
        lr32 = np.float32(eta * math.sqrt(bias2) / bias1)
    else:
        lr32 = np.float32(eta / bias1)
        root_bias2 = np.float32(math.sqrt(bias2))

    def update(g: np.ndarray, out: np.ndarray, m: np.ndarray, v: np.ndarray) -> None:
        m *= b1
        m += one_m_b1 * g
        v *= b2
        v += one_m_b2 * g * g
        if standard_form:
            out -= lr32 * m / (np.sqrt(v) + eps32)
        else:
            out -= lr32 * m / (np.sqrt(v) / root_bias2 + eps32)

    return update


def _adadelta_update(variant: Adadelta, eta: float, step: int) -> BlockUpdate:
    """Accumulator-ratio updates, scaled by eta_i.

    acc_g <- rho*acc_g + (1-rho)*g^2
    delta  = -sqrt(acc_u + eps)/sqrt(acc_g + eps) * g
    acc_u <- rho*acc_u + (1-rho)*delta^2
    w     <- w + eta_i*delta
    """
    rho, one_m_rho, eps32 = variant._float32
    eta32 = np.float32(eta)

    def update(g: np.ndarray, out: np.ndarray, acc_g: np.ndarray, acc_u: np.ndarray) -> None:
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
    layout: tuple | None = None,
) -> WeightMap:
    """One step of spec's rule: decoupled weight decay, then the update.

    ``g`` is the pseudogradient: a map, or a function that returns the float32
    values of any slice of the flat buffer. The step makes one pass over the
    blocks of ``layout``, the :func:`_step_blocks` of a contiguous run of the
    schema's blocks (:attr:`Schema.blocks`; all of them by default), which
    holds their slices and the block buffers that every step given it reuses.
    Each block is decayed, updated and checked to be finite (a NaN/Inf raises
    :class:`NonFiniteStep`, leaving the state and ``out`` partly stepped)
    before it is written to ``out``, a new buffer by default. ``out`` may be
    w's own buffer: every block is read before it is written. A step of some
    of the blocks reads, writes and allocates state for none of the other
    elements, so ``out`` must then be given. A state whose buffers span
    another number of elements than the blocks raises ValueError first.

    With ``norms``, a float64 array of shape (2, len(schema.piece_ends)), the
    block's pseudogradient and displacement are also widened to float64,
    squared and summed per piece into ``norms[0]`` and ``norms[1]`` (those
    of the stepped blocks only); ``weightstore._add_pieces`` adds a row up
    to its sum of squares in the order :func:`l2_distance` adds its own.
    """
    schema = w.schema()
    span, rows = _step_blocks(schema.blocks) if layout is None else layout
    size = span.stop - span.start
    if state.buffers and len(state.buffers[0]) != size:
        raise ValueError(f"optimizer state spans {len(state.buffers[0])} elements; this step steps {size}")
    if isinstance(g, WeightMap):
        _check_compatible(w, g)
        g = g.flat.__getitem__
    variant = spec.variant
    state.step += 1
    idx = state.step if schedule_step is None else schedule_step
    eta = schedule_eval(variant.lr, idx)
    old = w.flat
    if not state.buffers:
        state.buffers = tuple(np.full(size, fill, dtype=np.float32) for fill in variant.fills)
    update = _UPDATES[type(variant)](variant, eta, state.step)
    decay = np.float32(1.0 - eta * spec.weight_decay)  # 1 without weight decay: an exact copy
    new = np.empty_like(old) if out is None else out
    for s, at, work, finite, wide, count, part in rows:
        gb = g(s)
        np.multiply(old[s], decay, out=work)
        update(gb, work, *[buf[at] for buf in state.buffers])
        if not np.isfinite(work, out=finite).all():
            raise NonFiniteStep(s.start + int(np.flatnonzero(~finite)[0]))
        if norms is not None:
            _piece_sums(gb, None, count, wide, norms[0, part])
            _piece_sums(work, old[s], count, wide, norms[1, part])
        new[s] = work
    return WeightMap._wrap(new if out is None else new.view(), schema)


def _step_blocks(stepped: tuple[tuple[int, int, int, int], ...]) -> tuple[slice, tuple]:
    """The layout of the blocks ``stepped``, consecutive entries of
    :attr:`Schema.blocks`: their span, and a row per block: its slice of
    the flat buffer and of the span, views of one float32 work buffer,
    finiteness mask and float64 scratch of the largest block's size, its
    count and its slice of the pieces."""
    span = slice(stepped[0][0], stepped[-1][1]) if stepped else slice(0, 0)
    size = max((hi - lo for lo, hi, _count, _piece in stepped), default=0)
    work, finite, wide = np.empty(size, dtype=np.float32), np.empty(size, dtype=bool), np.empty(size)
    rows = tuple(
        (slice(lo, hi), slice(lo - span.start, hi - span.start), work[: hi - lo], finite[: hi - lo],
         wide[: hi - lo], count, slice(piece, piece + count))
        for lo, hi, count, piece in stepped
    )
    return span, rows


def project_to_ball(w: WeightMap, center: WeightMap, radius: float, *,
                    out: np.ndarray | None = None) -> WeightMap:
    """Euclidean projection onto the closed ball of given radius around center:
    w itself where w lies in the ball, else the projection, written block by
    block (:attr:`Schema.blocks`) into ``out`` (a new buffer by default; it
    may be w's own). A projection that overflows float32 raises
    :class:`NonFiniteStep` at its first NaN/Inf, with ``out`` written up to
    that block."""
    if not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    dist = l2_distance(w, center)
    if dist <= radius:
        return w
    shrink = np.float32(radius / dist)
    new = np.empty_like(w.flat) if out is None else out
    for lo, hi, _count, _piece in w.schema().blocks:
        block = np.subtract(w.flat[lo:hi], center.flat[lo:hi], out=new[lo:hi])
        block *= shrink
        block += center.flat[lo:hi]
        if not np.isfinite(block).all():
            raise NonFiniteStep(lo + int(np.flatnonzero(~np.isfinite(block))[0]))
    return WeightMap._wrap(new if out is None else new.view(), w.schema())
