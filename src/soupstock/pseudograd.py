"""Pseudogradients, souping, and step-size schedules.

The core primitive: given a pivot model and an ingredient model, the pivoted
pseudogradient is amplification * (pivot - ingredient) / n_divisor. Running a
descent loop over these differences is what turns a pile of checkpoints into a
single merged model; the uniform soup is the special case recovered by plain
gradient descent with harmonic step decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weightstore import BLOCK, StoredMap, WeightMap, _check_compatible, validate_compatible

__all__ = [
    "ScheduleError",
    "Constant",
    "Harmonic",
    "Power",
    "CappedPower",
    "Explicit",
    "Schedule",
    "schedule_eval",
    "FixedPivot",
    "AdaptivePivot",
    "EmaPivot",
    "PivotPolicy",
    "pseudogradient",
    "pseudogradient_scale",
    "soup",
    "pivot_identity",
]


class ScheduleError(ValueError):
    """Raised for invalid schedule parameters or exhausted explicit schedules."""


# --- schedules ----------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    value: float

    def __call__(self, step: int) -> float:
        return float(self.value)


@dataclass(frozen=True)
class Harmonic:
    """1 / (step + offset); offset 0 gives 1, 1/2, 1/3, ... and offset 1 gives 1/2, 1/3, ..."""

    offset: int = 0

    def __post_init__(self) -> None:
        if self.offset not in (0, 1):
            raise ScheduleError(f"harmonic offset must be 0 or 1, got {self.offset}")

    def __call__(self, step: int) -> float:
        return 1.0 / (step + self.offset)


@dataclass(frozen=True)
class Power:
    """coeff * step ** exponent."""

    coeff: float
    exponent: float

    def __call__(self, step: int) -> float:
        return float(self.coeff) * float(step) ** float(self.exponent)


@dataclass(frozen=True)
class CappedPower:
    """min(coeff * step ** exponent, cap)."""

    coeff: float
    exponent: float
    cap: float

    def __call__(self, step: int) -> float:
        return min(float(self.coeff) * float(step) ** float(self.exponent), float(self.cap))


@dataclass(frozen=True)
class Explicit:
    """A literal per-step list; running past the end is an error, not a cycle."""

    values: tuple[float, ...]

    def __call__(self, step: int) -> float:
        if step > len(self.values):
            raise ScheduleError(
                f"explicit schedule exhausted: step {step} of {len(self.values)} values"
            )
        return float(self.values[step - 1])


Schedule = Constant | Harmonic | Power | CappedPower | Explicit


def schedule_eval(schedule: Schedule, step: int) -> float:
    """Evaluate a schedule at a 1-based step index."""
    if step < 1:
        raise ScheduleError(f"step indices start at 1, got {step}")
    return schedule(step)


# --- pivot policies -------------------------------------------------------------


@dataclass(frozen=True)
class FixedPivot:
    """Pseudogradients are always measured from the initial pivot."""


@dataclass(frozen=True)
class AdaptivePivot:
    """The pivot tracks the latest iterate; step i measures from w_{i-1}."""


@dataclass(frozen=True)
class EmaPivot:
    """The pivot is an exponentially weighted moving average of the iterates."""

    decay: float

    def __post_init__(self) -> None:
        if not (0.0 < self.decay <= 1.0):
            raise ValueError(f"ema decay must lie in (0, 1], got {self.decay}")


PivotPolicy = FixedPivot | AdaptivePivot | EmaPivot


# --- pseudogradients -------------------------------------------------------------


def pseudogradient_scale(zeta: float, n_divisor: int) -> np.float32:
    """fl(zeta / n_divisor): the factor every pseudogradient element is multiplied by."""
    if n_divisor < 1:
        raise ValueError(f"n_divisor must be >= 1, got {n_divisor}")
    return np.float32(float(zeta) / float(n_divisor))


def pseudogradient(pivot: WeightMap, ingredient: WeightMap, zeta: float, n_divisor: int) -> WeightMap:
    """amplification * (pivot - ingredient) / n_divisor, elementwise.

    Computed as (pivot - ingredient) * fl(zeta / n_divisor) per element, making
    pseudogradient(p, x) the exact negation of pseudogradient(x, p).
    """
    scale = pseudogradient_scale(zeta, n_divisor)
    _check_compatible(pivot, ingredient)
    out = np.subtract(pivot.flat, ingredient.flat)
    out *= scale
    return WeightMap._wrap(out, pivot.schema())


def soup(
    ingredients: list[WeightMap | StoredMap], out: np.ndarray | None = None, span: slice = slice(None)
) -> WeightMap:
    """Uniform arithmetic mean, accumulated at float64 in list order.

    Each block is read from every ingredient in turn, so stored maps are
    souped without holding more than the result and a few blocks. With
    ``out``, a writable float32 buffer of the maps' size, only the elements
    of ``span`` are souped, into ``out``, and the map returned is a view of
    it; every element's mean is the same however the buffer is cut.
    """
    if not ingredients:
        raise ValueError("soup requires at least one ingredient")
    schema = validate_compatible(ingredients)
    n = float(len(ingredients))
    buf = np.empty(schema.size, dtype=np.float32) if out is None else out
    lo, hi, _ = span.indices(schema.size)
    for begin in range(lo, hi, BLOCK):
        s = slice(begin, min(begin + BLOCK, hi))
        acc = ingredients[0].read(s).astype(np.float64)
        for m in ingredients[1:]:
            acc += m.read(s)
        acc /= n
        buf[s] = acc
    return WeightMap._wrap(buf if out is None else buf.view(), schema)


def pivot_identity(pivot: WeightMap, ingredients: list[WeightMap]) -> WeightMap:
    """pivot - (1/N) * sum(pivot - x_i): equals the soup for any finite pivot.

    Accumulated at float64 so the pivot cancels to well under the 1e-6 relative
    contract regardless of its magnitude.
    """
    if not ingredients:
        raise ValueError("pivot_identity requires at least one ingredient")
    schema = validate_compatible([pivot, *ingredients])
    n = float(len(ingredients))
    out = np.empty(schema.size, dtype=np.float32)
    for begin, end, _count, _piece in schema.blocks:
        s = slice(begin, end)
        p64 = pivot.flat[s].astype(np.float64)
        acc = np.zeros_like(p64)
        for ing in ingredients:
            acc += p64 - ing.flat[s]
        out[s] = p64 - acc / n
    return WeightMap._wrap(out, schema)
