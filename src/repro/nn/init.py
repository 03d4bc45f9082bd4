"""Weight-initialization schemes."""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from repro.utils.rng import default_rng

__all__ = ["he_normal", "he_uniform", "xavier_uniform", "xavier_normal", "zeros", "ones"]

_SHAPES_ONLY: ContextVar[bool] = ContextVar("repro_nn_init_shapes_only", default=False)


@contextmanager
def _shapes_only() -> Iterator[None]:
    """Make :func:`he_normal` return all-zero weights instead of drawing.

    ``Conv2D`` and ``Linear`` built inside have parameters of the right shape
    and kind but no drawn values.  ``np.zeros`` maps untouched zero pages, so
    a full-scale model costs neither the draw nor resident memory; the
    Table I inventory (:mod:`repro.nn.models.table1`) only counts
    parameters.  The flag is a context variable, so models built on other
    threads draw as usual.
    """
    token = _SHAPES_ONLY.set(True)
    try:
        yield
    finally:
        _SHAPES_ONLY.reset(token)


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute fan-in/fan-out for dense (out, in) and conv (F, C, KH, KW) shapes."""
    if len(shape) == 2:
        fan_out, fan_in = shape
    elif len(shape) == 4:
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        fan_in = fan_out = int(np.prod(shape)) if shape else 1
    return max(fan_in, 1), max(fan_out, 1)


def he_normal(shape: tuple[int, ...], rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Kaiming-He normal initialization (suited for ReLU networks)."""
    if _SHAPES_ONLY.get():
        return zeros(shape)
    rng = default_rng(rng)
    fan_in, _ = _fan_in_out(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def he_uniform(shape: tuple[int, ...], rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Kaiming-He uniform initialization."""
    rng = default_rng(rng)
    fan_in, _ = _fan_in_out(shape)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Glorot/Xavier uniform initialization (suited for tanh/sigmoid networks)."""
    rng = default_rng(rng)
    fan_in, fan_out = _fan_in_out(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def xavier_normal(shape: tuple[int, ...], rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Glorot/Xavier normal initialization."""
    rng = default_rng(rng)
    fan_in, fan_out = _fan_in_out(shape)
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initialization (biases)."""
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    """All-one initialization (batch-norm scale)."""
    return np.ones(shape, dtype=np.float32)
