"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh"]


class ReLU(Module):
    """Rectified linear unit.

    The input gradient is written in the memory order of the forward input
    (kept as the mask's order), so a conv activation's channels-last layout
    survives the backward and ``Conv2D.backward`` reads it without a copy.
    Eval-mode forwards cache nothing, so ``backward`` after one raises.
    """

    def __init__(self):
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        mask = x > 0
        self._mask = mask if self.training else None
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad_input = np.empty_like(self._mask, dtype=np.float32)
        np.multiply(
            np.asarray(grad_output, dtype=np.float32), self._mask, out=grad_input
        )
        return grad_input

    def __repr__(self) -> str:
        return "ReLU()"


class LeakyReLU(Module):
    """Leaky rectified linear unit with negative slope ``alpha``."""

    def __init__(self, alpha: float = 0.01):
        super().__init__()
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        self._mask = x > 0
        return np.where(self._mask, x, self.alpha * x).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        return np.where(self._mask, grad_output, self.alpha * grad_output).astype(np.float32)

    def __repr__(self) -> str:
        return f"LeakyReLU(alpha={self.alpha})"


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self):
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = F.sigmoid(np.asarray(x, dtype=np.float32))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        return grad_output * self._output * (1.0 - self._output)

    def __repr__(self) -> str:
        return "Sigmoid()"


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self):
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(np.asarray(x, dtype=np.float32))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        return grad_output * (1.0 - self._output**2)

    def __repr__(self) -> str:
        return "Tanh()"
