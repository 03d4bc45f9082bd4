"""Trainable parameter container.

The framework does not implement a general autograd graph; each layer
implements its own backward pass and accumulates gradients directly into the
``grad`` buffer of its :class:`Parameter` objects.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter"]


class Parameter:
    """A trainable array with an associated gradient buffer.

    Parameters
    ----------
    data:
        Initial value; stored as ``float32``.
    name:
        Optional human-readable name (filled in by ``Module.named_parameters``
        when left empty).
    kind:
        Semantic role of the parameter used by the accelerator mapping:
        ``"conv"`` for convolution kernels, ``"fc"`` for fully-connected
        weight matrices, ``"bias"`` for bias vectors and ``"other"`` for
        normalization parameters.  Only ``conv`` and ``fc`` weights are
        imprinted onto MR banks (biases and batch-norm parameters stay in the
        electronic domain in CrossLight-style accelerators).

    A parameter can additionally carry a *stacked* value of shape
    ``(S, *shape)`` — one weight set per attack scenario or per model
    variant — attached via
    :meth:`repro.nn.module.Module.load_stacked_state`.  While a stacked value
    is present, layers that consume the parameter evaluate all ``S`` weight
    sets in a single ensemble forward pass.  When the stacked value was
    loaded as *trainable* the parameter also owns a ``stacked_grad`` buffer
    of the same shape and the layers run cached stacked forwards whose
    ``backward`` accumulates one gradient slab per variant (the variant-grid
    training path); without it, stacked forwards are inference-only.
    """

    def __init__(self, data: np.ndarray, name: str = "", kind: str = "other"):
        self.data = np.asarray(data, dtype=np.float32)
        # ``np.zeros`` maps fresh zero pages; ``zeros_like`` would write them.
        self.grad = np.zeros(self.data.shape, dtype=np.float32)
        self.name = name
        self.kind = kind
        self.stacked: np.ndarray | None = None
        self.stacked_grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def stacked_trainable(self) -> bool:
        """True when this parameter trains one weight slab per variant."""
        return self.stacked is not None and self.stacked_grad is not None

    def zero_grad(self) -> None:
        """Reset the gradient buffer(s) to zero."""
        self.grad.fill(0.0)
        if self.stacked_grad is not None:
            self.stacked_grad.fill(0.0)

    def copy(self) -> "Parameter":
        """Return a deep copy (used to snapshot clean weights before attacks)."""
        clone = Parameter(self.data.copy(), name=self.name, kind=self.kind)
        clone.grad = self.grad.copy()
        return clone

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, kind={self.kind!r}, shape={self.data.shape})"
