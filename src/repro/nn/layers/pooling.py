"""Pooling layers: max, average and global average pooling.

Every pooling layer treats each sample independently, so scenario-stacked
``(S, N, C, H, W)`` inputs from the ensemble forward path are handled either
by a kernel that works over any leading axes (non-overlapping max pooling)
or by folding the scenario axis into the batch axis (see
:mod:`repro.nn.ensemble`); eval-mode forwards drop the backward cache since
they are inference-only.
"""

from __future__ import annotations

import numpy as np

import repro.nn.functional as F
from repro.nn.ensemble import fold_scenarios, unfold_scenarios
from repro.nn.module import Module
from repro.utils.validation import check_positive_int

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


class MaxPool2D(Module):
    """Max pooling over non-overlapping (or strided) windows.

    The ubiquitous non-overlapping, unpadded geometry (``stride == kernel``,
    spatial size divisible by the kernel) runs one window-max kernel for
    every input rank and mode: the ``k*k`` strided window-element views
    combined with elementwise maxima (:func:`repro.nn.functional.window_max`).
    Training additionally keeps ``k*k`` first-match winner masks for the
    backward, stored as ``uint32`` words (``0xFFFFFFFF`` at a window's
    winner, ``0`` elsewhere): the backward writes each window plane with one
    bitwise AND of the gradient's bits against its word, which keeps every
    bit of a routed gradient (``-0.0`` and NaN payloads included) and gives
    ``+0.0`` everywhere else.  Ties keep the earliest ``(ky, kx)`` in
    row-major order, the flat ``argmax`` winner of the im2col path, so values
    (signed zeros included) *and* gradient routing are bit-identical to it.
    Overlapping or padded geometries take the im2col + argmax path.

    The window backward writes the input gradient in the forward input's
    memory order (a conv activation's channels-last layout stays
    channels-last), so the layers below it read it without a copy.

    Eval-mode forwards cache nothing, so ``backward`` after one raises.
    """

    def __init__(self, kernel_size: int = 2, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(stride if stride is not None else kernel_size, "stride")
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        self.padding = int(padding)
        self._cache = None
        self._window_cache = None
        self._stacked_lead: int | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        self._stacked_lead = None
        self._cache = None
        self._window_cache = None
        if self._is_window_geometry(x):
            if self.training:
                return self._forward_windows_train(x)
            return F.window_max(x, self.kernel_size)
        if x.ndim == 5:
            # Stacked (variant or scenario) input: fold the leading axis into
            # the batch axis so the im2col path and its backward apply
            # unchanged, then restore it.
            folded, lead = fold_scenarios(x)
            out = self._forward_im2col(folded)
            if self.training:
                self._stacked_lead = lead
            return unfold_scenarios(out, lead)
        return self._forward_im2col(x)

    def _forward_im2col(self, x: np.ndarray) -> np.ndarray:
        """Windowed im2col + argmax path for overlapping or padded windows."""
        batch, channels, _, _ = x.shape
        k = self.kernel_size
        # Treat each channel independently so the window matrix is (N*C, ...)
        reshaped = x.reshape(batch * channels, 1, *x.shape[2:])
        cols, out_h, out_w = F.im2col(reshaped, k, k, self.stride, self.padding)
        argmax = np.argmax(cols, axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        out = out.reshape(batch, channels, out_h, out_w)
        if self.training:
            self._cache = (argmax, cols.shape, reshaped.shape, x.shape)
        return out

    def _is_window_geometry(self, x: np.ndarray) -> bool:
        k = self.kernel_size
        height, width = x.shape[-2:]
        return (
            self.padding == 0
            and self.stride == k
            and height % k == 0
            and width % k == 0
        )

    def _window_slices(self, x_or_grad: np.ndarray) -> list[np.ndarray]:
        """The ``k*k`` strided window-element views in (ky, kx) row-major order."""
        k = self.kernel_size
        return [x_or_grad[..., ky::k, kx::k] for ky in range(k) for kx in range(k)]

    def _forward_windows_train(self, x: np.ndarray) -> np.ndarray:
        """Window-max forward that keeps first-match winner masks.

        Mask ``i`` marks the outputs whose earliest maximal window element is
        element ``i``; the masks partition the output, so the backward
        routes every gradient to exactly one input element.  Each mask is
        kept as ``uint32`` words (all ones at a winner, zero elsewhere) for
        the backward's bitwise AND.
        """
        out = F.window_max(x, self.kernel_size)
        masks = []
        claimed = np.zeros(out.shape, dtype=bool)
        for piece in self._window_slices(x):
            hit = (piece == out) & ~claimed
            claimed |= hit
            # -True wraps to 0xFFFFFFFF in uint32.
            masks.append(np.negative(hit, dtype=np.uint32))
        # Axes from outermost to innermost in memory (ties keep axis order),
        # so the backward can lay its gradient out like ``x``.
        memory_order = sorted(range(x.ndim), key=lambda axis: -x.strides[axis])
        self._window_cache = (masks, x.shape, memory_order)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None and self._window_cache is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        if self._window_cache is not None:
            return self._backward_windows(grad_output)
        if self._stacked_lead is not None:
            folded, lead = fold_scenarios(grad_output)
            return unfold_scenarios(self._backward_im2col(folded), lead)
        return self._backward_im2col(grad_output)

    def _backward_im2col(self, grad_output: np.ndarray) -> np.ndarray:
        argmax, cols_shape, reshaped_shape, input_shape = self._cache
        grad_cols = np.zeros(cols_shape, dtype=np.float32)
        grad_flat = grad_output.reshape(-1)
        grad_cols[np.arange(cols_shape[0]), argmax] = grad_flat
        k = self.kernel_size
        grad_reshaped = F.col2im(grad_cols, reshaped_shape, k, k, self.stride, self.padding)
        return grad_reshaped.reshape(input_shape)

    def _backward_windows(self, grad_output: np.ndarray) -> np.ndarray:
        """Backward of :meth:`_forward_windows_train`: one AND per plane.

        ``grad & word`` is the gradient's exact bits at a winner and ``+0.0``
        elsewhere, written straight into the plane with no temporary.
        """
        words, input_shape, memory_order = self._window_cache
        grad_input = np.empty(
            [input_shape[axis] for axis in memory_order], dtype=np.float32
        ).transpose(np.argsort(memory_order))
        grad_bits = grad_output.view(np.uint32)
        for plane, word in zip(self._window_slices(grad_input), words):
            np.bitwise_and(grad_bits, word, out=plane.view(np.uint32))
        return grad_input

    def __repr__(self) -> str:
        return f"MaxPool2D(kernel_size={self.kernel_size}, stride={self.stride})"


class AvgPool2D(Module):
    """Average pooling over strided windows."""

    def __init__(self, kernel_size: int = 2, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(stride if stride is not None else kernel_size, "stride")
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        self.padding = int(padding)
        self._cache = None
        self._stacked_lead: int | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        self._stacked_lead = None
        if x.ndim == 5:
            folded, lead = fold_scenarios(x)
            out = self.forward(folded)
            if self.training:
                self._stacked_lead = lead
            else:
                self._cache = None
            return unfold_scenarios(out, lead)
        batch, channels, _, _ = x.shape
        k = self.kernel_size
        reshaped = x.reshape(batch * channels, 1, *x.shape[2:])
        # Only shapes are cached for backward, not the patch matrix.
        cols, out_h, out_w = F.im2col(reshaped, k, k, self.stride, self.padding)
        out = cols.mean(axis=1).reshape(batch, channels, out_h, out_w)
        self._cache = (cols.shape, reshaped.shape, x.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        if self._stacked_lead is not None:
            folded, lead = fold_scenarios(grad_output)
            return unfold_scenarios(self._backward_folded(folded), lead)
        return self._backward_folded(grad_output)

    def _backward_folded(self, grad_output: np.ndarray) -> np.ndarray:
        cols_shape, reshaped_shape, input_shape = self._cache
        window = cols_shape[1]
        grad_cols = np.repeat(grad_output.reshape(-1, 1) / window, window, axis=1)
        k = self.kernel_size
        grad_reshaped = F.col2im(grad_cols, reshaped_shape, k, k, self.stride, self.padding)
        return grad_reshaped.reshape(input_shape)

    def __repr__(self) -> str:
        return f"AvgPool2D(kernel_size={self.kernel_size}, stride={self.stride})"


class GlobalAvgPool2D(Module):
    """Average over the full spatial extent, producing ``(N, C)`` features."""

    def __init__(self):
        super().__init__()
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # The spatial mean always reduces a C-contiguous slab: numpy groups
        # its pairwise summation by memory layout, and the serial and
        # variant-stacked paths hand this layer differently laid-out (but
        # value-identical) arrays.  Normalizing the layout first makes the
        # two paths reduce bit-identically.
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 5:
            # Cache the stacked shape only in training mode; ensemble
            # inference forwards stay backward-free.
            self._input_shape = x.shape if self.training else None
            return np.stack(
                [np.ascontiguousarray(x[v]).mean(axis=(2, 3)) for v in range(x.shape[0])]
            )
        self._input_shape = x.shape
        return np.ascontiguousarray(x).mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        height, width = self._input_shape[-2:]
        grad_output = np.asarray(grad_output, dtype=np.float32)
        grad = grad_output[..., None, None] / float(height * width)
        return np.broadcast_to(grad, self._input_shape).astype(np.float32, order="C")

    def __repr__(self) -> str:
        return "GlobalAvgPool2D()"
