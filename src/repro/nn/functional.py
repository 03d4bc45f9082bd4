"""Stateless numerical routines shared by the layers: im2col, softmax, etc."""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "window_max",
    "softmax",
    "log_softmax",
    "relu",
    "sigmoid",
    "one_hot",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"Invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


#: Patch bytes written per block by :func:`im2col`.  Each block takes
#: ``kernel_h * kernel_w`` strided passes, so it is sized to stay in L2.
_IM2COL_BLOCK_BYTES = 1 << 19


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (NCHW) into a matrix of sliding patches.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N * out_h * out_w, C * kernel_h * kernel_w)``.

    The patches are written in one pass directly in the final
    ``(N, out_h, out_w, C, kernel_h, kernel_w)`` layout from an NHWC copy of
    the padded input, block by block over the batch so each block's strided
    writes stay in cache.  ``out`` optionally supplies that 6-D C-contiguous
    destination (a reused workspace).
    """
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    padded = np.zeros(
        (batch, height + 2 * padding, width + 2 * padding, channels), dtype=x.dtype
    )
    padded[:, padding : padding + height, padding : padding + width, :] = x.transpose(
        0, 2, 3, 1
    )
    shape = (batch, out_h, out_w, channels, kernel_h, kernel_w)
    if out is None:
        out = np.empty(shape, dtype=x.dtype)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"im2col out must be C-contiguous with shape {shape}")
    per_sample = out_h * out_w * channels * kernel_h * kernel_w * x.itemsize
    step = max(1, _IM2COL_BLOCK_BYTES // max(per_sample, 1))
    for start in range(0, batch, step):
        source = padded[start : start + step]
        block = out[start : start + step]
        for ky in range(kernel_h):
            y_end = ky + stride * out_h
            for kx in range(kernel_w):
                x_end = kx + stride * out_w
                block[..., ky, kx] = source[:, ky:y_end:stride, kx:x_end:stride, :]
    return (
        out.reshape(batch * out_h * out_w, channels * kernel_h * kernel_w),
        out_h,
        out_w,
    )


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold a patch matrix produced by :func:`im2col` back into an NCHW tensor.

    Overlapping patch contributions are summed, which is exactly the gradient
    of the unfold operation.
    """
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    cols = cols.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w).transpose(
        0, 3, 4, 5, 1, 2
    )
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    for ky in range(kernel_h):
        y_end = ky + stride * out_h
        for kx in range(kernel_w):
            x_end = kx + stride * out_w
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += cols[:, :, ky, kx, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def window_max(x: np.ndarray, kernel: int) -> np.ndarray:
    """Non-overlapping ``kernel x kernel`` window max over the last two axes.

    Combines the ``kernel**2`` strided window-element views with elementwise
    maxima; any leading axes (batch, channels, scenarios) ride along.  The
    running maximum is the *second* operand because ``np.maximum`` returns
    it on ties, so the earliest ``(ky, kx)`` wins exactly as in a flat
    ``argmax`` over the window.  That keeps signed zeros (``-0.0`` from
    ``x * mask``) bit-identical to the im2col + argmax path.  The result is
    C-contiguous.
    """
    height, width = x.shape[-2:]
    if height % kernel or width % kernel:
        raise ValueError(
            f"window_max needs spatial size divisible by {kernel}, got {(height, width)}"
        )
    out = x[..., ::kernel, ::kernel].astype(x.dtype, order="C", copy=True)
    for ky in range(kernel):
        for kx in range(kernel):
            if ky or kx:
                np.maximum(x[..., ky::kernel, kx::kernel], out, out=out)
    return out


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise rectified linear unit."""
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic sigmoid (stable for large ``|x|``).

    Computed directly in the input's floating dtype — no float64 temporary
    and no cast-back copy.
    """
    dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    out = np.empty_like(x, dtype=dtype)
    positive = x >= 0
    negative = ~positive
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[negative])
    out[negative] = exp_x / (1.0 + exp_x)
    return out


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels as a float32 ``(N, num_classes)`` matrix.

    The single one-hot encoder in the package; the losses build their
    (optionally label-smoothed) targets on top of it.
    """
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
