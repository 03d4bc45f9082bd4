"""2-D convolution layer implemented via im2col."""

from __future__ import annotations

import numpy as np

import repro.nn.functional as F
from repro.nn import init
from repro.nn.module import Module
from repro.nn.tensor import Parameter
from repro.utils.rng import default_rng
from repro.utils.validation import check_positive_int

__all__ = ["Conv2D"]


class Conv2D(Module):
    """2-D convolution over NCHW inputs.

    The kernel tensor has shape ``(out_channels, in_channels, kh, kw)`` and is
    tagged ``kind="conv"`` so the accelerator maps it onto the CONV block's
    MR banks.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel side (int) or ``(kh, kw)`` tuple.
    stride, padding:
        Convolution stride and symmetric zero padding.
    bias:
        Include per-output-channel bias.
    rng:
        Seed or generator for weight initialization.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int] = 3,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        self.in_channels = check_positive_int(in_channels, "in_channels")
        self.out_channels = check_positive_int(out_channels, "out_channels")
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.kernel_size = (
            check_positive_int(kernel_size[0], "kernel_size[0]"),
            check_positive_int(kernel_size[1], "kernel_size[1]"),
        )
        self.stride = check_positive_int(stride, "stride")
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        self.padding = int(padding)
        rng = default_rng(rng)
        weight_shape = (out_channels, in_channels, *self.kernel_size)
        self.weight = Parameter(init.he_normal(weight_shape, rng), kind="conv")
        self.bias = Parameter(init.zeros((out_channels,)), kind="bias") if bias else None
        self._cache: tuple[np.ndarray, tuple[int, int, int, int], int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if self.training and self.weight.stacked_trainable:
            return self._forward_stacked_train(x)
        if x.ndim == 5 or self.weight.stacked is not None:
            return self._forward_ensemble(x)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects input (N, {self.in_channels}, H, W), got {x.shape}"
            )
        kh, kw = self.kernel_size
        cols, out_h, out_w = F.im2col(x, kh, kw, self.stride, self.padding)
        weight_matrix = self.weight.data.reshape(self.out_channels, -1)
        out = cols @ weight_matrix.T
        if self.bias is not None:
            out += self.bias.data
        batch = x.shape[0]
        out = out.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        self._cache = (cols, x.shape, out_h, out_w) if self.training else None
        return out

    def _forward_ensemble(self, x: np.ndarray) -> np.ndarray:
        """Scenario-stacked forward over ``(S?, N, C, H, W)`` inputs.

        While the activations are still shared across scenarios (a 4-D input,
        or a 5-D input with a singleton scenario axis), im2col runs **once**
        per input batch and the shared patch matrix is contracted against all
        ``S`` stacked weight sets as a single batched matmul.  Once the
        activations have diverged, the scenario axis is folded into the batch
        axis for the unfold and each scenario's patches meet its own weight
        set in the batched contraction.
        """
        if x.ndim not in (4, 5) or x.shape[-3] != self.in_channels:
            raise ValueError(
                f"Conv2D expects input (N, {self.in_channels}, H, W) or "
                f"(S, N, {self.in_channels}, H, W), got {x.shape}"
            )
        self._cache = None  # ensemble forwards are inference-only
        stacked = self.weight.stacked
        kh, kw = self.kernel_size
        if x.ndim == 5 and x.shape[0] == 1:
            x = x[0]  # shared activations: keep the single-im2col fast path

        if x.ndim == 4:
            batch = x.shape[0]
            cols, out_h, out_w = F.im2col(x, kh, kw, self.stride, self.padding)
            if stacked is None:
                out = (cols @ self.weight.data.reshape(self.out_channels, -1).T)[None]
            else:
                weight_matrix = stacked.reshape(stacked.shape[0], self.out_channels, -1)
                out = np.matmul(cols[None], weight_matrix.transpose(0, 2, 1))
        else:
            scenarios, batch = x.shape[:2]
            cols, out_h, out_w = F.im2col(
                x.reshape((scenarios * batch,) + x.shape[2:]),
                kh, kw, self.stride, self.padding,
            )
            cols = cols.reshape(scenarios, batch * out_h * out_w, -1)
            if stacked is None:
                weight_matrix = self.weight.data.reshape(1, self.out_channels, -1)
            else:
                weight_matrix = stacked.reshape(stacked.shape[0], self.out_channels, -1)
            out = np.matmul(cols, weight_matrix.transpose(0, 2, 1))
        if self.bias is not None:
            if self.bias.stacked is not None:
                # Not in place: S stacked biases broadcast a singleton weight
                # stack's (1, M, F) output up to (S, M, F).
                out = out + self.bias.stacked[:, None, :]
            else:
                out += self.bias.data
        lead = out.shape[0]
        return out.reshape(lead, batch, out_h, out_w, self.out_channels).transpose(
            0, 1, 4, 2, 3
        )

    def _forward_stacked_train(self, x: np.ndarray) -> np.ndarray:
        """Variant-stacked training forward over ``(V?, N, C, H, W)`` inputs.

        A shared 4-D input — the raw image batch, identical for every variant
        (downstream activations are always 5-D in stacked training, even for
        a single variant) — is unfolded **once** and the patch matrix meets
        all ``V`` stacked kernels in one batched matmul; since nothing sits
        upstream of the raw input, :meth:`backward` also skips the (discarded)
        input gradient for it.  A diverged 5-D input folds the variant axis
        into the batch axis for the unfold, giving each variant its own patch
        slab.  Both shapes cache the patch matrix for :meth:`backward`.
        """
        stacked = self.weight.stacked
        variants = stacked.shape[0]
        if x.ndim not in (4, 5) or x.shape[-3] != self.in_channels:
            raise ValueError(
                f"Conv2D expects input (N, {self.in_channels}, H, W) or "
                f"(V, N, {self.in_channels}, H, W), got {x.shape}"
            )
        kh, kw = self.kernel_size
        weight_matrix = stacked.reshape(variants, self.out_channels, -1)
        if x.ndim == 4:
            batch = x.shape[0]
            cols, out_h, out_w = F.im2col(x, kh, kw, self.stride, self.padding)
            out = np.matmul(cols[None], weight_matrix.transpose(0, 2, 1))
            shared_input = True
            input_shape = x.shape
        else:
            if x.shape[0] != variants:
                raise ValueError(
                    f"stacked input has {x.shape[0]} variants, weights have {variants}"
                )
            batch = x.shape[1]
            cols, out_h, out_w = F.im2col(
                x.reshape((variants * batch,) + x.shape[2:]),
                kh, kw, self.stride, self.padding,
            )
            cols = cols.reshape(variants, batch * out_h * out_w, -1)
            out = np.matmul(cols, weight_matrix.transpose(0, 2, 1))
            shared_input = False
            input_shape = x.shape
        if self.bias is not None:
            out += self.bias.stacked[:, None, :]
        self._cache = ("stacked", cols, shared_input, input_shape, out_h, out_w)
        return out.reshape(variants, batch, out_h, out_w, self.out_channels).transpose(
            0, 1, 4, 2, 3
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        if isinstance(self._cache[0], str):  # "stacked" marker
            return self._backward_stacked(np.asarray(grad_output, dtype=np.float32))
        cols, input_shape, out_h, out_w = self._cache
        grad_output = np.asarray(grad_output, dtype=np.float32)
        batch = input_shape[0]
        # (N, F, OH, OW) -> (N*OH*OW, F): a free view when the gradient has
        # the forward output's channels-last memory order.
        grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, -1)
        weight_matrix = self.weight.data.reshape(self.out_channels, -1)
        self.weight.grad += (grad_matrix.T @ cols).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad_matrix.sum(axis=0)
        grad_cols = grad_matrix @ weight_matrix
        kh, kw = self.kernel_size
        return F.col2im(grad_cols, input_shape, kh, kw, self.stride, self.padding)

    def _backward_stacked(self, grad_output: np.ndarray) -> np.ndarray:
        """Backward of :meth:`_forward_stacked_train`.

        Accumulates one kernel/bias gradient slab per variant and returns the
        per-variant input gradient ``(V, N, C, H, W)``.  A shared 4-D input
        is the raw image batch (nothing upstream consumes its gradient), so
        that case skips the input-gradient matmul/col2im entirely and
        returns ``None``.
        """
        _, cols, shared_input, input_shape, out_h, out_w = self._cache
        variants = self.weight.stacked.shape[0]
        batch = input_shape[0] if shared_input else input_shape[1]
        # (V, N, F, OH, OW) -> (V, N*OH*OW, F), a view for channels-last input.
        grad_matrix = grad_output.transpose(0, 1, 3, 4, 2).reshape(
            variants, batch * out_h * out_w, -1
        )
        self.weight.stacked_grad += np.matmul(
            grad_matrix.transpose(0, 2, 1), cols
        ).reshape(self.weight.stacked.shape)
        if self.bias is not None:
            self.bias.stacked_grad += grad_matrix.sum(axis=1)
        if shared_input:
            return None
        weight_matrix = self.weight.stacked.reshape(variants, self.out_channels, -1)
        grad_cols = np.matmul(grad_matrix, weight_matrix)
        kh, kw = self.kernel_size
        folded_shape = (variants * batch,) + tuple(input_shape[2:])
        grad_input = F.col2im(
            grad_cols.reshape(variants * batch * out_h * out_w, -1),
            folded_shape, kh, kw, self.stride, self.padding,
        )
        return grad_input.reshape((variants, batch) + grad_input.shape[1:])

    def output_shape(self, input_hw: tuple[int, int]) -> tuple[int, int, int]:
        """Return ``(out_channels, out_h, out_w)`` for an input of ``(h, w)``."""
        kh, kw = self.kernel_size
        out_h = (input_hw[0] + 2 * self.padding - kh) // self.stride + 1
        out_w = (input_hw[1] + 2 * self.padding - kw) // self.stride + 1
        return self.out_channels, out_h, out_w

    def __repr__(self) -> str:
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )
