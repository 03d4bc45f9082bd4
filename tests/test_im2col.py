"""The one-pass im2col against the fill + transpose oracle, and its adjoint."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.backend import get_backend
from repro.nn.functional import col2im, conv_output_size, im2col


def im2col_fill_transpose(x, kernel_h, kernel_w, stride, padding):
    """Oracle: fill a ``(N, C, kh, kw, oh, ow)`` array, then transpose-copy."""
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )
    cols = np.empty((batch, channels, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel_h):
        y_end = ky + stride * out_h
        for kx in range(kernel_w):
            x_end = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = x[:, :, ky:y_end:stride, kx:x_end:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, channels * kernel_h * kernel_w
    )
    return cols, out_h, out_w


@st.composite
def geometries(draw):
    kernel_h = draw(st.integers(1, 4))
    kernel_w = draw(st.integers(1, 4))
    padding = draw(st.integers(0, 2))
    height = draw(st.integers(max(1, kernel_h - 2 * padding), 9))
    width = draw(st.integers(max(1, kernel_w - 2 * padding), 9))
    return {
        "shape": (draw(st.integers(1, 5)), draw(st.integers(1, 4)), height, width),
        "kernel_h": kernel_h,
        "kernel_w": kernel_w,
        "stride": draw(st.integers(1, 3)),
        "padding": padding,
        "seed": draw(st.integers(0, 2**16)),
    }


def _unfold_args(geometry):
    return (geometry["kernel_h"], geometry["kernel_w"], geometry["stride"], geometry["padding"])


_settings = settings(max_examples=80, deadline=None)


class TestOnePassIm2col:
    @_settings
    @given(geometry=geometries())
    def test_matches_fill_transpose_oracle(self, geometry):
        rng = np.random.default_rng(geometry["seed"])
        x = rng.normal(size=geometry["shape"]).astype(np.float32)
        cols, out_h, out_w = im2col(x, *_unfold_args(geometry))
        expected, exp_h, exp_w = im2col_fill_transpose(x, *_unfold_args(geometry))
        assert (out_h, out_w) == (exp_h, exp_w)
        assert cols.dtype == expected.dtype
        assert cols.flags["C_CONTIGUOUS"]
        assert np.array_equal(cols.view(np.uint32), expected.view(np.uint32))

    @_settings
    @given(geometry=geometries())
    def test_adjoint_of_col2im(self, geometry):
        """``<col2im(G), X> == <G, im2col(X)>``: col2im is im2col's transpose."""
        rng = np.random.default_rng(geometry["seed"])
        x = rng.normal(size=geometry["shape"])
        cols, _, _ = im2col(x, *_unfold_args(geometry))
        g = rng.normal(size=cols.shape)
        folded = col2im(g, x.shape, *_unfold_args(geometry))
        lhs = float(np.sum(folded * x))
        rhs = float(np.sum(g * cols))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_blocks_cover_large_batches(self):
        """Batches spanning several write blocks unfold like the oracle."""
        x = np.random.default_rng(3).normal(size=(300, 8, 14, 14)).astype(np.float32)
        cols, _, _ = im2col(x, 3, 3, 1, 1)
        expected, _, _ = im2col_fill_transpose(x, 3, 3, 1, 1)
        assert np.array_equal(cols, expected)

    def test_workspace_out_is_filled_in_place(self):
        x = np.random.default_rng(4).normal(size=(3, 2, 6, 5)).astype(np.float32)
        out = np.full((3, 4, 3, 2, 3, 3), np.nan, dtype=np.float32)
        cols, _, _ = im2col(x, 3, 3, 1, 0, out=out)
        assert np.shares_memory(cols, out)
        assert np.array_equal(cols, im2col_fill_transpose(x, 3, 3, 1, 0)[0])
        with pytest.raises(ValueError):
            im2col(x, 3, 3, 1, 0, out=np.empty((3, 4, 3, 2, 9), dtype=np.float32))

    def test_fast_backend_transient_unfold_matches(self):
        x = np.random.default_rng(5).normal(size=(4, 3, 7, 7)).astype(np.float32)
        fast, _, _ = get_backend("fast").im2col(x, 3, 2, 2, 1, transient=True)
        assert np.array_equal(fast, im2col_fill_transpose(x, 3, 2, 2, 1)[0])
