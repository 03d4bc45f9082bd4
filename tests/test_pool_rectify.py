"""Pool-before-rectify in CNN_1 and MaxPool2D's bitwise gradient routing.

``Conv2D → MaxPool2D → ReLU`` must train exactly like ``Conv2D → ReLU →
MaxPool2D``: the same values and input gradients up to the sign of a zero,
and equal conv weight and bias gradients.  The window backward routes each
gradient with a bitwise AND, which must keep every bit of a routed value
(``-0.0`` and NaN payloads included) as the ``np.where`` reference does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Conv2D, MaxPool2D, ReLU, Sequential
from repro.nn.models.cnn_mnist import MnistCNN


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    """Same shape and the same float32 bit patterns (signed zeros included)."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint32), expected.view(np.uint32))


def canonical_zeros(x: np.ndarray) -> np.ndarray:
    """``x`` with every ``-0.0`` turned into ``+0.0`` (other bits unchanged)."""
    return x + np.float32(0.0)


# Small exact values: every conv sum is exact in float32, so windows hold
# ties, exact zeros and all-non-positive runs; gradients carry both zeros.
_INPUT_VALUES = [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0]
_WEIGHT_VALUES = [-1.0, -0.5, 0.0, 0.5, 1.0]
_GRAD_VALUES = [-1.5, -1.0, -0.0, 0.0, 0.25, 2.0]


def _draw(data, shape, values) -> np.ndarray:
    flat = data.draw(
        st.lists(st.sampled_from(values), min_size=int(np.prod(shape)),
                 max_size=int(np.prod(shape)))
    )
    return np.asarray(flat, dtype=np.float32).reshape(shape)


def _conv_pair(weight: np.ndarray, bias: np.ndarray) -> tuple[Sequential, Sequential]:
    """``conv → relu → pool`` and ``conv → pool → relu`` sharing one conv state."""
    out_channels, in_channels = weight.shape[:2]
    stacks = []
    for order in ((ReLU(), MaxPool2D(2)), (MaxPool2D(2), ReLU())):
        conv = Conv2D(in_channels, out_channels, kernel_size=3, padding=1, rng=0)
        conv.weight.data[...] = weight
        conv.bias.data[...] = bias
        stacks.append(Sequential(conv, *order))
    return stacks[0], stacks[1]


class TestPoolRectifyCommute:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        batch=st.integers(1, 3),
        in_channels=st.integers(1, 2),
        out_channels=st.integers(1, 3),
        half_h=st.integers(1, 3),
        half_w=st.integers(1, 3),
        variants=st.sampled_from([None, 1, 3]),
        training=st.booleans(),
    )
    def test_conv_relu_pool_equals_conv_pool_relu(
        self, data, batch, in_channels, out_channels, half_h, half_w, variants, training
    ):
        weight = _draw(data, (out_channels, in_channels, 3, 3), _WEIGHT_VALUES)
        bias = _draw(data, (out_channels,), _WEIGHT_VALUES)
        lead = () if variants is None else (variants,)
        x = _draw(data, (*lead, batch, in_channels, 2 * half_h, 2 * half_w), _INPUT_VALUES)
        relu_first, pool_first = _conv_pair(weight, bias)
        if variants is not None and training:
            # Variant-grid training: one trainable weight slab per variant.
            slabs = {
                "layers.0.weight": np.stack(
                    [weight * np.float32(v + 1) for v in range(variants)]
                ),
                "layers.0.bias": np.stack([bias - np.float32(v) for v in range(variants)]),
            }
            for model in (relu_first, pool_first):
                model.load_stacked_state(slabs, trainable=True)
        for model in (relu_first, pool_first):
            model.train(training)

        out_a, out_b = relu_first(x), pool_first(x)
        assert_bits_equal(canonical_zeros(out_a), canonical_zeros(out_b))
        if not training:
            return

        grad = _draw(data, out_a.shape, _GRAD_VALUES)
        for model in (relu_first, pool_first):
            model.zero_grad()
        grad_a, grad_b = relu_first.backward(grad), pool_first.backward(grad)
        assert_bits_equal(canonical_zeros(grad_a), canonical_zeros(grad_b))
        conv_a, conv_b = relu_first[0], pool_first[0]
        if variants is None:
            pairs = [(conv_a.weight.grad, conv_b.weight.grad),
                     (conv_a.bias.grad, conv_b.bias.grad)]
        else:
            pairs = [(conv_a.weight.stacked_grad, conv_b.weight.stacked_grad),
                     (conv_a.bias.stacked_grad, conv_b.bias.stacked_grad)]
        for left, right in pairs:
            assert np.array_equal(left, right)

    def test_cnn_conv_stages_pool_before_rectify(self):
        for noise_std in (0.0, 0.1):
            layers = list(MnistCNN.scaled_config(noise_std=noise_std, rng=0).net.layers)
            conv_at = [i for i, layer in enumerate(layers) if isinstance(layer, Conv2D)]
            assert len(conv_at) == 2
            for index in conv_at:
                assert isinstance(layers[index + 1], MaxPool2D)
                assert isinstance(layers[index + 2], ReLU)


class TestMnistParameterNames:
    """Pool/ReLU order never moves a Conv2D or Linear index, so state-dict and
    checkpoint keys stay what they were."""

    @pytest.mark.parametrize(
        "noise_std, indices",
        [(0.0, [0, 3, 7, 9, 11]), (0.1, [0, 4, 9, 12, 15])],
    )
    def test_parameter_names_are_pinned(self, noise_std, indices):
        model = MnistCNN.scaled_config(noise_std=noise_std, rng=0)
        expected = [
            f"net.layers.{index}.{field}" for index in indices for field in ("weight", "bias")
        ]
        assert [name for name, _ in model.named_parameters()] == expected
        assert list(model.state_dict()) == expected


_SPECIAL_GRADS = {
    "neg_zero": np.float32(-0.0),
    "pos_zero": np.float32(0.0),
    "nan": np.uint32(0x7FC01234).view(np.float32),
    "neg_nan": np.uint32(0xFFA00001).view(np.float32),
}


class TestWindowRouting:
    @staticmethod
    def _where_reference(layer: MaxPool2D, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Input gradient routed with ``np.where`` over the boolean winner masks."""
        out = layer.forward(x)
        claimed = np.zeros(out.shape, dtype=bool)
        grad_input = np.empty_like(x)
        for ky in range(2):
            for kx in range(2):
                hit = (x[..., ky::2, kx::2] == out) & ~claimed
                claimed |= hit
                grad_input[..., ky::2, kx::2] = np.where(hit, grad, np.float32(0.0))
        return grad_input

    @pytest.mark.parametrize("special", sorted(_SPECIAL_GRADS))
    @pytest.mark.parametrize("shape", [(2, 3, 4, 6), (3, 2, 2, 4, 4)])
    def test_special_gradients_keep_their_bits(self, special, shape):
        rng = np.random.default_rng(5)
        x = rng.integers(-2, 3, size=shape).astype(np.float32)
        grad = rng.normal(size=(*shape[:-2], shape[-2] // 2, shape[-1] // 2)).astype(np.float32)
        grad[rng.random(grad.shape) < 0.5] = _SPECIAL_GRADS[special]

        layer = MaxPool2D(2)
        layer.train()
        expected = self._where_reference(layer, x, grad)
        layer.forward(x)
        actual = layer._backward_windows(grad)
        assert_bits_equal(actual, expected)

    def test_all_tied_windows_route_to_first_element(self):
        x = np.zeros((2, 3, 4, 4), dtype=np.float32)
        # Ties of signed zeros are still ties, whichever sign comes first.
        x[0, 0, 1::2] = -0.0
        x[0, 1, 0::2] = -0.0
        x[1, 2] = 1.5
        grad = np.arange(1, 2 * 3 * 2 * 2 + 1, dtype=np.float32).reshape(2, 3, 2, 2)
        layer = MaxPool2D(2)
        layer.train()
        layer.forward(x)
        grad_input = layer._backward_windows(grad)
        assert_bits_equal(grad_input[..., 0::2, 0::2], grad)
        rest = np.concatenate(
            [grad_input[..., 0::2, 1::2], grad_input[..., 1::2, 0::2], grad_input[..., 1::2, 1::2]]
        )
        assert not rest.any() and not np.signbit(rest).any()
