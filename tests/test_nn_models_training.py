"""Tests for the model zoo (Table I architectures) and the training loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_dataset, train_test_split
from repro.nn import Trainer, TrainingConfig, evaluate_accuracy
from repro.nn.models import (
    MnistCNN,
    ResNet18,
    VGG16Variant,
    build_model,
    full_scale_summary,
    summarize_model,
    table1_rows,
)
from repro.nn.models.table1 import PAPER_TABLE1
from repro.utils.validation import ValidationError


class TestModelArchitectures:
    def test_mnist_cnn_forward_backward_shapes(self):
        model = MnistCNN.scaled_config(rng=0)
        x = np.zeros((2, 1, 28, 28), dtype=np.float32)
        out = model(x)
        assert out.shape == (2, 10)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_resnet_forward_backward_shapes(self):
        model = ResNet18(base_width=4, rng=0)
        x = np.zeros((2, 3, 16, 16), dtype=np.float32)
        out = model(x)
        assert out.shape == (2, 10)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_vgg_forward_backward_shapes(self):
        model = VGG16Variant.scaled_config(image_size=32, rng=0)
        x = np.zeros((2, 3, 32, 32), dtype=np.float32)
        out = model(x)
        assert out.shape == (2, 10)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_vgg_requires_six_conv_widths(self):
        with pytest.raises(ValueError):
            VGG16Variant(conv_channels=(8, 8, 8))

    def test_noise_std_inserts_gaussian_layers(self):
        from repro.nn.layers import GaussianNoise

        noisy = MnistCNN.scaled_config(noise_std=0.3, rng=0)
        plain = MnistCNN.scaled_config(noise_std=0.0, rng=0)
        assert any(isinstance(m, GaussianNoise) for m in noisy.modules())
        assert not any(isinstance(m, GaussianNoise) for m in plain.modules())

    def test_registry_build_model_profiles(self):
        scaled = build_model("resnet18", profile="scaled", rng=0)
        assert scaled.base_width == 8
        with pytest.raises(ValidationError):
            build_model("unknown-model")
        with pytest.raises(ValidationError):
            build_model("resnet18", profile="huge")

    def test_resnet_block_gradient_flow(self):
        """Residual blocks must propagate gradients through both branches."""
        model = ResNet18(base_width=4, rng=0)
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
        out = model(x)
        model.backward(np.ones_like(out))
        grads = [np.abs(p.grad).sum() for p in model.parameters() if p.kind == "conv"]
        assert all(g > 0 for g in grads)


class TestTable1:
    def test_full_scale_total_parameters_match_paper(self):
        """Totals for CNN_1 and VGG16_v match Table I within 2%."""
        for model_name in ("cnn_mnist", "vgg16_variant"):
            measured = full_scale_summary(model_name)
            paper = PAPER_TABLE1[model_name]
            assert measured.total_parameters == pytest.approx(
                paper.total_parameters, rel=0.02
            )

    def test_full_scale_layer_counts_match_paper(self):
        for model_name, paper in PAPER_TABLE1.items():
            measured = full_scale_summary(model_name)
            assert measured.conv_layers == paper.conv_layers
            assert measured.fc_layers == paper.fc_layers

    def test_vgg_fc_parameters_match_paper_closely(self):
        measured = full_scale_summary("vgg16_variant")
        assert measured.fc_parameters == pytest.approx(119_600_000, rel=0.001)

    def test_resnet_fc_parameters_match_paper(self):
        measured = full_scale_summary("resnet18")
        assert measured.fc_parameters == pytest.approx(5_100, rel=0.01)

    def test_table1_rows_structure(self):
        rows = table1_rows(include_measured=True)
        assert len(rows) == 3
        assert {row["model"] for row in rows} == {"CNN_1", "ResNet18", "VGG16_v"}
        for row in rows:
            assert row["measured_total_parameters"] > 0

    @pytest.mark.parametrize("model_name", ["cnn_mnist", "resnet18"])
    def test_shape_only_summary_matches_drawn_model(self, model_name):
        """Table I builds its models without drawing weights; the counts are
        those of the drawn model, and later builds still draw."""
        drawn = build_model(model_name, profile="paper", rng=0)
        assert full_scale_summary(model_name) == summarize_model(drawn)
        rebuilt = build_model(model_name, profile="paper", rng=0)
        for before, after in zip(drawn.parameters(), rebuilt.parameters()):
            assert np.array_equal(before.data, after.data)
        assert np.any(rebuilt.parameters()[0].data)

    def test_summarize_model_counts_scaled_model(self):
        model = MnistCNN.scaled_config(rng=0)
        summary = summarize_model(model)
        assert summary.conv_layers == 2
        assert summary.fc_layers == 3
        assert summary.total_parameters == model.num_parameters() - _non_weight_params(model)


def _non_weight_params(model) -> int:
    return sum(
        p.size for p in model.parameters() if p.kind not in ("conv", "fc", "bias")
    )


class TestTrainer:
    def test_training_improves_accuracy(self):
        data = load_dataset("mnist", num_samples=300, seed=0)
        split = train_test_split(data, 0.25, seed=1)
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        before = evaluate_accuracy(model, split.test)
        history = Trainer(model, TrainingConfig(epochs=3, batch_size=32, lr=2e-3, seed=0)).fit(
            split.train, split.test
        )
        assert history.final_test_accuracy > max(before, 0.5)
        assert len(history.train_loss) == 3
        assert history.train_loss[-1] < history.train_loss[0]

    def test_weight_decay_reduces_weight_norm(self):
        data = load_dataset("mnist", num_samples=200, seed=0)
        split = train_test_split(data, 0.25, seed=1)

        def weight_norm(model):
            return sum(
                float(np.sum(p.data**2)) for p in model.parameters() if p.kind in ("conv", "fc")
            )

        plain = build_model("cnn_mnist", profile="scaled", rng=0)
        decayed = build_model("cnn_mnist", profile="scaled", rng=0)
        Trainer(plain, TrainingConfig(epochs=3, lr=2e-3, seed=0)).fit(split.train)
        Trainer(decayed, TrainingConfig(epochs=3, lr=2e-3, weight_decay=1e-2, seed=0)).fit(
            split.train
        )
        assert weight_norm(decayed) < weight_norm(plain)

    def test_weight_noise_training_restores_clean_weights_each_step(self):
        data = load_dataset("mnist", num_samples=120, seed=0)
        split = train_test_split(data, 0.25, seed=1)
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        config = TrainingConfig(epochs=1, batch_size=32, lr=1e-3, weight_noise_std=0.4, seed=0)
        history = Trainer(model, config).fit(split.train)
        assert np.isfinite(history.train_loss[-1])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValidationError):
            TrainingConfig(optimizer="lbfgs")
        with pytest.raises(ValueError):
            TrainingConfig(weight_decay=-1.0)

    def test_evaluate_accuracy_bounds(self, mnist_split, trained_mnist_model):
        accuracy = evaluate_accuracy(trained_mnist_model, mnist_split.test)
        assert 0.0 <= accuracy <= 1.0
        assert accuracy > 0.7
