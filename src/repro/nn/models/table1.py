"""Parameter inventories reproducing the paper's Table I.

Table I lists, for each CNN workload, the number of CONV layers, CONV
parameters, FC layers, FC parameters and total parameters.  These functions
compute the same breakdown directly from a model instance's parameters, and
:func:`table1_rows` assembles the full table (paper value vs. value computed
from our full-scale model definitions).  The full-scale models are built
with shape-only weights, so counting VGG16's 119.6M FC parameters draws
none of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.init import _shapes_only
from repro.nn.module import Module

__all__ = [
    "ModelSummary",
    "PAPER_TABLE1",
    "layer_breakdown",
    "summarize_model",
    "full_scale_summary",
    "table1_rows",
]


@dataclass(frozen=True)
class ModelSummary:
    """Parameter inventory of one CNN workload (one Table I column)."""

    name: str
    dataset: str
    conv_layers: int
    conv_parameters: int
    fc_layers: int
    fc_parameters: int

    @property
    def total_parameters(self) -> int:
        return self.conv_parameters + self.fc_parameters

    def as_dict(self) -> dict[str, int | str]:
        return {
            "name": self.name,
            "dataset": self.dataset,
            "conv_layers": self.conv_layers,
            "conv_parameters": self.conv_parameters,
            "fc_layers": self.fc_layers,
            "fc_parameters": self.fc_parameters,
            "total_parameters": self.total_parameters,
        }


#: The values printed in the paper's Table I (parameters in absolute counts).
PAPER_TABLE1: dict[str, ModelSummary] = {
    "cnn_mnist": ModelSummary(
        name="CNN_1", dataset="MNIST",
        conv_layers=2, conv_parameters=2_600, fc_layers=3, fc_parameters=41_600,
    ),
    "resnet18": ModelSummary(
        name="ResNet18", dataset="CIFAR10",
        conv_layers=17, conv_parameters=4_700_000, fc_layers=1, fc_parameters=5_100,
    ),
    "vgg16_variant": ModelSummary(
        name="VGG16_v", dataset="Imagenette",
        conv_layers=6, conv_parameters=3_900_000, fc_layers=3, fc_parameters=119_600_000,
    ),
}

_DATASET_BY_MODEL = {
    "cnn_mnist": "MNIST",
    "resnet18": "CIFAR10",
    "vgg16_variant": "Imagenette",
}


def layer_breakdown(model: Module) -> dict[str, dict[str, int]]:
    """Per-kind layer and parameter counts for a model.

    Bias parameters are attributed to the layer that owns them by walking the
    named parameters: a ``bias`` immediately following a ``conv``/``fc``
    weight in the same module is counted with that weight.

    Projection-shortcut (1x1 downsample) convolutions in residual blocks are
    counted in the parameter totals but not in the layer count, matching the
    paper's convention of 17 convolution layers for ResNet18.
    """
    counts = {"conv": {"layers": 0, "parameters": 0},
              "fc": {"layers": 0, "parameters": 0},
              "other": {"layers": 0, "parameters": 0}}
    named = model.named_parameters()
    last_weight_kind_by_module: dict[str, str] = {}
    for name, param in named:
        module_path = name.rsplit(".", 1)[0]
        if param.kind in ("conv", "fc"):
            if "shortcut" not in name:
                counts[param.kind]["layers"] += 1
            counts[param.kind]["parameters"] += param.size
            last_weight_kind_by_module[module_path] = param.kind
        elif param.kind == "bias":
            owner_kind = last_weight_kind_by_module.get(module_path, "other")
            counts[owner_kind]["parameters"] += param.size
        else:
            counts["other"]["layers"] += 1
            counts["other"]["parameters"] += param.size
    return counts


def summarize_model(model: Module, dataset: str = "") -> ModelSummary:
    """Build a :class:`ModelSummary` from a live model instance."""
    breakdown = layer_breakdown(model)
    name = getattr(model, "name", type(model).__name__)
    return ModelSummary(
        name=name,
        dataset=dataset or _DATASET_BY_MODEL.get(name, ""),
        conv_layers=breakdown["conv"]["layers"],
        conv_parameters=breakdown["conv"]["parameters"],
        fc_layers=breakdown["fc"]["layers"],
        fc_parameters=breakdown["fc"]["parameters"],
    )


def full_scale_summary(model_name: str) -> ModelSummary:
    """Summary of the full-scale (paper configuration) model ``model_name``.

    The model is built from layer shapes alone (no weights are drawn), since
    only its parameter counts are read.
    """
    from repro.nn.models.registry import build_model

    with _shapes_only():
        model = build_model(model_name, profile="paper")
    return summarize_model(model, dataset=_DATASET_BY_MODEL.get(model_name, ""))


def table1_rows(include_measured: bool = True) -> list[dict[str, object]]:
    """Assemble Table I as a list of row dictionaries.

    Each row contains the paper's reported values and (optionally) the values
    measured from this repository's full-scale model definitions.
    """
    rows: list[dict[str, object]] = []
    for model_name, paper in PAPER_TABLE1.items():
        row: dict[str, object] = {
            "model": paper.name,
            "dataset": paper.dataset,
            "paper_conv_layers": paper.conv_layers,
            "paper_conv_parameters": paper.conv_parameters,
            "paper_fc_layers": paper.fc_layers,
            "paper_fc_parameters": paper.fc_parameters,
            "paper_total_parameters": paper.total_parameters,
        }
        if include_measured:
            measured = full_scale_summary(model_name)
            row.update(
                {
                    "measured_conv_layers": measured.conv_layers,
                    "measured_conv_parameters": measured.conv_parameters,
                    "measured_fc_layers": measured.fc_layers,
                    "measured_fc_parameters": measured.fc_parameters,
                    "measured_total_parameters": measured.total_parameters,
                }
            )
        rows.append(row)
    return rows
