"""Declarative run and sweep specifications for the campaign engine.

A :class:`RunSpec` names one unit of work: an experiment id from
:mod:`repro.analysis.experiments`, parameter overrides for its runner and a
seed.  A :class:`SweepSpec` declares a whole campaign — Cartesian ``grid``
axes, position-wise ``zipped`` lists and a set of ``seeds`` — and expands it
into the ordered list of concrete :class:`RunSpec` points.

Both specs are plain data: everything inside them must survive a JSON
round-trip, which is what makes run fingerprints (and therefore the result
cache) stable across processes and sessions.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.utils.validation import ValidationError, check_positive_int

__all__ = [
    "RunSpec",
    "SweepSpec",
    "canonical_json",
    "spec_fingerprint",
]


def canonical_json(payload: object) -> str:
    """Serialize ``payload`` to a canonical (sorted, compact) JSON string.

    Used both for run fingerprints and for byte-identical result comparisons,
    so the formatting here must stay deterministic.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunSpec:
    """One concrete experiment execution: id + parameter overrides + seed.

    ``params`` is copied at construction and must not be mutated afterwards:
    the spec's canonical JSON is computed once, while validating, and reused
    by :func:`spec_fingerprint`.
    """

    experiment_id: str
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0
    #: ``canonical_json(self.canonical())``, kept from validation.
    _canonical_json: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.experiment_id, str) or not self.experiment_id:
            raise ValidationError("experiment_id must be a non-empty string")
        if "seed" in self.params:
            raise ValidationError(
                "the seed belongs in RunSpec.seed, not in params "
                "(sweeps replicate seeds via SweepSpec.seeds)"
            )
        object.__setattr__(self, "params", dict(self.params))
        try:
            params_json = canonical_json(self.params)
        except TypeError as exc:
            raise ValidationError(
                f"RunSpec params must be JSON-serializable: {exc}"
            ) from exc
        # NumPy integer seeds (``SweepSpec(seeds=np.arange(n))``) key the
        # cache exactly like the equal plain int.
        if isinstance(self.seed, numbers.Integral) and not isinstance(self.seed, int):
            object.__setattr__(self, "seed", int(self.seed))
        try:
            # The JSON of an int is its repr; skip building an encoder for it.
            seed_json = (
                repr(self.seed) if type(self.seed) is int else canonical_json(self.seed)
            )
        except TypeError as exc:
            raise ValidationError(
                f"RunSpec seed must be JSON-serializable: {exc}"
            ) from exc
        object.__setattr__(
            self,
            "_canonical_json",
            f'{{"experiment_id":{json.dumps(self.experiment_id)},'
            f'"params":{params_json},"seed":{seed_json}}}',
        )

    def canonical(self) -> dict:
        """The JSON-stable identity of this run (used for fingerprints)."""
        return {
            "experiment_id": self.experiment_id,
            "params": dict(self.params),
            "seed": self.seed,
        }

    def label(self) -> str:
        """Compact human-readable label, e.g. ``fig7_point[kind=hotspot,...]``."""
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        suffix = f"@s{self.seed}" if self.seed else ""
        return f"{self.experiment_id}[{inner}]{suffix}" if inner else (
            f"{self.experiment_id}{suffix}"
        )


def spec_fingerprint(spec: RunSpec, version: str) -> str:
    """Content-addressed identity of a run under a library version.

    The hash covers the resolved spec and the ``repro`` version, so cached
    results are automatically invalidated when the library changes.
    """
    # canonical_json({"spec": spec.canonical(), "version": version})
    # assembled from the spec's own canonical JSON: a compact sorted-key dump
    # of a dict is the concatenation of the dumps of its values, keys in
    # sorted order.
    text = f'{{"spec":{spec._canonical_json},"version":{json.dumps(version)}}}'
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class SweepSpec:
    """Declarative sweep over an experiment's parameter space.

    Attributes
    ----------
    experiment_id:
        Experiment to sweep (must exist in the registry when expanded with
        ``validate=True``).
    base:
        Parameter overrides applied to every point.
    grid:
        Cartesian axes: every combination of values is enumerated, in the
        deterministic order given by the axis insertion order.
    zipped:
        Position-wise lists (all the same length) advanced together — the
        classic ``zip`` sweep for correlated parameters such as a variant
        name and its noise level.
    seeds:
        Seeds replicated over every parameter point.
    """

    experiment_id: str
    base: Mapping[str, object] = field(default_factory=dict)
    grid: Mapping[str, Sequence[object]] = field(default_factory=dict)
    zipped: Mapping[str, Sequence[object]] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", dict(self.base))
        object.__setattr__(
            self, "grid", {name: list(values) for name, values in self.grid.items()}
        )
        object.__setattr__(
            self, "zipped", {name: list(values) for name, values in self.zipped.items()}
        )
        object.__setattr__(self, "seeds", tuple(self.seeds))
        self._validate_axes()

    def _validate_axes(self) -> None:
        if not self.seeds:
            raise ValidationError("seeds must contain at least one seed")
        for name, values in self.grid.items():
            if not values:
                raise ValidationError(f"grid axis {name!r} must be non-empty")
        lengths = {name: len(values) for name, values in self.zipped.items()}
        if lengths and len(set(lengths.values())) > 1:
            raise ValidationError(
                f"zipped axes must have equal lengths, got {lengths}"
            )
        for a, b, what in (
            (self.base, self.grid, "base and grid"),
            (self.base, self.zipped, "base and zipped"),
            (self.grid, self.zipped, "grid and zipped"),
        ):
            overlap = sorted(set(a) & set(b))
            if overlap:
                raise ValidationError(
                    f"{what} parameters must be disjoint, both define {overlap}"
                )

    # ------------------------------------------------------------ expansion
    @property
    def num_points(self) -> int:
        """Number of RunSpecs :meth:`expand` produces."""
        total = 1
        for values in self.grid.values():
            total *= len(values)
        if self.zipped:
            total *= len(next(iter(self.zipped.values())))
        return total * len(self.seeds)

    def _parameter_points(self) -> Iterator[dict]:
        grid_names = list(self.grid)
        zip_rows: list[dict]
        if self.zipped:
            length = len(next(iter(self.zipped.values())))
            zip_rows = [
                {name: values[i] for name, values in self.zipped.items()}
                for i in range(length)
            ]
        else:
            zip_rows = [{}]

        def recurse(axis: int, chosen: dict) -> Iterator[dict]:
            if axis == len(grid_names):
                for row in zip_rows:
                    yield {**self.base, **chosen, **row}
                return
            name = grid_names[axis]
            for value in self.grid[name]:
                yield from recurse(axis + 1, {**chosen, name: value})

        yield from recurse(0, {})

    def expand(self, validate: bool = True) -> list[RunSpec]:
        """Expand into the ordered list of concrete :class:`RunSpec` points.

        With ``validate=True`` every point's parameters are resolved against
        the experiment registry — unknown experiment ids or parameter names
        fail before any work is scheduled — and each :class:`RunSpec` stores
        the *fully resolved* parameters, so a point's fingerprint does not
        depend on which values were spelled out versus defaulted.
        """
        check_positive_int(self.num_points, "num_points")
        descriptor = None
        if validate:
            from repro.analysis.experiments import get_experiment

            descriptor = get_experiment(self.experiment_id)
        specs: list[RunSpec] = []
        for params in self._parameter_points():
            if "seed" in params:
                raise ValidationError(
                    "sweep the seed via SweepSpec.seeds, not a parameter axis"
                )
            if descriptor is not None:
                params = descriptor.resolve_params(params)
                params.pop("seed", None)
            for seed in self.seeds:
                specs.append(
                    RunSpec(experiment_id=self.experiment_id, params=params, seed=seed)
                )
        return specs
