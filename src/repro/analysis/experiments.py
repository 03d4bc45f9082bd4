"""Registry of the paper's experiments (tables, figures, ablations).

Each entry maps an experiment id (``table1``, ``fig6`` .. ``fig9``,
``ablation_mitigation``, ``ablation_tuning``, plus the sweepable per-point
experiments ``fig7_point``, ``fig8_variant`` and ``signal_mc``) to a short
description, the
modules implementing it, and a *parameterized* runner returning a result
summary dictionary.  The benchmark suite, the campaign engine
(:mod:`repro.engine`) and EXPERIMENTS.md are organised around these ids.

Runners take keyword parameters with JSON-serializable defaults recorded in
``ExperimentDescriptor.default_params``; the engine resolves a
:class:`~repro.engine.spec.RunSpec`'s parameter overrides against those
defaults, which makes every experiment runnable (and cacheable) through
``python -m repro run/sweep``.  The per-point experiments keep a per-process
cache of trained workloads so a worker in a process pool trains each
(model, seed) combination once and then evaluates many grid points against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

__all__ = [
    "ExperimentDescriptor",
    "EXPERIMENTS",
    "get_experiment",
    "experiment_ids",
]


@dataclass(frozen=True)
class ExperimentDescriptor:
    """Metadata and parameterized quick-runner for one paper artefact.

    Attributes
    ----------
    experiment_id, title, paper_reference, modules, bench_target:
        Descriptive metadata tying the experiment to the paper and code.
    runner:
        Callable accepting the keyword parameters listed in
        ``default_params`` and returning a JSON-serializable summary dict.
    default_params:
        Default value for every parameter the runner accepts.  Overrides
        passed to :meth:`run` are validated against this mapping, so a typo
        in a sweep definition fails fast instead of being silently ignored.
    attack_kind_params:
        Names of the parameters (if any) that accept registered attack
        kinds — e.g. ``("kind",)`` for the sweepable per-point experiments.
        ``python -m repro attacks`` uses this to show which experiments a
        kind can be swept through.
    """

    experiment_id: str
    title: str
    paper_reference: str
    modules: tuple[str, ...]
    bench_target: str
    runner: Callable[..., dict]
    default_params: Mapping[str, object] = field(default_factory=dict)
    attack_kind_params: tuple[str, ...] = ()

    @property
    def seedable(self) -> bool:
        """Whether the experiment exposes a ``seed`` parameter."""
        return "seed" in self.default_params

    def resolve_params(
        self,
        overrides: Mapping[str, object] | None = None,
        *,
        seed: int | None = None,
    ) -> dict:
        """Merge ``overrides`` (and ``seed``) into the default parameters."""
        params = dict(self.default_params)
        overrides = dict(overrides or {})
        unknown = sorted(set(overrides) - set(params))
        if unknown:
            raise KeyError(
                f"unknown parameter(s) {unknown} for experiment "
                f"{self.experiment_id!r}; accepted: {sorted(params)}"
            )
        params.update(overrides)
        if seed is not None:
            if not self.seedable:
                raise KeyError(
                    f"experiment {self.experiment_id!r} does not take a seed"
                )
            params["seed"] = seed
        return params

    def run(
        self,
        params: Mapping[str, object] | None = None,
        *,
        seed: int | None = None,
    ) -> dict:
        """Execute the experiment with ``params`` merged over the defaults."""
        return self.runner(**self.resolve_params(params, seed=seed))


# ------------------------------------------------------------- shared caches
#: Per-process cache of prepared Fig. 7 workloads keyed by
#: ``(model_name, seed, quantize_weights)``.  A process-pool worker trains a
#: workload once and reuses it for every grid point it executes.
_FIG7_WORKLOADS: dict[tuple, tuple] = {}

#: Per-process cache of dataset splits / trained variants for ``fig8_variant``.
_FIG8_SPLITS: dict[tuple, object] = {}
_FIG8_VARIANTS: dict[tuple, object] = {}

#: Per-process cache of (engine, split, baseline) for ``fig7_candidate``
#: workloads on *mitigation variants* (the unmitigated case shares
#: ``_FIG7_WORKLOADS``).  Keyed by (model, variant, seed, quantize_weights).
_CANDIDATE_WORKLOADS: dict[tuple, tuple] = {}


def _prepared_fig7_workload(model: str, seed: int, quantize_weights: bool):
    """Return ``(engine, split, baseline_accuracy)`` for a trained workload."""
    from repro.accelerator.config import AcceleratorConfig
    from repro.accelerator.inference import AttackedInferenceEngine
    from repro.analysis.susceptibility import SusceptibilityConfig, SusceptibilityStudy

    key = (model, seed, quantize_weights)
    if key not in _FIG7_WORKLOADS:
        config = SusceptibilityConfig(
            model_names=(model,), seed=seed, quantize_weights=quantize_weights
        )
        trained, split = SusceptibilityStudy(config).prepare_workload(model)
        engine = AttackedInferenceEngine(
            trained,
            config=AcceleratorConfig.scaled_config(),
            quantize_weights=quantize_weights,
        )
        baseline = engine.clean_accuracy(split.test)
        _FIG7_WORKLOADS[key] = (engine, split, baseline)
    return _FIG7_WORKLOADS[key]


def prepared_candidate_workload(
    model: str,
    variant: str,
    seed: int,
    quantize_weights: bool = True,
    checkpoint_cache: bool = False,
):
    """Return ``(engine, split, baseline)`` for a ``fig7_candidate`` workload.

    ``variant=""`` is the unmitigated paper workload (shared with
    ``fig7_point``/``fig7_grid``); a named variant trains (or, with
    ``checkpoint_cache``, loads) the mitigation variant exactly like
    ``fig8_variant`` does, reusing its per-process split/variant caches.  The
    baseline is always the engine's *clean mapped accuracy* on the test
    split, so searched accuracy drops are measured against the same photonic
    datapath the attacks corrupt.
    """
    if not variant:
        return _prepared_fig7_workload(model, seed, quantize_weights)

    from repro.accelerator.config import AcceleratorConfig
    from repro.accelerator.inference import AttackedInferenceEngine
    from repro.analysis.mitigation_analysis import (
        _WORKLOAD_DEFAULTS,
        MitigationAnalysisConfig,
        MitigationStudy,
    )
    from repro.mitigation.robust_training import (
        load_cached_variant,
        store_variant_checkpoint,
        train_variant,
        variant_spec_from_name,
    )
    from repro.nn.training import TrainingConfig

    key = (model, variant, seed, quantize_weights)
    if key not in _CANDIDATE_WORKLOADS:
        study = MitigationStudy(
            MitigationAnalysisConfig(
                model_names=(model,), seed=seed, checkpoint_cache=checkpoint_cache
            )
        )
        split_key = (model, seed)
        if split_key not in _FIG8_SPLITS:
            _FIG8_SPLITS[split_key] = study.prepare_split(model)
        split = _FIG8_SPLITS[split_key]

        variant_key = (model, variant, seed)
        if variant_key not in _FIG8_VARIANTS:
            defaults = _WORKLOAD_DEFAULTS[model]
            base_config = TrainingConfig(seed=seed, **dict(defaults["training"]))
            spec = variant_spec_from_name(variant)
            cache = study.checkpoint_cache()
            trained = load_cached_variant(
                cache,
                study.checkpoint_key(model, spec),
                model,
                spec,
                base_config,
                model_kwargs=dict(defaults["model_kwargs"]),
            )
            if trained is None:
                trained = train_variant(
                    model,
                    spec,
                    split,
                    base_config,
                    model_kwargs=dict(defaults["model_kwargs"]),
                )
                store_variant_checkpoint(
                    cache, study.checkpoint_key(model, spec), trained
                )
            _FIG8_VARIANTS[variant_key] = trained
        trained = _FIG8_VARIANTS[variant_key]
        engine = AttackedInferenceEngine(
            trained.model,
            config=AcceleratorConfig.scaled_config(),
            quantize_weights=quantize_weights,
        )
        baseline = engine.clean_accuracy(split.test)
        _CANDIDATE_WORKLOADS[key] = (engine, split, baseline)
    return _CANDIDATE_WORKLOADS[key]


def candidate_outcomes(
    kind: str,
    block: str,
    fraction: float,
    attack_params: Mapping | None,
    placements: int,
    seed: int,
    accelerator,
) -> list:
    """Sample one candidate's placement outcomes with content-derived seeds.

    The placement seed is a pure function of the candidate's identity
    (kind, block, fraction, params, placement index) under the experiment
    seed, so any executor — the local batched evaluator, a process-pool
    worker or a federation node — samples byte-identical placements for the
    same candidate.
    """
    from repro.attacks.base import AttackSpec
    from repro.attacks.registry import create_attack
    from repro.engine.spec import canonical_json
    from repro.utils.rng import RngFactory

    spec = AttackSpec(kind=kind, target_block=block, fraction=float(fraction))
    attack = create_attack(spec, dict(attack_params or {}))
    factory = RngFactory(seed=seed)
    identity = canonical_json(
        {
            "kind": kind,
            "block": block,
            "fraction": float(fraction),
            "params": dict(attack_params or {}),
        }
    )
    return [
        attack.sample(
            accelerator, seed=factory.child_seed(f"candidate:{identity}#{placement}")
        )
        for placement in range(int(placements))
    ]


def candidate_payload(
    model: str,
    variant: str,
    kind: str,
    block: str,
    fraction: float,
    attack_params: Mapping | None,
    placements: int,
    baseline: float,
    outcomes: list,
    accuracies,
) -> dict:
    """Summary payload of one evaluated attack-search candidate."""
    values = [float(a) for a in accuracies]
    drops = [float(baseline) - a for a in values]
    num_attacked_mrs = max(
        (sum(int(n) for n in outcome.attacked_mrs.values()) for outcome in outcomes),
        default=0,
    )
    drop_mean = sum(drops) / len(drops) if drops else 0.0
    return {
        "model": model,
        "variant": variant,
        "kind": kind,
        "block": block,
        "fraction": float(fraction),
        "attack_params": dict(attack_params or {}),
        "placements": int(placements),
        "baseline": float(baseline),
        "accuracies": values,
        "drop_mean": drop_mean,
        "drop_max": max(drops) if drops else 0.0,
        "num_attacked_mrs": int(num_attacked_mrs),
        "damage_per_mr": drop_mean / max(1, num_attacked_mrs),
    }


def candidate_payloads_batched(param_sets: list, seed: int) -> list[dict]:
    """Evaluate many ``fig7_candidate`` parameter sets in stacked forwards.

    Candidates are grouped by workload (model, variant, quantization); each
    group's placement outcomes are concatenated into **one**
    :meth:`AttackedInferenceEngine.accuracy_under_attacks` call.  Because the
    batched path is bit-identical to the per-scenario serial path, the
    returned payloads match :func:`_run_fig7_candidate` byte for byte — the
    search driver exploits this to evaluate a whole optimizer generation per
    stacked forward while still writing ordinary cacheable records.
    """
    from repro.accelerator.config import AcceleratorConfig

    accelerator = AcceleratorConfig.scaled_config()
    groups: dict[tuple, list[int]] = {}
    for index, params in enumerate(param_sets):
        key = (
            params["model"],
            params["variant"],
            bool(params["quantize_weights"]),
            bool(params["checkpoint_cache"]),
        )
        groups.setdefault(key, []).append(index)

    payloads: list[dict | None] = [None] * len(param_sets)
    for (model, variant, quantize_weights, checkpoint_cache), indices in groups.items():
        engine, split, baseline = prepared_candidate_workload(
            model, variant, seed, quantize_weights, checkpoint_cache
        )
        outcomes_per_candidate = []
        stacked = []
        for index in indices:
            params = param_sets[index]
            outcomes = candidate_outcomes(
                params["kind"],
                params["block"],
                params["fraction"],
                params["attack_params"],
                params["placements"],
                seed,
                accelerator,
            )
            outcomes_per_candidate.append(outcomes)
            stacked.extend(outcomes)
        accuracies = engine.accuracy_under_attacks(split.test, stacked)
        cursor = 0
        for index, outcomes in zip(indices, outcomes_per_candidate):
            params = param_sets[index]
            chunk = accuracies[cursor : cursor + len(outcomes)]
            cursor += len(outcomes)
            payloads[index] = candidate_payload(
                params["model"],
                params["variant"],
                params["kind"],
                params["block"],
                params["fraction"],
                params["attack_params"],
                params["placements"],
                baseline,
                outcomes,
                chunk,
            )
    return [payload for payload in payloads if payload is not None]


# --------------------------------------------------------------------------- runners
def _run_table1(include_measured: bool = True) -> dict:
    from repro.nn.models.table1 import table1_rows

    rows = table1_rows(include_measured=include_measured)
    return {"rows": rows}


def _run_fig6(
    attacked_banks: tuple[int, ...] = (650, 1260),
    heater_power_mw: float = 300.0,
    affected_threshold_k: float = 5.0,
) -> dict:
    from repro.accelerator.config import AcceleratorConfig
    from repro.thermal import Floorplan, simulate_hotspot_attack

    config = AcceleratorConfig.paper_config()
    geometry = config.conv_block
    floorplan = Floorplan(num_banks=geometry.num_banks, banks_per_row=geometry.rows)
    result = simulate_hotspot_attack(
        floorplan,
        attacked_banks=list(attacked_banks),
        heater_power_mw=heater_power_mw,
    )
    return {
        "peak_rise_k": result.peak_rise_k,
        "attacked_banks": list(result.attacked_banks),
        "num_affected_banks": len(result.affected_banks(affected_threshold_k)),
    }


def _run_fig7(
    model_names: tuple[str, ...] = ("cnn_mnist",),
    kinds: tuple[str, ...] = ("actuation", "hotspot"),
    blocks: tuple[str, ...] = ("both",),
    fractions: tuple[float, ...] = (0.01, 0.10),
    num_placements: int = 2,
    kind_params: dict | None = None,
    seed: int = 0,
) -> dict:
    from repro.analysis.susceptibility import SusceptibilityConfig, SusceptibilityStudy

    config = SusceptibilityConfig(
        model_names=tuple(model_names),
        kinds=tuple(kinds),
        blocks=tuple(blocks),
        fractions=tuple(fractions),
        num_placements=num_placements,
        kind_params=kind_params,
        seed=seed,
    )
    result = SusceptibilityStudy(config).run()
    return {
        "baselines": result.baselines,
        "worst_case_drops": {
            model: result.worst_case_drop(model) for model in result.baselines
        },
    }


def _run_fig7_point(
    model: str = "cnn_mnist",
    kind: str = "hotspot",
    block: str = "both",
    fraction: float = 0.05,
    placement: int = 0,
    quantize_weights: bool = True,
    kind_params: dict | None = None,
    seed: int = 0,
) -> dict:
    """One point of the Fig. 7 susceptibility grid (engine/sweep unit of work).

    ``kind`` accepts any registered attack kind (``python -m repro attacks``
    lists them) and ``kind_params`` carries its physical parameters, e.g.
    ``--set kind_params='{"triggered": {"base": "hotspot"}}'``.  Seeds are
    derived exactly as :func:`repro.attacks.scenario.generate_scenarios`
    derives them, so a sweep over (kind, block, fraction, placement) reproduces
    the same scenarios as a monolithic :class:`SusceptibilityStudy` run.
    """
    from repro.accelerator.config import AcceleratorConfig
    from repro.attacks.base import AttackSpec
    from repro.attacks.hotspot import HotspotAttackConfig
    from repro.attacks.scenario import AttackScenario, sample_outcome
    from repro.utils.rng import RngFactory

    engine, split, baseline = _prepared_fig7_workload(model, seed, quantize_weights)
    spec = AttackSpec(kind=kind, target_block=block, fraction=fraction)
    scenario_seed = RngFactory(seed=seed).child_seed(f"{spec.label()}#{placement}")
    scenario = AttackScenario(spec=spec, placement=placement, seed=scenario_seed)
    outcome = sample_outcome(
        scenario,
        AcceleratorConfig.scaled_config(),
        HotspotAttackConfig(),
        kind_params=kind_params,
    )
    accuracy = engine.accuracy_under_attack(split.test, outcome)
    return {
        "model": model,
        "kind": kind,
        "block": block,
        "fraction": fraction,
        "placement": placement,
        "baseline": baseline,
        "accuracy": accuracy,
        "drop": baseline - accuracy,
        "corrupted_fraction": engine.weight_corruption_fraction(outcome),
    }


def _run_fig7_grid(
    model: str = "cnn_mnist",
    kinds: tuple[str, ...] = ("actuation", "hotspot"),
    blocks: tuple[str, ...] = ("both",),
    fractions: tuple[float, ...] = (0.01, 0.05, 0.10),
    num_placements: int = 3,
    backend: str = "batched",
    scenario_chunk: int = 0,
    quantize_weights: bool = True,
    kind_params: dict | None = None,
    seed: int = 0,
) -> dict:
    """A whole Fig. 7 scenario grid in stacked forward passes (sweepable).

    Where :func:`_run_fig7_point` is the one-scenario sweep unit,
    ``fig7_grid`` evaluates an entire (kinds x blocks x fractions x
    placements) grid for one workload through
    :meth:`AttackedInferenceEngine.accuracy_under_attacks`.  ``kinds``
    accepts any registered attack kinds, with per-kind physical parameters
    in ``kind_params``.  ``backend="serial"`` runs the same grid through the
    per-scenario reference path (used by the equivalence benchmark);
    ``scenario_chunk=0`` selects the memory-aware automatic chunk.
    """
    import numpy as np

    from repro.accelerator.config import AcceleratorConfig
    from repro.attacks.hotspot import HotspotAttackConfig
    from repro.attacks.scenario import generate_scenarios, sample_outcome

    if backend not in ("batched", "serial"):
        raise ValueError(f"backend must be 'batched' or 'serial', got {backend!r}")
    engine, split, baseline = _prepared_fig7_workload(model, seed, quantize_weights)
    scenarios = generate_scenarios(
        kinds=tuple(kinds),
        blocks=tuple(blocks),
        fractions=tuple(fractions),
        num_placements=num_placements,
        master_seed=seed,
    )
    config = AcceleratorConfig.scaled_config()
    hotspot = HotspotAttackConfig()
    outcomes = [
        sample_outcome(scenario, config, hotspot, kind_params=kind_params)
        for scenario in scenarios
    ]
    if backend == "batched":
        accuracies = engine.accuracy_under_attacks(
            split.test, outcomes, scenario_chunk=scenario_chunk or None
        )
    else:
        accuracies = np.array(
            [engine.accuracy_under_attack(split.test, outcome) for outcome in outcomes]
        )
    values = np.asarray(accuracies, dtype=float)
    return {
        "model": model,
        "backend": backend,
        "num_scenarios": len(scenarios),
        "baseline": baseline,
        "accuracies": {
            scenario.label(): float(accuracy)
            for scenario, accuracy in zip(scenarios, values)
        },
        "mean": float(values.mean()),
        "min": float(values.min()),
        "worst_case_drop": float(baseline - values.min()),
    }


def _run_fig7_candidate(
    model: str = "cnn_mnist",
    variant: str = "",
    kind: str = "hotspot",
    block: str = "both",
    fraction: float = 0.05,
    attack_params: dict | None = None,
    placements: int = 2,
    quantize_weights: bool = True,
    checkpoint_cache: bool = False,
    seed: int = 0,
) -> dict:
    """One attack-search candidate: a (kind, fraction, params) configuration
    averaged over random placements (engine/sweep/serve unit of work).

    This is the unit the :mod:`repro.attacks.search` optimizers dispatch —
    locally in stacked batches, through a process pool, or as sweep points on
    a ``repro serve`` federation.  ``variant=""`` attacks the unmitigated
    workload; a variant name (e.g. ``"l2+n3"``) attacks that trained
    mitigation variant.  Placement seeds are content-derived from the
    candidate identity, so every execution path samples identical placements.
    """
    from repro.accelerator.config import AcceleratorConfig

    engine, split, baseline = prepared_candidate_workload(
        model, variant, seed, quantize_weights, checkpoint_cache
    )
    outcomes = candidate_outcomes(
        kind,
        block,
        fraction,
        attack_params,
        placements,
        seed,
        AcceleratorConfig.scaled_config(),
    )
    accuracies = engine.accuracy_under_attacks(split.test, outcomes)
    return candidate_payload(
        model,
        variant,
        kind,
        block,
        fraction,
        attack_params,
        placements,
        baseline,
        outcomes,
        accuracies,
    )


def _run_fig7_adversarial(
    model: str = "cnn_mnist",
    variant: str = "",
    kind: str = "hotspot",
    block: str = "both",
    optimizer: str = "random",
    budget: int = 32,
    generation_size: int = 8,
    placements: int = 2,
    fraction_min: float = 0.005,
    fraction_max: float = 0.10,
    sigma: float = 0.2,
    mu: int = 0,
    eta: int = 2,
    quantize_weights: bool = True,
    checkpoint_cache: bool = False,
    candidate_cache: str = "",
    seed: int = 0,
) -> dict:
    """One whole black-box attack search as a sweepable experiment.

    Runs a seeded optimizer (``random``, ``evolutionary`` or ``halving``)
    against one (model, mitigation-variant, attack-kind) workload for
    ``budget`` scenario evaluations and returns the Pareto front over
    stealth (``num_attacked_mrs``) vs. accuracy drop.  Sweeping this
    experiment over kinds/variants/optimizers compares whole searches;
    ``mu=0`` lets the evolutionary strategy pick its default parent count.
    ``candidate_cache`` optionally names a result-cache directory for the
    per-candidate records (the ``repro search`` CLI wires this up
    automatically; keep it empty for hermetic payloads).
    """
    from repro.attacks.search import AttackSearch, AttackSearchConfig
    from repro.engine.cache import ResultCache

    config = AttackSearchConfig(
        kind=kind,
        model=model,
        variant=variant,
        block=block,
        optimizer=optimizer,
        budget=budget,
        generation_size=generation_size,
        placements=placements,
        fraction_range=(fraction_min, fraction_max),
        sigma=sigma,
        mu=int(mu) or None,
        eta=eta,
        quantize_weights=quantize_weights,
        checkpoint_cache=checkpoint_cache,
        seed=seed,
    )
    cache = ResultCache(candidate_cache) if candidate_cache else None
    return AttackSearch(config, cache=cache).run().to_payload()


def _run_fig8(
    model_names: tuple[str, ...] = ("cnn_mnist",),
    stacked_training: bool = True,
    checkpoint_cache: bool = False,
    seed: int = 0,
) -> dict:
    from repro.analysis.mitigation_analysis import MitigationAnalysisConfig, MitigationStudy

    study = MitigationStudy(
        MitigationAnalysisConfig.quick(
            model_names=tuple(model_names),
            stacked_training=stacked_training,
            checkpoint_cache=checkpoint_cache,
            seed=seed,
        )
    )
    result = study.run()
    return {
        "best_variant": result.best_variant,
        "num_distributions": len(result.distributions),
    }


def _run_fig8_variant(
    model: str = "cnn_mnist",
    variant: str = "l2+n3",
    kinds: tuple[str, ...] = ("actuation", "hotspot"),
    blocks: tuple[str, ...] = ("both",),
    fractions: tuple[float, ...] = (0.05, 0.10),
    num_placements: int = 2,
    kind_params: dict | None = None,
    checkpoint_cache: bool = False,
    seed: int = 0,
) -> dict:
    """Train and evaluate one mitigation variant (engine/sweep unit of work).

    The variant faces the same pre-sampled attack grid as every other variant
    with the same sweep axes, so per-variant records assembled by a campaign
    are directly comparable (as in the paper's Fig. 8 box plots).  With
    ``checkpoint_cache`` the trained model is loaded from / stored to the
    content-addressed checkpoint store — the same addresses
    :class:`MitigationStudy` uses, so ``python -m repro train`` pre-warms
    whole sweeps.
    """
    import numpy as np

    from repro.accelerator.config import AcceleratorConfig
    from repro.accelerator.inference import AttackedInferenceEngine
    from repro.analysis.mitigation_analysis import (
        _WORKLOAD_DEFAULTS,
        MitigationAnalysisConfig,
        MitigationStudy,
    )
    from repro.attacks.hotspot import HotspotAttackConfig
    from repro.attacks.scenario import generate_scenarios, sample_outcome
    from repro.mitigation.robust_training import (
        load_cached_variant,
        store_variant_checkpoint,
        train_variant,
        variant_spec_from_name,
    )
    from repro.nn.training import TrainingConfig

    study = MitigationStudy(
        MitigationAnalysisConfig(
            model_names=(model,), seed=seed, checkpoint_cache=checkpoint_cache
        )
    )
    split_key = (model, seed)
    if split_key not in _FIG8_SPLITS:
        _FIG8_SPLITS[split_key] = study.prepare_split(model)
    split = _FIG8_SPLITS[split_key]

    variant_key = (model, variant, seed)
    if variant_key not in _FIG8_VARIANTS:
        defaults = _WORKLOAD_DEFAULTS[model]
        base_config = TrainingConfig(seed=seed, **dict(defaults["training"]))
        spec = variant_spec_from_name(variant)
        cache = study.checkpoint_cache()
        trained = load_cached_variant(
            cache,
            study.checkpoint_key(model, spec),
            model,
            spec,
            base_config,
            model_kwargs=dict(defaults["model_kwargs"]),
        )
        if trained is None:
            trained = train_variant(
                model,
                spec,
                split,
                base_config,
                model_kwargs=dict(defaults["model_kwargs"]),
            )
            store_variant_checkpoint(cache, study.checkpoint_key(model, spec), trained)
        _FIG8_VARIANTS[variant_key] = trained
    trained = _FIG8_VARIANTS[variant_key]

    accelerator = AcceleratorConfig.scaled_config()
    scenarios = generate_scenarios(
        kinds=tuple(kinds),
        blocks=tuple(blocks),
        fractions=tuple(fractions),
        num_placements=num_placements,
        master_seed=seed,
    )
    engine = AttackedInferenceEngine(trained.model, config=accelerator)
    hotspot = HotspotAttackConfig()
    outcomes = [
        sample_outcome(scenario, accelerator, hotspot, kind_params=kind_params)
        for scenario in scenarios
    ]
    values = np.asarray(
        engine.accuracy_under_attacks(split.test, outcomes), dtype=float
    )
    return {
        "model": model,
        "variant": variant,
        "baseline": trained.baseline_accuracy,
        "accuracies": [float(a) for a in values],
        "median": float(np.median(values)),
        "mean": float(values.mean()),
        "min": float(values.min()),
    }


def _run_signal_mc(
    size: int = 16,
    trials: int = 200,
    kind: str = "hotspot",
    fraction: float = 0.125,
    max_delta_t_k: float = 25.0,
    seed: int = 0,
) -> dict:
    """Signal-level Monte-Carlo attack sweep on one bank pair (sweepable).

    Samples ``trials`` random attacks against a randomly programmed bank pair
    and reports the distribution of dot-product errors, all through the
    vectorized array-core (one batched evaluation, no per-trial device
    reconstruction).  ``kind="hotspot"`` draws per-trial weight-bank
    temperatures uniformly in ``[0, max_delta_t_k]``; ``kind="actuation"``
    actuates ``round(fraction * size)`` random weight rings per trial.
    """
    import numpy as np

    from repro.accelerator.signal_sim import SignalLevelSimulator
    from repro.utils.rng import RngFactory

    if kind not in ("hotspot", "actuation"):
        raise ValueError(f"kind must be 'hotspot' or 'actuation', got {kind!r}")
    factory = RngFactory(seed=seed)
    rng_operands = factory.get("signal-mc-operands")
    rng_attacks = factory.get("signal-mc-attacks")
    inputs = rng_operands.random(size)
    weights = rng_operands.random(size)
    simulator = SignalLevelSimulator(size)
    clean = simulator.dot(inputs, weights)
    if kind == "hotspot":
        deltas = rng_attacks.uniform(0.0, max_delta_t_k, size=trials)
        outputs = simulator.monte_carlo(inputs, weights, delta_t_k=deltas)
    else:
        attacked = max(1, int(round(fraction * size)))
        order = np.argsort(rng_attacks.random((trials, size)), axis=1)
        masks = np.zeros((trials, size), dtype=bool)
        np.put_along_axis(masks, order[:, :attacked], True, axis=1)
        outputs = simulator.monte_carlo(inputs, weights, actuation_masks=masks)
    errors = np.abs(outputs - clean)
    return {
        "size": size,
        "trials": trials,
        "kind": kind,
        "exact": float(inputs @ weights),
        "clean": clean,
        "mean_abs_error": float(errors.mean()),
        "max_abs_error": float(errors.max()),
        "p50_abs_error": float(np.percentile(errors, 50)),
        "p95_abs_error": float(np.percentile(errors, 95)),
        "corrupted_trials_fraction": float(np.mean(errors > 0.05)),
    }


def _run_fig9(
    model_names: tuple[str, ...] = ("cnn_mnist",),
    stacked_training: bool = True,
    checkpoint_cache: bool = False,
    seed: int = 0,
) -> dict:
    from repro.analysis.mitigation_analysis import MitigationAnalysisConfig, MitigationStudy

    study = MitigationStudy(
        MitigationAnalysisConfig.quick(
            model_names=tuple(model_names),
            stacked_training=stacked_training,
            checkpoint_cache=checkpoint_cache,
            seed=seed,
        )
    )
    result = study.run()
    return {
        "comparison": [
            {
                "model": row.model,
                "kind": row.kind,
                "fraction": row.fraction,
                "recovery": row.recovery,
            }
            for row in result.comparison
        ]
    }


def _run_ablation_mitigation(
    variants: tuple[str, ...] = ("Original", "L2_reg", "noise_n3", "l2+n3"),
    seed: int = 0,
) -> dict:
    from repro.analysis.mitigation_analysis import MitigationAnalysisConfig, MitigationStudy
    from repro.mitigation.robust_training import variant_spec_from_name

    specs = tuple(variant_spec_from_name(name) for name in variants)
    study = MitigationStudy(MitigationAnalysisConfig.quick(variants=specs, seed=seed))
    result = study.run()
    medians = {
        dist.variant: float(sorted(dist.accuracies)[len(dist.accuracies) // 2])
        for dist in result.distributions
    }
    return {"median_attacked_accuracy": medians}


def _run_ablation_tuning(shifts_nm: tuple[float, ...] = (0.2, 2.0)) -> dict:
    from repro.accelerator.config import AcceleratorConfig
    from repro.accelerator.power import PowerModel

    model = PowerModel(AcceleratorConfig.paper_config())
    payload: dict = {
        f"shift_{shift}nm": model.tuning_energy_comparison(shift)
        for shift in shifts_nm
    }
    payload["total_power_w"] = model.report().total_w
    return payload


def _params(**kwargs) -> Mapping[str, object]:
    """Freeze a default-parameter mapping (descriptors are immutable)."""
    return MappingProxyType(kwargs)


EXPERIMENTS: dict[str, ExperimentDescriptor] = {
    "table1": ExperimentDescriptor(
        experiment_id="table1",
        title="CNN model parameter inventory",
        paper_reference="Table I",
        modules=("repro.nn.models",),
        bench_target="benchmarks/bench_table1_models.py",
        runner=_run_table1,
        default_params=_params(include_measured=True),
    ),
    "fig6": ExperimentDescriptor(
        experiment_id="fig6",
        title="Thermal hotspot heatmap on the CONV block",
        paper_reference="Fig. 6",
        modules=("repro.thermal", "repro.attacks.hotspot"),
        bench_target="benchmarks/bench_fig6_heatmap.py",
        runner=_run_fig6,
        default_params=_params(
            attacked_banks=(650, 1260),
            heater_power_mw=300.0,
            affected_threshold_k=5.0,
        ),
    ),
    "fig7": ExperimentDescriptor(
        experiment_id="fig7",
        title="Susceptibility of CNN models to actuation and hotspot attacks",
        paper_reference="Fig. 7(a)-(c)",
        modules=("repro.analysis.susceptibility", "repro.attacks", "repro.accelerator"),
        bench_target="benchmarks/bench_fig7_susceptibility.py",
        runner=_run_fig7,
        default_params=_params(
            model_names=("cnn_mnist",),
            kinds=("actuation", "hotspot"),
            blocks=("both",),
            fractions=(0.01, 0.10),
            num_placements=2,
            kind_params=None,
            seed=0,
        ),
        attack_kind_params=("kinds",),
    ),
    "fig7_point": ExperimentDescriptor(
        experiment_id="fig7_point",
        title="One Fig. 7 susceptibility grid point (sweepable)",
        paper_reference="Fig. 7(a)-(c)",
        modules=("repro.analysis.susceptibility", "repro.attacks", "repro.engine"),
        bench_target="benchmarks/bench_fig7_susceptibility.py",
        runner=_run_fig7_point,
        default_params=_params(
            model="cnn_mnist",
            kind="hotspot",
            block="both",
            fraction=0.05,
            placement=0,
            quantize_weights=True,
            kind_params=None,
            seed=0,
        ),
        attack_kind_params=("kind",),
    ),
    "fig7_grid": ExperimentDescriptor(
        experiment_id="fig7_grid",
        title="A full Fig. 7 scenario grid via stacked attacked inference (sweepable)",
        paper_reference="Fig. 7(a)-(c)",
        modules=(
            "repro.accelerator.inference",
            "repro.attacks.injection",
            "repro.nn.ensemble",
        ),
        bench_target="benchmarks/bench_scenario_batch.py",
        runner=_run_fig7_grid,
        default_params=_params(
            model="cnn_mnist",
            kinds=("actuation", "hotspot"),
            blocks=("both",),
            fractions=(0.01, 0.05, 0.10),
            num_placements=3,
            backend="batched",
            scenario_chunk=0,
            quantize_weights=True,
            kind_params=None,
            seed=0,
        ),
        attack_kind_params=("kinds",),
    ),
    "fig7_candidate": ExperimentDescriptor(
        experiment_id="fig7_candidate",
        title="One attack-search candidate averaged over placements (sweepable)",
        paper_reference="Fig. 7 methodology, searched",
        modules=("repro.attacks.search", "repro.accelerator.inference", "repro.engine"),
        bench_target="benchmarks/bench_attack_search.py",
        runner=_run_fig7_candidate,
        default_params=_params(
            model="cnn_mnist",
            variant="",
            kind="hotspot",
            block="both",
            fraction=0.05,
            attack_params=None,
            placements=2,
            quantize_weights=True,
            checkpoint_cache=False,
            seed=0,
        ),
        attack_kind_params=("kind",),
    ),
    "fig7_adversarial": ExperimentDescriptor(
        experiment_id="fig7_adversarial",
        title="Black-box adversarial attack search with a Pareto front (sweepable)",
        paper_reference="beyond the paper's fixed grids (ROADMAP item 3)",
        modules=("repro.attacks.search", "repro.analysis", "repro.engine"),
        bench_target="benchmarks/bench_attack_search.py",
        runner=_run_fig7_adversarial,
        default_params=_params(
            model="cnn_mnist",
            variant="",
            kind="hotspot",
            block="both",
            optimizer="random",
            budget=32,
            generation_size=8,
            placements=2,
            fraction_min=0.005,
            fraction_max=0.10,
            sigma=0.2,
            mu=0,
            eta=2,
            quantize_weights=True,
            checkpoint_cache=False,
            candidate_cache="",
            seed=0,
        ),
        attack_kind_params=("kind",),
    ),
    "fig8": ExperimentDescriptor(
        experiment_id="fig8",
        title="Accuracy distribution of mitigation variants",
        paper_reference="Fig. 8(a)-(c)",
        modules=("repro.analysis.mitigation_analysis", "repro.mitigation"),
        bench_target="benchmarks/bench_fig8_variants.py",
        runner=_run_fig8,
        default_params=_params(
            model_names=("cnn_mnist",),
            stacked_training=True,
            checkpoint_cache=False,
            seed=0,
        ),
    ),
    "fig8_variant": ExperimentDescriptor(
        experiment_id="fig8_variant",
        title="One mitigation variant across the attack grid (sweepable)",
        paper_reference="Fig. 8(a)-(c)",
        modules=("repro.analysis.mitigation_analysis", "repro.mitigation", "repro.engine"),
        bench_target="benchmarks/bench_fig8_variants.py",
        runner=_run_fig8_variant,
        default_params=_params(
            model="cnn_mnist",
            variant="l2+n3",
            kinds=("actuation", "hotspot"),
            blocks=("both",),
            fractions=(0.05, 0.10),
            num_placements=2,
            kind_params=None,
            checkpoint_cache=False,
            seed=0,
        ),
        attack_kind_params=("kinds",),
    ),
    "signal_mc": ExperimentDescriptor(
        experiment_id="signal_mc",
        title="Signal-level Monte-Carlo attack sweep on a bank pair (sweepable)",
        paper_reference="Figs. 4-5",
        modules=("repro.photonics.bank_array", "repro.accelerator.signal_sim"),
        bench_target="benchmarks/bench_signal_core.py",
        runner=_run_signal_mc,
        default_params=_params(
            size=16,
            trials=200,
            kind="hotspot",
            fraction=0.125,
            max_delta_t_k=25.0,
            seed=0,
        ),
    ),
    "fig9": ExperimentDescriptor(
        experiment_id="fig9",
        title="Robust vs. original models under attack",
        paper_reference="Fig. 9(a)-(c)",
        modules=("repro.analysis.mitigation_analysis", "repro.mitigation.selection"),
        bench_target="benchmarks/bench_fig9_robust_vs_original.py",
        runner=_run_fig9,
        default_params=_params(
            model_names=("cnn_mnist",),
            stacked_training=True,
            checkpoint_cache=False,
            seed=0,
        ),
    ),
    "ablation_mitigation": ExperimentDescriptor(
        experiment_id="ablation_mitigation",
        title="L2-only vs noise-only vs combined mitigation",
        paper_reference="§V discussion",
        modules=("repro.mitigation",),
        bench_target="benchmarks/bench_ablation_mitigation.py",
        runner=_run_ablation_mitigation,
        default_params=_params(
            variants=("Original", "L2_reg", "noise_n3", "l2+n3"),
            seed=0,
        ),
    ),
    "ablation_tuning": ExperimentDescriptor(
        experiment_id="ablation_tuning",
        title="EO vs TO tuning power/latency",
        paper_reference="§II.B",
        modules=("repro.photonics.tuning", "repro.accelerator.power"),
        bench_target="benchmarks/bench_photonic_primitives.py",
        runner=_run_ablation_tuning,
        default_params=_params(shifts_nm=(0.2, 2.0)),
    ),
}


def experiment_ids() -> list[str]:
    """All registered experiment ids in registry order."""
    return list(EXPERIMENTS)


def get_experiment(experiment_id: str) -> ExperimentDescriptor:
    """Look up an experiment by id, raising ``KeyError`` with guidance otherwise."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment_id]
