"""The benchmark's four workloads.

Each workload is driven from one process and calls only public ``repro``
entry points (plus one per-process workload cache, cleared so that set-up can
be repeated).  A workload has a ``setup`` that may run several times, an
``op`` whose inputs depend only on ``(seed, op index)``, and a ``check`` that
verifies an op's outputs outside the timed region.

Why these four (one per layer family the repo's figures depend on):

* ``attack_grid`` — attacked inference, injection and the thermal solve with
  no training in the timed loop (paper Fig. 7).
* ``mitigation_train`` — NN forward+backward of the stacked variant grid,
  the dominant cost of Figs. 8-9.
* ``sweep_cold`` — engine dispatch, cache writes and the photonics array
  core, which no other workload reaches.
* ``sweep_replay`` — the cache-read path, invisible everywhere else.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GRID_KINDS = ("actuation", "hotspot", "crosstalk", "laser_power")
GRID_BLOCKS = ("conv", "fc", "both")
GRID_FRACTIONS = (0.01, 0.05, 0.10)
THERMAL_KINDS = ("hotspot", "crosstalk")

SIGNAL_GRID = {
    "kind": ["hotspot", "actuation"],
    "size": [8, 16, 32],
    "fraction": [0.0625, 0.125, 0.25],
}
#: Seeds of the cold workload's warm-up sweep (4 ops' worth of points).
WARM_SEEDS = 4
#: Seeds the replay workload caches in set-up (8 cold ops' worth of points).
REPLAY_SEEDS = 8


def derive_seed(*parts: object) -> int:
    """A stable 31-bit seed from the workload, run seed and op index."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass
class OpResult:
    """What one op produced: its work count and the outputs to check.

    ``check`` fills in ``digest``, outside the timed region.
    """

    items: int
    outputs: object
    digest: str = ""


@dataclass
class Workload:
    seed: int
    workdir: Path
    #: Input properties counted by ``check``: scenarios, shared_trunk,
    #: thermal, points, cache_hits and near_chance_variants.
    properties: Counter = field(default_factory=Counter)
    setup_digest: str = ""

    name = "abstract"
    #: The ``run.PROBES`` entry whose drift tracks this workload's; its
    #: times are scaled by it.
    probe = "kernels"

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def check(self, index: int, result: OpResult) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def op_seed(self, index: int) -> int:
        return derive_seed(self.name, self.seed, index)


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class AttackGrid(Workload):
    """A fresh mixed Fig. 7 grid per op, in one stacked evaluation."""

    name = "attack_grid"

    def setup(self) -> None:
        from repro.analysis import experiments

        # The workload cache would turn every repetition after the first
        # into a dictionary lookup; set-up time is the training it hides.
        experiments._FIG7_WORKLOADS.pop(("cnn_mnist", self.seed, True), None)
        self.engine, self.split, self.baseline = experiments.prepared_candidate_workload(
            "cnn_mnist", "", self.seed
        )
        self.setup_digest = _sha(np.float64(self.baseline).tobytes())

    def op(self, index: int) -> OpResult:
        from repro.attacks import scenario as scenario_module

        scenarios = scenario_module.generate_scenarios(
            kinds=GRID_KINDS,
            blocks=GRID_BLOCKS,
            fractions=GRID_FRACTIONS,
            num_placements=1,
            master_seed=self.op_seed(index),
        )
        outcomes = [
            scenario_module.sample_outcome(s, self.engine.config) for s in scenarios
        ]
        accuracies = self.engine.accuracy_under_attacks(self.split.test, outcomes)
        return OpResult(items=len(outcomes), outputs=(outcomes, accuracies))

    def check(self, index: int, result: OpResult) -> list[str]:
        outcomes, accuracies = result.outputs
        result.digest = _sha(np.asarray(accuracies, dtype=np.float64).tobytes())
        errors = []
        if len(accuracies) != len(outcomes):
            errors.append(f"{len(accuracies)} accuracies for {len(outcomes)} scenarios")
        if not np.all((accuracies >= 0.0) & (accuracies <= 1.0)):
            errors.append("accuracy outside [0, 1]")
        probe = self.op_seed(index) % len(outcomes)
        reference = self.engine.accuracy_under_attack(self.split.test, outcomes[probe])
        if reference != accuracies[probe]:
            errors.append(
                f"scenario {probe}: batched {accuracies[probe]!r} != reference {reference!r}"
            )
        self.properties["scenarios"] += len(outcomes)
        self.properties["shared_trunk"] += sum(
            "conv" not in o.touched_blocks() for o in outcomes
        )
        self.properties["thermal"] += sum(o.spec.kind in THERMAL_KINDS for o in outcomes)
        return errors


class MitigationTrain(Workload):
    """One quick Fig. 8/9 mitigation study per op, checkpoint cache off."""

    name = "mitigation_train"

    def config(self, seed: int):
        from repro.analysis.mitigation_analysis import MitigationAnalysisConfig

        return MitigationAnalysisConfig.quick(seed=seed, checkpoint_cache=False)

    def setup(self) -> None:
        from repro.analysis.mitigation_analysis import _WORKLOAD_DEFAULTS, MitigationStudy

        config = self.config(self.seed)
        # The dataset the studies synthesize: sizes the train-sample count
        # and the chance level the variant baselines must beat.
        split = MitigationStudy(config).prepare_split("cnn_mnist")
        epochs = int(_WORKLOAD_DEFAULTS["cnn_mnist"]["training"]["epochs"])
        self.samples_per_study = len(config.variant_grid()) * epochs * len(split.train)
        self.chance = 1.0 / split.train.num_classes
        self.setup_digest = _sha(split.train.images.tobytes(), split.train.labels.tobytes())

    def op(self, index: int) -> OpResult:
        from repro.analysis.mitigation_analysis import MitigationStudy

        config = self.config(self.op_seed(index))
        return OpResult(items=self.samples_per_study, outputs=(config, MitigationStudy(config).run()))

    def check(self, index: int, result: OpResult) -> list[str]:
        config, study = result.outputs
        rows = [
            (row.kind, row.fraction, row.original_accuracy_min, row.robust_accuracy_min)
            for row in study.comparison
        ]
        accuracies = [
            (d.variant, d.baseline_accuracy, np.asarray(d.accuracies).tolist())
            for d in study.distributions
        ]
        result.digest = _sha(json.dumps([rows, accuracies]).encode())
        errors = []
        expected = set(itertools.product(config.kinds, config.fractions))
        found = {(row.kind, row.fraction) for row in study.comparison}
        if found != expected:
            errors.append(f"Fig. 9 rows {sorted(found)} != {sorted(expected)}")
        # The noise-free variants must learn.  A heavy-noise variant can end
        # near or at chance after 4 epochs (l2+n5 collapsed to a constant
        # output with finite weights and dead ReLUs); that is a training
        # outcome of the configured study, counted in the properties.
        noise_free = {spec.name for spec in config.variant_grid() if spec.noise is None}
        for distribution in study.distributions:
            baseline = distribution.baseline_accuracy
            valid = 0.0 <= baseline <= 1.0 and np.all(
                (distribution.accuracies >= 0.0) & (distribution.accuracies <= 1.0)
            )
            if not valid or (distribution.variant in noise_free and not baseline > self.chance):
                errors.append(f"{distribution.variant} baseline {baseline} vs chance {self.chance}")
            self.properties["near_chance_variants"] += baseline < 2 * self.chance
        # Counted from the grid: an FC-only attack leaves CONV clean.
        per_spec = len(config.fractions) * config.num_placements
        self.properties["scenarios"] += per_spec * len(config.kinds) * len(config.blocks)
        self.properties["shared_trunk"] += per_spec * len(config.kinds) * config.blocks.count("fc")
        self.properties["thermal"] += per_spec * len(config.blocks) * sum(
            kind in THERMAL_KINDS for kind in config.kinds
        )
        return errors


class SweepCold(Workload):
    """A serial Campaign over fresh ``signal_mc`` points, written to the cache."""

    name = "sweep_cold"
    probe = "interpreter"

    def sweep(self, seeds):
        from repro.engine.spec import SweepSpec

        return SweepSpec("signal_mc", grid=SIGNAL_GRID, seeds=tuple(seeds))

    def new_cache(self):
        """A cache in a directory no earlier set-up used (nothing to delete)."""
        from repro.engine.cache import ResultCache

        return ResultCache(self.workdir / f"cache-{time.monotonic_ns()}")

    def run_campaign(self, seeds, cache):
        from repro.engine import campaign

        return campaign.Campaign(self.sweep(seeds), cache=cache).run()

    def setup(self) -> None:
        # Warm-up sweep without a cache: imports, the experiment registry
        # and the array core's first calls are paid here, and no file is
        # written, since small-file I/O is a shared host's noisiest resource.
        warm_seeds = [derive_seed(self.name, self.seed, "warm", n) for n in range(WARM_SEEDS)]
        warm = self.run_campaign(warm_seeds, None)
        self.setup_digest = _sha(*(r.canonical_payload().encode() for r in warm.records))
        self.cache = self.new_cache()

    def op(self, index: int) -> OpResult:
        result = self.run_campaign([self.op_seed(index)], self.cache)
        return OpResult(items=len(result.records), outputs=result)

    def check(self, index: int, result: OpResult) -> list[str]:
        campaign = result.outputs
        result.digest = _sha(*(r.canonical_payload().encode() for r in campaign.records))
        errors = [f"{r.spec.label()}: {r.error}" for r in campaign.records if not r.ok]
        if campaign.executed != len(campaign.records):
            errors.append(f"{campaign.cache_hits} unexpected cache hits")
        self.properties["points"] += len(campaign.records)
        self.properties["cache_hits"] += campaign.cache_hits
        return errors


class SweepReplay(SweepCold):
    """The same Campaign over points set-up already cached: all cache reads."""

    name = "sweep_replay"

    def setup(self) -> None:
        self.cache = self.new_cache()
        self.seeds = [derive_seed(self.name, self.seed, n) for n in range(REPLAY_SEEDS)]
        cold = self.run_campaign(self.seeds, self.cache)
        self.cold_payloads = [r.canonical_payload() for r in cold.records]
        self.setup_digest = _sha(*(p.encode() for p in self.cold_payloads))

    def op(self, index: int) -> OpResult:
        result = self.run_campaign(self.seeds, self.cache)
        return OpResult(items=len(result.records), outputs=result)

    def check(self, index: int, result: OpResult) -> list[str]:
        campaign = result.outputs
        replayed = [r.canonical_payload() for r in campaign.records]
        result.digest = _sha(*(p.encode() for p in replayed))
        errors = []
        if campaign.cache_hits != len(self.cold_payloads):
            errors.append(f"{campaign.cache_hits} hits for {len(self.cold_payloads)} cached points")
        mismatched = sum(a != b for a, b in zip(replayed, self.cold_payloads))
        if mismatched or len(replayed) != len(self.cold_payloads):
            errors.append(f"{mismatched} replayed payloads differ from the cold writes")
        self.properties["points"] += len(campaign.records)
        self.properties["cache_hits"] += campaign.cache_hits
        return errors


WORKLOADS = {cls.name: cls for cls in (AttackGrid, MitigationTrain, SweepCold, SweepReplay)}
