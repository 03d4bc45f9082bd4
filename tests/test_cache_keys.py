"""Cache-key stability: result-cache fingerprints across versions of the code.

The fingerprint literals below were produced by the original
``sha256(canonical_json({"spec": ..., "version": ...}))``
implementation; existing ``.repro-cache`` directories stay valid only while
they keep matching.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Campaign, ResultCache, RunSpec, SweepSpec
from repro.engine.spec import canonical_json, spec_fingerprint
from repro.utils.validation import ValidationError

GOLDEN_FINGERPRINTS = [
    (
        RunSpec(
            "fig7_point",
            {
                "nested": {"b": [1, 2.5, {"c": None}], "a": True},
                "flags": [False, None, 3],
                "kind": "hotspot",
            },
            seed=7,
        ),
        "1.6.0",
        "fbad5765f706f87a1c3e42c66d39019106236e4a4de66e06c7de25d3faaa8419",
    ),
    (
        RunSpec(
            "signal_mc",
            {
                "tiny": 1e-300,
                "neg_zero": -0.0,
                "big": 1.5e20,
                "pi": 3.141592653589793,
                "third": 1 / 3,
            },
            seed=1,
        ),
        "1.6.0",
        "32404a47f177f2e3d84de2c82cafbca0925eadffb33de3fd84fee1bde90708e8",
    ),
    (
        RunSpec("fig8_variant", {"variant": "l2+n3", "label": "Ωμέγα-ü ☃", "empty": ""}),
        "1.6.0",
        "7689db2ae935e937b06b4dcb6e1eaa2203efd2d7315a1cff62ee8f6abc80fd45",
    ),
    (
        RunSpec("signal_mc"),
        "1.6.0",
        "b49f3d94d01fc8c501ddb085f52244d22df32e1a124fe80e99b24f4633097304",
    ),
    (
        RunSpec("ablation_tuning", {"on": True, "off": False, "missing": None}, seed=123456789),
        "0.0.1",
        "fbd006b46b23afff35b02e1c821f376ff05cc4bed6546fff39da8c9772a23470",
    ),
]

#: An entry exactly as the original ``ResultCache.put`` wrote it, under the
#: file name it chose (cache version 1.6.0).
LEGACY_ENTRY_NAME = (
    "signal_mc/9bace27dfa097fc785957904c157e91ed96f4a24586d022a85c7809a109966e0.json"
)
LEGACY_ENTRY = """{
  "duration_s": 0.5,
  "error": null,
  "fingerprint": "9bace27dfa097fc785957904c157e91ed96f4a24586d022a85c7809a109966e0",
  "payload": {
    "ber": 0.125,
    "points": [
      1,
      2
    ]
  },
  "provenance": {
    "executor": "serial",
    "pid": 1,
    "version": "1.6.0"
  },
  "spec": {
    "experiment_id": "signal_mc",
    "params": {
      "kind": "hotspot",
      "size": 8
    },
    "seed": 2
  },
  "started_at": "2026-01-01T00:00:00+00:00",
  "status": "ok"
}"""


def reference_fingerprint(spec: RunSpec, version: str) -> str:
    """The original fingerprint formula, spelled out."""
    payload = {"spec": spec.canonical(), "version": version}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=12,
)


class TestFingerprintStability:
    @pytest.mark.parametrize("spec, version, expected", GOLDEN_FINGERPRINTS)
    def test_golden_fingerprints(self, spec, version, expected):
        assert spec_fingerprint(spec, version) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        experiment_id=st.text(min_size=1, max_size=12),
        params=st.dictionaries(
            st.text(max_size=8).filter(lambda key: key != "seed"), _json_values, max_size=4
        ),
        seed=st.integers(min_value=-(2**40), max_value=2**40) | st.booleans(),
        version=st.text(max_size=8),
    )
    def test_matches_reference_formula(self, experiment_id, params, seed, version):
        spec = RunSpec(experiment_id, params, seed=seed)
        assert spec_fingerprint(spec, version) == reference_fingerprint(spec, version)

    def test_entry_written_by_original_layout_is_a_hit(self, tmp_path):
        path = tmp_path / LEGACY_ENTRY_NAME
        path.parent.mkdir(parents=True)
        path.write_text(LEGACY_ENTRY)
        cache = ResultCache(tmp_path, version="1.6.0")
        spec = RunSpec("signal_mc", {"size": 8, "kind": "hotspot"}, seed=2)
        hit = cache.get(spec)
        assert hit is not None and hit.cached
        assert hit.fingerprint == path.stem
        assert dict(hit.payload) == {"ber": 0.125, "points": [1, 2]}
        assert hit.spec == spec


class TestNumpySeeds:
    def test_numpy_integer_seed_keys_like_the_plain_int(self):
        spec = RunSpec("signal_mc", {"size": 8}, seed=np.int64(3))
        plain = RunSpec("signal_mc", {"size": 8}, seed=3)
        assert type(spec.seed) is int
        assert spec == plain
        assert spec_fingerprint(spec, "1.6.0") == spec_fingerprint(plain, "1.6.0")

    @pytest.mark.parametrize("seed", [object(), 1j, {1, 2}])
    def test_unserializable_seed_is_a_validation_error(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            RunSpec("signal_mc", seed=seed)

    def test_numpy_seeded_sweep_runs_caches_and_replays(self, tmp_path):
        sweep = SweepSpec("signal_mc", grid={"size": [8]}, seeds=np.arange(2))
        uncached = Campaign(sweep).run()
        assert uncached.failures == 0 and uncached.executed == 2

        cold = Campaign(sweep, cache=tmp_path).run()
        assert cold.failures == 0 and cold.executed == 2
        replay = Campaign(sweep, cache=tmp_path).run()
        assert replay.cache_hits == 2 and replay.executed == 0
        plain = Campaign(
            SweepSpec("signal_mc", grid={"size": [8]}, seeds=(0, 1)), cache=tmp_path
        ).run()
        assert plain.cache_hits == 2
        for records in (replay.records, plain.records):
            assert [r.canonical_payload() for r in records] == [
                r.canonical_payload() for r in cold.records
            ]
        assert [r.canonical_payload() for r in uncached.records] == [
            r.canonical_payload() for r in cold.records
        ]
