"""Structured run results with timing and provenance metadata.

A :class:`RunRecord` is what the executor hands back for every
:class:`~repro.engine.spec.RunSpec`: the experiment payload plus enough
metadata (fingerprint, duration, worker pid, library version) to audit where
a number came from.  Records serialize to plain JSON dictionaries, which is
the on-disk format of :class:`~repro.engine.cache.ResultCache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.engine.spec import RunSpec, canonical_json

__all__ = ["RunRecord"]


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one experiment run.

    Attributes
    ----------
    fingerprint:
        Content hash of (spec, version) — the cache key.
    spec:
        The resolved run specification.
    payload:
        The experiment's summary dictionary (empty on failure).  Payloads are
        deterministic for a given spec; all wall-clock metadata lives in the
        sibling fields, so payload bytes can be compared across executors.
    status / error:
        ``"ok"`` or ``"error"``; failed runs keep the sweep alive and carry
        the exception text instead of the payload.
    duration_s, started_at:
        Wall-clock timing of the run (not part of the cache key).
    provenance:
        Execution context: library version, executor kind, worker pid.
    cached:
        True when the record was served from the result cache rather than
        executed; never persisted as True.
    """

    fingerprint: str
    spec: RunSpec
    payload: Mapping[str, object] = field(default_factory=dict)
    status: str = "ok"
    error: str | None = None
    duration_s: float = 0.0
    started_at: str = ""
    provenance: Mapping[str, object] = field(default_factory=dict)
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def canonical_payload(self) -> str:
        """Canonical JSON bytes of the payload (for determinism checks)."""
        return canonical_json(dict(self.payload))

    def with_provenance(self, **extra: object) -> "RunRecord":
        """A copy with ``extra`` merged into the provenance mapping.

        Executors use this to stamp retry/attempt bookkeeping onto a record
        without the run machinery knowing about failure policy.
        """
        return replace(self, provenance={**dict(self.provenance), **extra})

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "spec": self.spec.canonical(),
            "payload": dict(self.payload),
            "status": self.status,
            "error": self.error,
            "duration_s": self.duration_s,
            "started_at": self.started_at,
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, object],
        cached: bool = False,
        spec: RunSpec | None = None,
    ) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output.

        ``cached`` marks the record as served from the cache.  ``spec`` is
        the spec the caller looked the record up by: it is reused when
        ``spec.canonical() == data["spec"]``, which spares re-validating an
        identical spec; otherwise the spec is rebuilt from the stored data,
        so a stored spec that differs is returned as stored.
        """
        spec_data = data["spec"]
        if spec is None or spec.canonical() != spec_data:
            spec_data = dict(spec_data)  # type: ignore[arg-type]
            spec = RunSpec(
                experiment_id=str(spec_data["experiment_id"]),
                params=dict(spec_data.get("params", {})),
                seed=int(spec_data.get("seed", 0)),
            )
        return cls(
            fingerprint=str(data["fingerprint"]),
            spec=spec,
            payload=dict(data.get("payload", {})),
            status=str(data.get("status", "ok")),
            error=data.get("error"),  # type: ignore[arg-type]
            duration_s=float(data.get("duration_s", 0.0)),
            started_at=str(data.get("started_at", "")),
            provenance=dict(data.get("provenance", {})),
            cached=cached,
        )
