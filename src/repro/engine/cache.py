"""Content-addressed on-disk result store for campaign runs.

Each successful :class:`~repro.engine.records.RunRecord` is written to
``<root>/<experiment_id>/<fingerprint>.json``.  The fingerprint hashes the
resolved run spec together with the ``repro`` version, so a library upgrade
invalidates every cached point without any bookkeeping: old records simply
stop being addressed.

JSON keeps the store greppable and diffable; payloads are summary-sized
dictionaries (not raw arrays), so compactness is not a concern.

Read cost: every re-run, resumed sweep and serve dedupe is answered by
:meth:`ResultCache.get`, so a hit is kept to one ``open``, one ``read``, one
``json.loads`` and one record construction.  The key is hashed from the
canonical JSON the :class:`~repro.engine.spec.RunSpec` built when it was
validated (no second serialization of the spec), the entry is opened without
a stat first (a missing file is the ``OSError`` of the open), and the
caller's spec is reused for the record when it equals the stored one.

Corruption policy: a stored file that no longer parses (torn write frozen to
disk, bit rot, a concurrent writer killed mid-replace) is *quarantined* — moved
to ``<root>/corrupt/`` with its original experiment prefix — the first time a
read trips over it.  The lookup still reports a miss (the run recomputes and
rewrites), but the evidence is preserved for forensics and surfaced by
``repro report`` instead of being silently re-read and re-skipped forever.
Writers can additionally pass ``verify=True`` to :meth:`put` to read each
record back after writing and retry a bounded number of times, which is how
serve workers guarantee a completion report implies a durable on-disk result.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

from repro.engine.records import RunRecord
from repro.engine.spec import RunSpec, spec_fingerprint
from repro.faults import fault_point
from repro.utils.serialization import load_json, save_json
from repro.version import __version__

__all__ = ["ResultCache", "DEFAULT_CACHE_DIR", "CORRUPT_DIR_NAME"]

#: Default cache location (relative to the working directory); override with
#: the ``REPRO_CACHE_DIR`` environment variable or the CLI ``--cache-dir``.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory of the cache root where corrupt entries are quarantined.
CORRUPT_DIR_NAME = "corrupt"

#: Errors that mean "the file's content is bad" (vs. the file being
#: unreadable right now, which is an I/O condition, not evidence of rot).
_CONTENT_ERRORS = (json.JSONDecodeError, KeyError, TypeError, ValueError)


class ResultCache:
    """Filesystem-backed store of run records keyed by spec fingerprints."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR, version: str = __version__):
        self.root = Path(root)
        self.version = version

    # ------------------------------------------------------------- keying
    def fingerprint(self, spec: RunSpec) -> str:
        return spec_fingerprint(spec, self.version)

    def path_for(self, spec: RunSpec) -> Path:
        return Path(self._entry_path(spec))

    def _entry_path(self, spec: RunSpec) -> str:
        # A plain string: the read path skips building a Path per lookup.
        return os.path.join(self.root, spec.experiment_id, self.fingerprint(spec) + ".json")

    # -------------------------------------------------------- quarantine
    @property
    def corrupt_dir(self) -> Path:
        return self.root / CORRUPT_DIR_NAME

    def _quarantine(self, path: Path) -> None:
        """Move an unparseable entry to ``corrupt/`` (best-effort).

        The destination keeps the experiment prefix (``corrupt/<exp>-<fp>.json``)
        and grows a numeric suffix on collision, so repeated corruption of the
        same fingerprint never overwrites earlier evidence.  Quarantine must
        never turn a read problem into a crash — failures are swallowed and
        the entry simply stays in place until the next write replaces it.
        """
        try:
            self.corrupt_dir.mkdir(parents=True, exist_ok=True)
            base = f"{path.parent.name}-{path.name}"
            target = self.corrupt_dir / base
            counter = 0
            while target.exists():
                counter += 1
                target = self.corrupt_dir / f"{base}.{counter}"
            path.replace(target)
        except OSError:
            pass

    def quarantined_count(self) -> int:
        """Number of corrupt entries moved aside so far."""
        if not self.corrupt_dir.is_dir():
            return 0
        return sum(1 for p in self.corrupt_dir.iterdir() if p.is_file())

    # ------------------------------------------------------------ lookups
    def contains(self, spec: RunSpec) -> bool:
        return self.path_for(spec).is_file()

    def get(self, spec: RunSpec) -> RunRecord | None:
        """Return the cached record for ``spec``, or ``None`` on a miss.

        A corrupt entry is quarantined and reported as a miss (the executor
        recomputes and rewrites it); a transiently unreadable file is left in
        place and reported as a miss.
        """
        # No stat first: a missing entry, a directory in its place or a
        # transient read error is an OSError from open/read, a miss that
        # leaves the path alone.
        path = self._entry_path(spec)
        try:
            with open(path, "rb") as handle:
                document = handle.read()
        except OSError:
            return None
        try:
            return RunRecord.from_dict(json.loads(document), cached=True, spec=spec)
        except _CONTENT_ERRORS:
            self._quarantine(Path(path))
            return None

    def put(
        self,
        record: RunRecord,
        verify: bool = False,
        max_write_attempts: int = 3,
    ) -> Path:
        """Persist a record (only successful runs are worth caching).

        The file is addressed by *this cache's* fingerprint of the spec, so
        a cache constructed for a different library version never serves (or
        shadows) records produced under another one.

        With ``verify=True`` the entry is read back after writing and the
        write retried (up to ``max_write_attempts`` total) until the stored
        bytes parse; an entry that stays corrupt is quarantined and the final
        ``OSError`` from the write path propagates.  Serve workers use this so
        "reported done" always implies "durably cached".
        """
        if not record.ok:
            raise ValueError(
                f"refusing to cache failed run {record.spec.label()}: {record.error}"
            )
        path = self.path_for(record.spec)
        attempts = max(1, max_write_attempts) if verify else 1
        last_error: OSError | None = None
        for _ in range(attempts):
            try:
                self._write(path, record)
            except OSError as exc:
                last_error = exc
                continue
            if not verify:
                return path
            try:
                RunRecord.from_dict(load_json(path))
            except _CONTENT_ERRORS:
                self._quarantine(path)
                last_error = OSError(f"cache write verification failed for {path}")
                continue
            except OSError as exc:
                last_error = exc
                continue
            return path
        raise last_error if last_error is not None else OSError(
            f"cache write failed for {path}"
        )

    def _write(self, path: Path, record: RunRecord) -> None:
        """One write attempt, honoring the ``cache.put`` fault point.

        The ``corrupt_write`` effect persists a truncated document *directly*
        (no atomic tmp+replace) — the torn write the atomic path is supposed
        to prevent, frozen to disk the way a kernel crash would leave it.
        """
        effect = fault_point("cache.put", key=record.spec.label())
        if effect == "corrupt_write":
            document = json.dumps(record.to_dict())
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(document[: max(1, len(document) // 3)])
            return
        save_json(path, record.to_dict())

    # --------------------------------------------------------- maintenance
    def invalidate(self, spec: RunSpec) -> bool:
        """Drop the cached record for ``spec``; returns whether one existed."""
        path = self.path_for(spec)
        if path.is_file():
            path.unlink()
            return True
        return False

    def clear(self) -> int:
        """Remove every record; returns the number of files deleted.

        Quarantined entries under ``corrupt/`` are evidence, not cache
        content — they survive a ``clear()``.
        """
        removed = 0
        for path in self.root.glob("*/*.json"):
            if path.parent.name == CORRUPT_DIR_NAME:
                continue
            path.unlink()
            removed += 1
        return removed

    def records(self, experiment_id: str | None = None) -> Iterator[RunRecord]:
        """Iterate stored records (optionally for one experiment), sorted by path.

        This walks *all* stored files including ones written under other
        library versions — it is the audit/report view, not the lookup path.
        Corrupt entries are quarantined as they are discovered.
        """
        pattern = f"{experiment_id}/*.json" if experiment_id else "*/*.json"
        for path in sorted(self.root.glob(pattern)):
            if path.parent.name == CORRUPT_DIR_NAME:
                continue
            try:
                yield RunRecord.from_dict(load_json(path), cached=True)
            except _CONTENT_ERRORS:
                self._quarantine(path)
                continue
            except OSError:
                continue
