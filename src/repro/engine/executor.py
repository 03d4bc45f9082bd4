"""Run-spec executors: serial and process-pool, with a run-level failure policy.

:func:`execute_run` is the single unit of work shared by every execution
strategy — it resolves the experiment, runs it with the spec's parameters
and seed, and wraps the outcome (or the failure) into a
:class:`~repro.engine.records.RunRecord`.  It is a module-level function so
the process pool can pickle references to it; only the plain-data
:class:`~repro.engine.spec.RunSpec` crosses process boundaries.

Failure policy: every executor takes an optional :class:`RetryPolicy`.  A run
that fails (error record, dead pool worker, or blown per-run deadline) is
re-executed up to ``max_attempts`` times with capped exponential backoff and
deterministic jitter; a run that exhausts its attempts is *quarantined* — its
final error record carries the attempt history in provenance and the sweep
moves on, so one poison point can never stall or crash-loop a campaign.  The
default policy (one attempt, no deadline) reproduces the historical behavior
exactly.

Determinism: each run's randomness is fully derived from ``spec.seed`` (the
experiment runners thread it through :mod:`repro.utils.rng`), so the same
spec produces byte-identical payloads whether it executes inline, in a fresh
process, in a pool worker that has already run other specs — or on the third
retry after two injected crashes (payloads never depend on attempt count).
Worker processes keep per-process caches of trained workloads (see
:mod:`repro.analysis.experiments`), which makes large sweeps dramatically
cheaper without affecting results.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from datetime import datetime, timezone
from time import monotonic, perf_counter
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.engine.records import RunRecord
from repro.engine.spec import RunSpec, spec_fingerprint
from repro.faults import fault_point
from repro.utils.rng import stable_hash
from repro.utils.validation import check_positive_int
from repro.version import __version__

__all__ = [
    "execute_run",
    "failure_record",
    "RetryPolicy",
    "RunBackend",
    "RunExecutor",
    "StreamExecutor",
    "SerialExecutor",
    "ProcessPoolRunExecutor",
    "make_executor",
    "run_all",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How an executor (or the serve scheduler) treats a failing run.

    Attributes
    ----------
    max_attempts:
        Total executions allowed per run, including the first.  ``1`` (the
        default) means failures are final immediately — the historical
        behavior.  A run that fails ``max_attempts`` times is quarantined:
        recorded as failed with its attempt history, never dispatched again.
    backoff_s / backoff_cap_s:
        Exponential re-dispatch delay: attempt *n* waits
        ``min(cap, backoff_s * 2**(n-1))``, scaled by deterministic jitter in
        ``[0.5, 1.0]`` derived from ``(seed, run key, attempt)`` so a fleet
        of retries never stampedes in lockstep yet stays reproducible.
    deadline_s:
        Per-run wall-clock budget.  A run still executing past it is treated
        as hung: its worker is killed (serve pool) or the pool is rebuilt
        (process pool) and the run counts a failed attempt.  ``None``: no
        deadline.
    seed:
        Jitter seed.
    """

    max_attempts: int = 1
    backoff_s: float = 0.25
    backoff_cap_s: float = 10.0
    deadline_s: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.max_attempts, "max_attempts")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff_s and backoff_cap_s must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Backoff before re-dispatching after failed attempt ``attempt``."""
        base = min(self.backoff_cap_s, self.backoff_s * (2 ** max(0, attempt - 1)))
        if base <= 0:
            return 0.0
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, stable_hash(key), attempt])
        )
        return base * (0.5 + 0.5 * float(rng.random()))

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff_s": self.backoff_s,
            "backoff_cap_s": self.backoff_cap_s,
            "deadline_s": self.deadline_s,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict, default: "RetryPolicy | None" = None) -> "RetryPolicy":
        """Build a policy from a (possibly partial) dict over ``default``."""
        base = default if default is not None else cls()
        known = {"max_attempts", "backoff_s", "backoff_cap_s", "deadline_s", "seed"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown retry-policy field(s) {unknown}; accepted: {sorted(known)}"
            )
        deadline = data.get("deadline_s", base.deadline_s)
        return cls(
            max_attempts=int(data.get("max_attempts", base.max_attempts)),
            backoff_s=float(data.get("backoff_s", base.backoff_s)),
            backoff_cap_s=float(data.get("backoff_cap_s", base.backoff_cap_s)),
            deadline_s=None if deadline is None else float(deadline),
            seed=int(data.get("seed", base.seed)),
        )


def execute_run(
    spec: RunSpec,
    version: str = __version__,
    executor_kind: str = "serial",
) -> RunRecord:
    """Execute one run spec and return its record (never raises).

    Failures are captured in the record (``status="error"``) so one bad grid
    point cannot abort a thousand-point sweep.  The ``worker.run`` fault
    point fires here, inside the try block, so an injected ``raise`` surfaces
    as an ordinary failed record while ``crash``/``hang`` behave exactly like
    a segfaulting or stuck native call.
    """
    from repro.analysis.experiments import get_experiment
    started_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    start = perf_counter()
    try:
        fault_point("worker.run", key=spec.label())
        descriptor = get_experiment(spec.experiment_id)
        seed = spec.seed if descriptor.seedable else None
        payload = descriptor.run(spec.params, seed=seed)
        status, error = "ok", None
    except Exception as exc:  # noqa: BLE001 — sweep survives bad points
        payload, status, error = {}, "error", f"{type(exc).__name__}: {exc}"
    return RunRecord(
        fingerprint=spec_fingerprint(spec, version),
        spec=spec,
        payload=payload,
        status=status,
        error=error,
        duration_s=perf_counter() - start,
        started_at=started_at,
        provenance={
            "version": version,
            "executor": executor_kind,
            "pid": os.getpid(),
        },
    )


def failure_record(
    spec: RunSpec,
    error: str,
    executor_kind: str,
    attempts: int = 1,
    version: str = __version__,
) -> RunRecord:
    """A synthetic error record for a run that produced no record of its own.

    Used when the process executing a run died or was killed at its deadline:
    there is nobody left to report, so the supervising side records the
    failure (with its attempt history) on the run's behalf.
    """
    return RunRecord(
        fingerprint=spec_fingerprint(spec, version),
        spec=spec,
        payload={},
        status="error",
        error=error,
        started_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        provenance={
            "version": version,
            "executor": executor_kind,
            "pid": os.getpid(),
            "attempts": attempts,
        },
    )


class RunExecutor(ABC):
    """Interface every run executor implements.

    ``run_specs`` is the batch contract :class:`~repro.engine.campaign.Campaign`
    consumes: feed it an ordered list of specs, stream back ``(index, record)``
    pairs in whatever order runs complete.  ``close`` releases long-lived
    resources (a no-op for the stateless built-ins; the serve worker pool
    terminates its processes here).
    """

    kind: str = "abstract"

    @abstractmethod
    def run_specs(self, specs: Sequence[RunSpec]) -> Iterator[tuple[int, RunRecord]]:
        """Yield ``(index, record)`` for every spec, in completion order."""

    def close(self) -> None:
        """Release executor resources (idempotent)."""


class StreamExecutor(RunExecutor):
    """Executors that accept tagged submissions from many campaigns at once.

    The one-pool-per-sweep model of :class:`ProcessPoolRunExecutor` ties the
    worker pool's lifetime to a single spec list.  A stream executor instead
    exposes the pool as a long-lived service: callers :meth:`submit` specs
    tagged with an opaque token (e.g. ``(job_id, index)``) whenever they like,
    and drain :meth:`completions` as results arrive — so N concurrently
    submitted sweeps share one set of workers and work-stealing across sweeps
    falls out of the shared queue.  The serve daemon's
    :class:`~repro.serve.workers.WorkerPool` is the canonical implementation.
    """

    @abstractmethod
    def submit(self, token: Hashable, spec: RunSpec) -> None:
        """Enqueue one run; ``token`` is echoed back with its completion."""

    @abstractmethod
    def completions(self, timeout: float | None = None) -> Iterator[tuple[Hashable, RunRecord]]:
        """Yield ``(token, record)`` for finished runs.

        With a ``timeout`` the iterator stops (without raising) once no
        completion arrives for that many seconds; with ``timeout=None`` it
        blocks until the next completion forever.
        """

    def run_specs(self, specs: Sequence[RunSpec]) -> Iterator[tuple[int, RunRecord]]:
        """Batch adapter: submit everything, drain until all runs report."""
        for index, spec in enumerate(specs):
            self.submit(index, spec)
        remaining = len(specs)
        while remaining:
            for token, record in self.completions(timeout=None):
                yield int(token), record  # type: ignore[call-overload]
                remaining -= 1
                if not remaining:
                    return


class RunBackend(StreamExecutor):
    """A supervisable :class:`StreamExecutor` the serve scheduler can drive.

    The scheduler's failure policy needs more than submit/drain: it must see
    which runs are physically executing (to enforce wall-clock deadlines),
    kill or fence one overdue run, and learn exactly which runs a dead
    executor lost so it can charge attempts and re-dispatch.  Everything the
    scheduler does flows through this interface, which is what lets it treat
    the local :class:`~repro.serve.workers.WorkerPool` and remote federated
    nodes (:class:`~repro.serve.federation.FederationBackend`) uniformly:
    a run leased to a machine across the network and a run handed to a child
    process are the same thing to the failure policy.
    """

    #: Short name used in dispatch bookkeeping and health documents.
    backend_name: str = "backend"

    @abstractmethod
    def try_submit(self, token: Hashable, spec: RunSpec) -> bool:
        """Non-blocking submit; False when the backend has no capacity now."""

    @abstractmethod
    def in_flight(self) -> dict:
        """Snapshot ``token -> (host id, started monotonic)`` of executing runs.

        The host id is backend-specific (a worker pid, a node id); callers
        only rely on the second element for deadline math.
        """

    @abstractmethod
    def kill_for(self, token: Hashable) -> bool:
        """Stop (or fence off) the execution of one run; False if unknown.

        After a successful call the backend must never report a completion
        for this token's current execution — the caller owns its retry.
        """

    @abstractmethod
    def reap(self) -> list:
        """Detect dead executors; return the tokens their deaths lost."""

    def withdraw(self, token: Hashable) -> bool:
        """Take back a submitted-but-not-yet-executing run, if possible.

        Backends that queue work where it can still be recalled (e.g. a
        claimable lease pool) return True and drop the run; backends whose
        queues cannot be recalled (an OS pipe to worker processes) return
        False and the caller falls back to stale-completion handling.
        """
        return False

    def health(self) -> dict:
        """Liveness/capacity summary for ``/healthz``-style reporting."""
        return {}


class SerialExecutor(RunExecutor):
    """Runs specs one after another in the current process."""

    kind = "serial"

    def __init__(self, retry: RetryPolicy | None = None):
        self.retry = retry if retry is not None else RetryPolicy()

    def run_specs(self, specs: Sequence[RunSpec]) -> Iterator[tuple[int, RunRecord]]:
        """Yield ``(index, record)`` for every spec, in order."""
        for index, spec in enumerate(specs):
            yield index, self._run_with_retry(spec)

    def _run_with_retry(self, spec: RunSpec) -> RunRecord:
        policy = self.retry
        attempt = 0
        while True:
            attempt += 1
            record = execute_run(spec, executor_kind=self.kind)
            if record.ok or attempt >= policy.max_attempts:
                if attempt > 1:
                    record = record.with_provenance(attempts=attempt)
                return record
            time.sleep(policy.delay_s(attempt, key=spec.label()))


class ProcessPoolRunExecutor(RunExecutor):
    """Fans specs out across a :class:`concurrent.futures.ProcessPoolExecutor`.

    Results are yielded as they complete (for progress streaming); callers
    that need spec order reassemble by the yielded index.  ``max_workers``
    defaults to the machine's CPU count capped at 8 — experiment runners are
    NumPy-heavy, so oversubscription beyond physical cores buys nothing.

    Failure policy: a broken pool (a worker process died — OOM killer,
    segfault, injected crash) is rebuilt and its unfinished runs re-submitted;
    every run that was in flight is charged a failed attempt (the stdlib pool
    fails them together, so they all genuinely died), and a run that exhausts
    :class:`RetryPolicy.max_attempts` is quarantined with a synthetic error
    record instead of being re-dispatched forever.  Submission is throttled
    to the worker count so a charged run was actually executing, and each
    *consecutive* broken rebuild halves the concurrency down to one — under a
    crash storm one bad run then takes only itself down per incident, so
    innocent neighbours stop bleeding shared attempts; any successful
    completion restores full width.  With a ``deadline_s`` the pool is also
    torn down and rebuilt when any run overstays its wall-clock budget
    (``ProcessPoolExecutor`` cannot kill a single worker), charging the
    overdue runs an attempt.  The serve
    :class:`~repro.serve.workers.WorkerPool` implements the same policy with
    precise per-worker tracking; this is the best-effort one-shot variant.
    """

    kind = "process-pool"

    #: Scheduler poll period while waiting on the pool (seconds) when a
    #: deadline must be enforced; without a deadline the wait is unbounded.
    _TICK_S = 0.25

    def __init__(self, max_workers: int | None = None, retry: RetryPolicy | None = None):
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, 8)
        self.max_workers = check_positive_int(max_workers, "max_workers")
        self.retry = retry if retry is not None else RetryPolicy()

    def run_specs(self, specs: Sequence[RunSpec]) -> Iterator[tuple[int, RunRecord]]:
        """Yield ``(index, record)`` as runs complete across the pool."""
        if not specs:
            return
        policy = self.retry
        size = min(self.max_workers, len(specs))
        #: Runs awaiting (re-)submission: (index, spec, attempt-to-run-next).
        work: deque[tuple[int, RunSpec, int]] = deque(
            (index, spec, 1) for index, spec in enumerate(specs)
        )
        pool = ProcessPoolExecutor(max_workers=size)
        outstanding: dict = {}  # future -> (index, spec, attempt, submitted_at)
        #: Consecutive broken rebuilds with no successful completion between
        #: them.  Halves the submission width each incident (down to one) so
        #: a crash storm stops charging innocent neighbours — at width one
        #: the charged run is exactly the one that died.
        storm = 0
        try:
            while work or outstanding:
                width = max(1, size >> min(storm, 6))
                while work and len(outstanding) < width:
                    index, spec, attempt = work.popleft()
                    if attempt > policy.max_attempts:
                        yield index, failure_record(
                            spec,
                            f"quarantined after {policy.max_attempts} attempts "
                            "(worker died or deadline exceeded every time)",
                            self.kind,
                            attempts=policy.max_attempts,
                        )
                        continue
                    future = pool.submit(execute_run, spec, __version__, self.kind)
                    outstanding[future] = (index, spec, attempt, monotonic())
                timeout = self._TICK_S if policy.deadline_s is not None else None
                done, _ = wait(
                    set(outstanding), timeout=timeout, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    index, spec, attempt, _ = outstanding.pop(future)
                    try:
                        record = future.result()
                    except BrokenProcessPool:
                        broken = True
                        work.append((index, spec, attempt + 1))
                        continue
                    storm = 0
                    if record.ok or attempt >= policy.max_attempts:
                        if attempt > 1:
                            record = record.with_provenance(attempts=attempt)
                        yield index, record
                    else:
                        time.sleep(policy.delay_s(attempt, key=spec.label()))
                        work.append((index, spec, attempt + 1))
                if broken or self._pool_is_broken(pool):
                    storm += 1
                    pool = self._rebuild(pool, outstanding, work, size, reason="broken")
                elif policy.deadline_s is not None and any(
                    monotonic() - submitted > policy.deadline_s
                    for (_, _, _, submitted) in outstanding.values()
                ):
                    pool = self._rebuild(
                        pool, outstanding, work, size,
                        reason="deadline", deadline_s=policy.deadline_s,
                    )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _pool_is_broken(pool: ProcessPoolExecutor) -> bool:
        return getattr(pool, "_broken", False) is not False and bool(
            getattr(pool, "_broken", False)
        )

    def _rebuild(
        self,
        pool: ProcessPoolExecutor,
        outstanding: dict,
        work: deque,
        size: int,
        reason: str,
        deadline_s: float | None = None,
    ) -> ProcessPoolExecutor:
        """Tear the pool down and requeue its unfinished runs.

        Submission is throttled to the pool width, so on a break every
        in-flight run was genuinely executing and is charged an attempt (at
        most one per worker, oldest first — defensive if the throttle ever
        over-admits).  On a deadline rebuild only the overdue runs are
        charged; the rest keep their attempt count.
        """
        entries = sorted(outstanding.values(), key=lambda entry: entry[3])
        outstanding.clear()
        now = monotonic()
        for position, (index, spec, attempt, submitted) in enumerate(entries):
            charge = position < size
            if reason == "deadline" and deadline_s is not None:
                charge = now - submitted > deadline_s
            work.append((index, spec, attempt + 1 if charge else attempt))
        # A hung worker ignores shutdown(); terminate the processes directly
        # (best-effort — _processes is stdlib-internal but stable) so the
        # rebuild does not leak a stuck child per incident.
        for proc in list(getattr(pool, "_processes", {}).values() or []):
            try:
                proc.terminate()
            except (OSError, AttributeError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        return ProcessPoolExecutor(max_workers=size)


def make_executor(
    workers: int | str | RunExecutor | None,
    retry: RetryPolicy | None = None,
) -> RunExecutor:
    """Build an executor from a worker-count knob.

    ``None``, ``0``, ``1`` or ``"serial"`` select the serial executor; any
    larger integer selects a process pool of that size.  A ready-made
    :class:`RunExecutor` instance passes through unchanged (``retry`` is
    ignored — a long-lived shared pool owns its own failure policy), which is
    how the serve daemon's pool is threaded into a
    :class:`~repro.engine.campaign.Campaign`.
    """
    if isinstance(workers, RunExecutor):
        return workers
    if workers == "serial":
        return SerialExecutor(retry=retry)
    if isinstance(workers, str):
        workers = int(workers)
    if workers in (None, 0, 1):
        return SerialExecutor(retry=retry)
    return ProcessPoolRunExecutor(max_workers=workers, retry=retry)


def run_all(
    executor: RunExecutor,
    specs: Iterable[RunSpec],
) -> list[RunRecord]:
    """Convenience: execute ``specs`` and return records in spec order."""
    specs = list(specs)
    records: list[RunRecord | None] = [None] * len(specs)
    for index, record in executor.run_specs(specs):
        records[index] = record
    return [record for record in records if record is not None]
