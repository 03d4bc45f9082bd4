"""Registry-selectable compute backends for the NN hot kernels.

Every hot kernel in the layer stack — the dense/batched matmuls behind
:class:`~repro.nn.layers.linear.Linear` and
:class:`~repro.nn.layers.conv.Conv2D`, the im2col/col2im unfolds, the
pooling window maxima, the per-variant batch-norm reductions and the
injection carrier-scale multiply — dispatches through a
:class:`ComputeBackend` instance.  Backends register by name (mirroring the
attack registry in :mod:`repro.attacks.registry`) and are selected, in
precedence order, by

1. an explicit :func:`use_backend` context (per-call override),
2. the ``REPRO_NN_BACKEND`` environment variable,
3. the ``reference`` default.

``reference`` delegates to exactly the expressions the layers used before
backends existed, so it is bit-identical to the historical code path and
every golden/equivalence test keeps its meaning.  ``fast`` keeps the same
math but trades allocations and serial slab loops for

* preallocated, reused im2col workspaces keyed by ``(shape, dtype)`` on the
  inference/ensemble paths (where the patch matrix is consumed immediately
  and never cached for backward),
* threaded batched matmuls that split the variant/scenario slab axis across
  a shared :class:`~concurrent.futures.ThreadPoolExecutor` (NumPy's BLAS
  releases the GIL; ``REPRO_NN_THREADS`` / ``--threads`` control the width),
* fused single-pass per-variant moments for stacked batch norm, and
* optional numba-jitted pooling/injection kernels used only when numba
  imports cleanly (see :mod:`repro.nn._numba_kernels`).

Thread count never changes which slab a matmul computes, so the ``fast``
backend is deterministic for a given backend name; it is validated against
``reference`` by tolerance (not bit-exactness) in ``tests/test_backends.py``
and ``repro bench --suite backends``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

import repro.nn._numba_kernels as _nk
import repro.nn.functional as F

__all__ = [
    "ComputeBackend",
    "ReferenceBackend",
    "FastBackend",
    "register_backend",
    "get_backend",
    "registered_backends",
    "active_backend",
    "use_backend",
    "resolve_backend_name",
    "resolve_threads",
    "backend_provenance",
    "cache_environment",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
    "THREADS_ENV_VAR",
]

DEFAULT_BACKEND = "reference"
BACKEND_ENV_VAR = "REPRO_NN_BACKEND"
THREADS_ENV_VAR = "REPRO_NN_THREADS"

_REGISTRY: dict[str, type["ComputeBackend"]] = {}
_INSTANCES: dict[str, "ComputeBackend"] = {}
#: (backend_name | None, threads | None) override stack pushed by use_backend.
_OVERRIDES: list[tuple[str | None, int | None]] = []

_POOL_LOCK = threading.Lock()
_POOL: ThreadPoolExecutor | None = None
_POOL_WIDTH = 0


def register_backend(cls: type["ComputeBackend"]) -> type["ComputeBackend"]:
    """Class decorator registering a :class:`ComputeBackend` under ``cls.name``."""
    name = getattr(cls, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError(f"backend class {cls.__name__} must define a string `name`")
    if name in _REGISTRY and _REGISTRY[name] is not cls:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = cls
    _INSTANCES.pop(name, None)
    return cls


def registered_backends() -> tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str | None = None) -> "ComputeBackend":
    """Return the (shared) backend instance for ``name``.

    ``None`` resolves through the override stack / environment / default, so
    ``get_backend()`` is the instance the layers are currently dispatching to.
    """
    resolved = resolve_backend_name(name)
    if resolved not in _REGISTRY:
        raise ValueError(
            f"unknown compute backend {resolved!r}; "
            f"registered: {', '.join(registered_backends())}"
        )
    instance = _INSTANCES.get(resolved)
    if instance is None:
        instance = _REGISTRY[resolved]()
        _INSTANCES[resolved] = instance
    return instance


def active_backend() -> "ComputeBackend":
    """The backend the layer kernels dispatch to right now."""
    return get_backend(None)


def resolve_backend_name(name: str | None = None) -> str:
    """Resolve a backend name: explicit > context override > env > default."""
    if name:
        return name
    for override, _ in reversed(_OVERRIDES):
        if override:
            return override
    env = os.environ.get(BACKEND_ENV_VAR, "").strip()
    return env or DEFAULT_BACKEND


def resolve_threads(threads: int | None = None) -> int:
    """Resolve the slab-axis thread count: explicit > context > env > cores."""
    if threads is not None and threads > 0:
        return int(threads)
    for _, override in reversed(_OVERRIDES):
        if override is not None and override > 0:
            return int(override)
    env = os.environ.get(THREADS_ENV_VAR, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from exc
        if value > 0:
            return value
    return max(1, os.cpu_count() or 1)


@contextmanager
def use_backend(name: str | None = None, threads: int | None = None):
    """Context manager selecting the backend (and thread width) for a scope.

    Either argument may be ``None`` to keep the surrounding resolution; the
    previous selection is restored on exit.  Yields the active backend.
    """
    if name:
        get_backend(name)  # validate eagerly so typos fail at entry
    _OVERRIDES.append((name or None, int(threads) if threads else None))
    try:
        yield active_backend()
    finally:
        _OVERRIDES.pop()


def backend_provenance(
    name: str | None = None, threads: int | None = None
) -> dict[str, object]:
    """Provenance fields describing the effective backend selection.

    ``name``/``threads`` are per-run overrides (e.g. resolved experiment
    params); falsy values fall through to the ambient resolution.
    """
    return {
        "nn_backend": resolve_backend_name(name or None),
        "nn_threads": resolve_threads(threads or None),
    }


def cache_environment() -> dict[str, object]:
    """Process-level backend state that must key the result cache.

    Returns ``{}`` under the default configuration so fingerprints computed
    before backends existed stay valid; any non-default ``REPRO_NN_BACKEND``
    or explicit ``REPRO_NN_THREADS`` shows up in the mapping (and therefore
    in :func:`repro.engine.spec.spec_fingerprint`), so cached results are
    never silently served across backends.
    """
    env: dict[str, object] = {}
    backend = os.environ.get(BACKEND_ENV_VAR, "").strip()
    threads = os.environ.get(THREADS_ENV_VAR, "").strip()
    if backend and backend != DEFAULT_BACKEND:
        env["nn_backend"] = backend
        env["nn_threads"] = resolve_threads()
    elif threads:
        try:
            value = int(threads)
        except ValueError:
            value = None
        if value and value > 0:
            env["nn_threads"] = value
    return env


def _shared_pool(width: int) -> ThreadPoolExecutor:
    """The shared slab-axis thread pool, grown (never shrunk) to ``width``."""
    global _POOL, _POOL_WIDTH
    with _POOL_LOCK:
        if _POOL is None or _POOL_WIDTH < width:
            if _POOL is not None:
                _POOL.shutdown(wait=False)
            _POOL = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="repro-nn-backend"
            )
            _POOL_WIDTH = width
        return _POOL


def _matmul_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    np.matmul(a, b, out=out)


class _WorkspacePool:
    """Reusable scratch buffers keyed by ``(shape, dtype)``.

    Borrowed buffers are only handed to *transient* consumers — callers that
    fully overwrite the buffer and drop every reference to it before the next
    borrow of the same key (the inference/ensemble im2col sites).  Training
    paths that cache the patch matrix for backward must never borrow.
    """

    MAX_ENTRIES = 8

    def __init__(self):
        self._buffers: dict[tuple[tuple[int, ...], str], np.ndarray] = {}

    def borrow(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        key = (tuple(int(s) for s in shape), np.dtype(dtype).str)
        buffer = self._buffers.get(key)
        if buffer is None:
            if len(self._buffers) >= self.MAX_ENTRIES:
                self._buffers.pop(next(iter(self._buffers)))
            buffer = np.empty(key[0], dtype=dtype)
            self._buffers[key] = buffer
        return buffer

    def release(self) -> None:
        self._buffers.clear()


class ComputeBackend:
    """Kernel dispatch surface shared by every backend.

    The base class implements the historical (pre-backend) expressions, so a
    subclass only overrides the kernels it accelerates.  All methods must
    keep the reference semantics: same shapes, same dtypes, results within
    documented tolerance (bit-identical for ``reference``).
    """

    name = "abstract"
    description = ""

    # --- dense / batched matmuls -------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """2-D GEMM ``a @ b``."""
        return a @ b

    def stacked_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched matmul over a leading variant/scenario slab axis."""
        return np.matmul(a, b)

    # --- unfold / fold -----------------------------------------------------------
    def im2col(
        self,
        x: np.ndarray,
        kernel_h: int,
        kernel_w: int,
        stride: int,
        padding: int,
        transient: bool = False,
    ) -> tuple[np.ndarray, int, int]:
        """Unfold NCHW input into the ``(N*oh*ow, C*kh*kw)`` patch matrix.

        ``transient=True`` promises the caller consumes the patch matrix
        before the next backend call and never caches it, allowing workspace
        reuse in backends that support it.
        """
        return F.im2col(x, kernel_h, kernel_w, stride, padding)

    def col2im(
        self,
        cols: np.ndarray,
        input_shape: tuple[int, int, int, int],
        kernel_h: int,
        kernel_w: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        """Fold a patch matrix back into NCHW, summing overlaps."""
        return F.col2im(cols, input_shape, kernel_h, kernel_w, stride, padding)

    # --- pooling -----------------------------------------------------------------
    def window_max(self, x: np.ndarray, kernel: int) -> np.ndarray:
        """Non-overlapping ``kernel x kernel`` window max over the last two axes."""
        return F.window_max(x, kernel)

    # --- batch norm --------------------------------------------------------------
    def stacked_moments(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-variant channel ``(mean, var)`` of a ``(V, N, C, H, W)`` slab."""
        variants = x.shape[0]
        mean = np.stack([x[v].mean(axis=(0, 2, 3)) for v in range(variants)])
        var = np.stack([x[v].var(axis=(0, 2, 3)) for v in range(variants)])
        return mean, var

    # --- injection ---------------------------------------------------------------
    def scale_rows(
        self, magnitudes: np.ndarray, rows: list[int], scales: np.ndarray
    ) -> None:
        """In-place ``magnitudes[rows] *= scales`` (carrier-scale multiply)."""
        magnitudes[rows] *= scales

    # --- housekeeping ------------------------------------------------------------
    def release_workspaces(self) -> None:
        """Drop any cached scratch buffers (no-op for stateless backends)."""

    def describe(self) -> dict[str, object]:
        """Identity fields for provenance/reports."""
        return {"backend": self.name, "threads": resolve_threads()}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


@register_backend
class ReferenceBackend(ComputeBackend):
    """The historical code path, bit-identical to the pre-backend layers."""

    name = "reference"
    description = "bit-identical baseline (historical layer expressions)"


@register_backend
class FastBackend(ComputeBackend):
    """Allocation-avoiding, thread-parallel backend (tolerance-validated)."""

    name = "fast"
    description = (
        "reused im2col workspaces, threaded slab matmuls, "
        "fused stacked moments, optional numba kernels"
    )

    #: Minimum ``lead * n * k * m`` product before threading a batched matmul;
    #: below this the submit/join overhead dominates the BLAS wins.
    MIN_THREADED_WORK = 1 << 21

    def __init__(self):
        self._workspaces = _WorkspacePool()

    def im2col(
        self,
        x: np.ndarray,
        kernel_h: int,
        kernel_w: int,
        stride: int,
        padding: int,
        transient: bool = False,
    ) -> tuple[np.ndarray, int, int]:
        if not transient:
            return F.im2col(x, kernel_h, kernel_w, stride, padding)
        batch, channels, height, width = x.shape
        out_h = F.conv_output_size(height, kernel_h, stride, padding)
        out_w = F.conv_output_size(width, kernel_w, stride, padding)
        shape = (batch, out_h, out_w, channels, kernel_h, kernel_w)
        workspace = self._workspaces.borrow(shape, x.dtype)
        return F.im2col(x, kernel_h, kernel_w, stride, padding, out=workspace)

    def stacked_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if (
            a.ndim == 3
            and b.ndim == 3
            and b.shape[0] == 1
            and a.shape[0] > 1
            and a.flags.c_contiguous
        ):
            # Shared weights, per-slab activations fuse into ONE large GEMM
            # instead of `lead` small ones: (V*n, k) @ (k, m) — both reshapes
            # are views, no copies at all.  BLAS blocking may round the fused
            # reduction differently, which is why the fast backend is
            # tolerance-tested, not bit-exact.  (The mirrored case — shared
            # activations, per-slab weights — is deliberately NOT fused: the
            # (n, k) @ (k, V*m) form needs a full transpose repack of the
            # output slab, which costs more than the fused GEMM saves.)
            lead, rows, inner = a.shape
            out = a.reshape(lead * rows, inner) @ b[0]
            return out.reshape(lead, rows, out.shape[-1])
        if (
            a.ndim == 3
            and b.ndim == 3
            and a.shape[0] == b.shape[0]
            and a.shape[0] > 1
        ):
            lead, rows, inner = a.shape
            cols = b.shape[2]
            threads = resolve_threads()
            if (
                threads > 1
                and lead * rows * inner * cols >= self.MIN_THREADED_WORK
            ):
                out = np.empty((lead, rows, cols), dtype=np.result_type(a, b))
                width = min(threads, lead)
                chunk = -(-lead // width)
                pool = _shared_pool(width)
                futures = [
                    pool.submit(
                        _matmul_into,
                        a[start : start + chunk],
                        b[start : start + chunk],
                        out[start : start + chunk],
                    )
                    for start in range(0, lead, chunk)
                ]
                for future in futures:
                    future.result()
                return out
        return np.matmul(a, b)

    def window_max(self, x: np.ndarray, kernel: int) -> np.ndarray:
        if _nk.NUMBA_AVAILABLE and x.flags.c_contiguous:
            return _nk.window_max_nonoverlap(x, kernel)
        return super().window_max(x, kernel)

    def stacked_moments(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # One fused pass over the whole (V, N, C, H, W) slab instead of V
        # sequential slab reductions; within float tolerance of the
        # reference loop (different summation grouping), never bit-exact.
        mean = x.mean(axis=(1, 3, 4))
        var = x.var(axis=(1, 3, 4))
        return mean, var

    def scale_rows(
        self, magnitudes: np.ndarray, rows: list[int], scales: np.ndarray
    ) -> None:
        if _nk.NUMBA_AVAILABLE and magnitudes.flags.c_contiguous:
            _nk.scale_rows_inplace(
                magnitudes,
                np.asarray(rows, dtype=np.int64),
                np.ascontiguousarray(scales),
            )
            return
        super().scale_rows(magnitudes, rows, scales)

    def release_workspaces(self) -> None:
        self._workspaces.release()

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["numba"] = bool(_nk.NUMBA_AVAILABLE)
        return info
