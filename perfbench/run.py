"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload attack_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics plus the tracing overhead.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable metric table, the raw host times, the hardware
fingerprint, the speed probe and the input properties.  A full report (and
the spans, when traced) is written to ``.perfbench_out/`` under the
repository root.

Reported times are host times scaled to a reference host speed.  A fixed
speed probe runs before set-up and after every set-up and op; each interval
is multiplied by the probe's reference time over the mean of the probes
around it.  On the shared 2-core host the benchmark was defined on, host
speed switched by up to 1.7x within minutes.  Each workload names the probe
that tracks its own drift (``Workload.probe``): interpreter work for the
sweeps, numpy layer kernels for the two NN workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-up repetitions per run; set-up time is their median.
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_PROBE_DOC = {f"k{i}": [i, i * 0.5, str(i)] for i in range(64)}


def pin_blas_threads() -> None:
    """One BLAS thread unless the caller chose otherwise.

    On a shared 2-core host a multithreaded BLAS competes with neighbours;
    ``attack_grid`` was both slower and less steady with it.  This must
    happen before numpy is imported.
    """
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")


def interpreter_probe() -> float:
    """Seconds for a fixed mix of json, hashing and small numpy work (best of 5).

    Tracks interpreter-bound code such as the engine's bookkeeping and cache
    I/O.  File I/O is left out: small file operations varied too much on a
    shared host to calibrate anything.
    """
    import numpy as np

    array = np.linspace(0.0, 1.0, 16384)
    matrix = array[:2304].reshape(48, 48)
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        for _ in range(4):
            text = json.dumps(_PROBE_DOC, sort_keys=True)
            hashlib.sha256(text.encode()).hexdigest()
            json.loads(text)
        np.sqrt(array * 1.5 + 0.5).sum()
        matrix @ matrix
        best = min(best, perf_counter() - start)
    return best


def kernel_probe() -> float:
    """Seconds for fixed numpy layer kernels (best of 5).

    An im2col copy and its GEMM, ReLU, a 2x2 max-pool and a dense GEMM on
    MNIST-sized float32 batches.  These track the NN workloads.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    images = rng.random((16, 16, 28, 28), dtype=np.float32)
    kernels = rng.random((16 * 9, 16), dtype=np.float32)
    dense = rng.random((784, 50), dtype=np.float32)
    features = rng.random((16, 784), dtype=np.float32)
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        windows = np.lib.stride_tricks.sliding_window_view(images, (3, 3), axis=(2, 3))
        columns = np.ascontiguousarray(windows[:, :, ::2, ::2].transpose(0, 2, 3, 1, 4, 5))
        out = columns.reshape(-1, 16 * 9) @ kernels
        np.maximum(out, 0, out=out)
        images.reshape(16, 16, 14, 2, 14, 2).max(axis=(3, 5))
        features @ dense
        best = min(best, perf_counter() - start)
    return best


#: Each probe and the seconds it takes at the reference host speed (its
#: median in the slower of the two speed modes seen on the 2-core host the
#: benchmark was defined on).  Part of the benchmark's definition: changing
#: a reference rescales every time scaled by that probe.
PROBES = {
    "interpreter": (interpreter_probe, 7.0e-4),
    "kernels": (kernel_probe, 9.5e-3),
}


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def fingerprint() -> dict:
    """Hardware and software identity of a result."""
    import numpy as np
    import scipy

    from repro.version import __version__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repro_version": __version__,
        "commit": git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> dict:
    """Set up, measure and check one workload; returns the full report."""
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed=seed, workdir=out_dir / f"work-{name}-{seed}-{os.getpid()}")
    probe, reference_s = PROBES[workload.probe]
    probes = [probe()]

    def scale() -> float:
        """Probe again; the factor for the interval since the last probe."""
        probes.append(probe())
        return reference_s / ((probes[-2] + probes[-1]) / 2)

    setups: list[tuple[float, float]] = []  # (raw seconds, scale factor)
    ops: list[dict] = []
    errors: list[str] = []
    tracer = Tracer() if trace else None
    try:
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.setup()
            raw = perf_counter() - start
            setups.append((raw, scale()))

        run_start = perf_counter()
        # A traced run alternates untraced and traced ops (so that the
        # overhead compares like with like) and needs one of each.
        while len(ops) < (2 if trace else 1) or perf_counter() - run_start < seconds:
            index = len(ops)
            traced = trace and index % 2 == 1
            if traced:
                tracer.install(index)
            start = perf_counter()
            result, problems = None, []
            try:
                if traced:
                    with tracer.root("op"):
                        result = workload.op(index)
                else:
                    result = workload.op(index)
            except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
                problems = [f"{type(exc).__name__}: {exc}"]
            finally:
                raw = perf_counter() - start
                if traced:
                    tracer.uninstall()
            if result is not None:
                try:
                    problems = workload.check(index, result)
                except Exception as exc:  # noqa: BLE001 — a failed check is a wrong op
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            errors += [f"op {index}: {p}" for p in problems]
            ops.append({
                "raw_s": raw,
                "scale": scale(),
                "traced": traced,
                "completed": result is not None,
                "ok": result is not None and not problems,
                "items": result.items if result is not None else 0,
                "digest": result.digest if result is not None else None,
            })
    finally:
        workload.close()

    properties = workload.properties
    scenarios, points = properties["scenarios"], properties["points"]
    shares = {
        "shared_trunk_share": properties["shared_trunk"] / scenarios if scenarios else 0.0,
        "thermal_kind_share": properties["thermal"] / scenarios if scenarios else 0.0,
        "cache_hit_ratio": properties["cache_hits"] / points if points else 0.0,
        "near_chance_variants": properties["near_chance_variants"],
    }
    done = [op for op in ops if op["completed"]]
    untraced = [op["raw_s"] * op["scale"] for op in done if not op["traced"]]
    traced_ops = [op["raw_s"] * op["scale"] for op in done if op["traced"]]

    if trace:
        scales = {index: op["scale"] for index, op in enumerate(ops)}
        layer = layer_metrics(tracer, scales, traced_ops, untraced, shares)
        metrics = {m: {"value": value, "unit": unit} for m, (value, unit) in layer.items()}
    else:
        items = sum(op["items"] for op in done)
        metrics = {
            "setup_s": {"value": statistics.median(raw * f for raw, f in setups), "unit": "s"},
            "items_per_s": {"value": items / sum(untraced) if untraced else 0.0, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(untraced) if untraced else 0.0, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    digests = [op["digest"] for op in ops]
    failed = sum(not op["ok"] for op in ops)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": fingerprint(),
        "probe": {
            "name": workload.probe,
            "reference_s": reference_s,
            "before_s": probes[0],
            "after_s": probes[-1],
            "median_s": statistics.median(probes),
        },
        "raw": {
            "setup_s": statistics.median(raw for raw, _ in setups),
            "op_p50_s": statistics.median(op["raw_s"] for op in done if not op["traced"]) if untraced else None,
        },
        # Reported where a run holds enough ops for ten beyond it.
        "op_p90_s": statistics.quantiles(untraced, n=10)[-1] if len(untraced) >= 100 else None,
        "properties": shares,
        # Outputs of set-up and of op 0, whose inputs depend on the seed alone.
        "digest": hashlib.sha256(f"{workload.setup_digest}{digests[0]}".encode()).hexdigest(),
        "setups": setups,
        "ops": ops,
        "errors": errors,
        "result": {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": metrics,
        },
    }
    stem = out_dir / f"{name}-s{seed}-t{int(trace)}"
    if trace:
        report["span_totals"] = tracer.aggregate(scales)
        report["counters"] = tracer.counter_totals()
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(tracer.to_json()))
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1))
    return report


def print_report(report: dict) -> None:
    result = report["result"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"ops={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    if report["op_p90_s"] is not None:
        print(f"{'op_p90_s':48s} {report['op_p90_s']:.6g} s (n={result['attempted']})")
    for error in report["errors"][:20]:
        print(f"# error: {error}")
    print("# raw host time " + json.dumps(report["raw"]))
    print("# fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))
    print("# speed probe " + json.dumps(report["probe"]))
    print("# properties " + json.dumps(report["properties"], sort_keys=True))
    print(f"# digest {report['digest']}")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    pin_blas_threads()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print_report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
