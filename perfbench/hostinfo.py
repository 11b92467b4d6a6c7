"""Host fingerprint, same-run GEMM probe, import-time probe and peak RSS."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time

#: BLAS/OpenMP pool size the benchmark pins before numpy is imported
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


def pin_env(env: dict) -> None:
    """Fix every BLAS pool at :data:`BLAS_THREADS`, turn off numpy's huge
    page hint and drop the program's ``REPRO_*`` switches, so each run
    uses the default execution tier."""
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    # whether the kernel grants a huge page, or later collapses small ones
    # into one, depends on the host's free memory at that moment: with
    # the hint on, the same operations' peak RSS varied by tens of MB
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    for var in [v for v in env if v.startswith("REPRO_")]:
        del env[var]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_bytes() -> int:
    """Last-level cache size from sysfs (``"107520K"``), else sysconf."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size",
                  encoding="utf-8") as fh:
            text = fh.read().strip()
        return int(text[:-1]) * units[text[-1]] if text[-1] in units \
            else int(text)
    except (OSError, ValueError, IndexError):
        pass
    try:
        return max(0, int(os.sysconf("SC_LEVEL3_CACHE_SIZE")))
    except (ValueError, OSError):
        return 0


def _blas_info() -> dict:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return {"name": blas.get("name", "unknown"),
                "version": blas.get("version", "unknown")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _madvise_hugepage() -> bool | None:
    try:
        from numpy._core.multiarray import _get_madvise_hugepage
    except ImportError:
        return None
    return bool(_get_madvise_hugepage())


def fingerprint() -> dict:
    """Everything a reader needs to place a result on a host."""
    import numpy as np
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "cores": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "blas": _blas_info(),
        "blas_threads": BLAS_THREADS,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV[:3]},
        "numpy_madvise_hugepage": _madvise_hugepage(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def gemm_gflops(m: int, k: int, n: int, dtype, repeats: int = 7) -> float:
    """Best-of-``repeats`` GFLOP/s of an ``(m x k) @ (k x n)`` GEMM into a
    preallocated output — the host rate the HEMM block shape can reach."""
    import numpy as np

    rng = np.random.default_rng(0)
    dtype = np.dtype(dtype)
    A = rng.standard_normal((m, k)).astype(dtype)
    B = rng.standard_normal((k, n)).astype(dtype)
    out = np.empty((m, n), dtype=dtype)
    flops = 2.0 * m * n * k * (4 if dtype.kind == "c" else 1)
    # enough inner calls that one sample lasts about 20 ms
    np.matmul(A, B, out=out)
    t0 = time.perf_counter()
    np.matmul(A, B, out=out)
    inner = max(1, int(0.02 / max(time.perf_counter() - t0, 1e-6)))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            np.matmul(A, B, out=out)
        best = min(best, (time.perf_counter() - t0) / inner)
    return flops / best / 1e9


_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import repro\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def import_seconds(src: str, repeats: int) -> list[float]:
    """Seconds to ``import repro`` (numpy and scipy included) in fresh
    interpreters, after one untimed import that fills the bytecode cache."""
    env = dict(os.environ)
    pin_env(env)
    out = []
    for i in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, src],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (10^6 bytes)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib * 1024 / 1e6


def summary(values: list[float]) -> dict:
    """Median with its sample count, quartiles and range."""
    vals = sorted(values)
    n = len(vals)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"n": n, "median": statistics.median(vals), "q1": q1, "q3": q3,
            "min": vals[0], "max": vals[-1]}
