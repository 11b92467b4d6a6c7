"""Measurement loop and metric assembly shared by ``run.py`` and the
self-check."""

from __future__ import annotations

import dataclasses
import gc
import math
import statistics
import time

import hostinfo
from spans import MODEL_LEAVES, LayerTrace
from workloads import SKIPPED

#: fewest operations (or traced pairs) a run measures
MIN_OPS = 3

#: a run stops early, whatever is left, once its operations have taken
#: this many times ``--seconds`` (a guard for a badly overloaded host)
OVERRUN = 3.0

#: name -> unit of every metric the benchmark prints.  Per-layer figures
#: are per operation; a layer's ``.s`` / ``.self_s`` is its self time
#: (span minus nested spans of other layers), so the layer seconds of an
#: operation add up to ``trace.self_sum_s``, its traced duration.
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "hemm.s": "s/op", "hemm.calls": "count/op", "hemm.cols": "count/op",
    "hemm.gflops": "GFLOP/s", "hemm.roofline_frac": "fraction",
    "filter.s": "s/op", "filter.matvecs": "count/op",
    "lanczos.s": "s/op", "lanczos.calls": "count/op",
    "lanczos.matvecs": "count/op",
    "qr.s": "s/op", "qr.calls": "count/op", "qr.shifted_frac": "fraction",
    "rr.s": "s/op", "resid.s": "s/op", "redistribute.s": "s/op",
    "solver.iterations": "count/op", "solver.matvecs": "count/op",
    "solver.self_s": "s/op",
    "kernels.gemm.s": "s/op", "kernels.gemm.calls": "count/op",
    "kernels.gemm.gflops": "GFLOP/s", "kernels.blas1.s": "s/op",
    "kernels.blas1.bytes": "B/op", "kernels.lapack.s": "s/op",
    "comm.s": "s/op", "comm.wait_s": "s/op", "comm.calls": "count/op",
    "comm.bytes": "B/op",
    "model.s": "s/op", "model.calls": "count/op", "model.share": "fraction",
    "phantom.arrays": "count/op",
    "tune.s": "s/op", "tune.calls": "count/op",
    "warmstart.s": "s/op", "warmstart.hit_frac": "fraction",
    "service.self_s": "s/op", "op.self_s": "s/op",
    "model.makespan_s": "model-s/op", "model.comm_s": "model-s/op",
    "trace.overhead_frac": "fraction", "trace.self_sum_s": "s/op",
    "host.gemm_gflops": "GFLOP/s", "failed_frac": "fraction",
}

#: per-layer counts that must repeat exactly for the same inputs
EXACT_COUNTS = ("hemm.calls", "hemm.cols", "filter.matvecs", "lanczos.calls",
                "lanczos.matvecs", "qr.calls", "solver.iterations",
                "solver.matvecs", "kernels.gemm.calls", "comm.calls",
                "comm.bytes", "model.calls", "phantom.arrays", "tune.calls")


@dataclasses.dataclass
class OpRecord:
    setup_s: float
    op_s: float
    attempted: int
    failures: list[str]
    model: tuple[float, float] | None


def run_op(wl, seed: int, k: int, trace: LayerTrace | None = None
           ) -> OpRecord:
    """Operation ``k`` of ``wl``: set up, run (inside a root span when
    ``trace`` is given), then check outside both timed regions."""
    inp = wl.inputs(seed, k)
    t0 = time.perf_counter()
    state = wl.setup(inp)
    t1 = time.perf_counter()
    try:
        if trace is not None:
            with trace.root("op"):
                out = wl.op(state, inp)
        else:
            out = wl.op(state, inp)
    except Exception as exc:  # a raised solve is a counted failure
        out = exc
    t2 = time.perf_counter()
    attempted, failures = wl.check(inp, out)
    model = None if isinstance(out, Exception) else wl.model(out)
    # free this operation's cyclic garbage outside the timed region, so
    # neither the next operation's time nor the peak RSS depends on when
    # the collector last ran
    del state, out
    gc.collect()
    return OpRecord(t1 - t0, t2 - t1, attempted, failures, model)


def op_count(wl, seconds: float, per_op: float = 1.0) -> int:
    """Operations in a run of ``seconds``: the count the workload's
    nominal operation time (times ``per_op``) fits in, at least
    :data:`MIN_OPS`.  It depends on ``seconds`` alone, never on how fast
    the host runs, so the same seed always runs the same operations and
    meets the same failures."""
    return max(MIN_OPS, round(seconds / (wl.nominal_op_s * per_op)))


def measure(wl, seed: int, n_ops: int, *, trace: LayerTrace | None = None,
            limit_s: float = math.inf) -> list[OpRecord]:
    """Run operations ``k = 0 .. n_ops-1`` of ``wl``, stopping early only
    once ``limit_s`` seconds have passed."""
    records: list[OpRecord] = []
    start = time.perf_counter()
    while len(records) < n_ops and time.perf_counter() - start < limit_s:
        records.append(run_op(wl, seed, len(records), trace))
    return records


def measure_traced(wl, seed: int, n_pairs: int, tr: LayerTrace, *,
                   limit_s: float = math.inf
                   ) -> tuple[list[OpRecord], list[OpRecord]]:
    """``n_pairs`` pairs (stopping early only once ``limit_s`` seconds
    have passed): operation ``k`` untraced, then again with ``tr``
    installed, which is removed (and checked removed) before the next
    pair.  Adjacent pairs see the same host conditions, so their time
    ratio is the tracing overhead."""
    untraced: list[OpRecord] = []
    traced: list[OpRecord] = []
    start = time.perf_counter()
    for k in range(n_pairs):
        if time.perf_counter() - start >= limit_s:
            break
        untraced.append(run_op(wl, seed, k))
        tr.install()
        try:
            traced.append(run_op(wl, seed, k, tr))
        finally:
            tr.uninstall()
        tr.assert_restored()
    return untraced, traced


def tally(records: list[OpRecord]) -> tuple[int, int]:
    return (sum(r.attempted for r in records),
            sum(len(r.failures) for r in records))


def end_to_end(records: list[OpRecord], import_s: list[float]
               ) -> tuple[dict, dict]:
    """The untraced run's metrics, and the samples behind each."""
    op = [r.op_s for r in records]
    build = [r.setup_s for r in records]
    setup = statistics.median(import_s) + statistics.median(build)
    values = {"op_s": statistics.median(op), "setup_s": setup,
              "peak_rss_mb": hostinfo.peak_rss_mb()}
    samples = {"op_s": hostinfo.summary(op),
               "setup_import_s": hostinfo.summary(import_s),
               "setup_build_s": hostinfo.summary(build)}
    return values, samples


def per_layer(tr: LayerTrace, traced: list[OpRecord],
              untraced: list[OpRecord], host_gflops: float) -> dict:
    """Per-operation layer metrics of a traced pass over ``len(traced)``
    operations; ``untraced`` ran the same operations without wrappers."""
    n = len(traced)
    selfs, calls, c = tr.layer_self(), tr.layer_calls(), tr.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def med(i):
        vals = [r.model[i] for r in traced if r.model is not None]
        return statistics.median(vals) if vals else 0.0

    hemm_gflops = ratio(c["hemm.flops"], c["hemm.numeric_s"]) / 1e9
    model_s = sum(selfs[m] for m in MODEL_LEAVES)
    attempted, failed = tally(traced + untraced)
    m = {
        "hemm.s": selfs["hemm"] / n,
        "hemm.calls": calls["hemm"] / n,
        "hemm.cols": c["hemm.cols"] / n,
        "hemm.gflops": hemm_gflops,
        "hemm.roofline_frac": ratio(hemm_gflops, host_gflops),
        "filter.s": selfs["filter"] / n,
        "filter.matvecs": c["filter.matvecs"] / n,
        "lanczos.s": selfs["lanczos"] / n,
        "lanczos.calls": calls["lanczos"] / n,
        "lanczos.matvecs": c["lanczos.matvecs"] / n,
        "qr.s": selfs["qr"] / n,
        "qr.calls": calls["qr"] / n,
        "qr.shifted_frac": ratio(c["qr.shifted"], calls["qr"]),
        "rr.s": selfs["rr"] / n,
        "resid.s": selfs["resid"] / n,
        "redistribute.s": selfs["redistribute"] / n,
        "solver.iterations": c["solver.iterations"] / n,
        "solver.matvecs": c["solver.matvecs"] / n,
        "solver.self_s": selfs["solver"] / n,
        "kernels.gemm.s": selfs["kernels.gemm"] / n,
        "kernels.gemm.calls": calls["kernels.gemm"] / n,
        "kernels.gemm.gflops":
            ratio(c["kernels.gemm.flops"], c["kernels.gemm.numeric_s"]) / 1e9,
        "kernels.blas1.s": selfs["kernels.blas1"] / n,
        "kernels.blas1.bytes": c["kernels.blas1.bytes"] / n,
        "kernels.lapack.s": selfs["kernels.lapack"] / n,
        "comm.s": selfs["comm"] / n,
        "comm.wait_s": selfs["comm.wait"] / n,
        "comm.calls": calls["comm"] / n,
        "comm.bytes": c["comm.bytes"] / n,
        "model.s": model_s / n,
        "model.calls": sum(calls[m] for m in MODEL_LEAVES) / n,
        "model.share": ratio(model_s, tr.root_seconds()),
        "phantom.arrays": calls["model.phantom"] / n,
        "tune.s": selfs["tune"] / n,
        "tune.calls": calls["tune"] / n,
        "warmstart.s": selfs["warmstart"] / n,
        "warmstart.hit_frac": ratio(c["warmstart.hits"], c["warmstart.gets"]),
        "service.self_s": selfs["service"] / n,
        "op.self_s": selfs["op"] / n,
        "model.makespan_s": med(0),
        "model.comm_s": med(1),
        "trace.overhead_frac": sum(r.op_s for r in traced)
        / sum(r.op_s for r in untraced) - 1.0,
        "trace.self_sum_s": sum(selfs.values()) / n,
        "host.gemm_gflops": host_gflops,
        "failed_frac": ratio(failed, attempted),
    }
    return m


def result_line(values: dict, units: dict, records: list[OpRecord],
                skip_limit: float) -> dict:
    """The benchmark's last output line.  ``correct`` holds when every
    metric is a finite number, no operation failed except by the known
    skipped-eigenvalue defect, and at most ``skip_limit`` of the
    attempted operations failed by it.  Every failure is counted in
    ``failed``."""
    attempted, failed = tally(records)
    skipped = sum(f.startswith(SKIPPED) for r in records for f in r.failures)
    finite = all(math.isfinite(v) for v in values.values())
    return {
        "correct": bool(records) and finite and failed == skipped
        and skipped <= skip_limit * attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
