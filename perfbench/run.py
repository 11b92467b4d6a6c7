"""Host wall-clock benchmark of the ChASE reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Workloads (``perfbench/workloads.py``): ``dense_cold`` and
``service_mix``, declared in ``BENCHMARK.json``, and ``paper_replay``.
One process runs one workload, one operation at a time, with every BLAS
pool pinned to one thread.  ``--seconds`` sets how many operations a
run makes (``--seconds`` over the workload's nominal operation time),
so a seed always names the same operations.

``--trace 0`` measures the end-to-end metrics with no wrapper
installed: ``op_s`` (median host seconds per operation), ``setup_s``
(median ``import repro`` time in fresh interpreters plus the median
time to build the cluster, grid, distributed matrix and solver or
service) and ``peak_rss_mb``.

``--trace 1`` runs each operation untraced and then again with the
outside-in layer trace of ``perfbench/spans.py`` installed (and removed
before the next operation), and prints per-operation layer metrics.

Every operation is checked against an oracle outside the timed region
(``numpy.linalg.eigvalsh`` for solves and jobs, the trace's MatVec total
for replay points); a raise, a non-converged result or an oracle miss
counts in ``failed``.  ``correct`` is false on any failure other than
the program's known skipped-eigenvalue defect, or when that defect hits
more than the workload's ``skip_limit`` share of operations.  The host
fingerprint and each metric's samples (count, median, quartiles) are
printed as one JSON line before the result, which is the last line of
standard output.
"""

from __future__ import annotations

import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostinfo  # noqa: E402  (stdlib only; numpy is not loaded yet)

hostinfo.pin_env(os.environ)

import argparse  # noqa: E402
import json  # noqa: E402

#: ``import repro`` samples per untraced run
IMPORT_REPEATS = 5


def _program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file() \
        and (ROOT / "benchmarks" / "_common.py").is_file()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="run length; sets the number of operations")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="tiny-size harness self-check (exit 1 on failure)")
    args = ap.parse_args(argv)
    if not _program_present():
        print(f"program sources not found under {ROOT}", file=sys.stderr)
        return 2
    for p in (str(SRC), str(ROOT)):
        sys.path.insert(0, p)

    if args.self_check:
        import selfcheck

        return selfcheck.main()

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    limit_s = harness.OVERRUN * args.seconds
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": hostinfo.fingerprint()}

    if args.trace:
        from spans import LayerTrace

        m, k, n, dtype = wl.gemm_shape()
        host_gflops = hostinfo.gemm_gflops(m, k, n, dtype)
        tr = LayerTrace()
        # a pair is an untraced and a traced operation, the latter slower
        # by the tracing overhead
        n_pairs = harness.op_count(wl, args.seconds, per_op=2.2)
        untraced, traced = harness.measure_traced(wl, args.seed, n_pairs, tr,
                                                  limit_s=limit_s)
        values = harness.per_layer(tr, traced, untraced, host_gflops)
        units, records = harness.PER_LAYER, untraced + traced
        detail["gemm_shape"] = [m, k, n, str(dtype.__name__)]
        detail["samples"] = {
            "untraced_op_s": hostinfo.summary([r.op_s for r in untraced]),
            "traced_op_s": hostinfo.summary([r.op_s for r in traced])}
    else:
        import_s = hostinfo.import_seconds(str(SRC), IMPORT_REPEATS)
        records = harness.measure(wl, args.seed,
                                  harness.op_count(wl, args.seconds),
                                  limit_s=limit_s)
        values, detail["samples"] = harness.end_to_end(records, import_s)
        units = harness.END_TO_END
    detail["failures"] = [f for r in records for f in r.failures][:20]
    print(json.dumps(detail))
    print(json.dumps(harness.result_line(values, units, records,
                                         wl.skip_limit)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
