"""Harness self-check at tiny sizes: ``python3 perfbench/run.py --self-check``.

Asserts that

1. every metric the harness prints is declared by name, with the same
   unit, in ``BENCHMARK.json`` (and every declared metric is printed);
2. two traced passes over the same inputs give exactly the same counts
   (``*.calls``, ``*.matvecs``, ``comm.bytes``, ``solver.iterations``),
   and the same failures and model outputs as the untraced pass, so the
   wrappers change no result;
3. the layer self times add up to the root spans' durations;
4. after the wrappers are removed every patched attribute holds its
   original function, and an operation then records no span;
5. the oracle flags the known miss: the N=1200 Uniform matrix of seed 6,
   solved with nev=120, nex=40 on the 2x4 NCCL grid from solve seed 7,
   returns ``converged=True`` with two eigenvalues off by ~5e-3.  The
   verdict is compared with the matrix's prescribed spectrum, and a
   result with one skipped eigenvalue must be flagged, so the check
   stays valid once the solver stops missing;
6. the result line's ``correct`` follows the oracle: it is false for a
   single inaccurate eigenvalue, and for skipped eigenvalues in more
   than the workload's ``skip_limit`` share of operations.

Exits 1 with the failing assertion on stderr, 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import sys

import numpy as np

import harness
from spans import LayerTrace
from workloads import SKIPPED, WORKLOADS, DenseCold, DenseProblem

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _declared() -> tuple[dict, dict]:
    spec = json.loads(SPEC.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise AssertionError(msg)


def _check_declared(printed: dict, declared: dict, what: str) -> None:
    for name, m in printed.items():
        _require(name in declared,
                 f"{what}: {name} is not in BENCHMARK.json")
        _require(m["unit"] == declared[name],
                 f"{what}: {name} printed in {m['unit']}, declared {declared[name]}")
        _require(math.isfinite(m["value"]),
                 f"{what}: {name} = {m['value']}")
    missing = sorted(set(declared) - set(printed))
    _require(not missing,
             f"{what}: declared but not printed: {missing}")


def _traced(wl, seed: int, n_ops: int):
    tr = LayerTrace()
    tr.install()
    try:
        recs = harness.measure(wl, seed, n_ops, trace=tr)
    finally:
        tr.uninstall()
    tr.assert_restored()
    return tr, recs


def check_workload(name: str, e2e_units: dict, layer_units: dict) -> None:
    wl = WORKLOADS[name](tiny=True)
    seed, n_ops = 3, 2

    untraced = harness.measure(wl, seed, n_ops)
    values, _ = harness.end_to_end(untraced, [0.5])
    line = harness.result_line(values, harness.END_TO_END, untraced,
                               wl.skip_limit)
    _check_declared(line["metrics"], e2e_units, f"{name} --trace 0")

    tr1, recs1 = _traced(wl, seed, n_ops)
    tr2, recs2 = _traced(wl, seed, n_ops)
    m1 = harness.per_layer(tr1, recs1, untraced, 1.0)
    m2 = harness.per_layer(tr2, recs2, untraced, 1.0)
    line = harness.result_line(m1, harness.PER_LAYER, untraced + recs1,
                               wl.skip_limit)
    _check_declared(line["metrics"], layer_units, f"{name} --trace 1")
    for recs in (recs1, recs2):
        _require([r.failures for r in recs] == [r.failures for r in untraced],
                 f"{name}: tracing changed the failures")
        _require([r.model for r in recs] == [r.model for r in untraced],
                 f"{name}: tracing changed the model outputs")
    for key in harness.EXACT_COUNTS:
        _require(m1[key] == m2[key],
                 f"{name}: {key} {m1[key]} != {m2[key]}")

    total = sum(tr1.layer_self().values())
    root = tr1.root_seconds()
    _require(abs(total - root) <= 1e-9 * max(1.0, root),
             f"{name}: self times sum to {total}, roots last {root}")

    # wrappers gone: the next operation runs the original functions
    before = (len(tr1.spans), sum(tr1.leaf_calls.values()), dict(tr1.counts))
    harness.measure(wl, seed, 1, trace=tr1)
    after = (len(tr1.spans), sum(tr1.leaf_calls.values()), dict(tr1.counts))
    _require(after == (before[0] + 1, before[1], before[2]),
             f"{name}: an untraced operation still recorded spans")
    print(f"self-check {name}: ok ({m1['solver.iterations']:g} iterations/op,"
          f" {m1['comm.calls']:g} collectives/op)")


def check_known_miss() -> None:
    from repro.matrices import uniform_matrix

    wl = DenseCold()
    inp = DenseProblem(uniform_matrix(1200, rng=np.random.default_rng(6)), 7)
    res = wl.op(wl.setup(inp), inp)
    _, failures = wl.check(inp, res)
    # the matrix's prescribed spectrum is an independent oracle
    exact = np.linspace(-1.0, 1.0, wl.N)[: wl.nev]
    wrong = np.max(np.abs(np.sort(res.eigenvalues) - exact)) > 1e-8
    _require(bool(failures) == wrong,
             f"oracle verdict {failures} disagrees with the exact spectrum")
    _require(all(f.startswith(SKIPPED) for f in failures),
             f"the known miss is not classed as skipped: {failures}")

    def verdict(eigenvalues):
        return wl.check(inp, dataclasses.replace(res, eigenvalues=eigenvalues))[1]

    # a converged result that skipped one eigenvalue must be flagged
    skipped = np.concatenate([exact[:60], exact[61:], exact[-1:] + 2 / 1199])
    _require([f[:len(SKIPPED)] for f in verdict(skipped)] == [SKIPPED],
             "the oracle did not flag a skipped eigenvalue as skipped")
    # ... and one inaccurate eigenvalue is a failure of another kind
    inexact = exact.copy()
    inexact[60] += 1e-6
    off = verdict(inexact)
    _require(off and not off[0].startswith(SKIPPED),
             f"an inaccurate eigenvalue was classed as {off}")

    def correct(failures):
        recs = [harness.OpRecord(0.1, 1.0, 1, f, None) for f in failures]
        return harness.result_line({"op_s": 1.0}, {"op_s": "s"}, recs,
                                   wl.skip_limit)["correct"]

    _require(correct([[], []]) and correct([verdict(skipped), []]),
             "correct is false for tolerated results")
    _require(not correct([off, []]), "correct ignored an inaccurate result")
    _require(not correct([verdict(skipped)] * 4),
             "correct ignored skips above the workload's limit")
    print("self-check known miss: " + (failures[0] if failures else
          "no longer reproduces; the oracle agrees with the exact spectrum"))


def main() -> int:
    e2e_units, layer_units = _declared()
    try:
        for name in WORKLOADS:
            check_workload(name, e2e_units, layer_units)
        check_known_miss()
    except AssertionError as err:
        print(f"self-check FAILED: {err}", file=sys.stderr)
        return 1
    print("self-check: all assertions hold")
    return 0
