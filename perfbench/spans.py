"""Outside-in layer trace for the host wall-clock benchmark.

The program under test (``src/repro``) is treated as a black box: each
layer is timed by wrapping that layer's public entry points from the
outside, and only while a :class:`LayerTrace` is installed.  Nothing in
``repro`` knows it is being traced.

Three kinds of wrapper are used:

* **span** — records a span (layer, parent, start, end) in memory.  A
  span's self time is its duration minus the durations of its child
  spans and leaves, so the self times of all layers add up exactly to
  the duration of the root spans the harness opens around each
  operation.
* **leaf** — for hot bookkeeping calls (cost-model evaluations, tracer
  charges, phantom-array construction).  A leaf has no children; its
  duration is folded into its parent span (count and seconds) instead
  of storing one record per call, which bounds the trace's memory.
* **count** — counts without timing (``CommStats.record``: the modeled
  bytes of every collective).

Wrappers record only inside a root span and only on the thread that
opened it, so set-up work outside the measured operations and calls from
worker threads are never attributed.  An *opaque* span (the
autotuner) swallows everything nested in it: the tuner's phantom dry
runs are tuning time, not filter or HEMM time.

:meth:`LayerTrace.install` patches every module attribute and class
attribute that holds one of the targeted functions (modules bind
functions by ``from x import f``, so the defining module is not the
only place a call is looked up); :meth:`LayerTrace.uninstall` puts the
originals back and :meth:`LayerTrace.assert_restored` proves it.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import sys
import threading
import time

_perf = time.perf_counter


class Span:
    __slots__ = ("layer", "parent", "t0", "t1", "child_s")

    def __init__(self, layer: str, parent: int) -> None:
        self.layer = layer
        self.parent = parent
        self.t0 = 0.0
        self.t1 = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.t1 - self.t0 - self.child_s


def _cfactor(dtype) -> int:
    """Real flops per complex multiply-add relative to real (4 or 1)."""
    return 4 if getattr(dtype, "kind", "f") == "c" else 1


def _gemm_flops(A, op_a, out) -> float:
    """Flops of ``op(A) @ B`` from the operand and the result it produced."""
    shape = getattr(out, "shape", None)
    if shape is None or type(out).__name__ == "PhantomArray":
        return 0.0
    k = A.shape[1] if op_a == "N" else A.shape[0]
    return 2.0 * k * out.size * _cfactor(out.dtype)


class LayerTrace:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.leaf_s: collections.Counter = collections.Counter()
        self.leaf_calls: collections.Counter = collections.Counter()
        #: named counters filled by the wrappers' hooks
        self.counts: collections.Counter = collections.Counter()
        self._opaque = 0
        self._in_leaf = False
        self._tid = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self._restored: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    @contextlib.contextmanager
    def root(self, layer: str):
        """Open a root span around one operation."""
        if self.stack:
            raise RuntimeError("root spans do not nest")
        sp = self._open(layer)
        try:
            yield sp
        finally:
            self._close(sp)

    def _open(self, layer: str) -> Span:
        stack = self.stack
        sp = Span(layer, stack[-1] if stack else -1)
        stack.append(len(self.spans))
        self.spans.append(sp)
        sp.t0 = _perf()
        return sp

    def _close(self, sp: Span) -> None:
        sp.t1 = _perf()
        stack = self.stack
        stack.pop()
        if stack:
            self.spans[stack[-1]].child_s += sp.t1 - sp.t0

    def outermost(self, sp: Span) -> bool:
        """True unless ``sp`` is nested directly in a span of its own layer."""
        return sp.parent < 0 or self.spans[sp.parent].layer != sp.layer

    # ------------------------------------------------------------ wrappers
    def _span_wrapper(self, layer, fn, before=None, after=None, opaque=False):
        tr = self

        def wrapper(*a, **k):
            if not tr.stack or tr._opaque or tr._in_leaf \
                    or threading.get_ident() != tr._tid:
                return fn(*a, **k)
            ctx = before(a, k) if before is not None else None
            sp = tr._open(layer)
            if opaque:
                tr._opaque += 1
            try:
                out = fn(*a, **k)
            finally:
                if opaque:
                    tr._opaque -= 1
                tr._close(sp)
            if after is not None:
                after(tr, sp, a, k, out, ctx)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, name, fn, after=None):
        tr = self

        def wrapper(*a, **k):
            if not tr.stack or tr._opaque or tr._in_leaf \
                    or threading.get_ident() != tr._tid:
                return fn(*a, **k)
            tr._in_leaf = True
            t0 = _perf()
            try:
                out = fn(*a, **k)
            finally:
                dt = _perf() - t0
                tr._in_leaf = False
                tr.leaf_s[name] += dt
                tr.leaf_calls[name] += 1
                tr.spans[tr.stack[-1]].child_s += dt
            if after is not None:
                after(tr, a, k, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, after):
        tr = self

        def wrapper(*a, **k):
            out = fn(*a, **k)
            if tr.stack and not tr._opaque \
                    and threading.get_ident() == tr._tid:
                after(tr, a, k, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        """Wrap every entry point of :data:`TARGETS`."""
        if self._patches:
            raise RuntimeError("trace already installed")
        for t in TARGETS:
            owner, attr, orig = _resolve(t.where)
            if t.kind == "span":
                w = self._span_wrapper(t.layer, orig, t.before, t.after,
                                       t.opaque)
            elif t.kind == "leaf":
                w = self._leaf_wrapper(t.layer, orig, t.after)
            else:
                w = self._count_wrapper(orig, t.after)
            if isinstance(owner, type):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, w)
            else:
                # every module that bound the function by name
                for mod in list(sys.modules.values()):
                    d = getattr(mod, "__dict__", None)
                    if d is None or not _ours(getattr(mod, "__name__", "")):
                        continue
                    for name, val in list(d.items()):
                        if val is orig:
                            self._patches.append((mod, name, orig))
                            setattr(mod, name, w)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._restored, self._patches = self._patches, []

    def assert_restored(self) -> None:
        """Every patched attribute holds its original function again."""
        if not self._restored:
            raise AssertionError("nothing was patched")
        for owner, attr, orig in self._restored:
            cur = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if cur is not orig:
                raise AssertionError(f"{owner!r}.{attr} still wrapped")

    # ------------------------------------------------------------ results
    def layer_self(self) -> collections.Counter:
        """Self seconds per layer (spans and leaves)."""
        out: collections.Counter = collections.Counter()
        for sp in self.spans:
            out[sp.layer] += sp.self_s
        for name, s in self.leaf_s.items():
            out[name] += s
        return out

    def layer_calls(self) -> collections.Counter:
        """Outermost calls per layer (a call nested in its own layer,
        e.g. ``LocalKernels.hemm`` -> ``gemm``, counts once)."""
        out: collections.Counter = collections.Counter(
            sp.layer for sp in self.spans if self.outermost(sp))
        out.update(self.leaf_calls)
        return out

    def root_seconds(self) -> float:
        return sum(sp.duration for sp in self.spans if sp.parent < 0)


def _ours(modname: str) -> bool:
    return modname == "repro" or modname.startswith(("repro.", "benchmarks"))


def _resolve(where: str):
    """``"pkg.mod:func"`` or ``"pkg.mod:Class.method"`` -> (owner, attr, fn)."""
    modname, qual = where.split(":")
    mod = importlib.import_module(modname)
    if "." in qual:
        cls_name, attr = qual.split(".")
        owner = getattr(mod, cls_name)
        return owner, attr, owner.__dict__[attr]
    return mod, qual, getattr(mod, qual)


# ----------------------------------------------------------------- hooks
def _mv_before(a, k):
    return a[0].matvecs


def _solver_after(tr, sp, a, k, out, ctx):
    tr.counts["solver.iterations"] += out.iterations
    tr.counts["solver.matvecs"] += out.matvecs


def _hemm_after(tr, sp, a, k, out, ctx):
    if not tr.outermost(sp):
        return
    hemm = a[0]
    width = hemm.matvecs - ctx
    tr.counts["hemm.cols"] += width
    if type(out.local(0, 0)).__name__ != "PhantomArray":
        N = hemm.H.N
        tr.counts["hemm.flops"] += 2.0 * N * N * width * _cfactor(out.dtype)
        tr.counts["hemm.numeric_s"] += sp.duration


def _filter_after(tr, sp, a, k, out, ctx):
    tr.counts["filter.matvecs"] += int(out)


def _lanczos_after(tr, sp, a, k, out, ctx):
    tr.counts["lanczos.matvecs"] += a[0].matvecs - ctx


def _shifted_after(tr, sp, a, k, out, ctx):
    tr.counts["qr.shifted"] += 1


def _gemm_hook(flops_of):
    def after(tr, sp, a, k, out, ctx):
        if not tr.outermost(sp):
            return
        f = flops_of(a, k, out)
        if f:
            tr.counts["kernels.gemm.flops"] += f
            tr.counts["kernels.gemm.numeric_s"] += sp.duration
    return after


def _lk_gemm_flops(a, k, out):
    # LocalKernels.gemm/hemm(self, A, B, *, op_a / op_h, ...)
    op = k.get("op_a", k.get("op_h", "N"))
    return _gemm_flops(a[1], op, out)


def _numeric_gemm_flops(a, k, out):
    # gemm_numeric(A, B, *, op_a, alpha, out)
    return _gemm_flops(a[0], k.get("op_a", "N"), out)


def _panel_cb_flops(a, k, out):
    # panel_cb_numeric(P, Xfull, ...): out = P^T X
    return 2.0 * a[0].shape[0] * out.size * _cfactor(out.dtype)


def _panel_bc_flops(a, k, out):
    # panel_bc_numeric(P, Bstack, ...): out = P @ Bstack
    return 2.0 * a[0].shape[1] * out.size * _cfactor(out.dtype)


def _block_flops(a, k, out):
    # block_numeric(Hop, trans, Xfull, ...): out = op(Hop) @ X
    Hop, trans = a[0], a[1]
    kdim = Hop.shape[0] if trans else Hop.shape[1]
    return 2.0 * kdim * out.size * _cfactor(out.dtype)


def _model_time_after(tr, a, k, out):
    # KernelTimeModel.time(self, kind, flops, bytes_touched=0.0, dtype=None)
    kind = a[1] if len(a) > 1 else k.get("kind")
    if kind == "blas1":
        nbytes = a[3] if len(a) > 3 else k.get("bytes_touched", 0.0)
        tr.counts["kernels.blas1.bytes"] += nbytes


def _commstats_after(tr, a, k, out):
    # CommStats.record(self, nbytes, p, messages, charge=None): the
    # bytes_moved counter accumulates nbytes * p
    nbytes = a[1] if len(a) > 1 else k["nbytes"]
    p = a[2] if len(a) > 2 else k["p"]
    tr.counts["comm.bytes"] += nbytes * p


def _warm_get_after(tr, sp, a, k, out, ctx):
    tr.counts["warmstart.gets"] += 1
    if out[0] is not None:
        tr.counts["warmstart.hits"] += 1


class Target:
    __slots__ = ("where", "layer", "kind", "before", "after", "opaque")

    def __init__(self, where, layer, kind="span", before=None, after=None,
                 opaque=False) -> None:
        self.where = where
        self.layer = layer
        self.kind = kind
        self.before = before
        self.after = after
        self.opaque = opaque


_LK = "repro.runtime.device:LocalKernels."
_COMM = "repro.runtime.communicator:Communicator."

#: every wrapped entry point, by layer
TARGETS: list[Target] = [
    # core.chase
    Target("repro.core.chase:ChaseSolver.solve", "solver", after=_solver_after),
    Target("repro.core.chase:ChaseSolver.solve_phantom", "solver",
           after=_solver_after),
    # distributed.hemm
    Target("repro.distributed.hemm:DistributedHemm.apply", "hemm",
           before=_mv_before, after=_hemm_after),
    # core.filter / core.lanczos
    Target("repro.core.filter:chebyshev_filter", "filter", after=_filter_after),
    Target("repro.core.lanczos:lanczos_bounds", "lanczos",
           before=_mv_before, after=_lanczos_after),
    Target("repro.core.lanczos:lanczos_ritz", "lanczos",
           before=_mv_before, after=_lanczos_after),
    # core.qr: the entry points ChaseSolver calls
    Target("repro.core.qr:caqr_1d", "qr"),
    Target("repro.core.qr:cholesky_qr", "qr"),
    Target("repro.core.qr:shifted_cholesky_qr2", "qr", after=_shifted_after),
    Target("repro.core.qr:mixed_cholesky_qr2", "qr"),
    Target("repro.baselines.scalapack_qr:hhqr_1d", "qr"),
    # core.rayleigh_ritz / core.residuals / distributed.redistribute
    Target("repro.core.rayleigh_ritz:rayleigh_ritz", "rr"),
    Target("repro.core.residuals:residuals", "resid"),
    Target("repro.distributed.redistribute:redistribute_c_to_b", "redistribute"),
    Target("repro.distributed.redistribute:redistribute_b_to_c", "redistribute"),
    # runtime.device: charged kernels and their numeric cores
    Target(_LK + "gemm", "kernels.gemm", after=_gemm_hook(_lk_gemm_flops)),
    Target(_LK + "hemm", "kernels.gemm", after=_gemm_hook(_lk_gemm_flops)),
    Target("repro.runtime.device:gemm_numeric", "kernels.gemm",
           after=_gemm_hook(_numeric_gemm_flops)),
    Target("repro.distributed.hemm:panel_cb_numeric", "kernels.gemm",
           after=_gemm_hook(_panel_cb_flops)),
    Target("repro.distributed.hemm:panel_bc_numeric", "kernels.gemm",
           after=_gemm_hook(_panel_bc_flops)),
    Target("repro.distributed.hemm:block_numeric", "kernels.gemm",
           after=_gemm_hook(_block_flops)),
    *[Target(_LK + m, "kernels.lapack")
      for m in ("syrk", "trsm", "potrf", "qr", "eigh")],
    Target("repro.runtime.device:syrk_numeric", "kernels.lapack"),
    Target("repro.runtime.device:trsm_numeric", "kernels.lapack"),
    *[Target(_LK + m, "kernels.blas1")
      for m in ("cast", "axpby", "axpy_into", "scale", "scale_columns",
                "sub_scaled_columns", "colnorms_sq", "dot_columns",
                "frob_norm_sq", "add_diag")],
    Target("repro.runtime.device:axpby_numeric", "kernels.blas1"),
    Target("repro.runtime.device:axpy_into_numeric", "kernels.blas1"),
    # runtime.communicator
    *[Target(_COMM + m, "comm")
      for m in ("allreduce", "bcast", "iallreduce", "ibcast", "allgather",
                "allgather_by_bcasts", "barrier", "charge_collective",
                "stage_all")],
    Target("repro.runtime.communicator:CollectiveRequest.wait", "comm.wait"),
    Target("repro.runtime.communicator:CommStats.record", "comm.bytes",
           kind="count", after=_commstats_after),
    # model bookkeeping (leaves)
    Target("repro.perfmodel.collectives:collective_cost", "model.collective_cost",
           kind="leaf"),
    Target("repro.perfmodel.kernels:KernelTimeModel.time", "model.kernel_time",
           kind="leaf", after=_model_time_after),
    Target("repro.runtime.tracer:Tracer.add", "model.tracer_add", kind="leaf"),
    Target("repro.arrays.phantom:PhantomArray.__init__", "model.phantom",
           kind="leaf"),
    # perfmodel.autotune / service
    Target("repro.perfmodel.autotune:autotune", "tune", opaque=True),
    Target("repro.service.warmstart:WarmStartCache.get", "warmstart",
           after=_warm_get_after),
    Target("repro.service.warmstart:WarmStartCache.put", "warmstart"),
    Target("repro.service.service:EigenService.run", "service"),
]

MODEL_LEAVES = ("model.collective_cost", "model.kernel_time",
                "model.tracer_add", "model.phantom")
