"""In-memory spans around the calls into padmm's layers.

A span is a name, a start, an end and the index of its parent span.
The solve is single-threaded, so spans nest strictly and a stack gives
each new span its parent.  Spans stay in memory until the benchmark
writes them out.

Tracing wraps only what the solvers are handed or look up at call time:
the ``SeparableOperator`` (and the ``LinearMap`` Jacobians it builds),
the ``ProxOp`` children of ``prox_j``, the solver's ``step`` method, and
the module-level names ``estimate_opnorm``, ``grad``, ``grad_adjoint``,
``dft2``, ``idft2`` and ``conjugate_apply`` as their calling modules see
them, plus the ``BlockVector`` arithmetic methods.  :func:`layers`
installs the name patches and always restores them; :func:`pristine`
checks that an untraced solve sees the package's own objects.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace

import padmm.admm
import padmm.mri
import padmm.opnorm
import padmm.pdhgm
import padmm.prox
from padmm.blocks import BlockVector
from padmm.constraint import LinearMap
from padmm.fields import dft2, grad, grad_adjoint, idft2
from padmm.pdhgm import SeparableOperator
from padmm.prox import (FourierFidelityProx, GlobalShrinkProx,
                        GroupShrinkProx, ProxOp, SeparableSumProx,
                        conjugate_apply)


class Tracer:
    """Span and counter store for one traced solve or set-up."""

    def __init__(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.counters = defaultdict(int)
        self._stack = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def counts(self):
        """Span calls per name, and the counters; repeat for equal solves."""
        calls = defaultdict(int)
        for name in self.names:
            calls[name] += 1
        return dict(calls), dict(self.counters)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        selfs = self_times(self.starts, self.ends, self.parents)
        for name, s, e, own in zip(self.names, self.starts, self.ends, selfs):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += e - s
            row["self_s"] += own
        return dict(out)

    def write(self, path, meta: dict):
        """Write the spans, as [name, start, end, parent] rows, gzipped."""
        rows = [[n, s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        with gzip.open(path, "wt") as fh:
            json.dump({**meta, "counters": dict(self.counters),
                       "spans": rows}, fh)


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the part its direct children cover.

    Children are clipped to their parent and overlapping children are
    merged, so covered time is never counted twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        run_s = run_e = None
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if run_e is None or cs > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = cs, ce
            else:
                run_e = max(run_e, ce)
        if run_e is not None:
            covered += run_e - run_s
        out.append(e - s - covered)
    return out


# --- what the traced run patches -------------------------------------------

FIELD_NAMES = (
    (padmm.mri, "grad", "fields.grad"),
    (padmm.mri, "grad_adjoint", "fields.grad_adjoint"),
    (padmm.prox, "dft2", "fields.dft2"),
    (padmm.prox, "idft2", "fields.idft2"),
)
OPNORM_NAMES = ((padmm.admm, "estimate_opnorm"),
                (padmm.pdhgm, "estimate_opnorm"))
BLOCK_METHODS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__",
                 "inner", "norm", "isfinite", "copy")
PROX_NAMES = {FourierFidelityProx: "prox.fidelity",
              GroupShrinkProx: "prox.group_shrink",
              GlobalShrinkProx: "prox.global_shrink"}

# the package's own objects, against which :func:`pristine` checks
_ORIGINAL = {
    (padmm.mri, "grad"): grad,
    (padmm.mri, "grad_adjoint"): grad_adjoint,
    (padmm.prox, "dft2"): dft2,
    (padmm.prox, "idft2"): idft2,
    (padmm.admm, "estimate_opnorm"): padmm.opnorm.estimate_opnorm,
    (padmm.pdhgm, "estimate_opnorm"): padmm.opnorm.estimate_opnorm,
    (padmm.pdhgm, "conjugate_apply"): conjugate_apply,
    **{(BlockVector, m): vars(BlockVector)[m] for m in BLOCK_METHODS},
}


def pristine() -> list:
    """Names that do not hold the package's own object (empty when clean)."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr), fn in _ORIGINAL.items()
            if vars(owner)[attr] is not fn]


def _field_kernel(tracer: Tracer, fn, name: str):
    """Span plus bytes read and written, computed from array sizes."""
    @functools.wraps(fn)
    def traced(a):
        idx = tracer.begin(name)
        try:
            out = fn(a)
        finally:
            tracer.end(idx)
        tracer.counters["fields.bytes_computed"] += a.nbytes + out.nbytes
        return out
    return traced


def _opnorm(tracer: Tracer, fn):
    """Span plus power steps, converged and budget-capped calls."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin("opnorm")
        try:
            est = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        c = tracer.counters
        c["opnorm.power_steps"] += est.iterations
        c["opnorm.converged"] += int(est.converged)
        c["opnorm.capped_calls"] += int(
            not est.converged and est.iterations >= bound.arguments["max_iter"])
        return est
    return traced


@contextmanager
def layers(tracer: Tracer):
    """Patch the module-level names for one traced solve, then restore."""
    patches = [(owner, attr, _field_kernel(tracer, _ORIGINAL[owner, attr], name))
               for owner, attr, name in FIELD_NAMES]
    patches += [(owner, attr, _opnorm(tracer, _ORIGINAL[owner, attr]))
                for owner, attr in OPNORM_NAMES]
    patches.append((padmm.pdhgm, "conjugate_apply",
                    tracer.wrap(conjugate_apply, "prox.conjugate")))
    patches += [(BlockVector, m, tracer.wrap(_ORIGINAL[BlockVector, m], "blocks"))
                for m in BLOCK_METHODS]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield
    finally:
        for (owner, attr), fn in _ORIGINAL.items():
            setattr(owner, attr, fn)


class TracedOperator(SeparableOperator):
    """G(u) whose evaluations, Jacobian builds and Jacobians are traced."""

    def __init__(self, inner: SeparableOperator, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def evaluate(self, u):
        with self.tracer.span("mri.evaluate"):
            return self.inner.evaluate(u)

    def jac(self, u):
        with self.tracer.span("mri.jac_build"):
            lm = self.inner.jac(u)
        return LinearMap(apply=self.tracer.wrap(lm.apply, "mri.jac_apply"),
                         adjoint=self.tracer.wrap(lm.adjoint, "mri.jac_adjoint"),
                         domain_shapes=lm.domain_shapes,
                         codomain_shapes=lm.codomain_shapes)


class TracedProx(ProxOp):
    def __init__(self, inner: ProxOp, name: str, tracer: Tracer):
        self.inner = inner
        self.apply = tracer.wrap(inner.apply, name)

    def penalty(self, x):
        return self.inner.penalty(x)


def traced_problem(problem, tracer: Tracer):
    """The solver input with its operator and prox children traced."""
    children = [TracedProx(c, PROX_NAMES[type(c)], tracer)
                for c in problem.prox_j.children]
    return replace(problem, g=TracedOperator(problem.g, tracer),
                   prox_j=SeparableSumProx(children))
