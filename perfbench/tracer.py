"""Span recorder and run-time timing wrappers around dfrep's layers.

Nothing under ``src/`` is edited: :func:`install` replaces public functions
and backend methods with wrappers at run time.  A function is replaced in
its defining module and in every ``dfrep`` module that imported it with
``from .x import y``; a method is replaced on the class that defines it.

Every operation opens a trace (:meth:`Tracer.begin_op`).  Each wrapped call
records a span ``(trace_id, span_id, parent_id, name, t0, t1)``; spans are
kept in memory and written out by :meth:`Tracer.write`.  A span's self time
(its duration minus the child spans it covers) is added to the operation's
metric of that layer; counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _pair_evals(a, k, out):
    return len(a[1]) * len(a[2])


def _atom_count(a, k, out):
    return out[0].shape[0]


def _table_bytes(a, k, out):
    return out[0].shape[0] ** 2 * 16


def _eigs_kept(a, k, out):
    return len(out.signature)


def _eigs_dropped(a, k, out):
    return out.dim * out.dim - len(out.signature)


def _kron_terms(a, k, out):
    dec = a[0]
    return len(dec.x_family) + len(dec.y_family)


def _sweep_samples(a, k, out):
    return out.samples * len(out.dims)


def _parse_bytes(a, k, out):
    text = a[0] if a else k["text"]
    return len(text.encode("utf-8"))


def _one(a, k, out):
    return 1


_PAIR_TABLE_COUNTERS = (("functionals.pair_table_calls", _one), ("functionals.pair_evals", _pair_evals))

# (module, attribute, metric for the span's self time or None for a
# counter-only wrapper, counters as (name, fn(args, kwargs, result)) pairs).
# An attribute "Class.method" wraps a method.
TARGETS = (
    ("dfrep.cli", "main", "cli.main_s", ()),
    ("dfrep.cli", "run_command", "cli.command_self_s", ()),
    ("dfrep.cli", "_emit", "cli.emit_s", ()),
    ("dfrep.scenarios", "parse_scenario", "scenarios.parse_s", (("scenarios.parse_bytes", _parse_bytes),)),
    ("dfrep.scenarios", "Scenario.functional_at", "scenarios.functional_at_s", ()),
    ("dfrep.functionals", "DecoherenceFunctional.evaluate", "functionals.evaluate_s", (("functionals.evaluate_calls", _one),)),
    ("dfrep.functionals", "DecoherenceFunctional.pair_table", "functionals.pair_table_s", _PAIR_TABLE_COUNTERS),
    ("dfrep.functionals", "OperatorBackedFunctional.pair_table", "functionals.pair_table_s", _PAIR_TABLE_COUNTERS),
    ("dfrep.functionals", "PureStateFunctional.pair_table", "functionals.pair_table_s", _PAIR_TABLE_COUNTERS),
    ("dfrep.functionals", "FormBackedFunctional.pair_table", "functionals.pair_table_s", _PAIR_TABLE_COUNTERS),
    ("dfrep.functionals", "check_axioms", "functionals.check_axioms_s", ()),
    ("dfrep.histories", "ClassOperatorFunctional.pair_table", "histories.pair_table_s", (("histories.pair_evals", _pair_evals),)),
    ("dfrep.histories", "ClassOperatorModel.__post_init__", "histories.model_build_s", ()),
    ("dfrep.histories", "ClassOperatorModel.propagator", "histories.model_build_s", ()),
    ("dfrep.ils", "polarization_atoms", "ils.atoms_s", (("ils.atom_count", _atom_count), ("ils.table_bytes_computed", _table_bytes))),
    ("dfrep.ils", "bilinear_unit_table", "ils.unit_table_s", ()),
    ("dfrep.ils", "ils_operator_from_matrix", "ils.diagnostics_s", ()),
    ("dfrep.ils", "verify_ils_conditions", "ils.verify_s", ()),
    ("dfrep.ils", "extract_ils", "ils.extract_s", ()),
    ("dfrep.tracial", "gram_matrix", "tracial.gram_s", ()),
    ("dfrep.tracial", "hermitian_form_decomposition", "tracial.decompose_s", (("tracial.gram_eigs_kept", _eigs_kept), ("tracial.gram_eigs_dropped", _eigs_dropped))),
    ("dfrep.tracial", "Decomposition.beta", "tracial.beta_s", ()),
    ("dfrep.tracial", "Decomposition.pairing_operator", "tracial.pairing_operator_s", (("tracial.kron_terms", _kron_terms),)),
    ("dfrep.tracial", "evaluate_double_sum", "tracial.double_sum_s", (("tracial.double_sum_calls", _one),)),
    ("dfrep.tracial", "reconstruct_from_product_diagonal", "tracial.reconstruct_s", ()),
    ("dfrep.probes", "tensor_bound_probe", "probes.tensor_bound_s", (("probes.samples", _sweep_samples),)),
    ("dfrep.linalg", "trace_norm", "linalg.trace_norm_s", (("linalg.trace_norm_calls", _one),)),
    ("dfrep.linalg", "operator_norm", "linalg.operator_norm_s", ()),
    ("dfrep.linalg", "swap_operator", "linalg.swap_operator_s", ()),
    ("dfrep.linalg", "random_projection", "linalg.random_projection_s", (("linalg.random_projection_calls", _one),)),
    ("dfrep.linalg", "kron_trace", "linalg.kron_trace_s", (("linalg.kron_trace_calls", _one),)),
    ("dfrep.linalg", "Projection.__post_init__", None, (("linalg.projection_new_calls", _one),)),
)


class Tracer:
    """In-memory span store with per-operation metric accumulation."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._trace_id = -1
        self._next_span = 0
        self._metrics: dict = defaultdict(float)

    def begin_op(self) -> int:
        self._trace_id += 1
        self._metrics = defaultdict(float)
        return self._trace_id

    def end_op(self) -> dict:
        return dict(self._metrics)

    def count(self, name: str, n) -> None:
        self._metrics[name] += n

    def enter(self, name: str) -> None:
        span_id = self._next_span
        self._next_span += 1
        parent = self._stack[-1][1] if self._stack else None
        self._stack.append([name, span_id, parent, time.perf_counter(), 0.0])

    def exit(self) -> None:
        t1 = time.perf_counter()
        name, span_id, parent, t0, child = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][4] += dur
        self._metrics[name] += dur - child
        self.spans.append((self._trace_id, span_id, parent, name, t0, t1))

    def write(self, path) -> None:
        write_spans(path, self.spans)


def write_spans(path, spans) -> None:
    """One JSON array per line: trace id, span id, parent id, name, t0, t1."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def _wrap(tracer: Tracer, fn, metric, counters):
    if metric is None:
        @functools.wraps(fn)
        def counted(*a, **k):
            out = fn(*a, **k)
            for name, f in counters:
                tracer.count(name, f(a, k, out))
            return out

        return counted

    @functools.wraps(fn)
    def spanned(*a, **k):
        tracer.enter(metric)
        try:
            out = fn(*a, **k)
        finally:
            tracer.exit()
        for name, f in counters:
            tracer.count(name, f(a, k, out))
        return out

    return spanned


def _wrap_oracle_factory(tracer: Tracer, factory):
    """``product_diagonal_of`` returns the scalar oracle the reconstructor
    calls 16 d^4 times; count those calls without a span each."""

    @functools.wraps(factory)
    def make(*a, **k):
        f = factory(*a, **k)

        def oracle(alpha, beta):
            tracer.count("tracial.oracle_calls", 1)
            return f(alpha, beta)

        return oracle

    return make


def _replace_everywhere(original, replacement) -> None:
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dfrep" or name.startswith("dfrep.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target; ``dfrep.cli`` must already be imported (it pulls
    in every other module)."""
    for mod_name, attr, metric, counters in TARGETS:
        mod = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, _wrap(tracer, cls.__dict__[meth], metric, counters))
        else:
            original = getattr(mod, attr)
            _replace_everywhere(original, _wrap(tracer, original, metric, counters))
    tracial = sys.modules["dfrep.tracial"]
    original = tracial.product_diagonal_of
    _replace_everywhere(original, _wrap_oracle_factory(tracer, original))
