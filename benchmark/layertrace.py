"""Per-layer spans and counters, taken from outside the program.

`Tracer.install` replaces the program's public functions and methods with
timing wrappers at every binding the program calls through: module globals
of every loaded `exactcurves` module (so `from .x import f` copies are
caught too) and the class attributes of its classes (so aliases such as
`__rmul__ = __mul__` are caught too).  `Tracer.uninstall` restores them.
Nothing in the program is edited.

Each wrapper opens a span on entry and closes it on exit.  A closed span
adds to its name's call count, inclusive seconds and self seconds (its
duration minus the part that its child spans cover); these online totals
are the only source of the reported figures.  Hot spans such as field
arithmetic close hundreds of thousands of times per round, so span records
(id, name, start, end, parent id) are kept only as a sample: the first
MAX_SPAN_RECORDS spans of a run, with a count of the ones dropped.

A target the program no longer has stops `install` with an error, so a
renamed or moved function cannot read as a layer whose time fell to 0.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

MAX_SPAN_RECORDS = 100_000


def _mul_depth(tracer, args, _kwargs, _result):
    field = args[0].field
    depth = tracer.depths.get(id(field))
    if depth is None:
        depth = tracer.depths[id(field)] = field.depth()
    tracer.count(f"fields.mul.calls.d{depth}")


def _branches(tracer, _args, _kwargs, result):
    tracer.count("singular.branches", len(result[0]))


def _elim_report(tracer, _args, _kwargs, result):
    tracer.count("elim.nodes_expanded", result["nodes_expanded"])
    tracer.count("elim.leaves", len(result["leaves"]))


def _schreier_sizes(tracer, p):
    tracer.count("rewriting.schreier_generators", len(p.generators))
    tracer.count("rewriting.schreier_relators", len(p.relators))


def _rs_kernel(tracer, args, kwargs, result):
    # with simplify=False the result is the raw Schreier presentation; with
    # simplification, _tietze below sees it as input instead
    simplify = kwargs.get("simplify", args[3] if len(args) > 3 else True)
    if not simplify:
        _schreier_sizes(tracer, result)


def _tietze(tracer, args, _kwargs, result):
    if tracer.parent_name() == "rewriting.rs_kernel":
        _schreier_sizes(tracer, args[0])
    tracer.count("rewriting.tietze_moves", len(result.tietze_log))


def _matrix_size(tracer, args, _kwargs, _result):
    p = args[0]
    tracer.peak("abelian.matrix_rows", len(p.relators))
    tracer.peak("abelian.matrix_cols", len(p.generators))


def _cosets(tracer, _args, _kwargs, result):
    tracer.count("coset.cosets", result.n_cosets)


def _homs(tracer, _args, _kwargs, result):
    tracer.count("homs.count", result)


# (span name, module, attribute path, observer or None).  An observer runs
# after the call returns, outside the span, and records counters.
TARGETS = [
    ("fields.mul", "exactcurves.fields", "FieldElement.__mul__",
     _mul_depth),
    ("fields.inv", "exactcurves.fields", "FieldElement.inverse", None),
    ("fields.add", "exactcurves.fields", "FieldElement.__add__", None),
    ("fields.add", "exactcurves.fields", "FieldElement.__sub__", None),
    ("fields.add", "exactcurves.fields", "FieldElement.__rsub__", None),
    ("fields.roots_in_field", "exactcurves.fields", "roots_in_field", None),
    ("fields.sqrt_in_field", "exactcurves.fields", "sqrt_in_field", None),
    ("multipoly.substitute", "exactcurves.multipoly", "MultiPoly.substitute",
     None),
    ("multipoly.mul", "exactcurves.multipoly", "MultiPoly.__mul__", None),
    ("multipoly.pow", "exactcurves.multipoly", "MultiPoly.__pow__", None),
    ("multipoly.resultant", "exactcurves.multipoly", "resultant", None),
    ("multipoly.factor_bounded", "exactcurves.multipoly", "factor_bounded",
     None),
    ("multipoly.squarefree", "exactcurves.multipoly",
     "squarefree_decomposition", None),
    ("multipoly.squarefree", "exactcurves.multipoly", "squarefree_part",
     None),
    ("singular.puiseux_branches", "exactcurves.singular", "puiseux_branches",
     _branches),
    ("singular.residual_valuation", "exactcurves.singular",
     "BranchExpansion.residual_valuation", None),
    ("singular.certify_type", "exactcurves.singular", "certify_type", None),
    ("singular.certify_composite", "exactcurves.singular",
     "certify_composite", None),
    ("singular.certify_smooth_projective", "exactcurves.singular",
     "certify_smooth_projective", None),
    ("curves.assemble_appendix_b", "exactcurves.curves",
     "assemble_appendix_b", None),
    ("curves.projective_germ", "exactcurves.curves", "projective_germ", None),
    ("curves.certify_curve_spec", "exactcurves.curves", "certify_curve_spec",
     None),
    ("curves.invariance_check", "exactcurves.curves", "invariance_check",
     None),
    ("elim.solve_system", "exactcurves.elim", "solve_system", _elim_report),
    ("rewriting.rs_kernel", "exactcurves.groups.rewriting", "rs_kernel",
     _rs_kernel),
    ("rewriting.tietze_simplify", "exactcurves.groups.rewriting",
     "tietze_simplify", _tietze),
    ("rewriting.derived_series_quotients", "exactcurves.groups.rewriting",
     "derived_series_quotients", None),
    ("abelian.abelianization", "exactcurves.groups.abelian",
     "abelianization", _matrix_size),
    ("abelian.abelianization_with_images", "exactcurves.groups.abelian",
     "abelianization_with_images", _matrix_size),
    ("abelian.smith_normal_form", "exactcurves.groups.abelian",
     "smith_normal_form", None),
    ("coset.todd_coxeter", "exactcurves.groups.coset", "todd_coxeter",
     _cosets),
    ("homs.count_homs", "exactcurves.groups.homs", "count_homs", _homs),
    ("burau.verify_g0_relations", "exactcurves.groups.burau",
     "verify_g0_relations", None),
]


class Tracer:
    """Span stack, per-name totals and counters for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []          # open spans: [name, start, child s, id]
        self.totals = {}         # name -> [calls, inclusive s, self s]
        self.counters = {}
        self.peaks = {}
        self.spans = []          # (id, name, start, end, parent id)
        self.dropped = 0         # spans closed beyond MAX_SPAN_RECORDS
        self.layer_seconds = 0.0  # covered by children of outermost spans
        self.depths = {}         # id(field) -> tower depth
        self._next_id = 0
        self._patches = []       # (owner, attribute, original)

    # -- spans and counters ------------------------------------------------
    def enter(self, name):
        self._next_id += 1
        self.stack.append([name, self.clock(), 0.0, self._next_id])

    def exit(self):
        end = self.clock()
        name, start, child, sid = self.stack.pop()
        dur = end - start
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        else:
            self.layer_seconds += child
            parent_id = None
        if len(self.spans) < MAX_SPAN_RECORDS:
            self.spans.append((sid, name, start, end, parent_id))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def parent_name(self):
        return self.stack[-1][0] if self.stack else None

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    # -- installing the wrappers -------------------------------------------
    def wrap(self, name, fn, observe):
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target at each of its bindings.

        Raises LookupError, with nothing installed, if any target is missing
        from the program.
        """
        originals, missing = [], []
        for name, modname, attr, observe in targets:
            owner = importlib.import_module(modname)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(last) if owner is not None else None
            if original is None:
                missing.append(f"{modname}.{attr}")
            originals.append((name, original, observe))
        if missing:
            raise LookupError("tracer targets missing from the program: "
                              + ", ".join(missing))
        for name, original, observe in originals:
            wrapper = self.wrap(name, original, observe)
            for holder in _binding_holders("exactcurves"):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)


def _binding_holders(package):
    """Modules of `package` and the classes they define."""
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or
                                  n.startswith(package + "."))]
    holders = list(mods)
    for m in mods:
        for value in vars(m).values():
            if isinstance(value, type) and value.__module__ == m.__name__:
                holders.append(value)
    return holders


def layer_value(tracer, metric, reps=1):
    """One per-layer metric of a finished trace, per repetition of `reps`.

    `<span>.calls` is a call count and `<span>.s` self seconds, except
    `checks.<id>.s`, which is the check's inclusive time: a check is the
    outermost span of its operation, so its self time would only hold the
    glue between layers.  Any other name is a counter, or a peak (the
    largest value seen, not divided by `reps`).
    """
    if metric in tracer.peaks:
        return tracer.peaks[metric]
    if metric.endswith(".calls"):
        total = tracer.totals.get(metric[:-len(".calls")], [0, 0.0, 0.0])[0]
    elif metric.endswith(".s"):
        tot = tracer.totals.get(metric[:-len(".s")], [0, 0.0, 0.0])
        total = tot[1] if metric.startswith("checks.") else tot[2]
    else:
        total = tracer.counters.get(metric, 0)
    if isinstance(total, int) and total % reps == 0:
        return total // reps
    return total / reps
