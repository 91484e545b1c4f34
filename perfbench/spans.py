"""Per-layer tracing of h3orbifold from outside the program.

``Tracer.install`` wraps public functions and methods of the engine's
modules.  A timed wrapper records a span (parent, name, start, end) in memory;
a counting wrapper, used for calls as frequent as ``FockState.__init__``,
only bumps a counter.  Several modules bind functions by name at import time
(``from .vertex import nth_product`` in structure, relations, primaries and
symmetry; the package namespace re-exports everything), so a wrapper
replaces every binding of the original object in every loaded ``h3orbifold``
module and every alias in a class dictionary.  ``coverage_check`` proves it
by comparing the wrappers' call counts with a ``cProfile`` count of the
original code objects.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

#: (module, attribute or Class.method, span name); one span per call
TIMED = (
    ("h3orbifold.cli", "main", "cli.main"),
    ("h3orbifold.structure", "span_dims", "structure.span_dims"),
    ("h3orbifold.structure", "det_A", "structure.det_A"),
    ("h3orbifold.structure", "check_decomposition", "structure.check_decomposition"),
    ("h3orbifold.vertex", "nth_product", "vertex.nth_product"),
    ("h3orbifold.vertex", "check_borcherds", "vertex.check_borcherds"),
    ("h3orbifold.vertex", "check_skew_symmetry", "vertex.check_skew_symmetry"),
    ("h3orbifold.fock", "enumerate_basis", "fock.enumerate_basis"),
    ("h3orbifold.linalg", "Echelon.reduce", "linalg.Echelon.reduce"),
    ("h3orbifold.linalg", "SolverBasis.insert", "linalg.SolverBasis"),
    ("h3orbifold.linalg", "SolverBasis.solve", "linalg.SolverBasis"),
    ("h3orbifold.linalg", "det_bareiss", "linalg.det_bareiss"),
    ("h3orbifold.symmetry", "act", "symmetry.act"),
    ("h3orbifold.symmetry", "build_generator", "symmetry.build_generator"),
    ("h3orbifold.classical", "cpoly_relation", "classical.cpoly_relation"),
    ("h3orbifold.relations", "verify_relation", "relations.verify_relation"),
    ("h3orbifold.primaries", "verify_primaries", "primaries.verify_primaries"),
    ("h3orbifold.qseries", "FracSeries.__mul__", "qseries.FracSeries.mul"),
    ("h3orbifold.qseries", "pochhammer_inv", "qseries.pochhammer_inv"),
    ("h3orbifold.qseries", "fock_trace_series", "qseries.fock_trace_series"),
    ("h3orbifold.modular", "check_gauss_identity", "modular.check_gauss_identity"),
    ("h3orbifold.modular", "qdim_estimate", "modular.qdim_estimate"),
)

_SCALAR_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
               "inverse", "conjugate", "norm")

#: (module, Class.method, counter name); a count per call, no span
COUNTED = (
    ("h3orbifold.fock", "FockState.__init__", "fock.FockState.init"),
    ("h3orbifold.fock", "FockState.apply_annihilation", "fock.apply_annihilation"),
    ("h3orbifold.linalg", "Echelon.insert", "linalg.Echelon.insert"),
) + tuple(("h3orbifold.scalars", f"Scalar.{op}", "scalars.Scalar.ops")
          for op in _SCALAR_OPS)

#: spans whose self time is reported: they call other wrapped functions
SELF_TIMED = ("structure.span_dims", "structure.det_A",
              "structure.check_decomposition", "vertex.check_borcherds",
              "vertex.check_skew_symmetry", "relations.verify_relation",
              "primaries.verify_primaries", "qseries.fock_trace_series")

#: functions whose wrapper counts are matched against cProfile
COVERAGE_TARGETS = (
    ("h3orbifold.vertex", "nth_product", "vertex.nth_product"),
    ("h3orbifold.linalg", "Echelon.reduce", "linalg.Echelon.reduce"),
    ("h3orbifold.qseries", "FracSeries.__mul__", "qseries.FracSeries.mul"),
)


def _lookup(module: str, attr: str):
    """(owner, original) for a module function or a class method."""
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, owner.__dict__[attr]
    return owner, getattr(owner, attr)


def _coeff_bits(values) -> int:
    bits = 0
    for c in values:
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """In-memory spans and counters for one traced workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []        # (parent index, name, start, end)
        self.stack: list = []        # indices of the open spans
        self.counts: Counter = Counter()
        self.originals: dict = {}    # (module, attr) -> original object
        self.terms_out = 0
        self.echelon_rows: list = []
        self.mul_results: list = []

    # -- wrappers -------------------------------------------------------

    def _timed(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (parent, name, start, end)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counted(self, name, fn, after=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _after_nth_product(self, args, result):
        self.terms_out += len(result.terms)

    def _after_echelon_insert(self, args, raised):
        if raised:
            echelon = args[0]
            self.echelon_rows.append(next(reversed(echelon.rows.values())))

    def _after_series_mul(self, args, result):
        self.mul_results.append(result)

    def install(self) -> None:
        """Replace every binding of the targets with a wrapper."""
        import h3orbifold  # noqa: F401  (loads every engine module)
        import h3orbifold.cli  # noqa: F401
        modules = [m for n, m in sys.modules.items()
                   if n == "h3orbifold" or n.startswith("h3orbifold.")]
        after = {"vertex.nth_product": self._after_nth_product,
                 "linalg.Echelon.insert": self._after_echelon_insert,
                 "qseries.FracSeries.mul": self._after_series_mul}
        wrappers = set()
        for targets, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module, attr, name in targets:
                owner, original = _lookup(module, attr)
                if original in wrappers:  # an alias wrapped under another name
                    continue
                self.originals[(module, attr)] = original
                wrapper = make(name, original, after.get(name))
                wrappers.add(wrapper)
                for scope in ([owner] if isinstance(owner, type) else modules):
                    for key, value in list(vars(scope).items()):
                        if value is original:
                            setattr(scope, key, wrapper)

    # -- results --------------------------------------------------------

    def summarize(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        from h3orbifold import vertex
        spans = self.spans
        child_time = [0.0] * len(spans)
        for parent, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        for i, (parent, name, start, end) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - child_time[i]
            p = parent
            while p >= 0 and spans[p][1] != name:
                p = spans[p][0]
            if p < 0:  # outermost span of this name: no double counting
                inclusive[name] += end - start
        out = {}
        for _, _, name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = inclusive[name]
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = self_time[name]
        out["cli.self_s"] = self_time["cli.main"]
        for _, _, name in COUNTED:
            out[f"{name}.calls"] = self.counts[name]
        out["scalars.Scalar.ops"] = self.counts["scalars.Scalar.ops"]
        out["vertex.nth_product.terms_out"] = self.terms_out

        memo = vertex._PRODUCT_CACHE
        out["vertex.memo_entries"] = len(memo)
        empty = sum(1 for v in memo.values() if not v)
        out["vertex.memo_empty_share"] = empty / len(memo) if memo else 0.0

        reductions = calls["linalg.Echelon.reduce"] - self.counts["linalg.Echelon.insert"]
        out["linalg.Echelon.useful_ratio"] = (
            len(self.echelon_rows) / reductions if reductions > 0 else 0.0)
        out["linalg.Echelon.max_coeff_bits"] = max(
            (_coeff_bits(row.values()) for row in self.echelon_rows), default=0)
        out["linalg.Echelon.stored_terms"] = sum(len(r) for r in self.echelon_rows)
        out["qseries.max_coeff_bits"] = max(
            (_coeff_bits(s.coeffs.values()) for s in self.mul_results), default=0)
        return out

    def write_spans(self, path) -> None:
        """One JSON array per span: run id, index, parent, name, start, end."""
        with open(path, "w") as fh:
            for i, (parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, i, parent, name, start, end]))
                fh.write("\n")


def coverage_check(exercise) -> list:
    """Run exercise() under the wrappers and cProfile; for each coverage
    target return (span name, wrapper count, cProfile count)."""
    import cProfile
    import pstats
    tracer = Tracer("coverage")
    tracer.install()
    profile = cProfile.Profile()
    profile.enable()
    try:
        exercise()
    finally:
        profile.disable()
    stats = pstats.Stats(profile).stats
    calls = Counter(name for _, name, _, _ in tracer.spans)
    rows = []
    for module, attr, name in COVERAGE_TARGETS:
        code = tracer.originals[(module, attr)].__code__
        profiled = sum(v[1] for (fname, line, _), v in stats.items()
                       if fname == code.co_filename and line == code.co_firstlineno)
        rows.append((name, calls[name], profiled))
    return rows
