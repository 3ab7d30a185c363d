"""Per-layer tracing of diracdunkl, installed from outside the library.

`Tracer.install()` replaces public functions and class methods of the
library's modules with wrappers that count calls or record spans.  Functions
are patched under every module name that refers to them, because several
modules import by name (`from .poly import dunkl, pauli`): patching only
`poly.dunkl` would miss the calls made through `operators.dunkl` and
`ck.dunkl`.

Hot scalar and polynomial paths (millions of calls) are counted, not timed.
Coarser calls record a span: name, start, end and the index of the span that
was open when it started.  Spans stay in memory until `summary()`, which adds
each span's self time (its duration minus the time covered by its children).
"""

from __future__ import annotations

import sys
import time

SECTIONS = (
    "osp12", "symmetry", "monogenic", "closedform",
    "orthogonality", "representation", "fischer",
)

# Counters that every summary reports, zero when a workload never reaches them.
COUNTERS = (
    "exact.grational_mul.calls",
    "exact.grational_mul.real_real",
    "exact.grational_addsub.calls",
    "exact.grational_div.calls",
    "poly.scalarpoly_mul.calls",
    "poly.dunkl.calls",
    "poly.pauli.calls",
    "poly.reflect.calls",
    "operators.linop_calls",
    "operators.linop_calls_in_verify",
    "operators.basis_applications",
    "suites.checks",
    "linalg.rank.calls",
    "linalg.solve.calls",
    "linalg.entries",
    "ck.extend.calls",
    "closedform.inner_product.calls",
)


class Tracer:
    """Counters and spans for one process; `install` patches, `uninstall`
    restores every original."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def run_span(self, name, fn, *args):
        """Call fn(*args) inside a span of the given name."""
        return self._spanned(name, fn)(*args)

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_binary(self, key, fn):
        # Dunder methods take exactly (self, other); a fixed signature keeps
        # the per-call overhead low on the hottest path.
        counts = self.counts

        def wrapper(self, other):
            counts[key] += 1
            return fn(self, other)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, original, wrapper):
        """Replace `original` under every diracdunkl module name bound to it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "diracdunkl" or mod_name.startswith("diracdunkl."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def install(self) -> None:
        from diracdunkl import birep, ck, cli, closedform, exact, linalg, operators, poly, suites

        counts = self.counts
        grational = exact.GRational

        mul = grational.__dict__["__mul__"]

        def counted_mul(self, other):
            counts["exact.grational_mul.calls"] += 1
            if not self.im and (other.__class__ is not grational or not other.im):
                counts["exact.grational_mul.real_real"] += 1
            return mul(self, other)

        self._set(grational, "__mul__", counted_mul)
        self._set(grational, "__rmul__", counted_mul)
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            self._set(grational, attr, self._counted_binary(
                "exact.grational_addsub.calls", grational.__dict__[attr]))
        for attr in ("__truediv__", "__rtruediv__"):
            self._set(grational, attr, self._counted_binary(
                "exact.grational_div.calls", grational.__dict__[attr]))

        self._set(poly.ScalarPoly, "__mul__", self._counted_binary(
            "poly.scalarpoly_mul.calls", poly.ScalarPoly.__dict__["__mul__"]))
        for name in ("dunkl", "pauli", "reflect"):
            original = getattr(poly, name)
            self._patch_function(original, self._counted(f"poly.{name}.calls", original))

        linop_call = operators.LinOp.__dict__["__call__"]

        def counted_linop_call(self, f):
            counts["operators.linop_calls"] += 1
            return linop_call(self, f)

        self._set(operators.LinOp, "__call__", counted_linop_call)

        verify_identity = operators.verify_identity

        def traced_verify_identity(*args, **kwargs):
            before = counts["operators.linop_calls"]
            report = verify_identity(*args, **kwargs)
            counts["operators.linop_calls_in_verify"] += counts["operators.linop_calls"] - before
            counts["operators.basis_applications"] += report.basis_size
            return report

        self._patch_function(verify_identity, self._spanned(
            "operators.verify_identity", traced_verify_identity))

        def count_checks(args, result):
            counts["suites.checks"] += len(result)

        for section in SECTIONS:
            original = getattr(suites, f"suite_{section}")
            self._patch_function(original, self._spanned(
                f"suites.{section}", original, count_checks))

        def count_entries(args, result):
            matrix = args[0]
            width = len(matrix[0]) if matrix else 0
            if len(args) > 1:  # solve(matrix, rhs_columns): augmented width
                width += len(args[1])
            counts["linalg.entries"] += len(matrix) * width

        for name in ("rank", "solve"):
            original = getattr(linalg, name)
            self._patch_function(original, self._counted(f"linalg.{name}.calls",
                self._spanned("linalg", original, count_entries)))

        for name in ("ck_extend_x2", "ck_extend_x3"):
            original = getattr(ck, name)
            self._patch_function(original, self._counted("ck.extend.calls", original))
        for name in ("monogenic_basis", "fischer_decompose"):
            original = getattr(ck, name)
            self._patch_function(original, self._spanned(f"ck.{name}", original))

        inner_product = closedform.inner_product
        self._patch_function(inner_product, self._counted(
            "closedform.inner_product.calls",
            self._spanned("closedform.inner_product", inner_product)))
        self._patch_function(closedform.overlap_matrix, self._spanned(
            "closedform.overlap_matrix", closedform.overlap_matrix))

        for name in ("verify_rep", "match_function_realization", "rep_matrices"):
            original = getattr(birep, name)
            self._patch_function(original, self._spanned(f"birep.{name}", original))

        self._patch_function(cli._emit, self._spanned("cli.json_emit", cli._emit))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Counts, per-name inclusive and self time, and the raw spans with
        their self times."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = {}
        self_time: dict[str, float] = {}
        spans_out = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            own = duration - child_time[index]
            self_time[name] = self_time.get(name, 0.0) + own
            # Inclusive time counts only the outermost span of each name, so
            # nested calls of one name are not counted twice.
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] = inclusive.get(name, 0.0) + duration
            spans_out.append({"name": name, "start": start, "end": end,
                              "parent": parent, "self_s": own})
        return {
            "counts": dict(self.counts),
            "inclusive_s": inclusive,
            "self_s": self_time,
            "spans": spans_out,
        }

