"""Outside-in tracing of natforms: wrap each layer's public functions.

The tracer replaces every binding of a public function of the seven layer
modules (``poly``, ``tensor``, ``geometry``, ``generators``, ``exactla``,
``verify``, ``cli``) with a timing wrapper, in every natforms namespace that
binds it: ``curvature`` is bound in ``geometry``, ``verify``, ``cli`` and the
package itself, and a call through any of them must be seen.  The arithmetic
methods of ``Polynomial`` and ``TensorField`` and the form-wrapper
constructors are wrapped on their classes.  ``uninstall`` restores every
original binding.

Calls of module-level functions are kept as spans (name, start, end, parent
span) in memory.  The class methods run about 1.5 million times in one
``verify all``, so their calls are aggregated per method (calls, inclusive
and self time) instead of stored one by one.  Self time is a call's duration
minus the time its traced children took.  All times include the wrappers'
own bookkeeping; ``trace.overhead_ratio`` reports how much that adds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("poly", "tensor", "geometry", "generators", "exactla", "verify", "cli")

# Wrapped on the class; aggregated rather than recorded as spans.
CLASS_METHODS = {
    ("poly", "Polynomial"): (
        "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale", "__pow__",
        "partial_derivative",
    ),
    ("tensor", "TensorField"): ("__add__", "__sub__", "__neg__", "scale", "get"),
    ("geometry", "VectorValuedForm"): ("__post_init__",),
    ("geometry", "EndValuedForm"): ("__post_init__",),
}

# (per-layer metric, traced function keys whose calls it sums)
CALL_METRICS = (
    ("generators.family.calls", ("generators.family_from_connection",)),
    ("generators.apply_scheme.calls", ("generators.apply_scheme",)),
    ("geometry.curvature.calls", ("geometry.curvature",)),
    ("geometry.normal1.calls", ("geometry.normal1",)),
    ("geometry.ext_cov_deriv_endo.calls", ("geometry.ext_cov_deriv_endo",)),
    ("geometry.ext_cov_deriv_vector.calls", ("geometry.ext_cov_deriv_vector",)),
    ("geometry.covariant_derivative.calls", ("geometry.covariant_derivative",)),
    (
        "geometry.form_checks.calls",
        ("geometry.VectorValuedForm.__post_init__", "geometry.EndValuedForm.__post_init__"),
    ),
    ("tensor.permute.calls", ("tensor.permute_covariant", "tensor.permute_contravariant")),
    ("tensor.product.calls", ("tensor.tensor_product",)),
    ("tensor.contract.calls", ("tensor.contract",)),
    ("tensor.is_antisymmetric.calls", ("tensor.is_antisymmetric",)),
    ("poly.add.calls", ("poly.Polynomial.__add__",)),
    ("poly.mul.calls", ("poly.Polynomial.__mul__",)),
    ("poly.partial.calls", ("poly.Polynomial.partial_derivative",)),
    ("exactla.in_span.calls", ("exactla.in_span",)),
    ("exactla.rank.calls", ("exactla.rank",)),
    ("exactla.kernel.calls", ("exactla.kernel_basis",)),
    ("exactla.flatten.calls", ("exactla.flatten",)),
)

# (per-layer metric, traced function whose inclusive time it reports)
INCLUSIVE_METRICS = (
    ("verify.lemma-3.1.s", "verify.verify_lemma_3_1"),
    ("verify.dropped-generator.s", "verify.verify_dropped_generator"),
    ("verify.thm-3.2.s", "verify.verify_thm_3_2"),
    ("verify.closed-forms.s", "verify.verify_closed_forms"),
    ("verify.lemma-3.4.s", "verify.verify_lemma_3_4"),
    ("verify.lemma-3.5.s", "verify.verify_lemma_3_5_partial"),
    ("verify.thm-3.5.s", "verify.verify_thm_3_5"),
    ("verify.schemes.s", "verify.verify_schemes"),
    ("verify.bianchi.s", "verify.verify_bianchi"),
    ("verify.report.s", "verify.report_json"),
    ("generators.family.s", "generators.family_from_connection"),
    ("exactla.in_span.s", "exactla.in_span"),
)

# (per-layer metric, traced function whose self time it reports)
SELF_METRICS = (
    ("generators.apply_scheme.self_s", "generators.apply_scheme"),
    ("geometry.ext_cov_deriv_endo.self_s", "geometry.ext_cov_deriv_endo"),
)

SELF_LAYERS = ("geometry", "tensor", "poly", "exactla")


def _entry_bits(values) -> int:
    """Largest bit length of a numerator or denominator among the values."""
    bits = 0
    for v in values:
        if v:
            bits = max(bits, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return bits


def _note_bits(counts: dict[str, int], bits: int) -> None:
    counts["exactla.max_entry_bits"] = max(counts["exactla.max_entry_bits"], bits)


class Tracer:
    """Wraps natforms while installed; collects spans and counts until reset."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        # traced function key -> the function its wrapper calls
        self.originals: dict[str, object] = {}
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # frames of the calls in progress: [span id, time taken by children]
        self._stack: list[list] = [[0, 0.0]]

    def reset(self) -> None:
        """Forget what was recorded; the wrappers stay installed."""
        self.spans.clear()
        self.calls.clear()
        self.inclusive.clear()
        self.self_time.clear()
        self.counts.clear()
        self._stack[:] = [[0, 0.0]]

    # -- installing and removing the wrappers --------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"natforms.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn, span=True)
        namespaces = [importlib.import_module("natforms"), *modules.values()]
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(namespace, name, wrapper)
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for method in methods:
                fn = cls.__dict__[method]
                self._patch(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", fn, span=False))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    # -- the wrapper ------------------------------------------------------------

    def _wrap(self, key: str, fn, span: bool):
        self.originals[key] = fn
        before = self._counter_before(key)
        after = self._counter_after(key)
        frames, spans, counts = self._stack, self.spans, self.counts
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts, args)
            parent = frames[-1]
            if span:
                spans.append(None)
                frame = [len(spans), 0.0]
            else:
                frame = [parent[0], 0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                took = end - start
                parent[1] += took
                if span:
                    spans[frame[0] - 1] = (key, start, end, parent[0])
                calls[key] += 1
                inclusive[key] += took
                self_time[key] += took - frame[1]
            if after is not None:
                after(counts, result)
            return result

        return wrapper

    @staticmethod
    def _counter_before(key: str):
        """Work counts taken from a call's arguments, or None."""
        if key == "poly.Polynomial.__add__":
            def count(counts, args):
                a, b = args
                counts["poly.add_mul"] += 1
                if not a.terms or not getattr(b, "terms", True):
                    counts["poly.zero_operand"] += 1
            return count
        if key == "poly.Polynomial.__mul__":
            def count(counts, args):
                a, b = args
                counts["poly.add_mul"] += 1
                b_terms = getattr(b, "terms", None)
                if b_terms is None:
                    zero = not a.terms or b == 0
                else:
                    counts["poly.mul.term_pairs"] += len(a.terms) * len(b_terms)
                    zero = not a.terms or not b_terms
                if zero:
                    counts["poly.zero_operand"] += 1
            return count
        if key in ("exactla.rank", "exactla.kernel_basis"):
            def count(counts, args):
                matrix = args[0]
                counts["exactla.cells"] += matrix.rows * matrix.cols
                _note_bits(counts, _entry_bits(matrix.entries))
            return count
        if key == "exactla.in_span":
            def count(counts, args):
                vector, basis = args
                counts["exactla.cells"] += len(vector) * (len(basis) + 1)
                _note_bits(counts, max([_entry_bits(vector)] + [_entry_bits(b) for b in basis]))
            return count
        return None

    @staticmethod
    def _counter_after(key: str):
        """Work counts taken from a call's result, or None."""
        if key.startswith("tensor."):
            def count(counts, result):
                components = getattr(result, "components", None)
                if components is not None:
                    counts["tensor.components_out"] += len(components)
                    counts["tensor.nonzero_out"] += sum(1 for c in components if c.terms)
            return count
        return None

    # -- results --------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the calls recorded since the last reset."""
        out: dict[str, float] = {}
        for metric, keys in CALL_METRICS:
            out[metric] = sum(self.calls.get(k, 0) for k in keys)
        for metric, key in INCLUSIVE_METRICS:
            out[metric] = self.inclusive.get(key, 0.0)
        for metric, key in SELF_METRICS:
            out[metric] = self.self_time.get(key, 0.0)
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for k, t in self.self_time.items() if k.startswith(layer + ".")
            )
        produced = self.counts.get("tensor.components_out", 0)
        out["tensor.components_out"] = produced
        out["tensor.nnz_ratio"] = self.counts.get("tensor.nonzero_out", 0) / produced if produced else 0.0
        out["poly.mul.term_pairs"] = self.counts.get("poly.mul.term_pairs", 0)
        add_mul = self.counts.get("poly.add_mul", 0)
        out["poly.zero_operand_ratio"] = (
            self.counts.get("poly.zero_operand", 0) / add_mul if add_mul else 0.0
        )
        out["exactla.cells"] = self.counts.get("exactla.cells", 0)
        out["exactla.max_entry_bits"] = self.counts.get("exactla.max_entry_bits", 0)
        return out

    def dump(self, origin: float) -> dict:
        """Spans (times relative to origin) and per-function totals, as JSON data."""
        return {
            "spans": [
                {"id": i, "name": s[0], "start": s[1] - origin, "end": s[2] - origin, "parent": s[3]}
                for i, s in enumerate(self.spans, start=1)
                if s is not None
            ],
            "functions": {
                k: {"calls": self.calls[k], "inclusive_s": self.inclusive[k], "self_s": self.self_time[k]}
                for k in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
        }
