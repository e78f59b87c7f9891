"""Per-layer tracing from outside the program.

`Tracer.install` replaces each listed public function of every `faulhaber`
module wherever it is bound (modules import functions by name, so the
package namespace, the defining module and every importing module each get
the wrapper), plus the `Polynomial` and `BernoulliCache` methods. Each call
becomes a span (name, start, end, parent, operation id) kept in memory;
counts are taken at the same boundaries. Self time is a span's duration
minus the time its child spans cover, bookkeeping of the children included.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter
from typing import Callable, Optional

#: module -> {function name -> layer name}
FUNCTIONS = {
    "faulhaber.bernoulli": {"bernoulli_polynomial": "bernoulli.polynomial"},
    "faulhaber.powersum": {
        "powersum_monomial": "powersum.monomial",
        "powersum_via_bernoulli_poly": "powersum.via_bernoulli_poly",
        "oracle_sum": "powersum.oracle",
    },
    "faulhaber.triangular": {
        "triangular_decompose": "triangular.decompose",
        "faulhaber_form": "triangular.form_direct",
        "expand_to_monomial": "triangular.expand",
        "square_in_triangular": "triangular.square",
        "faulhaber_form_inductive": "triangular.form_inductive",
        "verify_lemma": "triangular.verify",
        "verify_constant_term_bernoulli": "triangular.verify",
    },
    "faulhaber.shifted": {
        "shifted_form": "shifted.conversion",
        "shifted_closed_form": "shifted.closed",
        "shifted_to_monomial": "shifted.to_monomial",
    },
    "faulhaber.recurrence": {
        "he_ricci_polynomial": "recurrence.he_ricci",
        "partial_sum_polynomial": "recurrence.partial_sum",
        "verify_recurrence_consistency": "recurrence.verify",
    },
    "faulhaber.render": {
        "render_monomial": "render",
        "render_triangular": "render",
        "render_shifted": "render",
        "render_polynomial_in_x": "render",
    },
    "faulhaber.cli": {"main": "cli"},
}
#: Polynomial method -> layer name
POLYNOMIAL_METHODS = {
    "__add__": "polynomial.add",
    "__radd__": "polynomial.add",
    "__mul__": "polynomial.mul",
    "__rmul__": "polynomial.mul",
    "__divmod__": "polynomial.divmod",
    "compose": "polynomial.compose",
    "__call__": "polynomial.eval",
}
TIMED_LAYERS = sorted(set(POLYNOMIAL_METHODS.values()) | {
    name for table in FUNCTIONS.values() for name in table.values()
} - {"render", "cli"})
SPAN_CAP = 200_000


def coeff_bits(values) -> tuple[int, int]:
    """Total and largest bit length over numerators and denominators."""
    total = largest = 0
    for c in values:
        if isinstance(c, Fraction):
            a, b = c.numerator.bit_length(), c.denominator.bit_length()
        else:
            a, b = int(c).bit_length(), 1
        total += a + b
        largest = max(largest, a, b)
    return total, largest


class Tracer:
    def __init__(self) -> None:
        self.op_id = 0
        self.next_id = 0
        self.stack: list[list] = []  # [span id, time covered by children]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.self_by_op: defaultdict = defaultdict(float)  # (op id, layer) -> s
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self.fill_s = 0.0
        self.startup_s: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [tracer.next_id, 0.0]
            tracer.next_id += 1
            tracer.stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                own = (t1 - t0) - frame[1]
                tracer.calls[name] += 1
                tracer.self_s[name] += own
                tracer.self_by_op[(tracer.op_id, name)] += own
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (frame[0], name, t0, t1, parent[0] if parent else -1, tracer.op_id)
                    )
                else:
                    tracer.dropped += 1
                if after is not None and result is not None:
                    after(args, result)
                if parent is not None:
                    parent[1] += perf_counter() - entered

        return traced

    # -- counters taken at the boundaries ------------------------------------------

    def _bits_out(self, values) -> None:
        total, largest = coeff_bits(values)
        self.counts["polynomial.coeff_bits_out"] += total
        self.max_coeff_bits = max(self.max_coeff_bits, largest)

    def _after_poly(self, args, result) -> None:
        if result is NotImplemented:
            return
        if isinstance(result, tuple):  # divmod
            for part in result:
                self._bits_out(part.coeffs)
        elif isinstance(result, (int, Fraction)):  # evaluation
            self._bits_out((result,))
        else:
            self._bits_out(result.coeffs)

    def _after_mul(self, args, result) -> None:
        if result is NotImplemented:
            return
        left, right = args
        nonzero = sum(1 for c in left.coeffs if c)
        if hasattr(right, "coeffs"):
            nonzero *= sum(1 for c in right.coeffs if c)
        elif right == 0:
            nonzero = 0
        self.counts["polynomial.mul.coeff_products"] += nonzero
        self._after_poly(args, result)

    def _after_render(self, args, result) -> None:
        self.counts["render.bytes_out"] += len(result.encode())

    # -- installation ---------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function wherever a faulhaber module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "faulhaber" or n.startswith("faulhaber.")]
        for module_name, table in FUNCTIONS.items():
            module = sys.modules[module_name]
            for attr, layer in table.items():
                original = getattr(module, attr)
                after = self._after_render if layer == "render" else None
                if layer == "cli":
                    wrapped = self.wrap(layer, self._counting_errors(original))
                else:
                    wrapped = self.wrap(layer, original, after)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, name, wrapped)
        polynomial = sys.modules["faulhaber.polynomial"].Polynomial
        for attr, layer in POLYNOMIAL_METHODS.items():
            after = self._after_mul if layer == "polynomial.mul" else self._after_poly
            self._set(polynomial, attr, self.wrap(layer, getattr(polynomial, attr), after))
        cache = sys.modules["faulhaber.bernoulli"].BernoulliCache
        self._set(cache, "get", self.wrap("bernoulli.get", self._counting_get(cache.get)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _counting_get(self, get: Callable) -> Callable:
        def counted(cache, m):
            before = cache.high_water
            start = perf_counter()
            value = get(cache, m)
            filled = cache.high_water - before
            self.counts["bernoulli.get.hits"] += 0 <= m <= before
            if filled:
                self.counts["bernoulli.fill_indices"] += filled
                self.fill_s += perf_counter() - start
            return value

        return counted

    def _counting_errors(self, main: Callable) -> Callable:
        def counted(*args, **kwargs):
            try:
                return main(*args, **kwargs)
            except SystemExit:
                raise
            except BaseException:
                self.counts["cli.errors"] += 1
                raise

        return counted

    # -- results --------------------------------------------------------------------

    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "max_coeff_bits": self.max_coeff_bits,
            "fill_s": self.fill_s,
            "startup_s": self.startup_s,
            "spans": len(self.spans) + self.dropped,
            "dropped": self.dropped,
        }

    def merge(self, agg: dict, spans: list) -> None:
        """Fold in the aggregates and spans of a traced child process."""
        self.calls.update(agg["calls"])
        for name, s in agg["self_s"].items():
            self.self_s[name] += s
        self.counts.update(agg["counts"])
        self.max_coeff_bits = max(self.max_coeff_bits, agg["max_coeff_bits"])
        self.fill_s += agg["fill_s"]
        self.startup_s.extend(agg["startup_s"])
        room = max(0, SPAN_CAP - len(self.spans))
        self.spans.extend(tuple(s) for s in spans[:room])
        self.dropped += agg["dropped"] + max(0, len(spans) - room)

    def dump(self, path, extra: Optional[dict] = None) -> None:
        """Write aggregates and spans: one JSON header line, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"aggregates": self.aggregates(), **(extra or {})}) + "\n")
            fh.write("# span: [id, name, start_s, end_s, parent_id, op_id]\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        out["polynomial.mul.coeff_products"] = (self.counts["polynomial.mul.coeff_products"], "count")
        out["polynomial.max_coeff_bits"] = (self.max_coeff_bits, "bits")
        out["polynomial.coeff_bits_out"] = (self.counts["polynomial.coeff_bits_out"], "bits")
        gets = self.calls["bernoulli.get"]
        out["bernoulli.get.calls"] = (gets, "count")
        out["bernoulli.hit_ratio"] = (self.counts["bernoulli.get.hits"] / gets if gets else 1.0, "ratio")
        out["bernoulli.fill_indices"] = (self.counts["bernoulli.fill_indices"], "count")
        out["bernoulli.fill_s"] = (self.fill_s, "s")
        out["render.calls"] = (self.calls["render"], "count")
        out["render.self_s"] = (self.self_s["render"], "s")
        out["render.bytes_out"] = (self.counts["render.bytes_out"], "bytes")
        startup = sorted(self.startup_s)
        out["cli.startup_s"] = (startup[len(startup) // 2] if startup else 0.0, "s")
        out["cli.calls"] = (self.calls["cli"], "count")
        out["cli.self_s"] = (self.self_s["cli"], "s")
        out["cli.errors"] = (self.counts["cli.errors"], "count")
        out["trace.overhead_s"] = (overhead_s, "s")
        out["trace.spans"] = (len(self.spans) + self.dropped, "count")
        return out
