"""Spans around calls into eqvlab's layers, recorded from the benchmark's side.

The library has no tracer of its own, so the benchmark wraps each layer's
public functions where the *calling* module holds them: ``partial`` as bound
in ``eqvlab.prolongation``, ``check_equivalence`` as bound in
``eqvlab.families`` and ``eqvlab.cli``, and so on.  The kernel
(``eqvlab.expressions``) is never a caller: its functions recurse into each
other, and wrapping that recursion would record a span per tree node.
Methods are wrapped on their class, so every caller sees the wrapper.

A span is ``[name, start_ns, end_ns, parent, op, cycle]``, where ``parent``
is the index of the enclosing span (-1 at top level) and ``op`` the index of
the benchmark operation inside its cycle.  Calls made outside an operation
(input building between cycles) are not recorded.  Result sizes are measured
after the operation ends, so that counting terms never lands inside a span.
"""

from __future__ import annotations

import importlib
import time
from functools import wraps

# the modules that call into other layers; ``expressions`` is left out on purpose
LIBRARY_CALLERS = (
    "eqvlab.prolongation",
    "eqvlab.families",
    "eqvlab.hyperbolic",
    "eqvlab.oracle",
    "eqvlab.parser",
    "eqvlab.cli",
)

# (span name, defining module, attribute, class or None, what to count)
#   "terms": numerator + denominator terms of the result
#   "chars": length of the first argument (the text parsed)
#   "points": points a numeric check asked for
LAYERS = (
    ("expressions.partial", "eqvlab.expressions", "partial", None, "terms"),
    ("expressions.substitute", "eqvlab.expressions", "substitute", None, "terms"),
    ("expressions.collect", "eqvlab.expressions", "collect", None, "terms"),
    ("expressions.normalize", "eqvlab.expressions", "normalize", None, "terms"),
    ("prolongation.total_derivative", "eqvlab.prolongation", "total_derivative", None, "terms"),
    ("prolongation.transform_derivatives", "eqvlab.prolongation", "transform_derivatives", None, "terms"),
    ("prolongation.transform_equation", "eqvlab.prolongation", "transform_equation", None, "terms"),
    ("prolongation.apply", "eqvlab.prolongation", "apply", "ProlongedMap", "terms"),
    ("families.match", "eqvlab.families", "match", None, "terms"),
    ("families.check_equivalence", "eqvlab.families", "check_equivalence", None, "terms"),
    ("families.theorem_instance_check", "eqvlab.families", "theorem_instance_check", None, None),
    ("hyperbolic.invariants", "eqvlab.hyperbolic", "invariants", "HyperbolicEquation", None),
    ("hyperbolic.reduce_to_canonical", "eqvlab.hyperbolic", "reduce_to_canonical", "HyperbolicEquation", None),
    ("oracle.check_identity", "eqvlab.oracle", "check_identity", None, "points"),
    ("oracle.instantiate", "eqvlab.oracle", "for_expressions", "Instantiation", None),
    ("parser.parse", "eqvlab.parser", "parse", None, None),
    ("parser.parse_expression", "eqvlab.parser", "parse_expression", None, "chars"),
    ("cli.main", "eqvlab.cli", "main", None, None),
)

# the benchmark's own arithmetic on generated operands (kernel-laws)
ARITH = ("add", "sub", "mul", "expr_sum")


def terms(obj) -> int:
    """Numerator plus denominator terms of every expression inside ``obj``."""
    if hasattr(obj, "num_terms"):
        return len(obj.num_terms()) + len(obj.den_terms())
    if isinstance(obj, dict):
        return sum(terms(v) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(terms(v) for v in obj)
    for attr in ("entries", "coefficients"):  # ProlongedMap, MatchReport
        if hasattr(obj, attr):
            return terms(getattr(obj, attr))
    return 0


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, list] = {}  # span index -> [kind, amount]
        self.op = None
        self.cycle = 0
        self._stack: list[int] = []
        self._pending: list[tuple[int, str, object]] = []

    def wrap(self, name: str, fn, count: str | None = None):
        spans, stack, pending = self.spans, self._stack, self._pending
        clock = time.perf_counter_ns
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.op, tracer.cycle]
            spans.append(rec)
            stack.append(idx)
            if count == "chars":
                pending.append((idx, count, len(args[0])))
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count in ("terms", "points"):
                pending.append((idx, count, result))
            return result

        return traced

    def install(self, bench_module) -> None:
        """Wrap every layer function in its callers and the benchmark module."""
        callers = [importlib.import_module(m) for m in LIBRARY_CALLERS] + [bench_module]
        for name, owner, attr, cls_name, count in LAYERS:
            mod = importlib.import_module(owner)
            if cls_name is not None:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, count)))
                else:
                    setattr(cls, attr, self.wrap(name, raw, count))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original, count)
            for caller in callers:
                if getattr(caller, attr, None) is original:
                    setattr(caller, attr, wrapped)
        for attr in ARITH:
            setattr(bench_module, attr,
                    self.wrap("expressions.arith", getattr(bench_module, attr)))

    def begin(self, op: int) -> None:
        self.op = op

    def end(self) -> None:
        """Close the current operation and measure the sizes it produced."""
        self.op = None
        for idx, kind, value in self._pending:
            if kind == "terms":
                value = terms(value)
            elif kind == "points":
                value = value.points
            self.counts[idx] = [kind, value]
        self._pending.clear()
