"""Per-layer spans recorded from outside the program.

Each layer's public function is wrapped where it is looked up: every
``plqo`` module attribute that holds the function (``decide`` imports
``feasible`` by name, so patching ``plqo.lra`` alone would miss the
decider's calls).  The wrappers exist only while a traced query runs, so
the untimed verdict checks between queries record nothing.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


def _cols(constraints):
    return len({v for c in constraints for v, _ in c.terms})


# (defining module, function, measure names, measures taken from (args,
# result) after the span closes).  Measures are deterministic counts: they
# are compared exactly between runs.
LAYERS = (
    ("parser", "parse_plqo", (), None),
    ("cli", "run", (), None),
    ("syntax", "nnf_dnf_literals", ("disjuncts",), lambda a, r: (len(r),)),
    ("translate", "q_adams", ("rows",), lambda a, r: (len(r),)),
    ("translate", "translate_literal", ("pool_size",), lambda a, r: (len(r),)),
    (
        "lra",
        "feasible",
        ("rows", "cols", "feasible"),
        lambda a, r: (len(a[0]), _cols(a[0]), int(bool(r))),
    ),
    ("decide", "check_valid", (), None),
    ("decide", "check_sat", (), None),
    ("decide", "check_entail", (), None),
    ("decide", "check_proof", ("lines",), lambda a, r: (len(a[0].lines),)),
    ("genmodel", "model_from_witness", (), None),
    ("genmodel", "build_generic", ("dim", "nc_pairs"), lambda a, r: (r.dim, len(a[0].nc))),
    ("hilbert", "satisfies", (), None),
    ("hilbert", "compatible", (), None),
    ("hilbert", "prob", (), None),
)

MODULES = ("parser", "cli", "syntax", "translate", "lra", "decide", "genmodel", "hilbert")


class Span:
    __slots__ = ("name", "parent", "query", "start", "end", "post", "measures")

    def __init__(self, name, parent, query):
        self.name = name
        self.parent = parent
        self.query = query
        self.measures = None

    def to_json(self):
        return [self.name, self.parent, self.query, self.start, self.end, self.measures]


class Tracer:
    """Records one span per call of a layer function, in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._query = None
        self._sites = []
        plqo_modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "plqo" or name.startswith("plqo.")
        ]
        for module, func, names, measure in LAYERS:
            original = getattr(importlib.import_module(f"plqo.{module}"), func)
            wrapper = self._wrap(f"{module}.{func}", original, names, measure)
            for m in plqo_modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._sites.append((m, attr, original, wrapper))

    def _wrap(self, name, fn, names, measure):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self._query)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = span.post = perf_counter()
                stack.pop()
            if measure is not None:
                span.measures = dict(zip(names, measure(args, result)))
                span.post = perf_counter()
            return result

        return wrapper

    def begin(self, query):
        self._query = query
        for m, attr, _, wrapper in self._sites:
            setattr(m, attr, wrapper)

    def end(self):
        for m, attr, original, _ in self._sites:
            setattr(m, attr, original)
        self._query = None


def summarize(spans):
    """Per-layer calls, self time and measure sums for one traced pass.

    Self time is a span's duration minus the intervals of its child spans,
    each child counted up to the end of its own measuring, so the tracer's
    measuring is charged to no layer.  Only outermost ``satisfies`` calls
    are counted; the recursive ones are nested spans.
    """
    out = {
        f"{m}.{f}": {"calls": 0, "self_s": 0.0, **{k: 0 for k in names}}
        for m, f, names, _ in LAYERS
    }
    out["decide.check_proof"]["feasible_calls"] = 0
    self_s = [s.end - s.start for s in spans]
    under_proof = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent is not None:
            p = spans[s.parent]
            self_s[s.parent] -= s.post - s.start
            under_proof[i] = under_proof[s.parent] or p.name == "decide.check_proof"
    for i, s in enumerate(spans):
        row = out[s.name]
        nested = s.parent is not None and spans[s.parent].name == s.name
        if not nested:
            row["calls"] += 1
        row["self_s"] += self_s[i]
        for k, v in (s.measures or {}).items():
            row[k] += v
        if s.name == "lra.feasible" and under_proof[i]:
            out["decide.check_proof"]["feasible_calls"] += 1
    return out
