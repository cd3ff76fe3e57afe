"""Spans around the library's public entry points, for traced runs only.

The tracer wraps functions from outside the library: every name in a loaded
pbsg module that is bound to one of ``ENTRY_POINTS`` is replaced by a wrapper
while the tracer is installed, so calls through re-exports and through names
bound by ``from .closure import member`` (``pbsg.tiling.member``,
``pbsg.oracle.close``) are recorded as well.  Spans stay in memory as
``[name, start, end, parent, decision, tag]`` lists until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: Public entry points by defining module.  ``pbij`` composition is not
#: spanned (the oracle calls it millions of times); it is counted instead.
ENTRY_POINTS = {
    "closure": ("close", "member", "evaluate_word"),
    "oracle": ("oracle_report", "oracle_identities", "oracle_models"),
    "checkers": ("run_generator_check",),
    "identities": ("parse_identity",),
    "model_checker": ("models", "check_variable_run", "realize_assignment"),
    "tiling": ("roundtrip_check", "solve_corridor_tiling", "reduce",
               "encode_grid", "decode_witness", "verify_proper_tiling"),
}

#: Per-span detail: the property an oracle report decides, the outcome of a
#: membership query or a model check, the size of a closure.
TAGS = {
    "oracle.oracle_report": lambda args, res: args[1].value,
    "closure.member": lambda args, res: "hit" if res.found else "miss",
    "model_checker.models": lambda args, res: "holds" if res.models else "fails",
    "closure.close": lambda args, res: len(res),
}


class Tracer:
    """Records spans, and counts calls, while ``decision`` is set; wrappers
    pass calls straight through otherwise."""

    def __init__(self):
        self.spans: list = []
        self.decision = None
        self.counts: dict = {}
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, tag = self.spans, self._stack, TAGS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.decision is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.decision, None]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag is not None:
                span[5] = tag(args, res)
            return res

        return traced

    def install(self, pb):
        """Wrap every binding of every entry point in the loaded pbsg modules."""
        loaded = [m for name, m in sys.modules.items()
                  if name == "pbsg" or name.startswith("pbsg.")]
        for mod_name, names in ENTRY_POINTS.items():
            module = getattr(pb, mod_name)
            for fname in names:
                fn = getattr(module, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", fn)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, fn))

    def count(self, cls, attr):
        """Count calls of ``cls.attr`` made inside decisions, in
        ``self.counts["<cls>.<attr>"]``."""
        key = f"{cls.__name__}.{attr}"
        self.counts[key] = 0
        orig = getattr(cls, attr)

        def counted(*args):
            if self.decision is not None:
                self.counts[key] += 1
            return orig(*args)

        setattr(cls, attr, counted)
        self._undo.append((cls, attr, orig))

    def uninstall(self):
        for m, attr, fn in reversed(self._undo):
            setattr(m, attr, fn)
        self._undo.clear()

    def call(self, name, decision, fn, arg):
        """Run ``fn(arg)`` as the root span of one decision."""
        self.decision = decision
        try:
            return self._wrap(name, fn)(arg)
        finally:
            self.decision = None


def self_times(spans, include) -> dict:
    """Seconds per layer (the span name's first component) not covered by
    the span's direct children, over the spans that ``include`` accepts;
    calls are sequential, so children never overlap."""
    covered: dict = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict = defaultdict(float)
    for sid, span in enumerate(spans):
        if include(span):
            out[span[0].split(".")[0]] += span[2] - span[1] - covered[sid]
    return out
