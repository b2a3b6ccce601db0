"""Spans and counters around the library's public functions.

The tracer patches functions at run time from the benchmark's side; the
library itself is not changed.  A module-level function is rebound in
every ``trickle`` module that holds it (``confluence`` imports
``normalize`` and the stratum helpers by name, ``syllabic`` imports
``normalize``, ``garside`` and ``vjn`` import ``from_syllables``), and a
method is replaced on its class.

Timed wrappers record a span: name, start, end, parent span and op id.
Self time is the span minus the part its child spans cover, computed as
the spans close, so it stays exact even when stored spans are capped.
Calibration probes that interrupt a span are left out of its time.
Counting wrappers only count: they sit on the hottest calls (graph
edges, stratum tests), where a span per call would cost more than the
call.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.durations = defaultdict(list)   # tagged inclusive durations
        self.spans = []
        self.spans_dropped = 0
        self.op_id = None
        self.op_time = 0.0
        self.op_covered = 0.0
        self._stack = []
        self._next_id = 1
        self._patches = []

    # ------------------------------------------------------------------
    # spans

    def _open(self, name):
        frame = [name, perf_counter(), 0.0, self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exclude(self, seconds):
        """Leave out time the open span spent outside the library (a probe)."""
        if self._stack:
            self._stack[-1][4] += seconds

    def _close(self, frame):
        end = perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child, span_id, excluded = frame
        dur = end - start - excluded
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
            parent[4] += excluded
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end,
                               parent[3] if parent else None, self.op_id))
        else:
            self.spans_dropped += 1
        return dur

    def run_op(self, op_id, fn):
        """Run one benchmark op inside a root span."""
        self.op_id = op_id
        frame = self._open("op")
        try:
            return fn()
        finally:
            dur = self._close(frame)
            self.op_time += dur
            self.op_covered += frame[2]
            self.op_id = None

    def timed(self, name, fn, tag=None):
        """Wrap fn in a span; ``tag(args)`` may name a bucket for its duration."""
        open_, close = self._open, self._close
        durations = self.durations

        def wrapper(*args, **kwargs):
            frame = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = close(frame)
                if tag is not None:
                    label = tag(args)
                    if label is not None:
                        durations[f"{name}.{label}"].append(dur)
        return wrapper

    def counted(self, name, fn, on_result=None):
        """Wrap fn in a counter; ``on_result(result)`` may count more."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    # ------------------------------------------------------------------
    # patching

    def patch_function(self, module, attr, wrapper_of):
        """Replace module.attr in every loaded trickle module that holds it."""
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "trickle" or name.startswith("trickle.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr, wrapper_of):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper_of(original))
        self._patches.append((cls, attr, original))

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.durations.clear()
        self.spans.clear()
        self.spans_dropped = 0
        self.op_time = 0.0
        self.op_covered = 0.0


def length_bucket(n):
    """The word-length bucket of the scaling records, if n falls in one."""
    for lo, hi, label in ((25, 75, "len50"), (150, 300, "len200"), (600, 1200, "len800")):
        if lo <= n < hi:
            return label
    return None


def install(tracer, lib):
    """Wrap the public functions of every layer of the library."""
    t = tracer
    g = lib.graph.TrickleGraph
    for attr in ("edge", "phi", "sort_key"):
        t.patch_method(g, attr, lambda f, a=attr: t.counted(f"graph.{a}", f))
    t.patch_method(g, "phi_pow", lambda f: t.timed("graph.phi_pow", f))

    th = lib.thompson
    t.patch_function(th, "h_apply", lambda f: t.timed("thompson.h_apply", f))
    t.patch_function(th, "h_apply_inv", lambda f: t.timed("thompson.h_apply", f))
    t.patch_function(th, "level", lambda f: t.counted("thompson.level", f))

    p = lib.pilings
    calls = t.calls

    def strata_in(f):
        def wrapper(graph, piling):
            calls["pilings.normalize.strata_in"] += len(piling)
            return f(graph, piling)
        return t.timed("pilings.normalize", wrapper)

    def landed(out):
        if out is not None:
            calls["pilings.push_syllable.landed"] += 1

    def letters(out):
        calls["pilings.nf_letters.letters"] += len(out)

    def word_length(args):
        pairs = args[1]
        return length_bucket(len(pairs)) if hasattr(pairs, "__len__") else None

    t.patch_function(p, "normalize", strata_in)
    t.patch_function(p, "push_syllable", lambda f: t.counted("pilings.push_syllable", f, landed))
    t.patch_function(p, "stratum_can_add", lambda f: t.counted("pilings.stratum_can_add", f))
    t.patch_function(p, "from_syllables", lambda f: t.timed("pilings.from_syllables", f, word_length))
    t.patch_function(p, "nf_letters", lambda f: t.counted("pilings.nf_letters", f, letters))
    elt = p.GroupElement
    t.patch_method(elt, "__mul__", lambda f: t.timed("pilings.mul", f))
    t.patch_method(elt, "inverse", lambda f: t.timed("pilings.inverse", f))
    t.patch_method(elt, "__pow__", lambda f: t.timed("pilings.pow", f))

    t.patch_function(lib.syllabic, "syllabic_reduce", lambda f: t.timed("syllabic.syllabic_reduce", f))
    t.patch_function(lib.parabolic, "member", lambda f: t.timed("parabolic.member", f))
    gs = lib.garside
    t.patch_function(gs, "left_divides", lambda f: t.timed("garside.left_divides", f))
    t.patch_function(gs, "atom_left_divisors", lambda f: t.timed("garside.atom_divisors", f))
    t.patch_function(gs, "atom_right_divisors", lambda f: t.timed("garside.atom_divisors", f))
    t.patch_function(lib.vjn, "vjn_encode", lambda f: t.timed("vjn.vjn_encode", f))
    t.patch_function(lib.vjn, "kjn_graph", lambda f: t.timed("vjn.kjn_graph", f))

    c = lib.confluence
    for attr in ("enumerate_strata", "check_critical_pairs", "check_strategy_independence"):
        t.patch_function(c, attr, lambda f, a=attr: t.timed(f"confluence.{a}", f))

    def mult(f):
        def wrapper(self, i, j):
            before = calls["pilings.normalize"]
            out = f(self, i, j)
            calls["confluence.mult.lookups"] += 1
            if calls["pilings.normalize"] != before:
                calls["confluence.mult.misses"] += 1
            return out
        return wrapper
    t.patch_method(c._Reducer, "mult", mult)

    t.patch_function(lib.families, "fixture", lambda f: t.timed("families.build", f))
    t.patch_function(lib.jsonio, "load_graph", lambda f: t.timed("jsonio.load_graph", f))
