"""Spans around chiralsep's public functions, installed from outside.

`Tracer.install` replaces a function at every name it is bound to inside
the loaded ``chiralsep`` modules (``chiralsep.propagate.ensemble_potential_trace``
and ``chiralsep.scenarios.ensemble_potential_trace`` are the same object, so
both names get the same wrapper).  Each call records a span in memory:
name, start, end, parent span, peak RSS before and after, and an optional
measurement of the returned value.  `Tracer.uninstall` puts every original
object back.  A target that no longer exists is listed in `missing` and its
metrics stay absent.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1            # index into Tracer.spans, -1 for a root
    rss_before_kb: int = 0
    rss_after_kb: int = 0
    measure: object = None      # value of the target's `measure` hook


@dataclass
class Target:
    """One public function (or method) to wrap.

    `path` is ``module:attr`` or ``module:Class.method``; `name` is the span
    name; `measure` maps (args, kwargs, result) to a value kept on the span.
    """

    path: str
    name: str
    measure: object = None


#: the package whose loaded modules `Tracer.install` patches
PACKAGE = "chiralsep"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)   # (owner, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the caller's own code."""
        sp = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                  rss_before_kb=_maxrss_kb())
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.rss_after_kb = _maxrss_kb()
            self._stack.pop()

    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(target.name) as sp:
                result = fn(*args, **kwargs)
            if target.measure is not None:
                sp.measure = target.measure(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets):
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for target in targets:
            modname, _, attr = target.path.partition(":")
            owner = sys.modules.get(modname)
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                self.missing.append(target.path)
                continue
            wrapper = self._wrap(original, target)
            if len(parts) > 1:          # method: patch the class attribute only
                self._patch(owner, parts[-1], original, wrapper)
                continue
            for mod in mods:            # every module-level name bound to it
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[float]:
    """Per span: duration minus the time its direct children cover.

    Spans come from one thread, so children of a span are disjoint and
    nested inside it; their durations add up.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, child)]


def has_ancestor(spans, k: int, name: str) -> bool:
    p = spans[k].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def summarize(spans) -> dict:
    """name -> {calls, s (inclusive, outermost spans only), self_s, rss_growth_mb}."""
    selfs = self_times(spans)
    out: dict = {}
    for k, sp in enumerate(spans):
        row = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "rss_growth_mb": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[k]
        if not has_ancestor(spans, k, sp.name):
            row["s"] += sp.end - sp.start
            row["rss_growth_mb"] += (sp.rss_after_kb - sp.rss_before_kb) / 1024.0
    return out
