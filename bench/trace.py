"""The harness's own span recorder: layers are timed from outside.

The program's ``Tracer`` is not used or extended here.  During a traced
pass the harness swaps public functions of the program for wrappers that
record one span per call -- name, start, end, parent span and repetition
id -- into an in-memory list; :meth:`SpanRecorder.remove` puts every
original attribute back.  Nothing in this module runs during the
end-to-end pass.

Two hot leaf calls (``Cluster.state_of``, ``Box.intersection``) would
produce ~10^5 spans per repetition; they are *accumulated* instead
(count + seconds per repetition, charged to the enclosing span as
covered time) so the span files stay small and the wrapper adds two
clock reads, not a list append, to a microsecond-scale call.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable

# Span record layout (a list, not an object: the wrapper mutates it in
# place and the per-call overhead is what the traced pass measures).
NAME, TAG, START, END, PARENT, REP, LEAF = range(7)

#: Repetition id carried by spans recorded during warm-up.
WARMUP_REP = -1


@dataclass
class SpanRecorder:
    """In-memory span store plus the patch list to undo."""

    spans: list[list] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    rep: int = WARMUP_REP
    #: (rep, name) -> [calls, seconds] of accumulated leaf calls
    leaves: dict[tuple[int, str], list] = field(
        default_factory=lambda: defaultdict(lambda: [0, 0.0])
    )
    #: (rep, name) -> value, for counts taken at span boundaries
    counts: dict[tuple[int, str], float] = field(
        default_factory=lambda: defaultdict(float)
    )
    #: (rep, name) -> distinct keys seen by a leaf's ``observe`` hook
    unique: dict[tuple[int, str], set] = field(
        default_factory=lambda: defaultdict(set)
    )
    _patched: list[tuple[Any, str, Any, bool]] = field(default_factory=list)

    # -- wrappers ------------------------------------------------------
    def span_wrapper(
        self,
        fn: Callable,
        name: str,
        annotate: Callable[["SpanRecorder", list, tuple, Any], None] | None = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records one span called ``name``.

        ``annotate(recorder, span, args, result)`` runs after a call that
        returned (not one that raised) and may set the span's tag or bump
        :attr:`counts`.
        """
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, None, 0.0, 0.0, stack[-1] if stack else -1, self.rep, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if annotate is not None:
                annotate(self, span, args, result)
            return result

        return wrapper

    def leaf_wrapper(
        self,
        fn: Callable,
        name: str,
        observe: Callable[["SpanRecorder", tuple, dict], None] | None = None,
    ) -> Callable:
        """Wrap a hot leaf: accumulate count + seconds, store no span."""
        spans, stack, leaves = self.spans, self.stack, self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                acc = leaves[self.rep, name]
                acc[0] += 1
                acc[1] += elapsed
                if stack:
                    spans[stack[-1]][LEAF] += elapsed
                if observe is not None:
                    observe(self, args, kwargs)

        return wrapper

    def count_wrapper(self, fn: Callable, name: str) -> Callable:
        """Wrap a call that is only counted (no clock reads)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[self.rep, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------
    def patch_attr(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (class or module attribute) by ``make(original)``."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original, own))

    def patch_function(
        self,
        original: Callable,
        make: Callable[[Callable], Callable],
        module_prefixes: Iterable[str] = ("repro", "bench"),
    ) -> None:
        """Replace a module-level function wherever it is bound by name.

        ``from m import f`` copies the binding, so patching ``m.f`` alone
        would miss callers; every loaded module under ``module_prefixes``
        whose namespace holds the same object gets the one wrapper.
        """
        wrapper = make(original)
        prefixes = tuple(module_prefixes)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith(prefixes):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original, True))

    def remove(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def patched_attributes(self) -> list[tuple[Any, str, Any]]:
        """(owner, attribute name, original object) of every live patch."""
        return [(owner, attr, orig) for owner, attr, orig, _ in self._patched]

    # -- export --------------------------------------------------------
    def to_records(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": s[NAME],
                "tag": s[TAG],
                "start": s[START],
                "end": s[END],
                "parent": s[PARENT],
                "rep": s[REP],
            }
            for i, s in enumerate(self.spans)
        ]


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time per span: duration minus the part its children cover.

    Children may overlap each other or stick out of the parent (spans
    from threads, clock jitter); the union clipped to the parent is what
    is subtracted, so self time is never negative.  Accumulated leaf
    seconds count as covered time of the span they ran under.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        duration = span[END] - span[START]
        cover = covered(children.get(idx, ()), span[START], span[END])
        out.append(max(0.0, duration - cover - span[LEAF]))
    return out


@dataclass
class SpanStats:
    """Aggregate of one span name over one repetition."""

    calls: int = 0
    total_s: float = 0.0  # outermost spans only: nested same-name calls count once
    self_s: float = 0.0
    by_tag: dict[str, float] = field(default_factory=lambda: defaultdict(float))


def aggregate(spans: list[list]) -> dict[int, tuple[dict[str, SpanStats], float]]:
    """Per repetition: stats per span name, and the wall its root spans cover."""
    out: dict[int, tuple[dict[str, SpanStats], float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        stats, root_cover = out.get(span[REP]) or (defaultdict(SpanStats), 0.0)
        entry = stats[span[NAME]]
        entry.calls += 1
        entry.self_s += self_s
        duration = span[END] - span[START]
        parent = span[PARENT]
        if parent < 0:
            root_cover += duration
        if parent < 0 or spans[parent][NAME] != span[NAME]:
            entry.total_s += duration
            if span[TAG] is not None:
                entry.by_tag[span[TAG]] += duration
        out[span[REP]] = (stats, root_cover)
    return out
