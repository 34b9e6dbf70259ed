"""Outside-in tracing: timing wrappers around the calls into each layer.

Nothing in the program is instrumented.  After a confederation is built,
:class:`Tracer.wrap` replaces a public method *on one object* (an
instance attribute, so the class and every other object are untouched)
with a wrapper that records a span around the call.  The program's own
calls go through the wrapper because they look the method up on the
same object: ``Participant.publish_and_reconcile`` calls
``self.publish``, the participant's transport calls ``self.store.
reconciliation_batch``, the engine calls ``instance.apply_set`` and the
store calls ``policy.priority_of`` on the policy object it was handed.

Spans are ``(name, start_ns, end_ns, parent, run)`` tuples kept in
memory; ``parent`` is the index of the enclosing span within the same
run (-1 at top level) and ``run`` identifies the confederation run.
Every wrapped call is synchronous, and the async scheduler runs whole
synchronous segments on one thread, so a span stack gives the exact
parent.  :func:`self_times`
folds spans into per-name self time (duration minus direct children).
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int, int]


class Tracer:
    """Records spans for wrapped calls while :attr:`active`."""

    def __init__(self, run: int = 0) -> None:
        """Start inactive with no spans; ``run`` tags every span."""
        self.spans: List[Optional[Span]] = []
        self.run = run
        self.active = False
        #: Sum of the first argument per wrapped name, for wrappers
        #: created with ``sum_arg=True`` (e.g. seconds of latency paid).
        self.arg_sums: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def wrap(self, obj: object, attr: str, name: str, sum_arg: bool = False) -> None:
        """Replace ``obj.attr`` with a span-recording wrapper."""
        method = getattr(obj, attr)
        spans = self.spans
        stack = self._stack
        arg_sums = self.arg_sums
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return method(*args, **kwargs)
            if sum_arg:
                arg_sums[name] += args[0]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return method(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)

        setattr(obj, attr, traced)


def write_spans(spans: List[Span], path: Path) -> None:
    """Write spans as one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for name, start, end, parent, run in spans:
            out.write(
                json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "run": run}
                )
                + "\n"
            )


def self_times(
    spans: List[Span], since_ns: int = 0
) -> Tuple[Dict[str, float], Counter]:
    """Per-name self seconds and call counts of spans starting at or
    after ``since_ns``.  A span's self time is its duration minus the
    durations of its direct children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    seconds: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, (name, start, end, _parent, _run) in enumerate(spans):
        if start < since_ns:
            continue
        seconds[name] += (end - start - child_ns[index]) / 1e9
        calls[name] += 1
    return seconds, calls
