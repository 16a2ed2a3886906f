"""Wall-time spans recorded from outside the program.

A :class:`SpanRecorder` times calls into each layer's public functions
and callbacks by wrapping them for the length of one traced iteration;
nothing inside ``repro`` changes.  Spans are kept in memory as
``[name, start, end, parent]`` lists (``parent`` is the index of the
enclosing span, -1 for a root) and written out when the run ends.

Layer spans and container spans are told apart by name: a container
(:data:`CONTAINERS`) is a timed region of the workload whose own time
is glue between layer calls.  The self time of the containers is the
run's *unattributed* time.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

#: timed regions whose self time no layer claims
CONTAINERS = ("crawl.learning", "crawl.harvest", "portal.cycle")


class SpanRecorder:
    """In-memory spans plus the counters measured at the same calls."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def start(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def closed(self, name: str, start: float, end: float) -> None:
        """Record a span that already ended (a pipeline stage event)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``on_result(result)`` runs after the span closes, so counting
        is not charged to the layer.  :meth:`unwrap_all` restores the
        attribute.
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)

        def timed(*args, **kwargs):
            index = self.start(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.finish(index)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original, had_own))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- summaries -----------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the union of the
        intervals its child spans cover.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        table: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = table.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += (end - start) - _covered(children[index])
        return table

    def timed_seconds(self) -> float:
        """Wall time of the root spans: the workload's timed regions."""
        return sum(end - start for _n, start, end, parent in self.spans
                   if parent < 0)

    def unattributed_seconds(self) -> float:
        table = self.layer_times()
        return sum(table[name]["self_s"] for name in CONTAINERS
                   if name in table)

    def dump(self, path) -> None:
        """Write every span as one JSON line (name, start, end, parent,
        run id); times are seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "a", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "run": self.run_id,
                    "id": index,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent if parent >= 0 else None,
                }))
                handle.write("\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
