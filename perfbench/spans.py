"""In-memory span recorder for the traced run.

Spans are installed from outside the program: :func:`hook` replaces a
public function or method with a wrapper that records ``(name, start, end,
parent, request id)``.  Nothing inside ``src/`` changes.  An entry point that
no longer exists is listed as unmeasured instead of failing the run, so the
benchmark survives refactors that move or delete a layer.

A span's *self time* is its duration minus the time its child spans cover
(children are spans opened on the same thread while it was open).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable


# The wrappers are compiled into a namespace without ``__file__``.  The
# program finds the file a value was logged from by walking the stack to the
# first frame whose module has a ``__file__`` outside the library
# (``Session.current_filename``); a wrapper frame defined in this file would
# be taken for the user's script and change the recorded ``filename``.
_WRAPPER_SOURCE = """
def hot(original, recorder, totals, clock):
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return original(*args, **kwargs)
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            totals[0] += 1
            totals[1] += clock() - start
    return wrapper


def span(original, recorder, name, when, after):
    def wrapper(*args, **kwargs):
        if not recorder.enabled or (when is not None and not when(*args, **kwargs)):
            return original(*args, **kwargs)
        with recorder.span(name):
            result = original(*args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result
    return wrapper
"""
_WRAPPERS: dict[str, Any] = {"__builtins__": __builtins__}
exec(compile(_WRAPPER_SOURCE, "<perfbench-spans>", "exec"), _WRAPPERS)  # noqa: S102


class Recorder:
    """Spans and counters of one traced run, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.enabled = False
        #: (name, start_ns, end_ns, parent index or -1, request id)
        self.spans: list[tuple[str, int, int, int, str]] = []
        #: Hot entry points keep only a count and a total (ns).
        self.hot: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        self.unmeasured: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # ----------------------------------------------------------------- spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: str = ""):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, time.perf_counter_ns(), 0, parent, rid))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            n, start, _, p, r = self.spans[index]
            self.spans[index] = (n, start, time.perf_counter_ns(), p, r)

    def add_span(self, name: str, start_ns: int, end_ns: int, rid: str = "") -> None:
        """A span measured elsewhere (client-side request timings)."""
        if self.enabled:
            with self._lock:
                self.spans.append((name, start_ns, end_ns, -1, rid))

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------ hooks
    def hook(self, owner: Any, attr: str, name: str, *, hot: bool = False,
             when: Callable[..., bool] | None = None,
             after: Callable[[Any, tuple, dict], None] | None = None) -> None:
        """Wrap ``owner.attr`` in a span named ``name``.

        ``hot`` keeps only a count and total for entry points called per
        logged value.  ``when(*args, **kwargs)`` limits the span to matching
        calls; ``after(result, args, kwargs)`` records counters from a call.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.unmeasured.append(name)
            return
        if hot:
            totals = self.hot.setdefault(name, [0, 0])
            wrapper = _WRAPPERS["hot"](original, self, totals, time.perf_counter_ns)
        else:
            wrapper = _WRAPPERS["span"](original, self, name, when, after)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)

    def hook_context(self, owner: Any, attr: str, name: str) -> None:
        """Wrap a context-manager factory: the span covers the ``with`` body."""
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.unmeasured.append(name)
            return
        recorder = self

        @functools.wraps(original)
        @contextmanager
        def wrapper(*args, **kwargs):
            with recorder.span(name), original(*args, **kwargs) as value:
                yield value
        setattr(owner, attr, wrapper)

    # --------------------------------------------------------------- results
    def durations_ms(self, name: str) -> list[float]:
        return [(e - s) / 1e6 for n, s, e, _, _ in self.spans if n == name and e]

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total ms and self ms."""
        child_ns = [0] * len(self.spans)
        for _, s, e, parent, _ in self.spans:
            if parent >= 0 and e:
                child_ns[parent] += e - s
        table: dict[str, dict[str, float]] = {}
        for i, (name, s, e, _, _) in enumerate(self.spans):
            if not e:
                continue
            row = table.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (e - s) / 1e6
            row["self_ms"] += (e - s - child_ns[i]) / 1e6
        for name, (calls, total) in self.hot.items():
            if calls:
                table[name] = {"count": calls, "total_ms": total / 1e6, "self_ms": total / 1e6}
        return table

    def covered_ms(self) -> float:
        """Wall time covered by top-level spans of the main thread's layers
        (overlapping top-level spans on other threads are not double counted)."""
        intervals = sorted((s, e) for _, s, e, p, _ in self.spans if p < 0 and e)
        covered, cur_s, cur_e = 0, None, None
        for s, e in intervals:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        return covered / 1e6

    def report(self, wall_ms: float, overhead_ms: float | None, out=None) -> str:
        """The per-layer self-time table, the wall-time share covered by
        spans, tracing overhead, and unmeasured entry points."""
        lines = [f"{'span':40s} {'count':>8s} {'total_ms':>11s} {'self_ms':>11s} {'self%':>6s}"]
        table = self.self_times()
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
            share = 100.0 * row["self_ms"] / wall_ms if wall_ms else 0.0
            lines.append(f"{name:40s} {row['count']:8.0f} {row['total_ms']:11.1f} {row['self_ms']:11.1f} {share:6.1f}")
        covered = self.covered_ms()
        lines.append(f"wall {wall_ms:.1f} ms; covered by spans {covered:.1f} ms "
                     f"({100.0 * covered / wall_ms if wall_ms else 0.0:.1f}%)")
        lines.append("tracing overhead: " + (f"{overhead_ms:.2f} ms per unit of work"
                                            if overhead_ms is not None else "client-side spans only, not separable"))
        if self.unmeasured:
            lines.append("unmeasured (entry point not found): " + ", ".join(sorted(self.unmeasured)))
        return "\n".join(lines)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "spans": [list(s) for s in self.spans],
            "hot": self.hot,
            "counters": self.counters,
            "unmeasured": self.unmeasured,
        }))
