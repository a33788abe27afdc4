"""Outside-in span tracer: wraps public entry points, restores them after.

The benchmark never edits the program to trace it.  :class:`Tracer`
replaces chosen attributes (methods on a class, or functions on a module
*where the caller looks them up*) with wrappers that time each call and
charge it to a layer label.  A layer's *self time* is its span's
duration minus the time its child spans cover, computed from a
parent/child span stack, so the self times of one phase add up to the
wall time the outermost spans cover.

Wrappers keep the wrapped signature (``functools.wraps`` sets
``__wrapped__``, which :func:`inspect.signature` follows): callers that
dispatch on a signature, such as :func:`repro.causal.base.refit_model`,
behave the same traced or not.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Per-label call counts and self time over traced phases.

    ``stats[label] == [calls, self_seconds]``; ``rows[label]`` counts
    rows passed to entry points registered with ``rows=True``;
    ``durations[label]`` keeps inclusive span durations for labels
    registered with ``keep_durations=True``.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._stack: list[list[float]] = []  # one [child_seconds] per open span
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every count (patches stay installed)."""
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.rows: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)

    def wrap(self, fn, label: str, *, rows: bool = False, keep_durations: bool = False):
        """A signature-preserving wrapper charging ``fn``'s calls to ``label``.

        With ``rows=True`` the length of the first non-``self`` argument
        (a feature block) is added to ``rows[label]``.
        """
        stack = self._stack
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = tracer.stats[label]
                entry[0] += 1
                entry[1] += elapsed - frame[0]
                if rows:
                    tracer.rows[label] += len(args[1])
                if keep_durations:
                    tracer.durations[label].append(elapsed)

        return traced

    def patch(self, owner, attr: str, label: str, **options) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by a wrapper."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, label, **options))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    @contextmanager
    def installed(self, targets):
        """Patch ``targets`` — ``(owner, attr, label, options)`` tuples —
        for the duration of the block, restoring them however it exits."""
        try:
            for owner, attr, label, options in targets:
                self.patch(owner, attr, label, **options)
            yield self
        finally:
            self.restore()
