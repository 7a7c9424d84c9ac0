"""In-memory spans around calls into rdsymm's public functions.

The tracer wraps functions from outside the package.  rdsymm modules bind
most of them with ``from .x import f``, so replacing the attribute on the
defining module alone would leave those calls untimed without any error:
``wrap`` replaces every module attribute that holds the original function,
unless the span is meant for one caller's binding only.

Spans stay in a list while the workload runs and are written out once it
has ended.  A span is ``[name, start_ns, end_ns, parent_index, tag]``; the
parent is the innermost span open when the call started (-1 for none).
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from typing import Callable, List, Optional

PACKAGE = "rdsymm"


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def _modules(self):
        return [mod for name, mod in sorted(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def wrap(self, span: str, owner, attr: str,
             tag: Optional[Callable] = None, everywhere: bool = True) -> None:
        """Time every call to ``owner.attr`` as ``span``.  With
        ``everywhere`` the wrapper also replaces each binding of the same
        function in the package's other modules; ``tag`` maps the return
        value to the data kept with the span."""
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        if everywhere:
            targets += [(mod, name) for mod in self._modules()
                        for name, value in vars(mod).items()
                        if value is original and (mod, name) != (owner, attr)]
        wrapper = self._wrapper(span, original, tag)
        for obj, name in targets:
            self._undo.append((obj, name, original))
            setattr(obj, name, wrapper)

    def _wrapper(self, span, fn, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [span, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if tag is not None:
                record[4] = tag(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def uninstall(self) -> None:
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)

    def self_ns(self) -> List[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        """One JSON line per span, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                name, start, end, parent, tag = span
                out.write(json.dumps([index, parent, name, start - t0,
                                      end - t0, tag]) + "\n")
