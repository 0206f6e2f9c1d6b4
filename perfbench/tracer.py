"""Outside-in span tracer for the bdlimits benchmark.

The tracer wraps public functions of the package from outside: each wrapper
replaces the function wherever a module of the package has it bound (for
example ``harness.substream`` and ``adversary.substream`` both get the
wrapper for ``rng.substream``), so the package source stays untouched. A
run without tracing installs nothing.

Each wrapper opens a span on a stack. A span's self time is its duration
minus the time covered by the spans it caused, so the self times of all
spans add up to the traced wall time less whatever ran outside any span.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass
from typing import Any, Callable

#: A hook sees each finished call (counters, args, kwargs, result, elapsed ns)
#: and adds exact counts to ``counters``.
Hook = Callable[[dict, tuple, dict, Any, int], None]


@dataclass
class FunctionStat:
    calls: int = 0
    self_ns: int = 0


class Tracer:
    """Span stack, per-function statistics and exact counters."""

    def __init__(self) -> None:
        self.stats: dict[str, FunctionStat] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, label: str, fn: Callable, hook: Hook | None = None) -> Callable:
        stat = self.stats.setdefault(label, FunctionStat())
        stack = self._stack
        spans = self.spans
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.calls += 1
                stat.self_ns += end - start - frame[1]
                spans.append((span_id, parent, label, start, end))
                if stack:
                    stack[-1][1] += end - start
            if hook is not None:
                hook(counters, args, kwargs, result, end - start)
                # the hook is tracer work: keep it out of the caller's self time
                if stack:
                    stack[-1][1] += clock() - end
            return result

        return traced

    def patch_function(
        self, label: str, original: Callable, modules: list, hook: Hook | None = None
    ) -> None:
        """Replace ``original`` in every module that has it bound."""
        traced = self.wrap(label, original, hook)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, traced)
                    self._patches.append((module, name, original))

    def patch_attribute(self, label: str, owner: Any, name: str, hook: Hook | None = None) -> None:
        """Replace one attribute of a class or object, e.g. a click callback."""
        original = getattr(owner, name)
        setattr(owner, name, self.wrap(label, original, hook))
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def snapshot(self) -> dict[str, float]:
        """Exact per-function call counts and counters, for repeat checks."""
        snap = {f"{label}.calls": stat.calls for label, stat in self.stats.items()}
        snap.update(self.counters)
        return snap

    def self_ns_total(self) -> int:
        return sum(stat.self_ns for stat in self.stats.values())

    def write_spans(self, path: str, limit: int) -> None:
        """The first ``limit`` spans, one JSON array per line: span id,
        parent id, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans[:limit]:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def trials_hook(label: str, fn: Callable, multiplier: int = 1) -> Hook:
    """Add the call's ``trials`` argument (times ``multiplier``) to ``<label>.trials``."""
    signature = inspect.signature(fn)
    key = f"{label}.trials"

    def hook(counters, args, kwargs, result, elapsed_ns):
        trials = signature.bind(*args, **kwargs).arguments["trials"]
        counters[key] = counters.get(key, 0) + multiplier * int(trials)

    return hook


def enumeration_hook(label: str) -> Hook:
    """Computed size of ``product_tv_exact``'s kron enumeration.

    ``outcomes`` is K**n per call. ``bytes_computed`` is the float64 bytes the
    enumeration writes: the kron chain for both laws (K**2 .. K**n entries
    each) plus the difference and its absolute value (K**n each). Both are
    computed from the arguments, not measured.
    """

    def hook(counters, args, kwargs, result, elapsed_ns):
        p0 = args[0]
        n = args[2] if len(args) > 2 else kwargs["n"]
        k = p0.alphabet_size
        outcomes = k**n
        written = 2 * sum(k**i for i in range(2, n + 1)) + 2 * outcomes
        counters[f"{label}.outcomes"] = counters.get(f"{label}.outcomes", 0) + outcomes
        counters[f"{label}.bytes_computed"] = (
            counters.get(f"{label}.bytes_computed", 0) + 8 * written
        )

    return hook
