"""Spans around the calls into camspec's layers, recorded from outside.

``install`` replaces each public function of the nine layer modules, in
every camspec module that holds a reference to it, with a wrapper that
records a span: name, start, end and the enclosing span. The program is
not edited; it calls the wrappers because it looks the names up in its
module globals at call time. Spans stay in memory as flat arrays and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("spectral", "camera", "gamut", "response", "sensitivity", "solvers",
          "pipeline", "io", "cli")

# Per-element helpers called up to 10^5 times per round. Wrapping them would
# multiply the tracing overhead; their time stays in their callers' self time.
UNTRACED = frozenset({
    "camera.interpolated_code",
    "camera.invert_response",
    "gamut.rgb_to_xy",
    "gamut.apply_gamut_map_batch",
    "spectral.integrate_sensitivity",
})


# Counters taken at a layer boundary: label -> (counter name, f(args, result)).
COUNTERS = {
    "gamut.partition_gamut": ("gamut.partition_gamut.points", lambda a, r: len(a[0])),
    "io.save_camera": ("io.bytes_written", lambda a, r: os.path.getsize(a[0])),
    "io.save_stack_csv": ("io.bytes_written", lambda a, r: os.path.getsize(a[0])),
    "io.save_spectral_csv": ("io.bytes_written", lambda a, r: os.path.getsize(a[0])),
    "io.save_dataset": ("io.bytes_written", lambda a, r: os.path.getsize(r)),
    "io.write_manifest": ("io.bytes_written", lambda a, r: os.path.getsize(r)),
    "io.save_evaluation_report": ("io.bytes_written", lambda a, r: sum(map(os.path.getsize, r))),
}


class Tracer:
    """In-memory span store. A span that raises also bumps ``<name>.failed``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.root = array("q")  # outermost enclosing span
        self._stack: list[int] = []
        self._active: list[int] = []  # open spans per name id
        self.counts: dict[tuple[str, str], int] = defaultdict(int)  # (root name, counter)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def open(self, name: str) -> int:
        nid = self._id(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.root.append(self.root[self._stack[0]] if self._stack else idx)
        self.nested.append(1 if self._active[nid] else 0)
        self.end.append(0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._active[self.name_id[idx]] -= 1

    def _count(self, idx: int, counter: str, amount: int) -> None:
        root = self.names[self.name_id[self.root[idx]]]
        self.counts[(root, counter)] += amount

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                self._count(idx, name + ".failed", 1)
                raise
            self.close(idx)
            if counter is not None:
                self._count(idx, counter[0], counter[1](args, result))
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def summary(self, weights=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (outermost spans of that name
        only) and self seconds (duration minus direct children).

        ``weights`` maps the name of a top-level span to a factor applied to
        everything recorded under it (default 1), e.g. 1/rounds for rounds.
        """
        weights = weights or {}
        factor = [weights.get(name, 1.0) for name in self.names]
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            w = factor[self.name_id[self.root[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += w
            row["self_s"] += (dur - child[i]) * 1e-9 * w
            if not self.nested[i]:
                row["s"] += dur * 1e-9 * w
        return out

    def weighted_counts(self, weights=None) -> dict[str, float]:
        """Counters summed over top-level spans with the same factors."""
        weights = weights or {}
        out: dict[str, float] = defaultdict(float)
        for (root, counter), amount in self.counts.items():
            out[counter] += amount * weights.get(root, 1.0)
        return dict(out)

    def write(self, path) -> None:
        """Spans as compressed numpy arrays: name index, parent index, start
        and end in ns since the first span; ``names`` maps name indices."""
        import numpy as np

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        start = np.frombuffer(self.start, dtype=np.int64)
        t0 = int(start[0]) if start.size else 0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=start - t0,
            end_ns=np.frombuffer(self.end, dtype=np.int64) - t0,
        )


def install(tracer: Tracer, package) -> list:
    """Wrap every public layer function wherever camspec binds it.

    Returns the (module, attribute, original) triples that ``uninstall``
    puts back.
    """
    modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}
    holders = [package, *modules.values()]
    replaced = []
    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            label = f"{layer}.{attr}"
            if (attr.startswith("_") or label in UNTRACED or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            traced = tracer.wrap(label, fn, COUNTERS.get(label))
            for holder in holders:
                if vars(holder).get(attr) is fn:
                    replaced.append((holder, attr, fn))
                    setattr(holder, attr, traced)
    return replaced


def uninstall(replaced: list) -> None:
    for holder, attr, fn in reversed(replaced):
        setattr(holder, attr, fn)


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Measured cost of one span: a traced no-op call minus a plain one."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        cost = ((t2 - t1) - (t1 - t0)) / calls
        best = cost if best is None else min(best, cost)
    return max(best, 0.0) * 1e-9
