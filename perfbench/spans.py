"""In-memory span recorder and the layer boundaries it wraps.

A span is (name, start, end, parent, run id).  Spans live in flat
``array`` buffers so that a traced run of a few hundred thousand calls
stays small, and are written out once, when the benchmark ends.

The package is never edited: every span is recorded from here, by
replacing a module attribute that the pipeline looks up at call time
(for example ``qnetdyn.experiment.build_qrnn_map``) with a timing wrapper
around the original function, and restoring it afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    """Spans plus named work counters, recorded at layer boundaries."""

    def __init__(self, spill_dir):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counts: dict[tuple[int, str], int] = {}
        self.run_id = 0
        self._stack: list[int] = []
        # forked pool workers write their spans here, one file per row
        self.spill_dir = Path(spill_dir)

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, n: int) -> None:
        key = (self.run_id, name)
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` recording one span per call.

        ``counter(args, kwargs, result)`` may return {counter: increment};
        it runs after the span has closed.
        """
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.count(key, n)
            return result

        return traced

    # -- pool workers -------------------------------------------------

    def wrap_worker_root(self, name: str, fn):
        """Span for a function that a process pool may run in a forked
        worker.  In a worker, the spans and counts of each call are
        spilled to a file that the parent merges with :meth:`merge_spilled`."""
        nid = self._nid(name)
        origin = os.getpid()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            in_worker = os.getpid() != origin
            if in_worker:
                self._clear()  # drop what the fork copied from the parent
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if in_worker:
                    self._spill()

        return traced

    def _clear(self) -> None:
        for buf in (self.name_id, self.start, self.end, self.parent, self.run):
            del buf[:]
        self._stack = []
        self.counts = {}

    def _spill(self) -> None:
        name_id, start, end, parent, _ = self.arrays()
        keys = sorted(self.counts)
        np.savez(
            self.spill_dir / f"spans-{os.getpid()}-{time.perf_counter_ns()}.npz",
            names=np.array(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
            count_names=np.array([k[1] for k in keys], dtype=str),
            count_values=np.array([self.counts[k] for k in keys], dtype=np.int64),
        )
        self._clear()

    def merge_spilled(self) -> None:
        """Append the spans and counts that workers spilled.  A worker's
        row span stays a root: it ran beside the parent, not inside it."""
        for path in sorted(self.spill_dir.glob("spans-*.npz")):
            with np.load(path) as data:
                remap = np.array([self._nid(str(n)) for n in data["names"]], dtype=np.int32)
                parent = data["parent"]
                parent = np.where(parent < 0, -1, parent + len(self.start)).astype(np.int32)
                self.name_id.frombytes(remap[data["name_id"]].tobytes())
                self.start.frombytes(data["start"].tobytes())
                self.end.frombytes(data["end"].tobytes())
                self.parent.frombytes(parent.tobytes())
                self.run.frombytes(np.full(parent.size, self.run_id, dtype=np.int32).tobytes())
                for key, n in zip(data["count_names"], data["count_values"]):
                    self.count(str(key), int(n))
            path.unlink()

    # -- analysis -----------------------------------------------------

    def arrays(self):
        n = len(self.start)
        return (
            np.frombuffer(self.name_id, dtype=np.int32)[:n].copy(),
            np.frombuffer(self.start, dtype=np.float64)[:n].copy(),
            np.frombuffer(self.end, dtype=np.float64)[:n].copy(),
            np.frombuffer(self.parent, dtype=np.int32)[:n].copy(),
            np.frombuffer(self.run, dtype=np.int32)[:n].copy(),
        )

    def layer_table(self, run_id: int) -> dict:
        """{span name: (calls, inclusive s, self s)} for one run id.

        Self time is a span's duration minus the part its direct child
        spans cover; children never overlap their parent's other
        children within one process.
        """
        name_id, start, end, parent, run = self.arrays()
        keep = np.flatnonzero(run == run_id)
        if keep.size == 0:
            return {}
        dur = end - start
        self_t = dur.copy()
        child = keep[parent[keep] >= 0]
        np.subtract.at(self_t, parent[child], dur[child])
        table = {}
        for nid in np.unique(name_id[keep]):
            sel = keep[name_id[keep] == nid]
            table[self.names[nid]] = (
                int(sel.size),
                float(dur[sel].sum()),
                float(self_t[sel].sum()),
            )
        return table

    def durations(self, run_id: int, name: str) -> np.ndarray:
        name_id, start, end, _, run = self.arrays()
        nid = self._ids.get(name, -1)
        sel = (run == run_id) & (name_id == nid)
        return end[sel] - start[sel]

    def save(self, path) -> None:
        name_id, start, end, parent, run = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
            run=run,
        )


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``(owner, attribute, value)`` triples."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
