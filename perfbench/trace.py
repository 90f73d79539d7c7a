"""Span tracing for the benchmark's traced run.

Spans are recorded around calls into the engine's layers by wrapping the
layers' public functions from here (the engine itself is not edited).
The same wrappers are installed in the driver and, through Ray's
``worker_process_setup_hook``, in every worker process of the traced
session. Each process appends its finished spans to
``$PERFBENCH_TRACE_DIR/spans-<pid>.jsonl``; the driver reads them after
the run and assigns them to timed executions by their monotonic
timestamps (``time.perf_counter`` is CLOCK_MONOTONIC, shared by every
process on the host).

A span records both wall and process-CPU intervals. Self time is the
span's interval minus the part of it that its child spans cover
(``self_times``). Layer seconds are reported as self CPU seconds: the
Ray workers of one session share the host's cores, so wall intervals of
concurrent processes overlap and would be counted twice.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


# ---------------------------------------------------------------------------
# arithmetic (pure; covered by the self-tests)
# ---------------------------------------------------------------------------


def median(values) -> float:
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("median of no values")
    return float(statistics.median(vals))


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[dict], start: str = "c0", end: str = "c1") -> list[float]:
    """Self time of each span: its ``[start, end]`` interval minus the part
    covered by its direct children (spans whose ``parent`` is its ``id``
    in the same process)."""
    children = defaultdict(list)
    for s in spans:
        if s.get("parent") is not None:
            children[(s["pid"], s["parent"])].append((s[start], s[end]))
    out = []
    for s in spans:
        kids = children.get((s["pid"], s["id"]), [])
        dur = s[end] - s[start]
        out.append(max(0.0, dur - covered_length(kids, s[start], s[end])))
    return out


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


class Recorder:
    """Per-process span sink: a stack per thread, spans appended to one
    JSON-lines file as they close."""

    def __init__(self, trace_dir: str):
        os.makedirs(trace_dir, exist_ok=True)
        self.path = os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")
        self._file = open(self.path, "a", buffering=1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> dict:
        st = self._stack()
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        parent = st[-1] if st else None
        frame = {
            "id": sid, "name": name, "pid": os.getpid(),
            "parent": parent["id"] if parent else None,
            # counters are kept only on the outermost span of a layer, so
            # a layer function calling another of the same layer counts
            # its work once
            "count": parent is None or parent["name"] != name,
            "counts": {},
            "w0": time.perf_counter(), "c0": time.process_time(),
        }
        st.append(frame)
        return frame

    def close(self, frame: dict) -> None:
        frame["w1"] = time.perf_counter()
        frame["c1"] = time.process_time()
        st = self._stack()
        if st and st[-1] is frame:
            st.pop()
        del frame["count"]
        line = json.dumps(frame)
        with self._lock:
            self._file.write(line + "\n")


_RECORDER: Recorder | None = None


def recorder() -> Recorder | None:
    return _RECORDER


def start(trace_dir: str) -> Recorder:
    global _RECORDER
    if _RECORDER is None:
        _RECORDER = Recorder(trace_dir)
    return _RECORDER


class Span:
    """``with Span(name) as counts: counts["rows"] = n`` — a no-op when
    this process has no recorder."""

    def __init__(self, name: str):
        self.name = name
        self.frame = None

    def __enter__(self) -> dict:
        rec = _RECORDER
        if rec is None:
            return {}
        self.frame = rec.open(self.name)
        return self.frame["counts"]

    def __exit__(self, *exc) -> None:
        if self.frame is not None:
            _RECORDER.close(self.frame)


def read_spans(trace_dir: str) -> list[dict]:
    spans = []
    if not os.path.isdir(trace_dir):
        return spans
    for fn in sorted(os.listdir(trace_dir)):
        if fn.startswith("spans-") and fn.endswith(".jsonl"):
            with open(os.path.join(trace_dir, fn)) as f:
                spans.extend(json.loads(x) for x in f if x.strip())
    return spans


# ---------------------------------------------------------------------------
# Ray Data operator stats (Dataset.stats() in structured form)
# ---------------------------------------------------------------------------


@dataclass
class OpStat:
    name: str
    wall_s: float
    cpu_s: float
    rows: int
    bytes: int


def dataset_ops(summary) -> list[OpStat]:
    """Per-operator wall, CPU, output rows and bytes of one Ray Data
    execution's stats summary (``DatasetStatsSummary``), parents included
    — the numbers ``Dataset.stats()`` prints."""
    out: list[OpStat] = []
    seen: set[int] = set()

    def total(d) -> float:
        return float(d.get("sum", 0.0)) if d else 0.0

    def walk(summary) -> None:
        if id(summary) in seen:
            return
        seen.add(id(summary))
        for p in summary.parents:
            walk(p)
        for op in summary.operators_stats:
            out.append(OpStat(op.operator_name, total(op.wall_time),
                              total(op.cpu_time), int(total(op.output_num_rows)),
                              int(total(op.output_size_bytes))))

    walk(summary)
    return out


class DriverTracer:
    """Driver-side half of the tracer: a stack of roles (engine calls that
    execute Datasets internally) and the stats of Datasets consumed."""

    def __init__(self):
        self.ops: list[tuple[str, OpStat]] = []
        self._roles: list[str] = []

    def reset(self) -> list[tuple[str, OpStat]]:
        """The (role, operator) stats noted since the last reset."""
        ops, self.ops = self.ops, []
        return ops

    @contextlib.contextmanager
    def role(self, name: str):
        self._roles.append(name)
        try:
            yield
        finally:
            self._roles.pop()

    def note(self, summary) -> None:
        role = self._roles[-1] if self._roles else "main"
        self.ops.extend((role, op) for op in dataset_ops(summary))
