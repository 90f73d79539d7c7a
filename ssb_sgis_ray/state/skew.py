"""Straggler telemetry for the cell co-partitioned plans (r4 verdict
next-round #10).

Every large×large cell plan (pip_pairs_cell, overlay_*_cell) lives or
dies by the per-cell group-size distribution: one urban-hotspot cell 100×
the median is one straggling shuffle partition at 100 TB. This module
summarizes the per-cell row histogram into one JSON metrics row —
max / median / p90 / p99 / skew ratio — so the salting threshold
(`sjoin_cell_partitioned(salt_threshold=...)`) is tuned from recorded
evidence rather than guessed.

The histogram pass projects ONLY the cell column and counts cells in one
Ray task per block (``ops.spatial._cell_counts``): no shuffle runs, and
the calling process merges one small count per block. Enabling
telemetry still re-executes the upstream salting and right-side tagging
once more (the salted plan's left is materialized), so it is opt-in per
run, not always-on.

The same directory gets one plan row per sized exchange in
``plan_metrics.jsonl`` (estimated rows, hot cells, salts, partitions,
largest estimated partition), from numbers the plan already computed.
It is a separate file: readers take the last skew row as the summary of
the latest exchange.
"""

from __future__ import annotations

import json
import os

import numpy as np

SKEW_FILE = "skew_metrics.jsonl"
PLAN_FILE = "plan_metrics.jsonl"


def cell_skew_summary(tagged_ds, cell_col: str = "cell",
                      stage: str = "") -> dict:
    """One metrics row from a cell-tagged Dataset (pre-groupby)."""
    from ..ops.spatial import _cell_counts

    _, n = _cell_counts(tagged_ds, cell_col)
    if len(n) == 0:
        return {"stage": stage, "n_cells": 0, "rows": 0, "max": 0,
                "median": 0, "p90": 0, "p99": 0, "skew_ratio": 0.0}
    return {
        "stage": stage,
        "n_cells": int(len(n)),
        "rows": int(n.sum()),
        "max": int(n.max()),
        "median": int(np.median(n)),
        "p90": int(np.percentile(n, 90)),
        "p99": int(np.percentile(n, 99)),
        # the tuning signal: max cell vs the typical cell
        "skew_ratio": float(n.max() / max(float(np.median(n)), 1.0)),
    }


def _append(out_dir: str, name: str, row: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "a") as f:
        f.write(json.dumps(row) + "\n")


def _load(out_dir: str, name: str) -> list[dict]:
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(x) for x in f if x.strip()]


def record_cell_skew(out_dir: str, summary: dict) -> None:
    """Append one summary row to the run's skew metrics sidecar."""
    _append(out_dir, SKEW_FILE, summary)


def load_cell_skew(out_dir: str) -> list[dict]:
    return _load(out_dir, SKEW_FILE)


def record_plan(out_dir: str, row: dict) -> None:
    """Append one exchange-sizing row to the run's plan metrics sidecar."""
    _append(out_dir, PLAN_FILE, row)


def load_plans(out_dir: str) -> list[dict]:
    return _load(out_dir, PLAN_FILE)
