"""Layer boundaries of the engine and the per-layer metrics built on them.

``install()`` wraps the public functions of each layer (the engine's
modules) with ``trace.Span`` recorders. It runs in the driver and, as the
traced session's ``worker_process_setup_hook``, in every Ray worker.
``summarize()`` turns one timed execution's spans plus its Ray Data
operator stats into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import os

import numpy as np

from perfbench import trace

# (name, unit, better, what it measures, which end-to-end metric it should
# move on which workload). BENCHMARK.json carries name/unit/better; this
# table is the written-down prediction behind each one.
PER_LAYER = [
    ("sources.read_s", "s", "lower", "CPU of Ray Data read operators (parquet fallback; no lance here)", "wall_s, rows_per_s on flagship"),
    ("sources.read_bytes", "bytes", "lower", "bytes the read operators output", "wall_s on flagship"),
    ("sources.decode_validate_s", "s", "lower", "self CPU of sources.images.DecodeValidate (codecs/* inside)", "wall_s, rows_per_s on flagship"),
    ("sources.decode_rows", "count", "lower", "rows DecodeValidate decoded", "wall_s on flagship"),
    ("sources.decode_ok_ratio", "ratio", "higher", "decoded rows that passed validation / rows decoded", "correctness on flagship"),
    ("sources.footprint_s", "s", "lower", "self CPU of sources.images.add_footprints", "wall_s on flagship"),
    ("pipelines.flagship.stage_s", "s", "lower", "self CPU of FusedFlagshipStage.__call__ outside the layers it calls", "wall_s on flagship"),
    ("geo.wkb.s", "s", "lower", "self CPU of geo.wkb encode/decode", "wall_s on flagship, skew_join"),
    ("geo.wkb.bytes", "bytes", "lower", "WKB bytes encoded or decoded", "wall_s on flagship, skew_join"),
    ("geo.strtree.build_s", "s", "lower", "self CPU of STRtree construction", "wall_s on skew_join, poly_predicates"),
    ("geo.strtree.query_s", "s", "lower", "self CPU of STRtree.query_bbox", "wall_s on poly_predicates (most), skew_join"),
    ("geo.strtree.candidates", "count", "lower", "candidate pairs STRtree queries returned", "wall_s on poly_predicates, skew_join"),
    ("geo.kernels.refine_s", "s", "lower", "self CPU of the exact predicate kernels", "wall_s, rows_per_s on poly_predicates (most), skew_join, flagship"),
    ("geo.kernels.pairs_in", "count", "lower", "candidate pairs given to the kernels", "wall_s on poly_predicates (the fused pass cuts it 4x)"),
    ("geo.kernels.pairs_kept", "count", "lower", "pairs the kernels kept", "wall_s on poly_predicates, skew_join, flagship"),
    ("geo.kernels.keep_ratio", "ratio", "higher", "pairs_kept / pairs_in (useful share of refine work)", "wall_s on poly_predicates"),
    ("geo.cells.tag_s", "s", "lower", "self CPU of the cell tagging in ops/spatial (geo/cells inside)", "wall_s, peak_rss_mb on skew_join"),
    ("geo.cells.rows_tagged", "count", "lower", "rows the tagging emitted, histogram pass included", "wall_s on skew_join"),
    ("geo.cells.right_replication", "ratio", "lower", "right rows after tagging and salting / right rows in", "wall_s, peak_rss_mb on skew_join"),
    ("ops.spatial.salt.hist_s", "s", "lower", "CPU of the histogram aggregate plus self CPU of the salting maps", "wall_s on skew_join"),
    ("ops.spatial.salt.hot_cells", "count", "lower", "cells above salt_threshold", "wall_s on skew_join"),
    ("ops.spatial.cell_kernel_s", "s", "lower", "self CPU of the per-cell join kernel outside geo/*", "wall_s on skew_join"),
    ("ops.spatial.cover_s", "s", "lower", "self CPU of ops.spatial.cover_tiles_flatmap", "wall_s on flagship"),
    ("ops.spatial.tiles_out", "count", "lower", "rows cover_tiles_flatmap emitted", "wall_s on flagship"),
    ("exchange.s", "s", "lower", "CPU of the groupby shuffle operators (Dataset.stats)", "wall_s, peak_rss_mb on skew_join, flagship"),
    ("exchange.rows", "count", "lower", "rows out of the shuffle reducers", "wall_s on skew_join, flagship"),
    ("exchange.bytes", "bytes", "lower", "bytes out of the shuffle mappers", "wall_s, peak_rss_mb on skew_join, flagship"),
    ("exchange.groups", "count", "higher", "groups the map_groups kernel received", "wall_s on skew_join, flagship"),
    ("exchange.max_group_rows", "count", "lower", "rows in the largest group", "wall_s on skew_join (hot key)"),
    ("exchange.skew_ratio", "ratio", "lower", "largest group / median group (state.skew.cell_skew_summary rule)", "wall_s on skew_join"),
    ("state.manifest.write_s", "s", "lower", "self CPU of the partition writer", "wall_s on flagship"),
    ("state.manifest.partitions", "count", "higher", "partitions written", "wall_s on flagship"),
    ("state.manifest.bytes_written", "bytes", "lower", "parquet bytes written", "wall_s on flagship"),
    ("state.manifest.verify_s", "s", "lower", "wall of state.manifest.verify_manifest (off the clock)", "none (verification)"),
    ("pool.index_build_s", "s", "lower", "self CPU of ops.spatial._BroadcastIndex construction", "setup_s, wall_s on flagship, poly_predicates"),
    ("pool.warmup_s", "s", "lower", "wall of the untimed warm-up execution", "setup_s on all"),
    ("trace.overhead_ratio", "ratio", "lower", "median traced wall / median untraced wall, same run", "none (benchmark)"),
    ("trace.coverage_ratio", "ratio", "higher", "sum of layer seconds / traced wall", "none (benchmark)"),
    ("trace.uncovered_s", "s", "lower", "traced wall not explained by any layer", "none (benchmark)"),
]

# Ray Data operator names (Dataset.stats) of the read and shuffle steps
_READ_PREFIXES = ("ReadParquet", "ReadLance")
_EXCHANGE_PREFIXES = ("Sort", "Aggregate", "HashShuffle", "Repartition", "Shuffle")

HIST_ROLE = "ops.spatial.salt.hist"

# the per-execution layer seconds; they are disjoint (span self times and
# the CPU of read/shuffle operators, which run no spans), so their sum is
# the part of the traced wall the trace explains
_TIME_LAYERS = (
    "sources.read_s", "sources.decode_validate_s", "sources.footprint_s",
    "pipelines.flagship.stage_s", "geo.wkb.s", "geo.strtree.build_s",
    "geo.strtree.query_s", "geo.kernels.refine_s", "geo.cells.tag_s",
    "ops.spatial.salt.hist_s", "ops.spatial.cell_kernel_s",
    "ops.spatial.cover_s", "exchange.s", "state.manifest.write_s",
    "pool.index_build_s",
)


def _len(x) -> int:
    return int(len(x)) if x is not None else 0


def _count_rows_in_out(c, a, k, out):
    c["rows_in"] = _len(a[0])
    c["rows_out"] = _len(out)


def _count_decode(c, a, k, out):
    c["rows"] = _len(a[1])
    c["ok"] = int(np.count_nonzero(out["decode_ok"].to_numpy(zero_copy_only=False)))


def _wkb_nbytes(col) -> int:
    """Bytes of a WKB column given as an Arrow array or a numpy object
    array."""
    if isinstance(col, np.ndarray):
        return int(sum(len(b) for b in col if b is not None))
    return int(col.nbytes)


def _count_wkb_in(c, a, k, out):
    c["bytes"] = _wkb_nbytes(a[0])


def _count_wkb_out(c, a, k, out):
    c["bytes"] = _wkb_nbytes(out)


def _count_candidates(c, a, k, out):
    c["candidates"] = _len(out[0])


def _count_pairs(pos):
    def count(c, a, k, out):
        c["pairs_in"] = _len(a[pos])
        c["pairs_kept"] = int(np.count_nonzero(out))
    return count


def _count_tiles(c, a, k, out):
    c["tiles_out"] = _len(out)


def _count_salt_left(c, a, k, out):
    _count_rows_in_out(c, a, k, out)
    c["hot_cells"] = _len(a[1])


def _count_group(c, a, k, out):
    c["group_rows"] = _len(a[0])


# (module, attribute path, span name, counter)
PATCHES = [
    ("ssb_sgis_ray.sources.images", "DecodeValidate.__call__", "sources.decode_validate", _count_decode),
    ("ssb_sgis_ray.sources.images", "add_footprints", "sources.footprint", None),
    ("ssb_sgis_ray.pipelines.flagship", "FusedFlagshipStage.__call__", "pipelines.flagship.stage", None),
    ("ssb_sgis_ray.geo.wkb", "decode_polygons", "geo.wkb", _count_wkb_in),
    ("ssb_sgis_ray.geo.wkb", "decode_points", "geo.wkb", _count_wkb_in),
    ("ssb_sgis_ray.geo.wkb", "decode_lines", "geo.wkb", _count_wkb_in),
    ("ssb_sgis_ray.geo.wkb", "encode_boxes_arrow", "geo.wkb", _count_wkb_out),
    ("ssb_sgis_ray.geo.wkb", "encode_points_arrow", "geo.wkb", _count_wkb_out),
    ("ssb_sgis_ray.geo.strtree", "STRtree.__init__", "geo.strtree.build", None),
    ("ssb_sgis_ray.geo.strtree", "STRtree.query_bbox", "geo.strtree.query", _count_candidates),
    ("ssb_sgis_ray.geo.kernels", "points_in_polygon_pairs", "geo.kernels.refine", _count_pairs(3)),
    ("ssb_sgis_ray.geo.kernels", "points_in_polygon_pairs_predicate", "geo.kernels.refine", _count_pairs(3)),
    ("ssb_sgis_ray.geo.kernels", "polygon_predicate_pairs", "geo.kernels.refine", _count_pairs(2)),
    ("ssb_sgis_ray.ops.spatial", "_tag_points_with_cells", "geo.cells.tag_left", _count_rows_in_out),
    ("ssb_sgis_ray.ops.spatial", "_tag_polys_with_cells", "geo.cells.tag_right", _count_rows_in_out),
    ("ssb_sgis_ray.ops.spatial", "_salt_left", "ops.spatial.salt_left", _count_salt_left),
    ("ssb_sgis_ray.ops.spatial", "_salt_right", "ops.spatial.salt_right", _count_rows_in_out),
    ("ssb_sgis_ray.ops.spatial", "_per_cell_pip", "ops.spatial.cell_kernel", _count_group),
    ("ssb_sgis_ray.ops.spatial", "cover_tiles_flatmap", "ops.spatial.cover", _count_tiles),
    ("ssb_sgis_ray.ops.spatial", "_BroadcastIndex.__init__", "pool.index_build", None),
]


def _wrap(fn, name, count):
    @functools.wraps(fn)
    def traced(*a, **k):
        rec = trace.recorder()
        if rec is None:
            return fn(*a, **k)
        frame = rec.open(name)
        try:
            out = fn(*a, **k)
            if count is not None and frame["count"]:
                count(frame["counts"], a, k, out)
            return out
        finally:
            rec.close(frame)

    traced.__perfbench_wrapped__ = fn
    return traced


def _wrap_writer(write_one):
    """Span around each call of the manifest's group writer closure."""

    @functools.wraps(write_one)
    def traced(g):
        with trace.Span("state.manifest.write") as c:
            out = write_one(g)
            c["group_rows"] = len(g)
            if not out["resumed"][0].as_py():
                c["partitions"] = 1
                c["bytes_written"] = int(out["n_bytes"][0].as_py())
            return out

    return traced


def _patch(owner, attr, wrapper_factory) -> None:
    fn = getattr(owner, attr)
    if getattr(fn, "__perfbench_wrapped__", None) is None:
        setattr(owner, attr, wrapper_factory(fn))


def install() -> None:
    """Wrap every layer boundary in this process (idempotent)."""
    for mod_name, path, name, count in PATCHES:
        owner = importlib.import_module(mod_name)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        _patch(owner, attr, lambda fn, n=name, c=count: _wrap(fn, n, c))

    mf = importlib.import_module("ssb_sgis_ray.state.manifest")

    def writer_factory(fn):
        @functools.wraps(fn)
        def make(*a, **k):
            return _wrap_writer(fn(*a, **k))
        make.__perfbench_wrapped__ = fn
        return make

    _patch(mf, "make_partition_writer", writer_factory)


def install_worker() -> None:
    """``worker_process_setup_hook`` of the traced session."""
    trace_dir = os.environ.get(trace.TRACE_DIR_ENV)
    if trace_dir:
        trace.start(trace_dir)
        install()


def install_driver(tracer: trace.DriverTracer, trace_dir: str) -> None:
    """Driver half: the layer wrappers plus role spans around the engine
    calls that execute Datasets internally, and stats capture for those
    executions."""
    trace.start(trace_dir)
    install()
    from ssb_sgis_ray.ops import spatial
    from ssb_sgis_ray.state import manifest as mf

    def role_factory(role):
        def factory(fn):
            @functools.wraps(fn)
            def wrapped(*a, **k):
                with tracer.role(role):
                    return fn(*a, **k)
            wrapped.__perfbench_wrapped__ = fn
            return wrapped
        return factory

    # sjoin_cell_partitioned runs only its histogram pass before returning;
    # the join itself executes when the caller consumes the result
    _patch(spatial, "sjoin_cell_partitioned", role_factory(HIST_ROLE))
    _patch(mf, "write_partitioned_resumable", role_factory("state.manifest.write_partitioned"))

    on_execution_end(after_shutdown=tracer.note)


_BEFORE_RELEASE: list = []
_AFTER_SHUTDOWN: list = []


def on_execution_end(before_release=None, after_shutdown=None) -> None:
    """Hooks on the end of every Dataset execution in this process.

    ``before_release()`` runs while the execution still holds its workers:
    just ahead of each actor-pool actor's release (an operator lets its
    actors go as soon as its input is used up, before the executor shuts
    down) and ahead of StreamingExecutor.shutdown.
    ``after_shutdown(stats_summary)`` runs behind that shutdown, in which
    every execution in the driver ends, whichever consumption call
    (to_pandas, count, ...) ran it."""
    from ray.data._internal.execution.operators.actor_pool_map_operator import _ActorPool
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    if before_release is not None:
        _BEFORE_RELEASE.append(before_release)
    if after_shutdown is not None:
        _AFTER_SHUTDOWN.append(after_shutdown)

    def shutdown_factory(fn):
        @functools.wraps(fn)
        def wrapped(self, *a, **k):
            first = (self._execution_started and not self._shutdown
                     and not getattr(self, "_perfbench_noted", False))
            if first:
                self._perfbench_noted = True
                for hook in _BEFORE_RELEASE:
                    hook()
            out = fn(self, *a, **k)
            if first and self._final_stats is not None:
                summary = self._final_stats.to_summary()
                for hook in _AFTER_SHUTDOWN:
                    hook(summary)
            return out
        wrapped.__perfbench_wrapped__ = fn
        return wrapped

    def release_factory(fn):
        @functools.wraps(fn)
        def wrapped(self, *a, **k):
            for hook in _BEFORE_RELEASE:
                hook()
            return fn(self, *a, **k)
        wrapped.__perfbench_wrapped__ = fn
        return wrapped

    _patch(StreamingExecutor, "shutdown", shutdown_factory)
    _patch(_ActorPool, "_release_running_actor", release_factory)


# ---------------------------------------------------------------------------
# per-execution summary
# ---------------------------------------------------------------------------


def _sum_counter(spans, name, key) -> int:
    return int(sum(s["counts"].get(key, 0) for s in spans if s["name"] == name))


def summarize(spans: list[dict], ops: list[tuple[str, trace.OpStat]],
              wall_s: float) -> dict:
    """Per-layer metrics of one traced execution from its worker/driver
    spans (CPU self time) and its (role, operator) Dataset stats."""
    self_cpu = trace.self_times(spans)
    by_name: dict[str, float] = {}
    for s, t in zip(spans, self_cpu):
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + t

    def secs(*names) -> float:
        return sum(by_name.get(n, 0.0) for n in names)

    read = [op for _, op in ops if op.name.startswith(_READ_PREFIXES)]
    hist_ex = [op for role, op in ops
               if role == HIST_ROLE and op.name.startswith(_EXCHANGE_PREFIXES)]
    main_ex = [op for role, op in ops
               if role != HIST_ROLE and op.name.startswith(_EXCHANGE_PREFIXES)]

    m = {}
    m["sources.read_s"] = sum(op.cpu_s for op in read)
    m["sources.read_bytes"] = sum(op.bytes for op in read)
    m["sources.decode_validate_s"] = secs("sources.decode_validate")
    rows = _sum_counter(spans, "sources.decode_validate", "rows")
    m["sources.decode_rows"] = rows
    m["sources.decode_ok_ratio"] = (
        _sum_counter(spans, "sources.decode_validate", "ok") / rows if rows else 0.0)
    m["sources.footprint_s"] = secs("sources.footprint")
    m["pipelines.flagship.stage_s"] = secs("pipelines.flagship.stage")
    m["geo.wkb.s"] = secs("geo.wkb")
    m["geo.wkb.bytes"] = _sum_counter(spans, "geo.wkb", "bytes")
    m["geo.strtree.build_s"] = secs("geo.strtree.build")
    m["geo.strtree.query_s"] = secs("geo.strtree.query")
    m["geo.strtree.candidates"] = _sum_counter(spans, "geo.strtree.query", "candidates")
    m["geo.kernels.refine_s"] = secs("geo.kernels.refine")
    pin = _sum_counter(spans, "geo.kernels.refine", "pairs_in")
    kept = _sum_counter(spans, "geo.kernels.refine", "pairs_kept")
    m["geo.kernels.pairs_in"] = pin
    m["geo.kernels.pairs_kept"] = kept
    m["geo.kernels.keep_ratio"] = kept / pin if pin else 0.0
    m["geo.cells.tag_s"] = secs("geo.cells.tag_left", "geo.cells.tag_right")
    m["geo.cells.rows_tagged"] = (_sum_counter(spans, "geo.cells.tag_left", "rows_out")
                                  + _sum_counter(spans, "geo.cells.tag_right", "rows_out"))
    right_in = _sum_counter(spans, "geo.cells.tag_right", "rows_in")
    right_out = (_sum_counter(spans, "ops.spatial.salt_right", "rows_out")
                 or _sum_counter(spans, "geo.cells.tag_right", "rows_out"))
    m["geo.cells.right_replication"] = right_out / right_in if right_in else 0.0
    m["ops.spatial.salt.hist_s"] = (sum(op.cpu_s for op in hist_ex)
                                    + secs("ops.spatial.salt_left", "ops.spatial.salt_right"))
    m["ops.spatial.salt.hot_cells"] = max(
        (s["counts"].get("hot_cells", 0) for s in spans
         if s["name"] == "ops.spatial.salt_left"), default=0)
    m["ops.spatial.cell_kernel_s"] = secs("ops.spatial.cell_kernel")
    m["ops.spatial.cover_s"] = secs("ops.spatial.cover")
    m["ops.spatial.tiles_out"] = _sum_counter(spans, "ops.spatial.cover", "tiles_out")
    m["exchange.s"] = sum(op.cpu_s for op in main_ex)
    m["exchange.rows"] = sum(op.rows for op in main_ex if op.name.endswith("Reduce"))
    m["exchange.bytes"] = sum(op.bytes for op in main_ex if op.name.endswith("Map"))
    groups = [s["counts"]["group_rows"] for s in spans
              if s["name"] in ("ops.spatial.cell_kernel", "state.manifest.write")
              and "group_rows" in s["counts"]]
    m["exchange.groups"] = len(groups)
    m["exchange.max_group_rows"] = max(groups, default=0)
    m["exchange.skew_ratio"] = (
        max(groups) / max(float(np.median(groups)), 1.0) if groups else 0.0)
    m["state.manifest.write_s"] = secs("state.manifest.write")
    m["state.manifest.partitions"] = _sum_counter(spans, "state.manifest.write", "partitions")
    m["state.manifest.bytes_written"] = _sum_counter(spans, "state.manifest.write", "bytes_written")
    m["pool.index_build_s"] = secs("pool.index_build")

    covered = sum(m[k] for k in _TIME_LAYERS)
    m["trace.coverage_ratio"] = covered / wall_s if wall_s else 0.0
    m["trace.uncovered_s"] = max(0.0, wall_s - covered)
    return m
