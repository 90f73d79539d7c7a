"""ssb_sgis_ray — a Ray-Data-native spatial-join + tiling engine.

A from-scratch engine (NOT a port) reproducing the core query semantics of
the reference `ssb-sgis` library — sjoin/sfilter point-in-polygon joins,
get_k_nearest_neighbors, clean_overlay, buffer-dissolve-explode, grid/tile
assignment, raster<->vector — re-expressed as Ray Data pipelines:
`ray.data.Dataset` -> `map_batches` over zero-copy Arrow batches, actor
pools for stateful stages (spatial indexes, codecs), and the co-group
exchange (`exchange.co_group`: every row of a key in one Arrow block, one
kernel call per block) for the wide shuffles; modules not yet moved onto
it still group with Ray Data's `groupby`.

Layers
------
geo/        pure numpy/Arrow geometry kernels (no Ray imports): WKB codec,
            point-in-polygon, convex clipping, STRtree, hierarchical cell
            index (H3-style Morton quadtree; the `h3` C library is not
            available in this environment, so the same interface is
            implemented as a deterministic Z-order quadtree).
ops/        Dataset-level operators (sfilter, sjoin, kNN, overlay, dissolve,
            tile assignment, dedup, ANN, text analysis).
stages/     map_batches callables — stateless functions and stateful actor
            classes.
sources/    readers/writers (parquet; resumable partitioned sink).
pipelines/  end-to-end job graphs (flagship image->tile->join pipeline).
state/      checkpoint manifest + per-partition lineage/metrics.
codecs/     pure-python image codecs (PNG via stdlib zlib; a clearly-marked
            deterministic lossy stand-in for JPEG) + perceptual hash.

Geometry on the wire is a WKB `binary` column; row identity is always an
explicit id column (never an index); every wide op keys on explicit columns
(cell id, cluster id, row id) so results are deterministic under Ray's
unordered block execution.
"""

__version__ = "0.1.0"


def _tune_allocator() -> None:
    """Keep large mallocs on the reused heap instead of mmap.

    This sandbox's kernel makes first-touch page faults pathologically slow
    (~60 us/page: an 80 MB fresh numpy allocation writes at ~25 MB/s, while
    already-touched memory runs at ~8 GB/s). glibc munmaps freed blocks
    >128 KiB, so every batch-sized allocation refaults its pages. Raising
    M_MMAP_THRESHOLD/M_TRIM_THRESHOLD keeps those blocks on the arena heap
    — the fault cost is paid once per worker instead of once per batch.
    Runs in every process that imports the package (driver and Ray
    workers, which import it when unpickling stage callables).
    """
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except OSError:  # non-glibc platform: harmless to skip
        pass


_tune_allocator()
