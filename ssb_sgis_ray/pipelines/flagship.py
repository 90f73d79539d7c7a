"""Flagship pipeline: the north-star spatial-join + tile-assignment job.

    images (synthesized per input_hint schema, or a materialized table)
      -> FusedFlagshipStage      one map task per read block:
           decode + per-row invariants (DecodeValidate: zlib per image,
             then source render, SSE/PSNR and aHash as reductions over
             flat chunk buffers)
           georeferenced box per image (add_footprints)
           region PIP/intersects join (broadcast nation diamonds, their
             STRtree built once per job in one Ray task and fetched per
             block) — the enrichment step of sgis's
             write_municipality_data (io/write_municipality_data.py:144-195)
           covering-tile flat-map  raster<->vector assignment
           sink partition key (region x tile sub-block)
      -> partitioned parquet sink by that key (state/manifest.py): the
         stage output materialized once, rows counted per key, keys cut
         into one balanced range per CPU, one plain Ray reducer task per
         range writing its keys side by side; atomic per-partition
         files, checkpoint manifest with per-partition lineage +
         metrics, exact resume

The per-image chain runs as plain Ray Data tasks, not an actor pool: no
actor starts per execution, and the task workers keep their imports
between executions. Inside a task, decode+validate, footprint, region
join and cover run over the whole block: per image only the codec's
inflate (zlib) runs, plus the encode when the images are synthesized
rather than read. The region index (``spatial.broadcast_index``) is built
once per run by one Ray task, as every broadcast join builds its index;
each block's stage ``ray.get``s it. Uncapped (``concurrency=None``), Ray
fuses read -> stage into one task operator; Ray 2.49 fuses two task
operators only when their caps are equal, so a capped stage runs behind
its own (cheap) read operator.

Payload discipline (SURVEY.md §7.5): image ``bytes`` do NOT ride through
the exchange — the wide step moves only (image_id, doc_id, region, tile)
projections; the partitioned sink re-joins nothing because the partition
files are keyed by id and tile only. A consumer needing pixels joins back
by image_id against the source (Lance take-by-rowid at scale).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .. import synth
from ..geo import wkb
from ..ops import spatial
from ..sources import images as img_src
from ..state import manifest as mf


def region_table(sf_dir: str) -> pa.Table:
    t = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])
    return synth.add_nation_diamonds(t)


class FusedFlagshipStage:
    """The whole per-image chain in one callable.

    build images -> decode+validate -> footprint -> region join (an
    ``SFilter`` in pairs mode over the regions' prebuilt broadcast
    index, ``index_ref``) -> covering-tile flat-map, all inside a single
    ``__call__``. ``flagship_task`` builds one per block, so the chain
    runs in one map task per block and never ships the image ``bytes``
    between operators — the only wide step left in the job is the sink's
    sized exchange on ``part_key``.
    """

    def __init__(self, index_ref, copies: int = 1, prebuilt: bool = False):
        self.join = spatial.SFilter(index_ref, mode="pairs", left_kind="polygon",
                                    right_cols=["n_nationkey"])
        self.prebuilt = prebuilt  # input is already an image table (Lance)
        self.build = img_src.BuildImages(copies=copies)
        self.validate = img_src.DecodeValidate()

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = batch if self.prebuilt else self.build(batch)
        t = self.validate(t)
        t = img_src.add_footprints(t)
        slim = t.select(
            ["image_id", "doc_id", "decode_ok", "minx", "miny", "maxx", "maxy"]
        )
        boxes = np.stack(
            [slim[c].to_numpy(zero_copy_only=False).astype(np.float64)
             for c in ("minx", "miny", "maxx", "maxy")], axis=1,
        )
        slim = slim.append_column("geometry_wkb", wkb.encode_boxes_arrow(boxes))
        return _cover_with_region(self.join(slim))


def flagship_task(batch: pa.Table, index_ref, copies: int, prebuilt: bool,
                  subparts: int) -> pa.Table:
    """Map task over one read block: the fused chain plus the sink key."""
    stage = FusedFlagshipStage(index_ref, copies=copies, prebuilt=prebuilt)
    return _add_part_key(stage(batch), subparts)


def _add_part_key(batch: pa.Table, subparts: int) -> pa.Table:
    nat = batch["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    bx = batch["tile_x"].to_numpy(zero_copy_only=False).astype(np.int64) % subparts
    by = batch["tile_y"].to_numpy(zero_copy_only=False).astype(np.int64) % subparts
    key = nat * (subparts * subparts) + bx * subparts + by
    return batch.append_column("part_key", pa.array(key, pa.int64()))


def materialize_images(sf_dir: str, out_path: str, copies: int = 1,
                       concurrency=(1, 8)) -> str:
    """Materialize the image+caption table (input_hint schema) to a Lance
    dataset — parquet fallback when pylance is absent (sources/lance_io).
    Returns the format written. flagship(source_path=...) consumes it."""
    from ..sources import lance_io

    ds = img_src.images_dataset(sf_dir, concurrency=concurrency, copies=copies)
    return lance_io.write_table(ds, out_path, prefer="lance")


def flagship(sf_dir: str, out_dir: str, concurrency=(1, 8), copies: int = 1,
             source_path: str | None = None, subparts: int = 2) -> dict:
    """Run the flagship job; returns summary metrics.

    ``copies`` multiplies the image count per document (bench scale knob —
    the per-image work is identical, there is just more of it).
    ``source_path``: read the image table from a materialized Lance (or
    fallback parquet) dataset instead of synthesizing from documents —
    the north rule's Lance-first input path.
    ``subparts``: the sink partitions by region × (tile_x, tile_y mod
    subparts), giving 25·subparts² writer groups — writer parallelism is
    no longer capped at the 25 regions (VERDICT r1 flagship scale note);
    resume stays exact per sub-partition.
    ``concurrency``: cap on concurrent stage tasks — an int, a
    ``(min, max)`` tuple whose max is the cap, or None for no cap.
    Parallelism comes from the read blocks."""
    import ray.data as rd

    index_ref = spatial.broadcast_index(region_table(sf_dir), ["n_nationkey"])
    if source_path is not None:
        from ..sources import lance_io

        src = lance_io.read_dataset(source_path)
    else:
        src = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    tiled = src.map_batches(
        flagship_task,
        fn_kwargs={
            "index_ref": index_ref, "copies": copies,
            "prebuilt": source_path is not None, "subparts": subparts,
        },
        batch_format="pyarrow",
        batch_size=None,
        # Ray rejects (min, max) tuples for function stages: max is the cap
        concurrency=concurrency[1] if isinstance(concurrency, tuple) else concurrency,
    )
    rows = mf.write_partitioned_resumable(
        tiled, out_dir, partition_col="part_key", id_col="image_id",
        stage="flagship_tiles",
    )
    fresh = [r for r in rows if not r.get("resumed")]
    return {
        "partitions_written": len(fresh),
        "rows_written": int(sum(r["n_rows"] for r in fresh)),
        "bytes_written": int(sum(r["n_bytes"] for r in fresh)),
        "partitions_total": len(rows),
    }


def _cover_with_region(batch: pa.Table) -> pa.Table:
    cov = spatial.cover_tiles_flatmap(batch, synth.TILE, "image_id")
    # re-attach region + doc columns by positional repeat (cover preserves
    # input order and repeats rows contiguously)
    minx = batch["minx"].to_numpy(zero_copy_only=False).astype(np.int64)
    miny = batch["miny"].to_numpy(zero_copy_only=False).astype(np.int64)
    maxx = batch["maxx"].to_numpy(zero_copy_only=False).astype(np.int64)
    maxy = batch["maxy"].to_numpy(zero_copy_only=False).astype(np.int64)
    nx = (maxx - 1) // synth.TILE - minx // synth.TILE + 1
    ny = (maxy - 1) // synth.TILE - miny // synth.TILE + 1
    counts = nx * ny
    rows = np.repeat(np.arange(len(batch)), counts)
    out = cov
    for c in ("n_nationkey", "doc_id", "decode_ok"):
        out = out.append_column(c, batch[c].take(pa.array(rows, pa.int64())))
    return out
