"""buffer-dissolve-explode and polygon clustering.

Reproduces the reference's cluster-first dissolve plan
(``dissexp_by_cluster`` — /root/reference/src/sgis/geopandas_tools/
buffer_dissolve_explode.py:209-300 — "many times faster if there are many
non-overlapping geometries") and ``get_polygon_clusters``
(polygon_operations.py:31-188: sjoin(self,self) pairs → connected
components → cluster label), plus ``update_geometries``' painter's
algorithm (duplicates.py:15-127) as the per-cluster serial kernel.

Distributed plan:
1. self-join pairs per cell (sjoin_cell_partitioned or broadcast);
2. connected components over the pair table — iterative min-label
   propagation expressed as repeated ``groupby(node).min(label)`` rounds
   (converges in O(cluster diameter) rounds; diamond/buffer clusters are
   shallow). A driver-side union-find shortcut is used when the pair table
   is provably small (< ``UNION_FIND_LIMIT`` pairs) — the common case
   after per-cell pre-aggregation, and exactly the situation the
   reference's networkx call handles in one process;
3. ``groupby(cluster).map_groups(painter_union)`` — per-cluster serial
   union with the deterministic sort order the reference requires
   (area desc, then row id; SURVEY.md §2.13).

The union of one cluster is represented as its disjoint painter pieces
(convex members in ⇒ convex pieces out), so union AREA is exact.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..geo import kernels, wkb
from ..geo.strtree import STRtree

from ..pool import default_pool

UNION_FIND_LIMIT = 5_000_000  # pairs; above this use distributed label prop


def default_join_partitions(requested: int | None = None) -> int:
    """Join/shuffle partition count bounded by the cluster's CPUs.

    Ray hash joins spin up one aggregator actor per partition; asking for
    32 partitions inside a 4-CPU test session just queues actors. Scale
    requests down to the actual CPU count (floor 2).
    """
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    cap = max(2, cpus)
    return min(requested or cap, cap)



def self_intersect_pairs(table: pa.Table, id_col: str) -> pd.DataFrame:
    """All (id_a, id_b) pairs of intersecting polygons (a < b), one table.

    Single-table helper for small/medium sides (used per cell at scale).
    """
    pg = wkb.decode_polygons(table["geometry_wkb"])
    b = kernels.polygon_bounds(pg)
    tree = STRtree(b)
    qi, pi = tree.query_bbox(b)
    mask = qi < pi  # dedupe + drop self-pairs
    qi, pi = qi[mask], pi[mask]
    if len(qi):
        keep = kernels.polygons_intersect_pairs(pg, pg, qi, pi)
        qi, pi = qi[keep], pi[keep]
    ids = table[id_col].to_numpy(zero_copy_only=False)
    return pd.DataFrame({"id_a": ids[qi], "id_b": ids[pi]})


_ID_PAIRS = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])


def self_intersect_pairs_ds(polys_ds, id_col: str, res: int = 8):
    """Distributed self-join intersect pairs via cell co-partitioning.

    Each polygon is tagged with every grid cell its bbox covers; pairs are
    found per cell (STRtree + exact refine) and deduplicated WITHOUT a
    second shuffle by the anchor-cell rule (``cells.anchored``), one
    co-group exchange on ``cell`` (``overlay.cell_co_group``).
    Returns a Dataset (id_a, id_b) with id_a < id_b.
    """
    from ..geo import cells
    from .overlay import cell_co_group

    def per_cell(g: pa.Table) -> pa.Table:
        if g.num_rows < 2:
            return _ID_PAIRS.empty_table()
        pg = wkb.decode_polygons(g["geometry_wkb"])
        b = kernels.polygon_bounds(pg)
        qi, pi = STRtree(b).query_bbox(b)
        mask = qi < pi
        qi, pi = qi[mask], pi[mask]
        # anchor-cell dedup before the (more expensive) exact refine
        minx, miny = g["minx"].to_numpy(), g["miny"].to_numpy()
        mask = cells.anchored(minx[qi], miny[qi], minx[pi], miny[pi],
                              g["cell"][0].as_py(), res)
        qi, pi = qi[mask], pi[mask]
        if len(qi) == 0:
            return _ID_PAIRS.empty_table()
        keep = kernels.polygons_intersect_pairs(pg, pg, qi, pi)
        ids = g["oid"].to_numpy()
        a, bb = ids[qi[keep]], ids[pi[keep]]
        return pa.table([np.minimum(a, bb), np.maximum(a, bb)], schema=_ID_PAIRS)

    return cell_co_group(polys_ds, None, id_col, None, res, per_cell)


def cluster_labels_ds(
    polys_ds,
    id_col: str,
    res: int = 8,
    num_partitions: int | None = None,
    limit: int = UNION_FIND_LIMIT,
):
    """get_polygon_clusters, fully distributed: cell-partitioned pairs →
    connected components → left join back (isolated rows label = own id).
    Returns the input Dataset with a ``cluster_label`` int64 column.
    """
    from .lookup import lookup_join

    polys_ds = polys_ds.materialize()  # consumed twice: pairs + join-back
    pairs = self_intersect_pairs_ds(polys_ds, id_col, res=res)
    labels = connected_components(pairs, limit=limit, num_partitions=num_partitions)
    # join-back: broadcast searchsorted lookup while the label table is
    # bounded (it IS driver-resident whenever the union-find path ran),
    # distributed hash join beyond — isolated rows label = own id
    return lookup_join(
        polys_ds, labels, id_col,
        small_key="node", value_col="label", out_col="cluster_label",
        default_from=id_col, num_partitions=num_partitions,
    )


def union_find_labels(ids: np.ndarray, pairs: pd.DataFrame) -> np.ndarray:
    """Connected-component label per id (label = min id in component)."""
    index = {int(v): i for i, v in enumerate(ids)}
    parent = np.arange(len(ids))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in zip(pairs["id_a"].to_numpy(), pairs["id_b"].to_numpy()):
        ra, rb = find(index[int(a)]), find(index[int(b)])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([find(i) for i in range(len(ids))])
    # canonical label: min id in component (order-independent, deterministic)
    lab = np.full(len(ids), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(lab, roots, ids.astype(np.int64))
    return lab[roots]


def label_propagation(pairs_ds, max_rounds: int = 50, num_partitions: int | None = None):
    """Distributed connected components — stays in Ray Data end to end.

    pairs_ds: Dataset of (id_a, id_b). Returns Dataset (node, label) with
    label = min node id in the component.

    Plan per round (no driver materialization, all vectorized):
      1. ``edges ⋈ labels`` hash join on the *peer* endpoint → each edge
         emits its peer's current label as a candidate for ``node``;
      2. union with the current labels and ``groupby(node).min`` → new
         labels, plus a per-row changed flag (vs a self-join on the old
         label) whose global sum is the convergence test — the only value
         that ever reaches the driver.
    Min-label propagation converges in O(component diameter) rounds;
    buffer/diamond overlap clusters are shallow. Raises RuntimeError when
    ``max_rounds`` is exhausted before convergence (a truncated result is
    *wrong*, not approximate — ADVICE r1).
    """
    from ray.data.aggregate import Min

    def explode(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False)
        b = batch["id_b"].to_numpy(zero_copy_only=False)
        node = np.concatenate([a, b])
        peer = np.concatenate([b, a])
        return pa.table({"node": pa.array(node, pa.int64()), "peer": pa.array(peer, pa.int64())})

    num_partitions = default_join_partitions(num_partitions)
    edges = pairs_ds.map_batches(explode, batch_format="pyarrow").materialize()
    # label(n) = min(n, min peer) after round 0's groupby
    labels = (
        edges.map_batches(
            lambda b: pa.table(
                {
                    "node": b["node"],
                    "cand": pa.array(
                        np.minimum(
                            b["node"].to_numpy(zero_copy_only=False),
                            b["peer"].to_numpy(zero_copy_only=False),
                        ),
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("node")
        .aggregate(Min("cand", alias_name="label"))
        .materialize()
    )

    for _ in range(max_rounds):
        # candidates: each edge adopts its peer's label for its node
        peer_lab = edges.join(
            labels,
            join_type="inner",
            num_partitions=num_partitions,
            on=("peer",),
            right_on=("node",),
            right_suffix="_r",
        ).map_batches(
            lambda b: pa.table({"node": b["node"], "cand": b["label"]}),
            batch_format="pyarrow",
        )
        new_labels = (
            peer_lab.union(
                labels.map_batches(
                    lambda b: pa.table({"node": b["node"], "cand": b["label"]}),
                    batch_format="pyarrow",
                )
            )
            .groupby("node")
            .aggregate(Min("cand", alias_name="label"))
            .materialize()
        )
        # convergence: any label strictly decreased?
        changed = (
            new_labels.join(
                labels,
                join_type="inner",
                num_partitions=num_partitions,
                on=("node",),
                left_suffix="_new",
                right_suffix="_old",
            )
            .map_batches(
                lambda b: pa.table(
                    {
                        "changed": pa.array(
                            (
                                b["label_new"].to_numpy(zero_copy_only=False)
                                != b["label_old"].to_numpy(zero_copy_only=False)
                            ).astype(np.int64),
                            pa.int64(),
                        )
                    }
                ),
                batch_format="pyarrow",
            )
            .sum("changed")
        )
        labels = new_labels
        if not changed:
            return labels
    raise RuntimeError(
        f"label_propagation did not converge in {max_rounds} rounds — "
        "component diameter exceeds the round budget"
    )


def connected_components(
    pairs_ds,
    limit: int = UNION_FIND_LIMIT,
    max_rounds: int = 50,
    num_partitions: int | None = None,
):
    """(id_a, id_b) pair Dataset -> (node, label) Dataset.

    Driver-side union-find when the pair table is provably bounded
    (single-process, like the reference's networkx call —
    polygon_operations.py:31-188); join-based distributed label
    propagation above the limit. Every caller that needs components
    should go through this dispatcher so the scale path is uniform.
    """
    import ray.data as rd

    pairs_ds = pairs_ds.materialize()
    n_pairs = pairs_ds.count()
    if n_pairs == 0:
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())})
        )
    if n_pairs <= limit:
        df = pairs_ds.to_pandas()
        nodes = np.unique(
            np.concatenate(
                [df["id_a"].to_numpy(np.int64), df["id_b"].to_numpy(np.int64)]
            )
        )
        labels = union_find_labels(nodes, df)
        return rd.from_pandas(
            pd.DataFrame({"node": nodes.astype(np.int64), "label": labels})
        )
    return label_propagation(
        pairs_ds, max_rounds=max_rounds, num_partitions=num_partitions
    )


def rect_painter_union(boxes: np.ndarray) -> np.ndarray:
    """Union of axis-aligned boxes as disjoint boxes (vectorized painter).

    Boxes are inserted area-desc; each new box keeps only the parts not
    covered by already-kept pieces (subtract_rect_from_rects is interval
    math over the whole piece set at once).
    """
    if len(boxes) == 0:
        return boxes.reshape(0, 4)
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    order = np.lexsort((np.arange(len(boxes)), -areas))
    pieces = np.empty((0, 4), dtype=np.float64)
    for i in order:
        mine = boxes[i : i + 1]
        for p in pieces:
            mine = kernels.subtract_rect_from_rects(mine, p)
            if len(mine) == 0:
                break
        if len(mine):
            pieces = np.concatenate([pieces, mine], axis=0)
    return pieces


def _rings_as_uv_rects(rings: list[np.ndarray]) -> np.ndarray | None:
    """If every ring is an L1 diamond, return their axis-rect bboxes in the
    45°-rotated frame (u=x+y, v=x−y); else None. Rect areas in uv-space are
    exactly 2× the xy areas (|det J| = 2)."""
    boxes = np.empty((len(rings), 4), dtype=np.float64)
    for i, ring in enumerate(rings):
        if len(ring) != 5:
            return None
        u = ring[:, 0] + ring[:, 1]
        v = ring[:, 0] - ring[:, 1]
        u0, u1, v0, v1 = u.min(), u.max(), v.min(), v.max()
        on_corner = ((u == u0) | (u == u1)) & ((v == v0) | (v == v1))
        area_uv = 0.5 * abs(np.sum(u[:-1] * v[1:] - u[1:] * v[:-1]))
        if not (on_corner.all() and area_uv == (u1 - u0) * (v1 - v0) and area_uv > 0):
            return None
        boxes[i] = [u0, v0, u1, v1]
    return boxes


def _rings_as_xy_rects(rings: list[np.ndarray]) -> np.ndarray | None:
    boxes = np.empty((len(rings), 4), dtype=np.float64)
    for i, ring in enumerate(rings):
        if len(ring) != 5:
            return None
        x, y = ring[:, 0], ring[:, 1]
        x0, x1, y0, y1 = x.min(), x.max(), y.min(), y.max()
        on_corner = ((x == x0) | (x == x1)) & ((y == y0) | (y == y1))
        area = kernels.ring_area(ring)
        if not (on_corner.all() and area == (x1 - x0) * (y1 - y0) and area > 0):
            return None
        boxes[i] = [x0, y0, x1, y1]
    return boxes


def painter_union_pieces(rings: list[np.ndarray], areas: np.ndarray) -> list[np.ndarray]:
    """Union of convex rings as disjoint pieces (painter's algorithm).

    Deterministic order: area desc (ties by input position) — the
    reference's update_geometries sort (duplicates.py:67-76). Row i keeps
    geometry minus the union of all earlier (= larger) rows; the kept
    pieces of every row partition the union.
    """
    order = np.lexsort((np.arange(len(rings)), -areas))
    pieces: list[np.ndarray] = []
    for i in order:
        mine = [rings[i]]
        for p in pieces:
            nxt = []
            for m in mine:
                nxt.extend(kernels.convex_difference_pieces(m, p))
            mine = nxt
            if not mine:
                break
        pieces.extend(mine)
    return pieces


def painter_kept_areas_group(g: pd.DataFrame, id_col: str) -> pd.DataFrame:
    """update_geometries' painter for ONE overlap cluster: rows sorted
    area-desc (ties by id), each keeps area minus the union of earlier
    rows (duplicates.py:15-127). Runs inside groupby(cluster).map_groups —
    clusters never interact, so per-cluster painting equals the global
    painting order restricted to the cluster.

    Fast path: diamonds as axis rects in the 45° uv frame. Generic path:
    accumulated-ring difference via the boolean engine (the accumulated
    union is just the ring soup — the winding rule unions it for free).
    """
    from ..geo import booleans

    pg = wkb.decode_polygons(g["geometry_wkb"].to_numpy())
    ids = g[id_col].to_numpy().astype(np.int64)
    areas = kernels.polygon_areas(pg)
    rings = [
        pg.coords[pg.ring_offsets[pg.poly_offsets[pg.geom_offsets[i]]] :
                  pg.ring_offsets[pg.poly_offsets[pg.geom_offsets[i]] + 1]]
        for i in range(len(pg))
    ]
    order = np.lexsort((ids, -areas))
    kept = np.zeros(len(ids))
    # uv fast path is only valid when every row is a single-part single-ring
    # polygon — `rings` holds just the FIRST ring of the FIRST part, so a
    # multi-part/holed row would silently lose its extra rings here
    simple = (np.diff(pg.geom_offsets) == 1).all() and (
        np.diff(pg.poly_offsets) == 1
    ).all()
    uv = _rings_as_uv_rects(rings) if simple else None
    if uv is not None:
        pieces = np.empty((0, 4))
        for i in order:
            mine = uv[i : i + 1]
            for p in pieces:
                mine = kernels.subtract_rect_from_rects(mine, p)
                if len(mine) == 0:
                    break
            if len(mine):
                kept[i] = ((mine[:, 2] - mine[:, 0]) * (mine[:, 3] - mine[:, 1])).sum() / 2.0
                pieces = np.concatenate([pieces, mine], axis=0)
    else:
        acc_rings: list[np.ndarray] = []
        acc_holes: list[bool] = []
        for i in order:
            r_r, r_h = booleans.ringset_of_row(pg, i)
            if not acc_rings:
                kept[i] = booleans.ringset_area(r_r, r_h)
            else:
                kept[i] = booleans.boolean_area(
                    r_r, acc_rings, "difference", r_h, acc_holes
                )
            acc_rings.extend(r_r)
            acc_holes.extend(r_h)
    return pd.DataFrame(
        {
            id_col: ids,
            "kept_area_i": np.round(kept).astype(np.int64),
        }
    )


def union_pieces_and_area(rings: list[np.ndarray], areas: np.ndarray):
    """(pieces, union_area) — fast rect/diamond paths, generic fallback."""
    xyr = _rings_as_xy_rects(rings)
    if xyr is not None:
        boxes = rect_painter_union(xyr)
        area = float(((boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])).sum())
        return list(kernels.rects_to_rings(boxes)), area
    uvr = _rings_as_uv_rects(rings)
    if uvr is not None:
        boxes = rect_painter_union(uvr)
        area = float(((boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])).sum()) / 2.0
        # map uv rects back to xy quads: x=(u+v)/2, y=(u−v)/2
        uv_rings = kernels.rects_to_rings(boxes)
        out = []
        for r in uv_rings:
            xy = np.stack([(r[:, 0] + r[:, 1]) / 2.0, (r[:, 0] - r[:, 1]) / 2.0], axis=1)
            out.append(xy)
        return out, area
    pieces = painter_union_pieces(rings, areas)
    return pieces, float(sum(kernels.ring_area(p) for p in pieces))


def union_area_of_group(g: pd.DataFrame) -> float:
    """Exact union area of one group of convex polygons."""
    pg = wkb.decode_polygons(g["geometry_wkb"].to_numpy())
    rings = [
        pg.coords[pg.ring_offsets[pg.poly_offsets[pg.geom_offsets[i]]] :
                  pg.ring_offsets[pg.poly_offsets[pg.geom_offsets[i]] + 1]]
        for i in range(len(pg))
    ]
    areas = kernels.polygon_areas(pg)
    _, area = union_pieces_and_area(rings, areas)
    return area


def dissolve_groups(grouped_ds, by: list[str]):
    """groupby(by).map_groups dissolve: union area + count per group.

    Output: by columns + n_members + union_area (float) + geometry_wkb of
    the disjoint union pieces as a MULTIPOLYGON.
    """

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        pg = wkb.decode_polygons(g["geometry_wkb"].to_numpy())
        rings = [
            pg.coords[pg.ring_offsets[pg.poly_offsets[pg.geom_offsets[i]]] :
                      pg.ring_offsets[pg.poly_offsets[pg.geom_offsets[i]] + 1]]
            for i in range(len(pg))
        ]
        areas = kernels.polygon_areas(pg)
        pieces, area = union_pieces_and_area(rings, areas)
        out = {c: [g[c].iloc[0]] for c in by}
        out["n_members"] = [len(g)]
        out["union_area"] = [area]
        out["geometry_wkb"] = [
            wkb.encode_multipolygon([[p] for p in pieces]) if pieces else None
        ]
        return pd.DataFrame(out)

    return grouped_ds.groupby(by[0] if len(by) == 1 else by).map_groups(
        agg, batch_format="pandas"
    )


class EliminateByLongest:
    """Actor stage for eliminate_by_longest's host assignment
    (reference polygon_operations.py:240-259: borders = to_lines overlay,
    longest border wins, ties keep the first host in sort order — here
    deterministically the smallest host id).

    Broadcast hosts table (``ray.put`` once, STRtree in __init__); each
    sliver batch finds bbox-candidate hosts, measures the collinear
    shared-border length, and emits (sliver id, host id, border length)
    for its argmax host. Slivers bordering no host are dropped
    (remove_isolated=True semantics) — callers wanting keep-isolated
    union them back.
    """

    def __init__(self, hosts_ref, id_col: str, host_id_col: str):
        import ray

        from ..geo.strtree import STRtree as _Tree

        hosts: pa.Table = ray.get(hosts_ref)
        self.hpg = wkb.decode_polygons(hosts["geometry_wkb"])
        self.hids = hosts[host_id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        self.tree = _Tree(kernels.polygon_bounds(self.hpg))
        self.id_col = id_col
        self.host_id_col = host_id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        spg = wkb.decode_polygons(batch["geometry_wkb"])
        sids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sb = kernels.polygon_bounds(spg)
        qi, pi = self.tree.query_bbox(sb)
        out_s, out_h, out_len = [], [], []
        for s in np.unique(qi) if len(qi) else []:
            cand = pi[qi == s]
            s_rings = kernels._all_rings(spg, int(s))
            best_h, best_len = -1, 0.0
            for h in cand:
                ln = kernels.shared_border_length(
                    s_rings, kernels._all_rings(self.hpg, int(h))
                )
                hid = int(self.hids[h])
                if ln > best_len or (ln == best_len and ln > 0 and hid < best_h):
                    best_h, best_len = hid, ln
            if best_len > 0:
                out_s.append(int(sids[s]))
                out_h.append(best_h)
                out_len.append(best_len)
        return pa.table(
            {
                self.id_col: pa.array(out_s, pa.int64()),
                self.host_id_col: pa.array(out_h, pa.int64()),
                "border_len": pa.array(np.asarray(out_len, np.float64), pa.float64()),
            }
        )


def eliminate_by_longest_assign(slivers_ds, hosts: pa.Table, id_col: str,
                                host_id_col: str, concurrency=None,
                                batch_size: int = 1024):
    """Dataset-level host assignment for eliminate_by_longest."""
    import ray

    ref = ray.put(hosts)
    return slivers_ds.map_batches(
        EliminateByLongest,
        fn_constructor_kwargs={
            "hosts_ref": ref, "id_col": id_col, "host_id_col": host_id_col,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=default_pool(concurrency),
    )


def get_grouped_centroids(ds, by: str, label_col: str = "grouped_centroid",
                          limit: int = 2_000_000):
    """Label every row with the centroid of its group's dissolved
    centroid points, as ``"{int(x)}_{int(y)}"``.

    Reference ``get_grouped_centroids`` (general.py:225-241): per-row
    centroid -> ``dissolve(by)`` of the centroid POINTS -> centroid of the
    dissolved multipoint. ``unary_union`` of points dedups coincident
    points, so the group centroid is the mean of the group's DISTINCT
    centroid points — the distinct step is semantic, not an optimization.

    Distributed plan: vectorized per-batch centroids with a per-batch
    (group, cx, cy) dedup partial -> one small ``groupby(by)`` over
    distinct centroid triples -> broadcast (group -> label) map applied
    to the stream (sorted-key searchsorted, no join shuffle) while the
    group table is ``<= limit`` rows; distributed hash-join fallback
    beyond. ``by`` must be integer-typed.
    """
    import pyarrow.compute as pc

    def cent_partial(b: pa.Table) -> pa.Table:
        pg = wkb.decode_polygons(b["geometry_wkb"])
        c = kernels.polygon_centroids(pg)
        g = b[by].to_numpy(zero_copy_only=False).astype(np.int64)
        # int64 group keys are exact in float64 far beyond any group count
        tri = np.unique(
            np.column_stack([g.astype(np.float64), c]), axis=0
        )
        return pa.table(
            {
                "g": pa.array(tri[:, 0].astype(np.int64), pa.int64()),
                "cx": pa.array(tri[:, 1], pa.float64()),
                "cy": pa.array(tri[:, 2], pa.float64()),
            }
        )

    parts = ds.map_batches(cent_partial, batch_format="pyarrow")

    def group_label(g: pd.DataFrame) -> pd.DataFrame:
        pts = np.unique(
            np.column_stack([g["cx"].to_numpy(), g["cy"].to_numpy()]), axis=0
        )
        mx = float(pts[:, 0].sum() / len(pts))
        my = float(pts[:, 1].sum() / len(pts))
        return pd.DataFrame(
            {"g": [np.int64(g["g"].iloc[0])],
             label_col: [f"{int(mx)}_{int(my)}"]}
        )

    groups = parts.groupby("g").map_groups(
        group_label, batch_format="pandas"
    ).materialize()

    if groups.count() <= limit:
        df = groups.to_pandas()
        keys = df["g"].to_numpy().astype(np.int64)
        labs = df[label_col].to_numpy().astype(object)
        order = np.argsort(keys, kind="stable")
        ref = ray.put((keys[order], labs[order]))

        def attach(b: pa.Table) -> pa.Table:
            skeys, slabs = ray.get(ref)
            ids = b[by].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.minimum(np.searchsorted(skeys, ids), len(skeys) - 1)
            # every group key came FROM the stream, so all rows match
            return b.append_column(
                label_col, pa.array(slabs[pos].tolist(), pa.string())
            )

        return ds.map_batches(attach, batch_format="pyarrow")

    joined = ds.join(
        groups, join_type="inner",
        num_partitions=default_join_partitions(None),
        on=(by,), right_on=("g",),
    )
    return joined
