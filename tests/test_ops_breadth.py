"""Tests for breadth operators: geometry types, buffers, painter, sessions."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ssb_sgis_ray import synth
from ssb_sgis_ray.geo import kernels, wkb
from ssb_sgis_ray.ops import dissolve as dis
from ssb_sgis_ray.ops import geometry as geom_ops
from ssb_sgis_ray.ops import relational as rel

SF = "/root/testdata/sf0.001"


def test_add_geom_type_families():
    t = pa.table(
        {
            "id": pa.array([1, 2, 3, 4], pa.int64()),
            "geometry_wkb": pa.array(
                [
                    wkb.encode_points(np.array([1.0]), np.array([2.0]))[0],
                    wkb.encode_linestring(np.array([[0, 0], [1, 1.0]])),
                    wkb.encode_polygon(
                        [np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0.0]])]
                    ),
                    wkb.encode_multipoint(np.array([[0, 0], [1, 1.0]])),
                ],
                pa.binary(),
            ),
        }
    )
    out = geom_ops.add_geom_type(t)
    assert out["geom_family"].to_pylist() == ["point", "line", "polygon", "point"]


def test_explode_multipoints():
    t = pa.table(
        {
            "id": pa.array([7, 8], pa.int64()),
            "geometry_wkb": pa.array(
                [
                    wkb.encode_multipoint(np.array([[0, 0], [1, 1], [2, 2.0]])),
                    wkb.encode_points(np.array([9.0]), np.array([9.0]))[0],
                ],
                pa.binary(),
            ),
        }
    )
    out = geom_ops.explode_multipoints(t, "id").to_pandas()
    assert len(out) == 4
    assert out[out["id"] == 7]["part_no"].tolist() == [0, 1, 2]
    assert out[out["id"] == 8]["x"].tolist() == [9.0]


def test_buff_points_area_close_to_circle():
    out = geom_ops.buff_points(np.array([10.0]), np.array([20.0]), 5.0, resolution=50)
    pg = wkb.decode_polygons(out)
    area = kernels.polygon_areas(pg)[0]
    assert area == pytest.approx(np.pi * 25.0, rel=1e-3)  # 200-gon ≈ circle
    b = kernels.polygon_bounds(pg)[0]
    np.testing.assert_allclose(b, [5, 15, 15, 25], atol=1e-9)


def test_size_ranks_ties_by_id():
    t = pa.table({"sid": pa.array([5, 1, 3], pa.int64())})
    area = np.array([10.0, 10.0, 99.0])
    out = geom_ops.size_ranks(t, area, "sid").to_pandas().set_index("sid")
    assert out.loc[3, "size_rank"] == 1
    assert out.loc[1, "size_rank"] == 2  # tie -> smaller id first
    assert out.loc[5, "size_rank"] == 3


def test_update_geometries_conserves_union_area():
    """Painter kept-areas must sum exactly to the union area."""
    import pyarrow.parquet as pq

    from ssb_sgis_ray.queries import q_poly_clusters, q_update_geometries

    kept = q_update_geometries(SF).to_pandas()
    sup = synth.add_supplier_diamonds(
        pq.read_table(f"{SF}/supplier.parquet", columns=["s_suppkey"])
    )
    g = pd.DataFrame({"geometry_wkb": sup["geometry_wkb"].to_pylist()})
    union_area = dis.union_area_of_group(g)
    assert kept["kept_area_i"].sum() == pytest.approx(union_area, abs=1.0)
    # every row keeps at most its own area, at least zero
    pg = wkb.decode_polygons(sup["geometry_wkb"])
    own = kernels.polygon_areas(pg)
    ids = sup["s_suppkey"].to_numpy()
    km = dict(zip(kept["s_suppkey"], kept["kept_area_i"]))
    for i, sid in enumerate(ids):
        assert 0 <= km[int(sid)] <= own[i] + 1e-6


def test_sessionize_user_kernel():
    base = 1_700_000_000_000_000
    g = pd.DataFrame(
        {
            "user_id": [42] * 5,
            "ts_us": [
                base,
                base + 60_000_000,  # +1 min, same session
                base + 3_000_000_000,  # +50 min from prev -> new session
                base + 3_060_000_000,
                base + 10_000_000_000,  # big gap -> third session
            ],
        }
    )
    out = rel.sessionize_user(g)
    assert out["session_no"].tolist() == [1, 2, 3]
    assert out["n_events"].tolist() == [2, 2, 1]
    assert out.loc[0, "start_us"] == base
    assert out.loc[0, "end_us"] == base + 60_000_000


def test_within_distance_matches_bruteforce(ray_session):
    import pyarrow.parquet as pq

    from ssb_sgis_ray.queries import _supplier_neighbors, customers

    nb = _supplier_neighbors(SF)
    got = geom_ops.within_distance_pairs(
        customers(SF), nb, distance=3000.0, id_col="c_custkey"
    ).to_pandas()
    c = pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey"]).to_pandas()
    px, py = synth.customer_points(c["c_custkey"].to_numpy())
    expect = set()
    for i in range(len(px)):
        d2 = (px[i] - nb["x"]) ** 2 + (py[i] - nb["y"]) ** 2
        for j in np.nonzero(d2 <= 9_000_000)[0]:
            expect.add((int(c["c_custkey"][i]), int(nb["id"][j])))
    assert set(zip(got["c_custkey"], got["neighbor_id"])) == expect


def test_salted_join_equals_unsalted(ray_session, tmp_path, monkeypatch):
    """Lineitem x nation: the histogram-sized salted plan, the sampled
    unsalted plan and the broadcast join return the same pairs with the
    same multiplicity (the fixture repeats some l_key ids, so salting may
    add no duplicate beyond those). The salted plan never samples sort
    boundaries, and it records its sizing in plan_metrics.jsonl, apart
    from the skew rows."""
    import pyarrow.parquet as pq
    from ray.data._internal.planner.exchange.sort_task_spec import SortTaskSpec

    from ssb_sgis_ray.geo import cells
    from ssb_sgis_ray.ops import spatial
    from ssb_sgis_ray.queries import lineitems, nations_ds
    from ssb_sgis_ray.state import skew

    # the fixture must put more than the threshold in some cell, or the
    # salted run below never salts
    li = lineitems(SF).select_columns(["px", "py"]).to_pandas()
    _, n = np.unique(cells.xy_to_cell(li["px"].to_numpy(np.float64),
                                      li["py"].to_numpy(np.float64), 9),
                     return_counts=True)
    assert n.max() > 500

    def pairs(df, left="left_id", right="right_id"):
        return sorted(zip(df[left].tolist(), df[right].tolist()))

    nat = synth.add_nation_diamonds(
        pq.read_table(f"{SF}/nation.parquet", columns=["n_nationkey"]))
    bcast = pairs(spatial.sjoin_pairs(lineitems(SF), nat, right_cols=["n_nationkey"])
                  .to_pandas(), "l_key", "n_nationkey")
    plain = pairs(spatial.sjoin_cell_partitioned(
        lineitems(SF), nations_ds(SF), res=9, left_id="l_key", right_id="n_nationkey"
    ).to_pandas(), "l_key", "n_nationkey")

    def no_sampling(*a, **k):
        raise AssertionError("the salted plan sampled sort boundaries")

    monkeypatch.setattr(SortTaskSpec, "sample_boundaries", staticmethod(no_sampling))
    report = str(tmp_path)
    salted = pairs(spatial.sjoin_cell_partitioned(
        lineitems(SF), nations_ds(SF), res=9, left_id="l_key", right_id="n_nationkey",
        salt_threshold=500, n_salts=8, skew_report_dir=report,
    ).to_pandas(), "l_key", "n_nationkey")
    assert len(bcast) > 1000
    assert salted == plain == bcast

    (plan,) = skew.load_plans(report)
    (summary,) = skew.load_cell_skew(report)
    assert "n_cells" in summary and "partitions" not in summary
    assert plan["op"] == summary["stage"]
    assert plan["est_rows"] == 6000 and plan["hot_cells"] == int((n > 500).sum())
    assert plan["n_salts"] == 8
    assert plan["partitions"] == 4  # the test session's CPUs
    assert 6000 / 4 <= plan["max_partition_rows_est"] < 6000 / 2


def test_cut_line_parts_conserves_length():
    t = pa.table(
        {
            "id": pa.array([1, 2], pa.int64()),
            "geometry_wkb": pa.array(
                [
                    wkb.encode_linestring(np.array([[0, 0], [2500, 0.0]])),
                    wkb.encode_linestring(np.array([[0, 0], [500, 0.0]])),
                ],
                pa.binary(),
            ),
        }
    )
    out = geom_ops.cut_line_parts(t, "id", 999.0)
    df = out.to_pandas()
    assert len(df[df["id"] == 1]) == 3  # 2500/999 -> 3 parts
    assert len(df[df["id"] == 2]) == 1
    la = wkb.decode_lines(out["geometry_wkb"])
    seg = np.diff(la.coords, axis=0)
    # parts of line 1 each ~833.33, all <= 999; total length conserved
    lens = []
    for i in range(len(la)):
        a = la.coords[la.line_offsets[i]]
        b = la.coords[la.line_offsets[i + 1] - 1]
        lens.append(float(np.hypot(*(b - a))))
    assert all(l <= 999.0 + 1e-9 for l in lens)
    assert sum(lens) == pytest.approx(3000.0)


def test_holes_roundtrip():
    outer = np.array([[0, 0], [100, 0], [100, 100], [0, 100], [0, 0]], dtype=float)
    hole = np.array([[40, 40], [40, 60], [60, 60], [60, 40], [40, 40]], dtype=float)
    t = pa.table(
        {
            "id": pa.array([9], pa.int64()),
            "geometry_wkb": pa.array([wkb.encode_polygon([outer, hole])], pa.binary()),
        }
    )
    holes = geom_ops.extract_holes(t, "id").to_pandas()
    assert holes["hole_area"].tolist() == [400]
    closed = geom_ops.close_all_holes(t, "id")
    assert closed["closed_area"].to_pylist() == [10000]
    pg = wkb.decode_polygons(closed["geometry_wkb"])
    assert kernels.polygon_areas(pg)[0] == 10000.0  # hole gone


def test_map_tiles_udf(ray_session):
    import ray.data as rd
    from ssb_sgis_ray.ops import spatial

    df = pd.DataFrame({"px": [100.0, 900.0, 1100.0, 1950.0], "py": [100.0] * 4,
                       "rid": [1, 2, 3, 4]})

    def count_tile(g: pd.DataFrame) -> pd.DataFrame:
        core = g[~g["in_halo"]]
        return pd.DataFrame({
            "tile_x": [g["tile_x"].iloc[0]], "tile_y": [g["tile_y"].iloc[0]],
            "n_core": [len(core)], "n_with_halo": [len(g)],
        })

    out = spatial.map_tiles(
        rd.from_pandas(df), count_tile, gridsize=1000, halo=100.0
    ).to_pandas().set_index("tile_x").sort_index()
    # tile 0: rows 1,2 core; row 3 (x=1100) NOT within 100 of tile 0
    assert out.loc[0, "n_core"] == 2
    assert out.loc[0, "n_with_halo"] == 2
    # tile 1: rows 3,4 core; row 2 (x=900) within halo of tile 1
    assert out.loc[1, "n_core"] == 2
    assert out.loc[1, "n_with_halo"] == 3


def test_dissexp_by_cat_matches_scanline(ray_session):
    import pyarrow.parquet as pq
    from ssb_sgis_ray.queries import q_dissexp_by_cat
    from tests.test_ops_spatial import _diamond_union_area_scanline

    got = q_dissexp_by_cat(SF).to_pandas().set_index("s_nationkey")
    sup = pq.read_table(f"{SF}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sx, sy, r = synth.supplier_diamonds(sup["s_suppkey"].to_numpy())
    for nk, idx in sup.groupby("s_nationkey").groups.items():
        sel = np.asarray(idx)
        expect = _diamond_union_area_scanline(sx[sel], sy[sel], r[sel])
        assert got.loc[nk, "union_area_i"] == pytest.approx(expect, abs=1.0)
        assert got.loc[nk, "n_members"] == len(sel)


def test_line_endpoints_and_node_keys():
    from ssb_sgis_ray.ops import network as net_ops

    t = pa.table(
        {
            "lid": pa.array([1, 2], pa.int64()),
            "geometry_wkb": pa.array(
                [
                    wkb.encode_linestring(np.array([[100, 100], [2100, 100.0]])),
                    wkb.encode_linestring(np.array([[2100, 100], [2100, 4100.0]])),
                ],
                pa.binary(),
            ),
        }
    )
    ends = net_ops.line_endpoints(t, "lid").to_pandas()
    assert len(ends) == 4
    keys = net_ops.add_node_keys(t, "lid", 2000.0).to_pandas()
    # line 1 ends in the same snapped node as line 2 starts -> shared node
    assert keys.loc[0, "node_b"] == keys.loc[1, "node_a"]


def _boxes_table(specs, key_name):
    from ssb_sgis_ray.geo import wkb as W
    boxes = np.array(specs, dtype=float)
    return pa.table({
        key_name: pa.array(np.arange(len(specs), dtype=np.int64), pa.int64()),
        "geometry_wkb": W.encode_boxes_arrow(boxes),
    })


def test_overlay_union_composition(ray_session):
    import ray.data as rd
    from ssb_sgis_ray.ops import overlay as ov
    from ssb_sgis_ray.ops.dissolve import rect_painter_union

    left_specs = [(0, 0, 10, 10), (20, 0, 30, 10), (100, 100, 110, 110)]
    right_specs = [(5, 0, 25, 10), (200, 200, 210, 210)]
    left = rd.from_arrow(_boxes_table(left_specs, "lid"))
    right = _boxes_table(right_specs, "rid")

    out = ov.overlay_union_legs(left, right, how="union").to_pandas()
    pg = wkb.decode_polygons(out["geometry_wkb"].to_numpy())
    total = kernels.polygon_areas(pg).sum()
    # union legs partition |A ∪ B|: compare to the rect painter union
    all_boxes = np.array(left_specs + right_specs, dtype=float)
    u = rect_painter_union(all_boxes)
    expect = ((u[:, 2] - u[:, 0]) * (u[:, 3] - u[:, 1])).sum()
    assert total == pytest.approx(expect)
    # suffix rules: no collided plain columns, leg column present
    assert set(out["leg"]) == {"inter", "left", "right"}
    assert "lid" in out.columns and "rid" in out.columns  # no collision -> unsuffixed

    # symmetric_difference drops the intersection leg
    sym = ov.overlay_union_legs(left, right, how="symmetric_difference").to_pandas()
    pg2 = wkb.decode_polygons(sym["geometry_wkb"].to_numpy())
    inter_total = 5 * 10 + 5 * 10  # [5,10]x[0,10] and [20,25]x[0,10]
    # symdiff = union minus the (single-counted) intersection region
    assert kernels.polygon_areas(pg2).sum() == pytest.approx(expect - inter_total)

    # update: left minus right, then right appended unchanged
    upd = ov.overlay_union_legs(left, right, how="update").to_pandas()
    pg3 = wkb.decode_polygons(upd["geometry_wkb"].to_numpy())
    left_minus = 100 + 100 + 100 - inter_total  # left area minus overlaps
    right_area = 200 + 100
    assert kernels.polygon_areas(pg3).sum() == pytest.approx(left_minus + right_area)


def test_knn_rank_ties_keeps_ties(ray_session):
    import ray.data as rd
    from ssb_sgis_ray.ops import knn as knn_ops

    # two neighbors equidistant from the query -> both kept at rank 2
    left = rd.from_pandas(pd.DataFrame({"qid": [1], "px": [0], "py": [0]}))
    nb = {
        "id": np.array([10, 20, 30, 40], dtype=np.int64),
        "x": np.array([1.0, 5.0, -5.0, 50.0]),
        "y": np.array([0.0, 0.0, 0.0, 0.0]),
    }
    out = knn_ops.knn_rank_ties(left, nb, k=2, id_col="qid").to_pandas()
    got = sorted(zip(out["neighbor_id"], out["tie_rank"]))
    assert got == [(10, 1), (20, 2), (30, 2)]  # 3 rows for k=2


def test_hll_estimate_within_bound():
    from ssb_sgis_ray.ops import sketch as sk

    rng = np.random.default_rng(5)
    for true_n in (100, 5000, 200000):
        vals = rng.integers(0, 1 << 62, size=true_n).astype(np.int64)
        # split into batches, sketch each, merge — the distributed shape
        parts = [sk.hll_registers(v) for v in np.array_split(vals, 7)]
        est = sk.hll_estimate(sk.hll_merge(parts))
        assert abs(est - true_n) / true_n < 0.05  # 3x the 1.6% std error


def test_polygons_as_rings_roundtrip_and_udf(ray_session):
    import ray.data as rd

    outer = np.array([[0, 0], [100, 0], [100, 100], [0, 100], [0, 0]], dtype=float)
    hole = np.array([[40, 40], [40, 60], [60, 60], [60, 40], [40, 40]], dtype=float)
    t = pa.table(
        {
            "pid": pa.array([7], pa.int64()),
            "geometry_wkb": pa.array([wkb.encode_polygon([outer, hole])], pa.binary()),
        }
    )
    rings = geom_ops.polygons_to_rings(t, "pid")
    assert rings["ring_kind"].to_pylist() == [0, 1]

    # identity roundtrip preserves area
    rebuilt = geom_ops.rings_to_polygons(rings.to_pandas())
    pg = wkb.decode_polygons(rebuilt["geometry_wkb"].to_numpy())
    assert kernels.polygon_areas(pg)[0] == 10000.0 - 400.0

    # interior-only UDF: dilate the hole 2x about its centroid
    def grow(ring):
        c = ring[:-1].mean(axis=0)
        out = c + (ring - c) * 2.0
        out[-1] = out[0]
        return out

    grown = geom_ops.apply_ring_func(rings, grow, only_interiors=True)
    rebuilt2 = geom_ops.rings_to_polygons(grown.to_pandas())
    pg2 = wkb.decode_polygons(rebuilt2["geometry_wkb"].to_numpy())
    assert kernels.polygon_areas(pg2)[0] == 10000.0 - 1600.0  # hole 4x area

    # distributed shape: groupby(row_id).map_groups rebuild
    ds = rd.from_arrow(geom_ops.polygons_to_rings(t, "pid"))
    out = ds.groupby("row_id").map_groups(
        geom_ops.rings_to_polygons, batch_format="pandas"
    ).to_pandas()
    pg3 = wkb.decode_polygons(out["geometry_wkb"].to_numpy())
    assert kernels.polygon_areas(pg3)[0] == 9600.0


def test_boundary_lines_lengths():
    t = pa.table(
        {
            "pid": pa.array([1], pa.int64()),
            "geometry_wkb": pa.array(
                [wkb.encode_polygon(
                    [np.array([[0, 0], [30, 0], [30, 10], [0, 10], [0, 0]], dtype=float)]
                )],
                pa.binary(),
            ),
        }
    )
    out = geom_ops.boundary_lines(t, "pid").to_pandas()
    assert out["ring_len_i"].tolist() == [80]


def test_convex_erosion_empty():
    """Inward offset emptiness drives close_thin_holes: a w×h rect erodes
    to empty iff min(w, h) <= 2d."""
    from ssb_sgis_ray.ops.geometry import _convex_erosion_empty

    def rect(w, h):
        return np.array([[0, 0], [w, 0], [w, h], [0, h], [0, 0]], float)

    assert _convex_erosion_empty(rect(200, 1000), 300)      # 200 <= 600
    assert _convex_erosion_empty(rect(600, 1000), 300)      # boundary: empty
    assert not _convex_erosion_empty(rect(601, 1000), 300)
    assert not _convex_erosion_empty(rect(1000, 1000), 300)
    # CW orientation (hole convention) must behave identically
    assert _convex_erosion_empty(rect(200, 1000)[::-1], 300)
    # diamond: inscribed radius = s/sqrt(2) for half-diagonal s
    s = 500.0
    dia = np.array([[s, 0], [2 * s, s], [s, 2 * s], [0, s], [s, 0]])
    assert not _convex_erosion_empty(dia, s / np.sqrt(2) - 1)
    assert _convex_erosion_empty(dia, s / np.sqrt(2) + 1)


def test_close_thin_holes_concave():
    """Concave (L-shaped) hole: arm width w has inscribed radius w/2 at
    the corner square, so it is thin iff tolerance/2 >= w/2. Exercises
    _erosion_empty_general (boundary-buffer difference), not the convex
    half-plane path."""
    from ssb_sgis_ray.geo import kernels
    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import geometry as geom_ops

    shell = np.array([[-50, -50], [100, -50], [100, 100], [-50, 100], [-50, -50]],
                     float)
    # L-shape, both arms width 2: inscribed radius exactly 1
    ell = np.array([[0, 0], [10, 0], [10, 2], [2, 2], [2, 10], [0, 10], [0, 0]],
                   float)
    assert not kernels.is_convex_ring(ell)
    t = pa.table(
        {"id": pa.array([1], pa.int64()),
         "geometry_wkb": pa.array([W.encode_polygon([shell, ell])], pa.binary())}
    )
    # tolerance 2.5 -> erode by 1.25 > 1: hole closes (full shell area)
    closed = geom_ops.close_thin_holes(t, 2.5, "id").to_pandas()
    assert closed["closed_area"].tolist() == [150 * 150]
    # tolerance 1.5 -> erode by 0.75 < 1: hole survives
    l_area = 10 * 2 + 8 * 2  # 36
    kept = geom_ops.close_thin_holes(t, 1.5, "id").to_pandas()
    assert kept["closed_area"].tolist() == [150 * 150 - l_area]


def test_close_small_holes_island_aware(ray_session):
    """Island-aware thresholding: net = gross hole − islands inside it,
    and the hole closes iff net < max_area (reference
    _close_small_holes_no_islands semantics)."""
    import ray
    import ray.data as rd

    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import geometry as geom_ops

    shell = np.array([[0, 0], [400, 0], [400, 400], [0, 400], [0, 0]], float)
    hole = np.array([[100, 100], [100, 300], [300, 300], [300, 100], [100, 100]], float)
    host = pa.table(
        {"id": pa.array([1], pa.int64()),
         "geometry_wkb": pa.array([W.encode_polygon([shell, hole])], pa.binary())}
    )
    island = pa.table(
        {"k": pa.array([1], pa.int64()),
         "geometry_wkb": pa.array(
             [W.encode_polygon([np.array(
                 [[150, 150], [250, 150], [250, 250], [150, 250], [150, 150]],
                 float)])], pa.binary())}
    )
    ref = ray.put(island)
    # gross hole = 40000, island = 10000, net = 30000
    # T = 35000: net < T -> hole closes (area 160000)
    out = rd.from_arrow(host).map_batches(
        geom_ops.CloseSmallHoles,
        fn_constructor_kwargs={"max_area": 35000.0, "id_col": "id",
                               "ignore_islands": False, "layer_ref": ref},
        batch_format="pyarrow", concurrency=1,
    ).to_pandas()
    assert int(out["closed_area"][0]) == 160000
    # T = 25000: net >= T -> hole stays (area 120000)
    out2 = rd.from_arrow(host).map_batches(
        geom_ops.CloseSmallHoles,
        fn_constructor_kwargs={"max_area": 25000.0, "id_col": "id",
                               "ignore_islands": False, "layer_ref": ref},
        batch_format="pyarrow", concurrency=1,
    ).to_pandas()
    assert int(out2["closed_area"][0]) == 120000
    # ignore_islands: gross 40000 >= 35000 -> stays open
    out3 = rd.from_arrow(host).map_batches(
        geom_ops.CloseSmallHoles,
        fn_constructor_kwargs={"max_area": 35000.0, "id_col": "id",
                               "ignore_islands": True},
        batch_format="pyarrow", concurrency=1,
    ).to_pandas()
    assert int(out3["closed_area"][0]) == 120000


def test_make_all_singlepart_general():
    """General explode over all six WKB types: single rows pass bytes
    through unchanged, MULTI* rows split per part, holes survive in
    multipolygon parts, attribute columns repeat onto exploded rows."""
    def box(x0, y0, w, h):
        return np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h],
                         [x0, y0 + h], [x0, y0]], float)

    pt = wkb.encode_points(np.array([1.0]), np.array([2.0]))[0]
    line = wkb.encode_linestring(np.array([[0, 0], [3, 4.0]]))
    poly = wkb.encode_polygon([box(0, 0, 10, 10)])
    mpt = wkb.encode_multipoint(np.array([[0, 0], [5, 5.0]]))
    mline = wkb.encode_multilinestring(
        [np.array([[0, 0], [3, 4.0]]), np.array([[10, 0], [10, 5.0]])]
    )
    # part 0 holed (area 100-4), part 1 plain (area 50)
    mpoly = wkb.encode_multipolygon(
        [[box(0, 0, 10, 10), box(4, 4, 2, 2)], [box(20, 0, 10, 5)]]
    )
    t = pa.table(
        {
            "id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "tag": pa.array(list("abcdef"), pa.string()),
            "geometry_wkb": pa.array([pt, line, poly, mpt, mline, mpoly],
                                     pa.binary()),
        }
    )
    out = geom_ops.make_all_singlepart(t, "id")
    assert out.schema.names == ["id", "tag", "geometry_wkb", "part_no"]
    df = out.to_pandas().sort_values(["id", "part_no"]).reset_index(drop=True)
    assert df["id"].tolist() == [1, 2, 3, 4, 4, 5, 5, 6, 6]
    assert df["tag"].tolist() == list("abcddeeff")
    assert df["part_no"].tolist() == [0, 0, 0, 0, 1, 0, 1, 0, 1]
    # single-part rows: bytes identical
    assert bytes(df["geometry_wkb"][0]) == bytes(pt)
    assert bytes(df["geometry_wkb"][1]) == bytes(line)
    assert bytes(df["geometry_wkb"][2]) == bytes(poly)
    # every exploded row is single-part
    codes = wkb.wkb_types(pa.array([bytes(g) for g in df["geometry_wkb"]],
                                   pa.binary()))
    assert set(codes) <= {wkb.POINT, wkb.LINESTRING, wkb.POLYGON}
    # multipolygon parts: holed area then plain area
    pg = wkb.decode_polygons(pa.array(
        [bytes(df["geometry_wkb"][7]), bytes(df["geometry_wkb"][8])], pa.binary()))
    assert kernels.polygon_areas(pg).tolist() == pytest.approx([96.0, 50.0])
    # no-multi fast path: zero-copy passthrough keeps the table intact
    t2 = pa.table({"id": pa.array([9], pa.int64()),
                   "geometry_wkb": pa.array([poly], pa.binary())})
    out2 = geom_ops.make_all_singlepart(t2, "id")
    assert out2["part_no"].to_pylist() == [0]
    assert bytes(out2["geometry_wkb"][0].as_py()) == bytes(poly)


def test_voronoi_centerline_rotated_sliver():
    """Voronoi-edge centerline (centerlines.py:30-195): for a rotated
    lattice sliver the skeleton points lie on the midline and the
    projection-ordered path has exactly the sliver's long-side length —
    rotation invariance the SQL oracle can't express."""
    base = np.array([[0, 0], [160, 0], [160, 8], [0, 8], [0, 0]], float)
    th = np.pi / 5
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    line = geom_ops.voronoi_centerline([base @ R.T], max_segment_length=8.0)
    d = np.diff(line, axis=0)
    assert np.hypot(d[:, 0], d[:, 1]).sum() == pytest.approx(160.0, abs=1e-6)
    # degenerate: no interior voronoi vertices -> endpoint segment
    tiny = np.array([[0, 0], [8, 0], [8, 8], [0, 8], [0, 0]], float)
    seg = geom_ops.voronoi_centerline([tiny], max_segment_length=8.0)
    assert len(seg) >= 2


def test_min_rotated_rect_matches_hull_width():
    pts = np.array([[0, 0], [10, 0], [10, 2], [0, 2], [5, 1.0]])
    rect = geom_ops.min_rotated_rect(pts)
    area = abs(np.cross(rect[1] - rect[0], rect[3] - rect[0]))
    assert area == pytest.approx(20.0)


def test_clean_overlay_cell_all_hows_match_broadcast(ray_session):
    import ray.data as rd
    from ssb_sgis_ray.ops import overlay as ov
    from ssb_sgis_ray.ops.dissolve import rect_painter_union

    left_specs = [(0, 0, 10, 10), (20, 0, 30, 10), (100, 100, 110, 110)]
    right_specs = [(5, 0, 25, 10), (8, 2, 9, 3), (200, 200, 210, 210)]
    left_t = _boxes_table(left_specs, "lid")
    right_t = _boxes_table(right_specs, "rid")
    all_boxes = np.array(left_specs + right_specs, dtype=float)
    u = rect_painter_union(all_boxes)
    union_area = ((u[:, 2] - u[:, 0]) * (u[:, 3] - u[:, 1])).sum()

    def area_of(ds):
        df = ds.to_pandas()
        if len(df) == 0:
            return 0.0
        pg = wkb.decode_polygons(
            df.loc[df["geometry_wkb"].notna(), "geometry_wkb"].to_numpy()
        )
        return kernels.polygon_areas(pg).sum()

    # union/identity output is PER PAIR (geopandas semantics): a region in
    # two pairs appears twice — so compare legs against the broadcast
    # plan's legs, not the painter |A ∪ B| (rights here overlap on purpose)
    bc_inter = area_of(
        ov.clean_overlay(rd.from_arrow(left_t), right_t, how="intersection")
    )
    bc_ldiff = area_of(
        ov.clean_overlay(rd.from_arrow(left_t), right_t, how="difference")
    )
    bc_rdiff = area_of(
        ov.clean_overlay(rd.from_arrow(right_t), left_t, how="difference")
    )
    rsum = ((np.array(right_specs)[:, 2] - np.array(right_specs)[:, 0])
            * (np.array(right_specs)[:, 3] - np.array(right_specs)[:, 1])).sum()
    expects = {
        "intersection": bc_inter,
        "difference": bc_ldiff,
        "identity": bc_inter + bc_ldiff,
        "union": bc_inter + bc_ldiff + bc_rdiff,
        "symmetric_difference": bc_ldiff + bc_rdiff,
        "update": bc_ldiff + rsum,
    }
    assert union_area == bc_ldiff + bc_rdiff + 50 + 50 + 1 - 1  # fixture sanity
    for how in ov.HOWS:
        cell = ov.clean_overlay_cell(
            rd.from_arrow(left_t), rd.from_arrow(right_t), "lid", "rid",
            how=how, res=12,
        )
        assert area_of(cell) == pytest.approx(expects[how]), how


def test_make_edge_cols_and_single_geom_type(ray_session):
    import ray.data as rd

    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import network as net_ops

    t = pa.table(
        {
            "line_id": pa.array([1, 2], pa.int64()),
            "geometry_wkb": pa.array(
                [W.encode_linestring(np.array([[0.0, 1.0], [5.0, 1.0], [5.0, 9.0]])),
                 W.encode_linestring(np.array([[2.0, 2.0], [3.0, 4.0]]))],
                pa.binary(),
            ),
        }
    )
    out = net_ops.make_edge_coords_cols(t)
    assert out["source_x"].to_pylist() == [0.0, 2.0]
    assert out["target_y"].to_pylist() == [9.0, 4.0]
    w = net_ops.make_edge_wkt_cols(t)
    assert w["source_wkt"][0].as_py() == "POINT (0 1)"
    assert w["target_wkt"][1].as_py() == "POINT (3 4)"

    lines_only = rd.from_arrow(t)
    assert geom_ops.is_single_geom_type(lines_only)
    mixed = rd.from_arrow(pa.table(
        {"geometry_wkb": pa.array(
            [W.encode_linestring(np.array([[0.0, 0.0], [1.0, 0.0]])),
             W.encode_points(np.array([1.0]), np.array([2.0]))[0]],
            pa.binary())}
    ))
    assert not geom_ops.is_single_geom_type(mixed)


def test_make_directed_network_norway_preset(ray_session):
    import ray.data as rd

    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import network as net_ops

    t = pa.table(
        {
            "line_id": pa.array([1, 2, 3], pa.int64()),
            "oneway": pa.array(["B", "FT", "TF"], pa.string()),
            "drivetime_fw": pa.array([2.0, 3.0, 5.0], pa.float64()),
            "drivetime_bw": pa.array([4.0, 6.0, 7.0], pa.float64()),
            "geometry_wkb": pa.array(
                [W.encode_linestring(np.array([[0.0, 0.0], [10.0, 0.0]])),
                 W.encode_linestring(np.array([[0.0, 10.0], [10.0, 10.0]])),
                 W.encode_linestring(np.array([[0.0, 20.0], [10.0, 20.0]]))],
                pa.binary(),
            ),
        }
    )
    out = net_ops.make_directed_network_norway(
        rd.from_arrow(t), "line_id", 4.0
    ).to_pandas().sort_values(["line_id", "direction"]).reset_index(drop=True)
    # B -> 2 edges (fw 2.0, bw 4.0); FT -> fw 3.0 only; TF -> bw 7.0 only
    assert len(out) == 4
    got = list(zip(out.line_id, out.direction, out.minutes))
    # direction codes: 0 = forward, 1 = backward
    assert (1, 0, 2.0) in got and (1, 1, 4.0) in got
    assert (2, 0, 3.0) in got and (3, 1, 7.0) in got


def test_to_geo_table_input_domain():
    """to_geo_table accepts the reference to_gdf's input domain
    (conversion.py:120-268) and always lands on geometry_wkb."""
    import pandas as pd

    from ssb_sgis_ray.geo import conversion, wkb

    # scalar WKT / xy pair / WKB bytes
    t = conversion.to_geo_table("POINT (3 4)", crs=25833)
    assert t.num_rows == 1 and t.schema.metadata[b"crs"] == b"25833"
    p = wkb.decode_points(t["geometry_wkb"])
    assert (p.x[0], p.y[0]) == (3.0, 4.0)
    t2 = conversion.to_geo_table((7, 8))
    assert wkb.decode_points(t2["geometry_wkb"]).x[0] == 7.0
    t3 = conversion.to_geo_table(bytes(t2["geometry_wkb"][0].as_py()))
    assert wkb.decode_points(t3["geometry_wkb"]).y[0] == 8.0

    # coordinate lists / ndarray / list of WKT
    t4 = conversion.to_geo_table([(0, 1), (2, 3)])
    assert t4.num_rows == 2
    t5 = conversion.to_geo_table(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert wkb.decode_points(t5["geometry_wkb"]).y.tolist() == [1.0, 3.0]
    t6 = conversion.to_geo_table(
        ["POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "POINT (1 1)"]
    )
    assert t6.num_rows == 2
    # generator input
    t7 = conversion.to_geo_table(iter([(5, 5), (6, 6)]))
    assert t7.num_rows == 2

    # dict with x/y autodetect; attribute column carried
    t8 = conversion.to_geo_table({"id": [1, 2], "x": [0, 1], "y": [2, 3]})
    assert set(t8.column_names) == {"id", "geometry_wkb"}
    # DataFrame with named geometry column of WKT
    df = pd.DataFrame({"id": [9], "geom": ["POINT (5 6)"]})
    t9 = conversion.to_geo_table(df, geometry="geom")
    assert t9["id"].to_pylist() == [9]
    assert wkb.decode_points(t9["geometry_wkb"]).x[0] == 5.0
    # explicit (x_col, y_col) pair
    t10 = conversion.to_geo_table(
        {"k": [1], "lon": [10.0], "lat": [20.0]}, geometry=("lon", "lat")
    )
    assert wkb.decode_points(t10["geometry_wkb"]).y[0] == 20.0
    # pa.Table with geometry_wkb passes through
    assert conversion.to_geo_table(t4).equals(t4)

    import pytest as _pt

    with _pt.raises(TypeError):
        conversion.to_geo_table({"id": [1]})
    with _pt.raises(TypeError):
        conversion.to_geo_table(3.14)


def test_to_geo_dataset_roundtrip(ray_session):
    from ssb_sgis_ray.geo import conversion

    ds = conversion.to_geo_dataset([(0, 0), (1, 1), (2, 2)], crs=25833)
    assert ds.count() == 3


def test_lookup_join_broadcast_matches_hash_join(ray_session):
    import ray.data as rd

    from ssb_sgis_ray.ops.lookup import lookup_join

    ds = rd.from_arrow(
        pa.table({"k": pa.array([1, 2, 3, 4, 5], pa.int64()),
                  "v": pa.array([10, 20, 30, 40, 50], pa.int64())})
    )
    small = rd.from_arrow(
        pa.table({"node": pa.array([2, 4], pa.int64()),
                  "label": pa.array([200, 400], pa.int64())})
    )

    def rows(res):
        return sorted(map(tuple, res.to_pandas().to_numpy().tolist()))

    # left-outer semantics (default_from): broadcast vs hash-join fallback
    bc = lookup_join(ds, small, "k", small_key="node", value_col="label",
                     out_col="lab", default_from="k")
    hj = lookup_join(ds, small, "k", small_key="node", value_col="label",
                     out_col="lab", default_from="k", limit=0)
    expect = [(1, 10, 1), (2, 20, 200), (3, 30, 3), (4, 40, 400), (5, 50, 5)]
    assert rows(bc) == expect
    assert rows(hj) == expect

    # inner semantics: misses drop
    bc_i = lookup_join(ds, small, "k", small_key="node", value_col="label",
                       out_col="lab")
    hj_i = lookup_join(ds, small, "k", small_key="node", value_col="label",
                       out_col="lab", limit=0)
    expect_i = [(2, 20, 200), (4, 40, 400)]
    assert rows(bc_i) == expect_i
    assert rows(hj_i) == expect_i

    # empty small side: default_from -> self labels; inner -> empty
    empty = rd.from_arrow(
        pa.table({"node": pa.array([], pa.int64()),
                  "label": pa.array([], pa.int64())})
    )
    own = lookup_join(ds, empty, "k", small_key="node", value_col="label",
                      out_col="lab", default_from="k")
    assert rows(own) == [(1, 10, 1), (2, 20, 2), (3, 30, 3), (4, 40, 4), (5, 50, 5)]
    none = lookup_join(ds, empty, "k", small_key="node", value_col="label",
                       out_col="lab")
    assert none.count() == 0


def test_membership_filter_broadcast_matches_hash_join(ray_session):
    import ray.data as rd

    from ssb_sgis_ray.ops.lookup import membership_filter

    ds = rd.from_arrow(
        pa.table({"k": pa.array([1, 2, 3, 4, 5], pa.int64()),
                  "v": pa.array([10, 20, 30, 40, 50], pa.int64())})
    )
    keys = rd.from_arrow(pa.table({"k": pa.array([2, 4], pa.int64())}))

    def rows(res):
        return sorted(map(tuple, res.to_pandas()[["k", "v"]].to_numpy().tolist()))

    semi_bc = membership_filter(ds, keys, "k")
    semi_hj = membership_filter(ds, keys, "k", limit=0)
    assert rows(semi_bc) == [(2, 20), (4, 40)]
    assert rows(semi_hj) == [(2, 20), (4, 40)]

    anti_bc = membership_filter(ds, keys, "k", anti=True)
    anti_hj = membership_filter(ds, keys, "k", anti=True, limit=0)
    assert rows(anti_bc) == [(1, 10), (3, 30), (5, 50)]
    assert rows(anti_hj) == [(1, 10), (3, 30), (5, 50)]

    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    assert membership_filter(ds, empty, "k").count() == 0
    assert membership_filter(ds, empty, "k", anti=True).count() == 5


def test_grouped_centroids_dedups_coincident_points(ray_session):
    import ray.data as rd

    # group 1: two coincident unit boxes (centroid (5,5)) + one at (20,20)
    # -> dissolve of centroid points dedups the coincident pair, so the
    # group centroid is mean({(5,5),(20,20)}) = (12.5, 12.5) -> "12_12",
    # NOT the multiplicity-weighted (10,10).
    # group 2: a single box at (100,40) -> "100_40".
    boxes = synth.box_wkb(
        np.array([4.0, 4.0, 19.0, 99.0]),
        np.array([4.0, 4.0, 19.0, 39.0]),
        np.array([6.0, 6.0, 21.0, 101.0]),
        np.array([6.0, 6.0, 21.0, 41.0]),
    )
    t = pa.table(
        {
            "rid": pa.array([1, 2, 3, 4], pa.int64()),
            "g": pa.array([1, 1, 1, 2], pa.int64()),
            "geometry_wkb": boxes,
        }
    )
    out = dis.get_grouped_centroids(rd.from_arrow(t), by="g").to_pandas()
    lab = dict(zip(out["rid"], out["grouped_centroid"]))
    assert lab == {1: "12_12", 2: "12_12", 3: "12_12", 4: "100_40"}


def test_diff_cell_covered_cell_fast_path(ray_session):
    import ray.data as rd
    from ssb_sgis_ray import synth
    from ssb_sgis_ray.ops import overlay as ov

    # one big right rect fully covering hundreds of res-16 cells (32-unit
    # cells) -> the survivor kernel's covered-cell short circuit fires;
    # inside it sit rect lefts (closed-form clip), an L-shape left (the
    # exact non-rect sub-path), a left straddling the covered boundary,
    # and a far-away pass-through left.
    lshape = synth.lshape_wkb(
        np.array([100.0]), np.array([100.0]), np.array([140.0]),
        np.array([140.0]), np.array([180.0]), np.array([180.0]),
    )[0]
    left_t = pa.table(
        {
            "lid": pa.array(np.arange(5, dtype=np.int64), pa.int64()),
            "geometry_wkb": pa.array(
                [
                    synth.box_wkb(np.array([50.0]), np.array([50.0]),
                                  np.array([80.0]), np.array([80.0]))[0].as_py(),
                    synth.box_wkb(np.array([300.0]), np.array([300.0]),
                                  np.array([700.0]), np.array([600.0]))[0].as_py(),
                    lshape,
                    synth.box_wkb(np.array([900.0]), np.array([400.0]),
                                  np.array([1100.0]), np.array([500.0]))[0].as_py(),
                    synth.box_wkb(np.array([5000.0]), np.array([5000.0]),
                                  np.array([5010.0]), np.array([5010.0]))[0].as_py(),
                ],
                pa.binary(),
            ),
        }
    )
    right_t = _boxes_table([(0, 0, 1000, 1000)], "rid")

    bc = ov.clean_overlay(rd.from_arrow(left_t), right_t, how="difference")
    cell = ov.overlay_difference_cell(
        rd.from_arrow(left_t), rd.from_arrow(right_t), "lid", "rid", res=16
    )

    def rows_of(ds):
        df = ds.to_pandas()
        out = {}
        for lid, g in zip(df["lid"], df["geometry_wkb"]):
            pg = wkb.decode_polygons(np.asarray([g], dtype=object))
            out[int(lid)] = float(kernels.polygon_areas(pg)[0])
        return out

    got_bc, got_cell = rows_of(bc), rows_of(cell)
    # lids 0-2 fully inside the right: consumed. lid 3 keeps the strip
    # outside x=1000. lid 4 passes through untouched.
    assert got_cell == {3: pytest.approx(100.0 * 100.0),
                       4: pytest.approx(100.0)}
    assert got_bc.keys() == got_cell.keys()
    for k in got_bc:
        assert got_cell[k] == pytest.approx(got_bc[k])


def test_frame_utilities_and_common_crs():
    """The GeoDataFrame frame helpers re-expressed for WKB tables
    (general.py:28-135, conversion.py:17-55): rename_geometry_if,
    drop_inactive_geometry_columns, push_geom_col, geometry_array,
    to_wkb_geom, get_common_crs."""
    import pytest as _pt

    from ssb_sgis_ray.geo import conversion, crs, wkb

    t = conversion.to_geo_table([(0, 1), (2, 3)])

    # rename: a single non-active geometry column is normalized
    renamed = conversion.rename_geometry_if(
        t.rename_columns(["other_wkb"]).append_column(
            "v", pa.array([1, 2], pa.int64())
        )
    )
    assert "geometry_wkb" in renamed.column_names
    # already-active: no-op; ambiguity raises
    assert conversion.rename_geometry_if(t).equals(t)
    two = t.append_column("b_wkb", t["geometry_wkb"]).rename_columns(
        ["a_wkb", "b_wkb"]
    )
    with _pt.raises(ValueError):
        conversion.rename_geometry_if(two)

    # drop_inactive keeps only geometry_wkb; push_geom_col puts it last
    multi = t.append_column("shadow_wkb", t["geometry_wkb"]).append_column(
        "v", pa.array([1, 2], pa.int64())
    )
    dropped = conversion.drop_inactive_geometry_columns(multi)
    assert dropped.column_names == ["geometry_wkb", "v"]
    assert conversion.push_geom_col(dropped).column_names == [
        "v", "geometry_wkb",
    ]

    # geometry_array: the to_geoseries analogue over any accepted input
    arr = conversion.geometry_array({"x": [1.0], "y": [2.0]})
    assert wkb.decode_points(arr).y[0] == 2.0

    # to_wkb_geom: scalar dispatch incl. bbox -> box (to_shapely analogue)
    box = conversion.to_wkb_geom((0, 0, 4, 2))
    from ssb_sgis_ray.geo import kernels

    assert kernels.polygon_areas(wkb.decode_polygons([box]))[0] == 8.0
    assert conversion.to_wkb_geom("POINT (1 2)") == conversion.to_wkb_geom(
        (1, 2)
    )
    with _pt.raises(TypeError):
        conversion.to_wkb_geom(object())

    # get_common_crs over tagged tables / strings / None mixes
    a = crs.tag_crs(t, "EPSG:25833")
    b = crs.tag_crs(t, "epsg:25833")
    assert crs.get_common_crs([a, b]) == "EPSG:25833"
    assert crs.get_common_crs([t, None, "EPSG:25833"]) == "EPSG:25833"
    assert crs.get_common_crs([t, t]) is None
    with _pt.raises(ValueError):
        crs.get_common_crs([a, crs.tag_crs(t, "EPSG:4326")])
    with _pt.raises(ValueError):
        crs.get_common_crs([a, t], strict=True)
    # strict must NOT fire on case-differing tags of the SAME crs, and
    # falsy non-string values (0) are ignored like None/""
    assert crs.get_common_crs([a, b], strict=True) == "EPSG:25833"
    assert crs.get_common_crs(["EPSG:25833", 0]) == "EPSG:25833"

    # rename_geometry_if edge cases: no geometry at all is a clear error;
    # a large_binary bare "geometry" column is recognized and renamed
    with _pt.raises(ValueError, match="No geometry"):
        conversion.rename_geometry_if(pa.table({"v": [1, 2]}))
    lb = pa.table({"geometry": pa.array([b"x"], pa.large_binary())})
    assert conversion.rename_geometry_if(lb).column_names == ["geometry_wkb"]
