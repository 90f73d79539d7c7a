"""Operator tests on sf0.001 against brute-force numpy oracles."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ssb_sgis_ray import exchange, synth
from ssb_sgis_ray.geo import kernels, wkb
from ssb_sgis_ray.ops import dissolve as dis
from ssb_sgis_ray.ops import knn as knn_ops
from ssb_sgis_ray.ops import spatial

SF = "/root/testdata/sf0.001"


def customers_ds():
    import ray.data as rd

    return rd.read_parquet(f"{SF}/customer.parquet", columns=["c_custkey"]).map_batches(
        synth.add_customer_points, batch_format="pyarrow"
    )


def suppliers_table() -> pa.Table:
    t = pq.read_table(f"{SF}/supplier.parquet", columns=["s_suppkey"])
    return synth.add_supplier_diamonds(t)


def suppliers_ds():
    import ray.data as rd

    return rd.read_parquet(f"{SF}/supplier.parquet", columns=["s_suppkey"]).map_batches(
        synth.add_supplier_diamonds, batch_format="pyarrow"
    )


def oracle_pip_pairs():
    """Brute-force (custkey, suppkey) pairs: |dx|+|dy| <= r (int math)."""
    c = pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey"]).to_pandas()
    s = pq.read_table(f"{SF}/supplier.parquet", columns=["s_suppkey"]).to_pandas()
    px, py = synth.customer_points(c["c_custkey"].to_numpy())
    sx, sy, r = synth.supplier_diamonds(s["s_suppkey"].to_numpy())
    pairs = set()
    for i in range(len(px)):
        inside = np.abs(px[i] - sx) + np.abs(py[i] - sy) <= r
        for j in np.nonzero(inside)[0]:
            pairs.add((int(c["c_custkey"][i]), int(s["s_suppkey"][j])))
    return pairs


def test_sfilter_semi_anti_split(ray_session):
    sup = suppliers_table()
    oracle = oracle_pip_pairs()
    matched_keys = {a for a, _ in oracle}

    semi = spatial.sfilter(customers_ds(), sup, mode="semi").to_pandas()
    assert set(semi["c_custkey"]) == matched_keys
    assert not semi["c_custkey"].duplicated().any()  # dedup like np.unique

    anti = spatial.sfilter(customers_ds(), sup, mode="anti").to_pandas()
    all_keys = set(
        pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey"])["c_custkey"].to_pylist()
    )
    assert set(anti["c_custkey"]) == all_keys - matched_keys

    split = spatial.sfilter(customers_ds(), sup, mode="split").to_pandas()
    assert set(split.loc[split["matched"], "c_custkey"]) == matched_keys
    assert len(split) == len(all_keys)


def test_sjoin_pairs_broadcast(ray_session):
    sup = suppliers_table()
    got = spatial.sjoin_pairs(customers_ds(), sup, right_cols=["s_suppkey"]).to_pandas()
    assert set(zip(got["c_custkey"], got["s_suppkey"])) == oracle_pip_pairs()


def test_sjoin_cell_partitioned_matches_broadcast(ray_session):
    got = spatial.sjoin_cell_partitioned(
        customers_ds(), suppliers_ds(), res=7, left_id="c_custkey", right_id="s_suppkey"
    ).to_pandas()
    assert set(zip(got["left_id"], got["right_id"])) == oracle_pip_pairs()
    # a pair may appear at most once (points live in exactly one cell)
    assert not got.duplicated().any()


def test_knn_broadcast_and_cells_match_bruteforce(ray_session):
    c = pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey"]).to_pandas()
    s = pq.read_table(f"{SF}/supplier.parquet", columns=["s_suppkey"]).to_pandas()
    px, py = synth.customer_points(c["c_custkey"].to_numpy())
    sx, sy, _ = synth.supplier_diamonds(s["s_suppkey"].to_numpy())
    k = 3
    # oracle: per customer, k smallest (dist2, suppkey)
    expect = []
    for i in range(len(px)):
        d2 = (px[i] - sx) ** 2 + (py[i] - sy) ** 2
        order = np.lexsort((s["s_suppkey"].to_numpy(), d2))[:k]
        for rank, j in enumerate(order, 1):
            expect.append((int(c["c_custkey"][i]), int(s["s_suppkey"][j]), int(d2[j]), rank))
    expect = sorted(expect)

    neighbors = {
        "id": s["s_suppkey"].to_numpy().astype(np.int64),
        "x": sx.astype(np.float64),
        "y": sy.astype(np.float64),
    }
    got = knn_ops.knn_broadcast(customers_ds(), neighbors, k=k, id_col="c_custkey").to_pandas()
    got_t = sorted(zip(got["c_custkey"], got["neighbor_id"], got["dist2"], got["knn_rank"]))
    assert [tuple(map(int, t)) for t in got_t] == expect

    got2 = knn_ops.knn_cells(
        customers_ds(), neighbors, k=k, id_col="c_custkey", cell=2000.0
    ).to_pandas()
    got2_t = sorted(zip(got2["c_custkey"], got2["neighbor_id"], got2["dist2"], got2["knn_rank"]))
    assert [tuple(map(int, t)) for t in got2_t] == expect


def test_knn_strict_raises(ray_session):
    with pytest.raises(ValueError):
        knn_ops.KnnBroadcast.__init__(
            object.__new__(knn_ops.KnnBroadcast),
            neighbors_ref=__import__("ray").put(
                {"id": np.array([1]), "x": np.array([0.0]), "y": np.array([0.0])}
            ),
            k=5,
            id_col="x",
            strict=True,
        )


def test_tile_assignment_and_cover(ray_session):
    ds = customers_ds().map_batches(
        lambda b: spatial.assign_point_tiles(b, synth.TILE), batch_format="pyarrow"
    )
    df = ds.to_pandas()
    assert (df["tile_x"] == df["px"] // synth.TILE).all()
    assert (df["ssb_id"] == df["tile_x"].astype(str) + "_" + df["tile_y"].astype(str)).all()

    # covering set of part boxes: each tile the bbox overlaps, half-open
    import ray.data as rd

    parts = rd.read_parquet(f"{SF}/part.parquet", columns=["p_partkey"]).map_batches(
        synth.add_part_boxes, batch_format="pyarrow"
    )
    cov = parts.map_batches(
        lambda b: spatial.cover_tiles_flatmap(b, synth.TILE, "p_partkey"),
        batch_format="pyarrow",
    ).to_pandas()
    p = pq.read_table(f"{SF}/part.parquet", columns=["p_partkey"]).to_pandas()
    minx, miny, maxx, maxy = synth.part_boxes(p["p_partkey"].to_numpy())
    expect = set()
    for i in range(len(p)):
        for tx in range(minx[i] // synth.TILE, (maxx[i] - 1) // synth.TILE + 1):
            for ty in range(miny[i] // synth.TILE, (maxy[i] - 1) // synth.TILE + 1):
                expect.add((int(p["p_partkey"][i]), tx, ty))
    assert set(zip(cov["p_partkey"], cov["tile_x"], cov["tile_y"])) == expect


def test_cluster_labels_and_union_area(ray_session):
    """Cluster supplier diamonds; verify labels vs union-find oracle and
    union area vs an independent scanline integration."""
    sup = suppliers_table()
    pairs = dis.self_intersect_pairs(sup, "s_suppkey")
    ids = sup["s_suppkey"].to_numpy()
    labels = dis.union_find_labels(ids, pairs)

    # oracle: diamonds intersect iff |dx|+|dy| <= r1+r2 (L1 Minkowski)
    sx, sy, r = synth.supplier_diamonds(ids)
    import itertools

    adj = {int(i): set() for i in ids}
    for a, b in itertools.combinations(range(len(ids)), 2):
        if abs(sx[a] - sx[b]) + abs(sy[a] - sy[b]) <= r[a] + r[b]:
            adj[int(ids[a])].add(int(ids[b]))
            adj[int(ids[b])].add(int(ids[a]))
    # connected components by BFS
    seen, comp_of = set(), {}
    for start in sorted(adj):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        lab = min(comp)
        for u in comp:
            comp_of[u] = lab
    expect_labels = np.array([comp_of[int(i)] for i in ids])
    np.testing.assert_array_equal(labels, expect_labels)

    # union area per cluster vs scanline oracle (0.5-step trapezoid is
    # exact for 45°-edged diamonds with integer vertices)
    df = pd.DataFrame({"s_suppkey": ids, "label": labels})
    for lab in np.unique(labels):
        members = df.loc[df["label"] == lab, "s_suppkey"].to_numpy()
        sel = np.isin(ids, members)
        g = pd.DataFrame(
            {"geometry_wkb": synth.diamond_wkb(sx[sel], sy[sel], r[sel])}
        )
        got_area = dis.union_area_of_group(g)
        exp_area = _diamond_union_area_scanline(sx[sel], sy[sel], r[sel])
        assert got_area == pytest.approx(exp_area, rel=1e-9)


def _diamond_union_area_scanline(sx, sy, r, step=0.5):
    y0 = float((sy - r).min())
    y1 = float((sy + r).max())
    ys = np.arange(y0, y1 + step, step)
    lengths = np.zeros(len(ys))
    for k, y in enumerate(ys):
        half = r - np.abs(y - sy)
        ok = half >= 0
        if not ok.any():
            continue
        lo = (sx - half)[ok]
        hi = (sx + half)[ok]
        order = np.argsort(lo)
        lo, hi = lo[order], hi[order]
        total, cur_lo, cur_hi = 0.0, lo[0], hi[0]
        for i in range(1, len(lo)):
            if lo[i] <= cur_hi:
                cur_hi = max(cur_hi, hi[i])
            else:
                total += cur_hi - cur_lo
                cur_lo, cur_hi = lo[i], hi[i]
        total += cur_hi - cur_lo
        lengths[k] = total
    return float(np.trapz(lengths, dx=step))


def test_label_propagation_matches_union_find(ray_session):
    import ray.data as rd

    sup = suppliers_table()
    pairs = dis.self_intersect_pairs(sup, "s_suppkey")
    ids = sup["s_suppkey"].to_numpy()
    expect = dis.union_find_labels(ids, pairs)
    if len(pairs) == 0:
        return
    pairs_ds = rd.from_pandas(pairs)
    got = dis.label_propagation(pairs_ds).to_pandas()
    got_map = dict(zip(got["node"], got["label"]))
    for i, v in enumerate(ids):
        if int(v) in got_map:
            assert got_map[int(v)] == expect[i]


def test_distributed_components_force_limit_zero(ray_session):
    """connected_components with the union-find shortcut DISABLED
    (limit=0) must equal the union-find result — proves the distributed
    label-propagation path end to end (VERDICT r1 next-round #2)."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    # random graph with several multi-hop components (diameter > 1)
    edges = []
    for base in range(0, 120, 12):
        chain = np.arange(base, base + rng.integers(4, 12))
        edges.extend(zip(chain[:-1], chain[1:]))
    pairs = pd.DataFrame(
        {"id_a": [a for a, _ in edges], "id_b": [b for _, b in edges]}
    ).astype("int64")
    nodes = np.unique(np.concatenate([pairs["id_a"], pairs["id_b"]]))
    expect = dis.union_find_labels(nodes, pairs)
    got = (
        dis.connected_components(rd.from_pandas(pairs), limit=0)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    np.testing.assert_array_equal(got["node"].to_numpy(), nodes)
    np.testing.assert_array_equal(got["label"].to_numpy(), expect)


def test_self_intersect_pairs_ds_matches_driver(ray_session):
    """Cell-partitioned distributed pair generation (anchor-cell dedup)
    equals the single-table driver kernel."""
    import ray.data as rd

    sup = suppliers_table()
    expect = dis.self_intersect_pairs(sup, "s_suppkey")
    exp_set = set(
        zip(
            np.minimum(expect["id_a"], expect["id_b"]),
            np.maximum(expect["id_a"], expect["id_b"]),
        )
    )
    got = dis.self_intersect_pairs_ds(
        rd.from_arrow(sup), "s_suppkey", res=8
    ).to_pandas()
    got_set = (
        set(zip(got["id_a"], got["id_b"])) if "id_a" in got.columns else set()
    )  # empty Dataset loses its schema through to_pandas
    assert got_set == exp_set
    if not exp_set:
        # sf0.001 diamonds may be disjoint; force overlap with a dense copy
        import pyarrow as pa

        sx, sy, r = synth.supplier_diamonds(np.arange(1, 60, dtype=np.int64))
        dense = pa.table(
            {
                "s_suppkey": pa.array(np.arange(1, 60), pa.int64()),
                "geometry_wkb": pa.array(
                    list(synth.diamond_wkb(sx // 4, sy // 4, r)), pa.binary()
                ),
            }
        )
        expect2 = dis.self_intersect_pairs(dense, "s_suppkey")
        exp2 = set(zip(expect2["id_a"], expect2["id_b"]))
        got2 = dis.self_intersect_pairs_ds(
            rd.from_arrow(dense), "s_suppkey", res=8
        ).to_pandas()
        assert set(zip(got2["id_a"], got2["id_b"])) == exp2
        assert len(exp2) > 0


def test_overlay_concave_holed_distributed(ray_session):
    """Concave L × holed boxes through the full OverlayActor pipeline:
    per-pair areas must match the boolean engine run directly."""
    import ray.data as rd

    from ssb_sgis_ray.geo import booleans
    from ssb_sgis_ray.ops import overlay as ov

    keys = np.arange(1, 40, dtype=np.int64)
    x0, y0, x1, y1, x2, y2 = synth.part_lshapes(keys)
    left = pa.table(
        {
            "p_partkey": pa.array(keys, pa.int64()),
            "geometry_wkb": pa.array(
                list(synth.lshape_wkb(x0, y0, x1, y1, x2, y2)), pa.binary()
            ),
        }
    )
    cols = synth.orders_holed(np.arange(1, 40, dtype=np.int64))
    right = pa.table(
        {
            "o_orderkey": pa.array(np.arange(1, 40), pa.int64()),
            "geometry_wkb": pa.array(list(synth.holed_box_wkb(*cols)), pa.binary()),
        }
    )
    out = ov.clean_overlay(
        rd.from_arrow(left), right, how="intersection", emit="area"
    ).to_pandas()
    lpg = wkb.decode_polygons(left["geometry_wkb"])
    rpg = wkb.decode_polygons(right["geometry_wkb"])
    lrow = {int(k): i for i, k in enumerate(keys)}
    rrow = {int(k): i for i, k in enumerate(np.arange(1, 40))}
    assert len(out) > 0
    for _, row in out.iterrows():
        s_r, s_h = booleans.ringset_of_row(lpg, lrow[int(row["p_partkey"])])
        c_r, c_h = booleans.ringset_of_row(rpg, rrow[int(row["o_orderkey"])])
        want = booleans.boolean_area(s_r, c_r, "intersection", s_h, c_h)
        assert row["piece_area"] == pytest.approx(want, abs=1e-9)


def test_overlay_grid_size_snapping(ray_session):
    """clean_overlay(grid_size=...) snaps near-coincident boundaries to
    exact coincidence before the geometry math (GEOS grid_size arg)."""
    import ray.data as rd

    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import overlay as ov

    def boxes(eps):
        ring = np.array(
            [[0 + eps, 0], [10 + eps, 0], [10 + eps, 10], [0 + eps, 10], [0 + eps, 0]],
            float,
        )
        return pa.table(
            {
                "lid": pa.array([1], pa.int64()),
                "geometry_wkb": pa.array([W.encode_polygon([ring])], pa.binary()),
            }
        )

    right = pa.table(
        {
            "rid": pa.array([1], pa.int64()),
            "geometry_wkb": pa.array(
                [W.encode_polygon([np.array([[10, 0], [20, 0], [20, 10], [10, 10], [10, 0]], float)])],
                pa.binary(),
            ),
        }
    )
    # left box ends at x=10.3: unsnapped overlap area 0.3; with
    # grid_size=1 the boundary snaps to x=10 -> touching, zero area, no row
    out_raw = ov.clean_overlay(
        rd.from_arrow(boxes(0.3)), right, how="intersection", emit="area"
    ).to_pandas()
    assert len(out_raw) == 1 and abs(out_raw["piece_area"][0] - 3.0) < 1e-9
    out_snap = ov.clean_overlay(
        rd.from_arrow(boxes(0.3)), right, how="intersection", emit="area",
        grid_size=1.0,
    ).to_pandas()
    assert len(out_snap) == 0


def test_overlay_difference_passthrough_keeps_holes(ray_session):
    """ADVICE r2 (high): a holed left row with NO intersecting right row
    must ride through difference with its interior holes intact (the
    reference's GEOS pass-through keeps untouched geometries unchanged)."""
    import ray.data as rd

    from ssb_sgis_ray.geo import kernels
    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import overlay as ov

    shell = np.array([[0, 0], [100, 0], [100, 100], [0, 100], [0, 0]], float)
    hole = np.array([[40, 40], [40, 60], [60, 60], [60, 40], [40, 40]], float)
    left = pa.table(
        {
            "lid": pa.array([1], pa.int64()),
            "geometry_wkb": pa.array([W.encode_polygon([shell, hole])], pa.binary()),
        }
    )
    far = np.array(
        [[500, 500], [510, 500], [510, 510], [500, 510], [500, 500]], float
    )
    right = pa.table(
        {
            "rid": pa.array([1], pa.int64()),
            "geometry_wkb": pa.array([W.encode_polygon([far])], pa.binary()),
        }
    )
    out = ov.clean_overlay(rd.from_arrow(left), right, how="difference").to_pandas()
    assert len(out) == 1
    pg = W.decode_polygons(out["geometry_wkb"].to_numpy())
    assert kernels.polygon_areas(pg)[0] == pytest.approx(100 * 100 - 20 * 20)


def test_od_cost_matrix_invalid_destination(ray_session):
    """ADVICE r2 (medium): destinations absent from the graph must be
    dropped, not read out of another node's distance slot."""
    import ray.data as rd

    from ssb_sgis_ray.ops import routing

    edges_a = np.array([1, 2, 3], np.int64)
    edges_b = np.array([2, 3, 4], np.int64)
    w = np.ones(3, float)
    graph = routing.build_csr(edges_a, edges_b, w)
    origins = rd.from_arrow(pa.table({"origin": pa.array([1], pa.int64())}))
    # dest 99 is not in the graph; dest 9999 is past every node id
    out = routing.od_cost_matrix(
        origins, graph, np.array([2, 99, 4, 9999], np.int64)
    ).to_pandas()
    assert sorted(out["dest"]) == [2, 4]
    got = dict(zip(out["dest"], out["cost"]))
    assert got[2] == pytest.approx(1.0) and got[4] == pytest.approx(3.0)


def test_overlay_cell_partitioned_matches_broadcast(ray_session):
    """Co-partitioned large×large overlay (cell co-group + anchor-cell pair
    dedup) must produce row-identical results to the broadcast plan —
    intersection pairs AND per-row difference remainders — on a mixed
    concave (L-shape) × holed-box corpus spanning many cells."""
    import ray.data as rd

    from ssb_sgis_ray.geo import kernels
    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import overlay as ov

    keys = np.arange(1, 80, dtype=np.int64)
    x0, y0, x1, y1, x2, y2 = synth.part_lshapes(keys)
    left = pa.table(
        {
            "p_partkey": pa.array(keys, pa.int64()),
            "geometry_wkb": pa.array(
                list(synth.lshape_wkb(x0, y0, x1, y1, x2, y2)), pa.binary()
            ),
        }
    )
    rkeys = np.arange(1, 80, dtype=np.int64)
    cols = synth.orders_holed(rkeys)
    right = pa.table(
        {
            "o_orderkey": pa.array(rkeys, pa.int64()),
            "geometry_wkb": pa.array(list(synth.holed_box_wkb(*cols)), pa.binary()),
        }
    )
    b = ov.clean_overlay(
        rd.from_arrow(left), right, how="intersection", emit="area"
    ).to_pandas()
    bset = sorted(zip(b["p_partkey"], b["o_orderkey"], np.round(b["piece_area"], 6)))
    c = ov.overlay_pairs_cell(
        rd.from_arrow(left), rd.from_arrow(right), "p_partkey", "o_orderkey",
        res=7, emit="area",
    ).to_pandas()
    cset = sorted(zip(c["left_id"], c["right_id"], np.round(c["piece_area"], 6)))
    assert len(bset) > 0 and bset == cset

    bd = ov.clean_overlay(rd.from_arrow(left), right, how="difference").to_pandas()
    pgb = W.decode_polygons(bd["geometry_wkb"].to_numpy())
    bareas = dict(zip(bd["p_partkey"], np.round(kernels.polygon_areas(pgb), 6)))
    cd = ov.overlay_difference_cell(
        rd.from_arrow(left), rd.from_arrow(right), "p_partkey", "o_orderkey", res=7
    ).to_pandas()
    pgc = W.decode_polygons(cd["geometry_wkb"].to_numpy())
    careas = dict(zip(cd["p_partkey"], np.round(kernels.polygon_areas(pgc), 6)))
    assert len(careas) > 0 and bareas == careas


def test_clean_overlay_all_six_hows(ray_session):
    """clean_overlay accepts all six documented hows through one entry
    point (reference overlay.py:70-81); union/symdiff/update compose legs
    internally and drop the internal leg marker."""
    import ray.data as rd

    from ssb_sgis_ray.geo import kernels
    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import overlay as ov

    def box(x0, y0, x1, y1):
        return W.encode_polygon(
            [np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], float)]
        )

    left = pa.table(
        {
            "lid": pa.array([1, 2], pa.int64()),
            "geometry_wkb": pa.array(
                [box(0, 0, 10, 10), box(100, 100, 110, 110)], pa.binary()
            ),
        }
    )
    right = pa.table(
        {
            "rid": pa.array([7, 8], pa.int64()),
            "geometry_wkb": pa.array(
                [box(5, 0, 15, 10), box(200, 200, 210, 210)], pa.binary()
            ),
        }
    )
    # (how, expected total area): inter 50 | left-diff 50+100 |
    # right-diff 50 + unmatched right 100
    wants = {
        "intersection": 50.0,
        "difference": 150.0,
        "identity": 200.0,
        "union": 350.0,
        "symmetric_difference": 300.0,
        "update": 350.0,
    }
    for how, want in wants.items():
        out = ov.clean_overlay(rd.from_arrow(left), right, how=how).to_pandas()
        assert "leg" not in out.columns
        pg = W.decode_polygons(out["geometry_wkb"].to_numpy())
        assert kernels.polygon_areas(pg).sum() == pytest.approx(want), how


def test_overlay_union_leg_areas_mixed_geometry(ray_session):
    """Area-only union legs must agree with the geometry path when lefts
    are MIXED (rect + diamond): the right-leg super kernel ships rects
    for rectilinear lefts and WKB for the diamond, and unions both."""
    import ray.data as rd

    from ssb_sgis_ray.geo import booleans
    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import overlay as ov

    def box(x0, y0, x1, y1):
        return W.encode_polygon(
            [np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], float)]
        )

    dia = W.encode_polygon(
        [np.array([[10, 0], [20, 10], [10, 20], [0, 10], [10, 0]], float)]
    )
    left = pa.table(
        {
            "lid": pa.array([1, 2], pa.int64()),
            "geometry_wkb": pa.array([box(0, 0, 8, 8), dia], pa.binary()),
        }
    )
    right = pa.table(
        {
            "rid": pa.array([7], pa.int64()),
            "geometry_wkb": pa.array([box(4, 4, 30, 30)], pa.binary()),
        }
    )
    out = (
        ov.overlay_union_leg_areas(rd.from_arrow(left), right, how="union")
        .to_pandas()
        .groupby("leg")["area_i"]
        .sum()
        .to_dict()
    )
    # closed forms: box∩right = 4x4=16; dia∩right area via boolean engine
    dia_ring = np.array([[10, 0], [20, 10], [10, 20], [0, 10], [10, 0]], float)
    right_ring = np.array([[4, 4], [30, 4], [30, 30], [4, 30], [4, 4]], float)
    dia_inter = booleans.boolean_area([dia_ring], [right_ring], "intersection")
    assert out["inter"] == 16 + round(dia_inter)
    # left remainders: box 64-16=48; diamond 200-dia_inter
    assert out["left"] == 48 + round(200 - dia_inter)
    # right remainder subtracts the UNION of the clips (they overlap):
    # right = 676 − area( (box∪diamond) ∩ right )
    box_in = np.array([[4, 4], [8, 4], [8, 8], [4, 8], [4, 4]], float)
    dia_in = booleans.boolean_polygons([dia_ring], [right_ring], "intersection")
    ringsets = [([box_in], [False])] + [(rs, [False] * len(rs)) for rs in dia_in]
    cover = booleans.union_all_area(ringsets)
    assert out["right"] == round(26 * 26 - cover)


def test_overlay_intersection_auto_dispatch(ray_session):
    """Both plans behind overlay_intersection_auto must return identical
    (left_id, right_id, piece_area) rows; the dispatcher picks broadcast
    under the limit and the cell co-group plan above it."""
    import ray.data as rd

    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import overlay as ov

    def box(x0, y0, x1, y1):
        return W.encode_polygon(
            [np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], float)]
        )

    rng = np.random.default_rng(11)
    lx = rng.integers(0, 5000, 40).astype(float)
    ly = rng.integers(0, 5000, 40).astype(float)
    left = pa.table(
        {
            "lid": pa.array(np.arange(40), pa.int64()),
            "geometry_wkb": pa.array(
                [box(x, y, x + 400, y + 300) for x, y in zip(lx, ly)], pa.binary()
            ),
        }
    )
    rx = rng.integers(0, 5000, 25).astype(float)
    ry = rng.integers(0, 5000, 25).astype(float)
    right = pa.table(
        {
            "rid": pa.array(np.arange(25), pa.int64()),
            "geometry_wkb": pa.array(
                [box(x, y, x + 500, y + 500) for x, y in zip(rx, ry)], pa.binary()
            ),
        }
    )

    def norm(ds):
        df = ds.to_pandas()
        df["piece_area"] = df["piece_area"].round().astype(np.int64)
        return (
            df.sort_values(["left_id", "right_id", "piece_area"])
            .reset_index(drop=True)
        )

    via_bcast = norm(
        ov.overlay_intersection_auto(
            rd.from_arrow(left), rd.from_arrow(right), "lid", "rid",
            broadcast_limit=1000,
        )
    )
    via_cell = norm(
        ov.overlay_intersection_auto(
            rd.from_arrow(left), rd.from_arrow(right), "lid", "rid",
            broadcast_limit=1, res=10,
        )
    )
    assert len(via_bcast) > 0
    pd.testing.assert_frame_equal(via_bcast, via_cell)


def test_clean_clip_concave_mask_and_holes(ray_session):
    """clean_clip (general.py:513-560): broadcast mask dissolved once, rows
    clipped / dropped / passed through. Mask = L-shaped union of two rects;
    checks a fully-inside row, a partially-clipped row, a disjoint row
    (dropped), and a holed row straddling the concave corner."""
    import ray.data as rd

    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import overlay as ov

    def rect(x0, y0, x1, y1):
        return np.array(
            [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], float
        )

    mask = pa.table(
        {
            "geometry_wkb": pa.array(
                [
                    W.encode_polygon([rect(0, 0, 10, 6)]),
                    W.encode_polygon([rect(0, 0, 6, 10)]),
                ],
                pa.binary(),
            )
        }
    )
    rows = pa.table(
        {
            "id": pa.array([1, 2, 3, 4], pa.int64()),
            "geometry_wkb": pa.array(
                [
                    W.encode_polygon([rect(1, 1, 3, 3)]),       # inside: 4
                    W.encode_polygon([rect(8, 4, 12, 8)]),      # arm clip: 4
                    W.encode_polygon([rect(20, 20, 25, 25)]),   # disjoint
                    # holed row over the concave corner:
                    # shell 4..9 x 4..9 ∩ L = 10 + 6, minus hole 1 => 15
                    W.encode_polygon([rect(4, 4, 9, 9), rect(5, 5, 6, 6)]),
                ],
                pa.binary(),
            ),
        }
    )
    out = (
        ov.clean_clip(rd.from_arrow(rows), mask)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert out["id"].tolist() == [1, 2, 4]
    assert out["clip_area"].tolist() == pytest.approx([4.0, 4.0, 15.0])


def test_union_leg_areas_empty_left(ray_session):
    """Empty left side: union legs reduce to every right row at full
    area through the flipped pass-through (no join, no crash)."""
    import ray.data as rd

    from ssb_sgis_ray.ops import overlay as ov
    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import relational as rel

    def box(x0, y0, x1, y1):
        return W.encode_polygon(
            [np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], float)]
        )

    left = pa.table(
        {"lid": pa.array([], pa.int64()),
         "geometry_wkb": pa.array([], pa.binary())}
    )
    right = pa.table(
        {"rid": pa.array([1, 2], pa.int64()),
         "geometry_wkb": pa.array([box(0, 0, 10, 10), box(20, 20, 25, 30)],
                                  pa.binary())}
    )
    out = rel.sum_by_small_key(
        ov.overlay_union_leg_areas(rd.from_arrow(left), right, how="union"),
        "leg", "area_i", ("inter", "left", "right"),
    ).to_pydict()
    assert out["leg"] == ["right"]
    assert out["total_area"] == [100 + 50]


def test_cell_difference_and_union_with_empty_right(ray_session):
    """Empty right side: difference passes every left through unchanged
    (incl. the survivor pre-filter path), and the union-area legs reduce
    to the left areas. Empty left side: difference is empty and the
    union-area legs reduce to the right areas."""
    import ray.data as rd

    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import overlay as ov
    from ssb_sgis_ray.ops import relational as rel

    rings = [
        np.array([[0, 0], [100, 0], [100, 50], [0, 50], [0, 0]], float),
        np.array([[500, 500], [700, 500], [700, 900], [500, 900],
                  [500, 500]], float),
    ]
    left = rd.from_arrow(pa.table({
        "lid": pa.array([1, 2], pa.int64()),
        "geometry_wkb": pa.array([W.encode_polygon([r]) for r in rings],
                                 pa.binary()),
    }))
    empty = rd.from_arrow(pa.table({
        "rid": pa.array([], pa.int64()),
        "geometry_wkb": pa.array([], pa.binary()),
    }))

    diff = ov.overlay_difference_cell(left, empty, "lid", "rid", res=8)
    got = diff.to_pandas().sort_values("lid").reset_index(drop=True)
    assert got["lid"].tolist() == [1, 2]

    legs = ov.overlay_union_leg_areas_cell(left, empty, "lid", "rid",
                                           how="union", res=8)
    t = rel.sum_by_small_key(legs, "leg", "area_i", ("inter", "left", "right"))
    by = dict(zip(t["leg"].to_pylist(), t["total_area"].to_pylist()))
    assert by.get("left") == 100 * 50 + 200 * 400
    assert "right" not in by and "inter" not in by

    # empty left (typed 0-row, and emptied by a filter) against one
    # overlapping right box: no difference rows, and the union legs
    # reduce to the right's area
    right = rd.from_arrow(pa.table({
        "rid": pa.array([7], pa.int64()),
        "geometry_wkb": pa.array([W.encode_polygon([rings[0]])], pa.binary()),
    }))
    typed = rd.from_arrow(pa.table({
        "lid": pa.array([], pa.int64()),
        "geometry_wkb": pa.array([], pa.binary()),
    }))
    for no_left in (typed, left.filter(lambda r: False)):
        assert ov.overlay_difference_cell(no_left, right, "lid", "rid", res=8).count() == 0
        assert ov.clean_overlay_cell(no_left, right, "lid", "rid",
                                     how="difference", res=8).count() == 0
        legs = ov.overlay_union_leg_areas_cell(no_left, right, "lid", "rid",
                                               how="union", res=8)
        t = rel.sum_by_small_key(legs, "leg", "area_i", ("inter", "left", "right"))
        assert dict(zip(t["leg"].to_pylist(), t["total_area"].to_pylist())) == {
            "right": 100 * 50}


def test_difference_cell_broadcast_and_cell_pair_plans_agree(ray_session, monkeypatch):
    """The survivor BROADCAST pair plan (default at small survivor counts)
    and the cell co-partitioned pair plan (forced via a zero broadcast
    limit) must produce identical per-left remainders — including holes
    punched by partners, fully-covered drops, and never-matched
    pass-throughs."""
    import ray.data as rd

    from ssb_sgis_ray.geo import kernels
    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import overlay as ov

    def box(x0, y0, x1, y1):
        return W.encode_polygon(
            [np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]],
                      float)]
        )

    left = pa.table({
        "lid": pa.array([1, 2, 3, 4], pa.int64()),
        "geometry_wkb": pa.array(
            [
                box(0, 0, 100, 100),        # partner punches a hole
                box(200, 200, 260, 260),    # fully covered -> dropped
                box(900, 900, 960, 960),    # never matched -> pass-through
                box(40, 40, 300, 300),      # overlaps two partners
            ],
            pa.binary(),
        ),
    })
    right = pa.table({
        "rid": pa.array([10, 11], pa.int64()),
        "geometry_wkb": pa.array(
            [box(25, 25, 75, 75), box(150, 150, 400, 400)], pa.binary()
        ),
    })

    def run():
        out = ov.overlay_difference_cell(
            rd.from_arrow(left), rd.from_arrow(right), "lid", "rid", res=6
        ).to_pandas()
        pg = W.decode_polygons(out["geometry_wkb"].to_numpy())
        return dict(zip(out["lid"], np.round(kernels.polygon_areas(pg), 6)))

    broadcast = run()
    monkeypatch.setattr(ov, "DIFF_SURVIVOR_BROADCAST_LIMIT", 0)
    cell_pair = run()
    want = {
        1: 100 * 100 - 50 * 50,
        3: 60 * 60,
        4: 260 * 260 - 150 * 150 - 35 * 35,
    }
    assert broadcast == cell_pair == want


def test_tile_pyramid_both_plans_match_brute_force(ray_session):
    """All zoom levels from one pass equal the per-level brute force,
    identically in the driver-sum and distributed-groupby plans and
    under repartitioning; out-of-domain tile ids raise."""
    import ray.data as rd

    rng = np.random.RandomState(5)
    x = rng.randint(0, 40, size=800).astype(np.int64)
    y = rng.randint(0, 40, size=800).astype(np.int64)
    tbl = pa.table({"tile_x": pa.array(x), "tile_y": pa.array(y)})

    want = []
    for lv in range(4):
        from collections import Counter

        c = Counter(zip(x >> lv, y >> lv))
        want += [(lv, int(a), int(b), n) for (a, b), n in c.items()]
    want.sort()

    def run(parts, limit):
        out = spatial.tile_pyramid(
            rd.from_arrow(tbl).repartition(parts), levels=4,
            driver_limit=limit,
        )
        df = out.to_pandas()
        return sorted(map(tuple, df[["level", "tile_x", "tile_y", "n"]]
                          .to_numpy().tolist()))

    assert run(1, 4_000_000) == want
    assert run(7, 4_000_000) == want
    assert run(7, 0) == want  # forced distributed groupby plan

    bad = pa.table({"tile_x": pa.array([-1], pa.int64()),
                    "tile_y": pa.array([0], pa.int64())})
    with pytest.raises(Exception):
        spatial.tile_pyramid(rd.from_arrow(bad), levels=2,
                             driver_limit=0).to_pandas()


def test_focal_hotspots_both_plans_match_brute_force(ray_session):
    """3x3 focal counts equal the brute-force window sum over the dense
    grid, identically in the driver-sum and distributed plans and under
    repartitioning; domain-edge cells (cx=0/cy=0) get truncated windows,
    zero-count cells are absent, and a cell AT the hot threshold is hot."""
    import ray.data as rd

    rng = np.random.RandomState(11)
    # points clustered so some cells are empty and one corner is hot
    px = np.concatenate([rng.randint(0, 50, 300),
                         rng.randint(0, 200, 200)]).astype(np.int64)
    py = np.concatenate([rng.randint(0, 50, 300),
                         rng.randint(0, 200, 200)]).astype(np.int64)
    S = 20
    from collections import Counter

    cnt = Counter(zip(px // S, py // S))
    want = {}
    for (cx, cy), n in cnt.items():
        focal = sum(cnt.get((cx + dx, cy + dy), 0)
                    for dx in (-1, 0, 1) for dy in (-1, 0, 1))
        want[(cx, cy)] = (n, focal)
    thr = sorted(f for _, f in want.values())[len(want) // 2]  # attained

    tbl = pa.table({"px": pa.array(px), "py": pa.array(py)})

    def run(parts, limit):
        out = spatial.focal_hotspots(
            rd.from_arrow(tbl).repartition(parts), cell_size=S,
            hot_threshold=thr, driver_limit=limit).to_pandas()
        return {(int(r["cell_x"]), int(r["cell_y"])):
                (int(r["cnt"]), int(r["focal"]), bool(r["is_hot"]))
                for _, r in out.iterrows()}

    for parts, limit in [(1, 4_000_000), (6, 4_000_000), (6, 0)]:
        got = run(parts, limit)
        assert set(got) == set(want), (parts, limit)
        hit_boundary = False
        for cell, (n, focal) in want.items():
            assert got[cell][:2] == (n, focal), (parts, limit, cell)
            assert got[cell][2] == (focal >= thr)
            if focal == thr:
                hit_boundary = True
        assert hit_boundary


def test_sfilter_cell_matches_broadcast_predicates(ray_session):
    """sfilter_cell (large×large co-partitioned predicate filter) must
    return exactly the broadcast sfilter's (left_kind='polygon') kept-id
    sets for every predicate and both modes."""
    import ray.data as rd

    import pyarrow.parquet as pq

    from ssb_sgis_ray import synth
    from ssb_sgis_ray.ops import spatial

    sf = "/root/testdata/sf0.001"
    parts_ds = (rd.read_parquet(f"{sf}/part.parquet", columns=["p_partkey"])
                .map_batches(synth.add_part_boxes, batch_format="pyarrow"))
    orders_tbl = synth.add_orders_boxes(
        pq.read_table(f"{sf}/orders.parquet", columns=["o_orderkey"]))
    orders_ds = (rd.read_parquet(f"{sf}/orders.parquet",
                                 columns=["o_orderkey"])
                 .map_batches(synth.add_orders_boxes, batch_format="pyarrow"))

    for pred in ("intersects", "touches", "overlaps", "within", "covers"):
        want_semi = set(
            spatial.sfilter(parts_ds, orders_tbl, mode="semi",
                            left_kind="polygon", predicate=pred)
            .to_pandas()["p_partkey"])
        for mode in ("semi", "anti"):
            df = spatial.sfilter_cell(
                parts_ds, orders_ds, left_id="p_partkey",
                right_id="o_orderkey", predicate=pred, mode=mode,
                res=10).to_pandas()
            # an all-matched anti set is EMPTY, and to_pandas() of a
            # 0-row Dataset has no columns in Ray 2.49 (DEVNOTES)
            got = set(df["p_partkey"]) if "p_partkey" in df.columns else set()
            if mode == "semi":
                assert got == want_semi, pred
            else:
                universe = set(
                    parts_ds.to_pandas()["p_partkey"])
                assert got == universe - want_semi, pred


def test_sfilter_cell_line_left_matches_broadcast(ray_session):
    """sfilter_cell(left_kind='line') must return the broadcast
    sfilter's (left_kind='line') kept ids for every line predicate."""
    import ray.data as rd

    import pyarrow.parquet as pq

    from ssb_sgis_ray import synth
    from ssb_sgis_ray.geo import wkb as W
    from ssb_sgis_ray.ops import spatial

    sf = "/root/testdata/sf0.001"
    sup_tbl = synth.add_supplier_diamonds(
        pq.read_table(f"{sf}/supplier.parquet", columns=["s_suppkey"]))
    sup_ds = (rd.read_parquet(f"{sf}/supplier.parquet",
                              columns=["s_suppkey"])
              .map_batches(synth.add_supplier_diamonds,
                           batch_format="pyarrow"))
    rng = np.random.default_rng(3)
    ids, wkbs = [], []
    for k in range(400):
        x = float(rng.integers(0, 36000)); y = float(rng.integers(0, 36000))
        ids.append(k)
        wkbs.append(W.encode_linestring(
            np.array([[x - 150.0, y], [x + 150.0, y]])))
    segs = rd.from_arrow(pa.table({
        "seg_id": pa.array(ids, pa.int64()),
        "geometry_wkb": pa.array(wkbs, pa.binary()),
    })).repartition(3)

    for pred in ("intersects", "crosses", "within", "touches"):
        wdf = spatial.sfilter(segs, sup_tbl, mode="semi", left_kind="line",
                              predicate=pred).to_pandas()
        want = set(wdf["seg_id"]) if "seg_id" in wdf.columns else set()
        df = spatial.sfilter_cell(
            segs, sup_ds, left_id="seg_id", right_id="s_suppkey",
            predicate=pred, mode="semi", res=9,
            left_kind="line").to_pandas()
        got = set(df["seg_id"]) if "seg_id" in df.columns else set()
        assert got == want, pred


def _never_executed():
    """A Dataset that fails if anything ever executes it."""
    import ray.data as rd

    def boom(b):
        raise AssertionError("the Dataset was executed")

    return rd.range(4).map_batches(boom, batch_format="pyarrow")


@pytest.mark.parametrize("predicate, mode", [
    ("intersect", "semi"),              # typo
    ([], "split"),                      # empty sequence
    (["within", "within"], "split"),    # duplicate
    (["within", "touches"], "semi"),    # sequence outside split mode
    ("within", "pairs"),                # not a filter mode
])
def test_sfilter_rejects_bad_predicates_at_plan_time(ray_session, predicate,
                                                     mode):
    """Bad predicate arguments raise ValueError in the driver when the
    plan is built — before, a typo failed only inside a Ray worker."""
    with pytest.raises(ValueError):
        spatial.sfilter(_never_executed(), suppliers_table(), mode=mode,
                        left_kind="polygon", predicate=predicate)


@pytest.mark.parametrize("predicate, mode", [
    ("withn", "semi"), (["within", "touches"], "semi"), ("within", "split"),
])
def test_sfilter_cell_rejects_bad_predicates_at_plan_time(ray_session,
                                                          predicate, mode):
    with pytest.raises(ValueError):
        spatial.sfilter_cell(_never_executed(), _never_executed(),
                             predicate=predicate, mode=mode)


def test_sjoin_pairs_rejects_bad_left_kind_at_plan_time(ray_session):
    """A left_kind outside _LEFT_KINDS raises ValueError when the plan is
    built; it used to pick the polygon join and fail inside a worker."""
    with pytest.raises(ValueError):
        spatial.sjoin_pairs(_never_executed(), suppliers_table(),
                            right_cols=["s_suppkey"], left_kind="lines")


def _pairs_by_brute_force(left_tbl, right, left_kind, lkey, rkey):
    """(left key, right key) 'intersects' pairs: the left kind's kernel
    run on every (left, right) pair, no index."""
    decode, kernel = spatial._LEFT_KINDS[left_kind]
    cols = ["px", "py"] if left_kind == "point" else ["geometry_wkb"]
    left, _ = decode([left_tbl[c] for c in cols])
    pg = wkb.decode_polygons(right["geometry_wkb"])
    nl, nr = left_tbl.num_rows, right.num_rows
    qi, pi = np.repeat(np.arange(nl), nr), np.tile(np.arange(nr), nl)
    keep = getattr(kernels, kernel)(*left, pg, qi, pi, "intersects")
    lk = left_tbl[lkey].to_numpy()[qi[keep]]
    rk = right[rkey].to_numpy()[pi[keep]]
    return set(zip(lk.tolist(), rk.tolist()))


def _check_pairs(left_tbl, right, left_kind, lkey, rkey):
    """sjoin_pairs over two blocks: every brute-force pair once."""
    import ray.data as rd

    got = spatial.sjoin_pairs(
        rd.from_arrow(left_tbl).repartition(2), right, right_cols=[rkey],
        left_kind=left_kind).to_pandas()
    pairs = list(zip(got[lkey].tolist(), got[rkey].tolist()))
    want = _pairs_by_brute_force(left_tbl, right, left_kind, lkey, rkey)
    assert len(want) > 0
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == want


def test_sjoin_pairs_point_left_and_right_col_suffix(ray_session):
    """Point lefts; a right column named like a left column comes back
    as ``<name>_2``."""
    import ray.data as rd

    sup = suppliers_table()
    cust = synth.add_customer_points(
        pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey"]))
    _check_pairs(cust, sup, "point", "c_custkey", "s_suppkey")
    clash = sup.append_column("px", sup["s_suppkey"])
    got = spatial.sjoin_pairs(rd.from_arrow(cust), clash,
                              right_cols=["s_suppkey", "px"]).to_pandas()
    assert list(got.columns) == cust.column_names + ["s_suppkey", "px_2"]
    assert (got["px_2"] == got["s_suppkey"]).all() and len(got) > 0


def test_sjoin_pairs_polygon_left(ray_session):
    """Polygon lefts: L-shaped parts vs order boxes, part boxes vs holed
    order boxes."""
    parts_t = pq.read_table(f"{SF}/part.parquet",
                            columns=["p_partkey"]).slice(0, 25)
    orders_t = pq.read_table(f"{SF}/orders.parquet", columns=["o_orderkey"])
    _check_pairs(synth.add_part_lshapes(parts_t),
                 synth.add_orders_boxes(orders_t), "polygon", "p_partkey",
                 "o_orderkey")
    _check_pairs(synth.add_part_boxes(parts_t),
                 synth.add_orders_holed(orders_t), "polygon", "p_partkey",
                 "o_orderkey")


def _segments() -> pa.Table:
    """300 horizontal 400 m segments at seeded random points."""
    rng = np.random.default_rng(7)
    xy = rng.integers(0, 36000, (300, 2)).astype(np.float64)
    return pa.table({
        "seg_id": pa.array(np.arange(300), pa.int64()),
        "geometry_wkb": pa.array(
            [wkb.encode_linestring(np.array([[x - 200.0, y], [x + 200.0, y]]))
             for x, y in xy], pa.binary()),
    })


def test_sjoin_pairs_line_left(ray_session):
    """Line lefts: segments vs supplier diamonds."""
    _check_pairs(_segments(), suppliers_table(), "line", "seg_id", "s_suppkey")


def _split_equals_single_calls(left_tbl, right, left_kind, key):
    """sfilter(mode='split', predicate=PREDICATES) must keep every left row
    and flag exactly the rows each single-name filter keeps; per name the
    semi / anti / single-name split outputs are the matching rows. The
    single-name filters run the filter stage in-process on the whole
    table (one batch) to keep the test fast."""
    import ray
    import ray.data as rd

    names = kernels.PREDICATES
    split = spatial.sfilter(
        rd.from_arrow(left_tbl).repartition(2), right, mode="split",
        left_kind=left_kind, predicate=list(names)).to_pandas()
    assert sorted(split[key]) == sorted(left_tbl[key].to_pylist())
    ref = ray.put(right)
    for name in names:
        def run(mode):
            return spatial.SFilter(ref, mode, left_kind, name)(left_tbl)

        matched = run("split")["matched"].to_numpy(zero_copy_only=False)
        assert run("semi").equals(left_tbl.filter(matched)), name
        assert run("anti").equals(left_tbl.filter(~matched)), name
        assert (set(split.loc[split[f"matched_{name}"], key])
                == set(left_tbl[key].to_numpy()[matched])), name
    return split


def test_sfilter_sequence_equals_single_calls_polygon_left(ray_session):
    """Polygon lefts against non-rect rights: L-shaped parts vs order
    boxes, part boxes vs holed order boxes."""
    # a slice: the general (non-rect) leg runs exact boolean areas per pair
    parts_t = pq.read_table(f"{SF}/part.parquet",
                            columns=["p_partkey"]).slice(0, 25)
    orders_t = pq.read_table(f"{SF}/orders.parquet", columns=["o_orderkey"])
    split = _split_equals_single_calls(
        synth.add_part_lshapes(parts_t), synth.add_orders_boxes(orders_t),
        "polygon", "p_partkey")
    assert split["matched_overlaps"].any() and split["matched_touches"].any()
    split = _split_equals_single_calls(
        synth.add_part_boxes(parts_t), synth.add_orders_holed(orders_t),
        "polygon", "p_partkey")
    assert split["matched_overlaps"].any()


def test_sfilter_sequence_equals_single_calls_point_and_line_left(
        ray_session):
    sup = suppliers_table()
    cust = synth.add_customer_points(
        pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey"]))
    split = _split_equals_single_calls(cust, sup, "point", "c_custkey")
    assert split["matched_within"].any()
    split = _split_equals_single_calls(_segments(), sup, "line", "seg_id")
    assert split["matched_crosses"].any()


def test_sfilter_sequence_zero_candidates(ray_session):
    """A batch with no STRtree candidates keeps every row with all-False
    mask columns (the kernel's (k, 0) case)."""
    import ray.data as rd

    far = rd.from_arrow(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "px": pa.array([-10**7] * 3, pa.int64()),
        "py": pa.array([-10**7] * 3, pa.int64()),
    }))
    names = ["intersects", "within", "touches"]
    out = spatial.sfilter(far, suppliers_table(), mode="split",
                          predicate=names).to_pandas()
    assert list(out.columns) == (["c_custkey", "px", "py"]
                                 + [f"matched_{n}" for n in names])
    assert len(out) == 3 and not out[[f"matched_{n}" for n in names]].any().any()


def test_sfilter_right_with_one_empty_polygon(ray_session):
    """An empty polygon in the right table (NaN bounds) matches nothing
    and leaves every other right row's matches in place."""
    sup = suppliers_table()
    g = sup.schema.get_field_index("geometry_wkb")
    empty = sup.slice(0, 1).set_column(
        g, sup.schema.field(g),
        pa.array([wkb.encode_polygon([])], sup.schema.field(g).type))
    with_empty = pa.concat_tables([sup.slice(0, 3), empty, sup.slice(3)])
    assert np.isnan(kernels.polygon_bounds(
        wkb.decode_polygons(with_empty["geometry_wkb"]))[3]).all()
    want = sorted(spatial.sfilter(customers_ds(), sup, mode="semi")
                  .to_pandas()["c_custkey"])
    got = sorted(spatial.sfilter(customers_ds(), with_empty, mode="semi")
                 .to_pandas()["c_custkey"])
    assert len(want) > 0 and got == want


def test_salted_cell_join_empty_left(ray_session):
    """An empty left side through the salted plan: zero pairs, not a
    KeyError from an empty histogram."""
    got = spatial.sjoin_cell_partitioned(
        customers_ds().limit(0), suppliers_ds(), res=7, left_id="c_custkey",
        right_id="s_suppkey", salt_threshold=5000,
    ).to_pandas()
    assert len(got) == 0


def test_salted_cell_join_filter_emptied_left(ray_session, tmp_path):
    """A left side a filter emptied reaches the salted plan as 0-row
    blocks with no columns: the histogram skips them by their metadata
    (it raised ``KeyError: 'cell'``), the join returns no pairs, and the
    skew summary counts the right side's one tagged row."""
    import ray.data as rd

    from ssb_sgis_ray.state import skew

    left = rd.from_arrow(pa.table({"left_id": pa.array([1], pa.int64()),
                                   "px": [2.0], "py": [2.0]})).filter(lambda r: False)
    right = rd.from_arrow(pa.table({
        "right_id": pa.array([0], pa.int64()),
        "geometry_wkb": pa.array(synth.diamond_wkb(np.array([0]), np.array([0]),
                                                   np.array([5])), pa.binary())}))
    report = str(tmp_path / "report")
    out = spatial.sjoin_cell_partitioned(left, right, res=9, salt_threshold=1,
                                         skew_report_dir=report)
    assert out.count() == 0
    (plan,) = skew.load_plans(report)
    assert plan["est_rows"] == 0 and plan["partitions"] == 1
    (summary,) = skew.load_cell_skew(report)
    assert (summary["n_cells"], summary["rows"]) == (1, 1)


def test_cell_counts_equals_groupby_count(ray_session):
    """``exchange.key_counts`` equals Ray Data's groupby count on int
    keys (one block, one key, six materialized blocks); string keys
    and a null key count too, the null last."""
    import ray.data as rd
    from ray.data.aggregate import Count

    rng = np.random.default_rng(3)
    random = pa.table({"cell": rng.integers(-40, 40, 3000),
                       "x": rng.random(3000)})
    single = pa.table({"cell": np.full(500, 2**40, np.int64)})
    blocks = [pa.table({"cell": rng.integers(0, 25, 400)}) for _ in range(6)]
    multi = rd.from_arrow(blocks).materialize()
    assert multi.num_blocks() == 6
    for ds in (rd.from_arrow(random), rd.from_arrow(single), multi):
        cell, n = exchange.key_counts(ds, "cell")
        want = (ds.groupby("cell").aggregate(Count(alias_name="n"))
                .to_pandas().sort_values("cell"))
        assert cell.type == pa.int64() and n.dtype == np.int64
        assert cell.to_pylist() == want["cell"].tolist()
        assert n.tolist() == want["n"].tolist()

    empty = rd.from_arrow(pa.table({"cell": pa.array([], pa.int64())}))
    cell, n = exchange.key_counts(empty, "cell")
    assert len(cell) == len(n) == 0
    assert len(empty.groupby("cell").aggregate(Count(alias_name="n")).to_pandas()) == 0

    names = [pa.table({"cell": pa.array(["b", None, "a", "b"])}),
             pa.table({"cell": pa.array(["c", "a", None, "b"])})]
    cell, n = exchange.key_counts(rd.from_arrow(names), "cell")
    assert cell.to_pylist() == ["a", "b", "c", None] and n.tolist() == [2, 3, 1, 2]


def test_cell_counts_of_one_side(ray_session):
    """With ``side`` only that side's rows are counted, in lazy and
    materialized Datasets, in blocks of one side or of both; a side with
    no rows gives empty counts."""
    import ray.data as rd

    rng = np.random.default_rng(4)
    blocks = [pa.table({"cell": pa.array(rng.integers(0, 30, 500), pa.int64()),
                        "side": pa.array(s, pa.int8())})
              for s in (np.zeros(500), np.ones(500), rng.integers(0, 2, 500))]
    both = pa.concat_tables(blocks)
    for ds in (rd.from_arrow(blocks), rd.from_arrow(blocks).materialize()):
        for side in (0, 1):
            cell, n = exchange.key_counts(ds, "cell", side=side)
            keep = both["side"].to_numpy() == side
            want_cell, want_n = np.unique(both["cell"].to_numpy()[keep], return_counts=True)
            assert cell.to_pylist() == want_cell.tolist() and n.tolist() == want_n.tolist()
    cell, n = exchange.key_counts(rd.from_arrow(blocks[:1]), "cell", side=1)
    assert len(cell) == len(n) == 0


def test_per_cell_pip_arrow_groups():
    """One-sided groups give typed empty int64 pairs; a mixed group made of
    several chunks joins its point to the polygon it lies in."""
    square = wkb.encode_polygon([np.array([[0, 0], [20, 0], [20, 20], [0, 20], [0, 0.0]])])
    pts = spatial._tag_points_with_cells(
        pa.table({"lid": pa.array([1, 2], pa.int64()),
                  "px": pa.array([10, 30], pa.int64()),
                  "py": pa.array([10, 30], pa.int64())}), 7, "lid", "px", "py")
    pls = spatial._tag_polys_with_cells(
        pa.table({"rid": pa.array([5], pa.int64()),
                  "geometry_wkb": pa.array([square], pa.binary())}), 7, "rid")
    pairs_schema = pa.schema([("left_id", pa.int64()), ("right_id", pa.int64())])
    for one_sided in (pts, pls):
        out = spatial._per_cell_pip(one_sided)
        assert out.schema == pairs_schema and out.num_rows == 0
    out = spatial._per_cell_pip(pa.concat_tables([pts, pls]))
    assert out.schema == pairs_schema
    assert out.to_pydict() == {"left_id": [1], "right_id": [5]}


def test_cell_skew_summary_empty_dataset(ray_session):
    import ray.data as rd

    from ssb_sgis_ray.state import skew

    s = skew.cell_skew_summary(
        rd.from_arrow(pa.table({"cell": pa.array([], pa.int64())})), stage="empty")
    assert s == {"stage": "empty", "n_cells": 0, "rows": 0, "max": 0,
                 "median": 0, "p90": 0, "p99": 0, "skew_ratio": 0.0}


def test_cell_skew_summary_matches_collected_cells(ray_session):
    """The summary of the skewed lineitem fixture equals one computed from
    np.unique over the collected cell column."""
    from ssb_sgis_ray.queries import lineitems
    from ssb_sgis_ray.state import skew

    tagged = lineitems(SF).map_batches(
        lambda b: spatial._tag_points_with_cells(b, 9, "l_key", "px", "py"),
        batch_format="pyarrow").materialize()
    _, n = np.unique(tagged.to_pandas()["cell"].to_numpy(), return_counts=True)
    s = skew.cell_skew_summary(tagged, stage="lineitem")
    assert s == {
        "stage": "lineitem", "n_cells": len(n), "rows": int(n.sum()),
        "max": int(n.max()), "median": int(np.median(n)),
        "p90": int(np.percentile(n, 90)), "p99": int(np.percentile(n, 99)),
        "skew_ratio": float(n.max() / max(float(np.median(n)), 1.0)),
    }
    assert s["skew_ratio"] > 2  # the fixture really is skewed
