"""Unit tests for the pure-numpy geometry layer (no Ray needed)."""

import numpy as np
import pyarrow as pa
import pytest

from ssb_sgis_ray.geo import cells, kernels, wkb
from ssb_sgis_ray.geo.strtree import STRtree


def square(cx, cy, half):
    return np.array(
        [
            [cx - half, cy - half],
            [cx + half, cy - half],
            [cx + half, cy + half],
            [cx - half, cy + half],
            [cx - half, cy - half],
        ],
        dtype=np.float64,
    )


def diamond(cx, cy, r):
    return np.array(
        [[cx + r, cy], [cx, cy + r], [cx - r, cy], [cx, cy - r], [cx + r, cy]],
        dtype=np.float64,
    )


# ---------------------------------------------------------------- WKB codec


def test_point_roundtrip():
    x = np.array([1.5, -2.0, 1e6])
    y = np.array([3.25, 0.0, -7.5])
    enc = wkb.encode_points(x, y)
    dec = wkb.decode_points(enc)
    np.testing.assert_array_equal(dec.x, x)
    np.testing.assert_array_equal(dec.y, y)
    # arrow-native encoding matches byte-for-byte
    arr = wkb.encode_points_arrow(x, y)
    assert [bytes(v.as_py()) for v in arr] == [bytes(b) for b in enc]
    dec2 = wkb.decode_points(arr)
    np.testing.assert_array_equal(dec2.x, x)


def test_polygon_roundtrip_simple_and_multi_and_holes():
    p1 = wkb.encode_polygon([square(0, 0, 10)])
    hole = square(0, 0, 3)[::-1]  # reversed orientation hole
    p2 = wkb.encode_polygon([square(0, 0, 10), hole])
    p3 = wkb.encode_multipolygon([[square(0, 0, 2)], [square(100, 100, 5)]])
    pg = wkb.decode_polygons(np.array([p1, p2, p3], dtype=object))
    assert len(pg) == 3
    areas = kernels.polygon_areas(pg)
    np.testing.assert_allclose(areas, [400.0, 400.0 - 36.0, 16.0 + 100.0])
    b = kernels.polygon_bounds(pg)
    np.testing.assert_allclose(b[0], [-10, -10, 10, 10])
    np.testing.assert_allclose(b[2], [-2, -2, 105, 105])
    # re-encode -> re-decode stable
    enc2 = wkb.encode_polygon_array(pg)
    pg2 = wkb.decode_polygons(enc2)
    np.testing.assert_allclose(kernels.polygon_areas(pg2), areas)


def test_wkb_arrow_binary_input():
    p1 = wkb.encode_polygon([diamond(10, 10, 5)])
    arr = pa.array([p1, p1], type=pa.binary())
    pg = wkb.decode_polygons(arr)
    np.testing.assert_allclose(kernels.polygon_areas(pg), [50.0, 50.0])


def test_linestring_roundtrip():
    l1 = wkb.encode_linestring(np.array([[0, 0], [3, 4], [3, 10]], dtype=float))
    l2 = wkb.encode_multilinestring(
        [np.array([[0, 0], [1, 0]], dtype=float), np.array([[5, 5], [5, 9]], dtype=float)]
    )
    la = wkb.decode_lines(np.array([l1, l2], dtype=object))
    assert len(la) == 2
    assert la.geom_offsets.tolist() == [0, 1, 3]
    np.testing.assert_allclose(la.coords[0], [0, 0])


# ---------------------------------------------------------------- kernels


def test_areas_perimeters_centroids():
    pg = wkb.decode_polygons(
        np.array(
            [
                wkb.encode_polygon([square(5, 5, 5)]),
                wkb.encode_polygon([diamond(0, 0, 2)]),
            ],
            dtype=object,
        )
    )
    np.testing.assert_allclose(kernels.polygon_areas(pg), [100.0, 8.0])
    np.testing.assert_allclose(
        kernels.polygon_perimeters(pg), [40.0, 4 * 2 * np.sqrt(2)]
    )
    c = kernels.polygon_centroids(pg)
    np.testing.assert_allclose(c, [[5, 5], [0, 0]], atol=1e-12)


def test_centroid_with_hole():
    # square with off-center hole shifts centroid away from the hole
    outer = square(0, 0, 10)
    hole = square(5, 0, 2)[::-1]
    pg = wkb.decode_polygons(np.array([wkb.encode_polygon([outer, hole])], dtype=object))
    c = kernels.polygon_centroids(pg)[0]
    assert c[0] < 0  # pulled left, away from the right-side hole
    np.testing.assert_allclose(c[1], 0, atol=1e-12)


def test_pip_pairs():
    pg = wkb.decode_polygons(
        np.array(
            [
                wkb.encode_polygon([square(0, 0, 10)]),
                wkb.encode_polygon([diamond(100, 100, 10)]),
                wkb.encode_polygon([square(0, 0, 10), square(0, 0, 3)[::-1]]),  # hole
            ],
            dtype=object,
        )
    )
    px = np.array([0.0, 9.9, 100.0, 104.9, 109.0, 0.0, 5.0])
    py = np.array([0.0, 9.9, 100.0, 104.9, 100.0, 0.0, 5.0])
    pairs_pt = np.array([0, 1, 2, 3, 4, 5, 6])
    pairs_poly = np.array([0, 0, 1, 1, 1, 2, 2])
    got = kernels.points_in_polygon_pairs(px, py, pg, pairs_pt, pairs_poly)
    # pt5 (0,0) is inside the hole -> False; pt6 (5,5) in the solid part
    np.testing.assert_array_equal(got, [True, True, True, True, True, False, True])


def test_pip_boundary_inclusive():
    pg = wkb.decode_polygons(np.array([wkb.encode_polygon([square(0, 0, 10)])], dtype=object))
    px = np.array([10.0, -10.0, 10.0, 0.0])
    py = np.array([0.0, 10.0, 10.0, -10.0])
    got = kernels.points_in_polygon_pairs(px, py, pg, np.arange(4), np.zeros(4, dtype=int))
    assert got.all()


def test_polygons_intersect_pairs():
    a = wkb.decode_polygons(
        np.array([wkb.encode_polygon([square(0, 0, 5)])] * 3, dtype=object)
    )
    b = wkb.decode_polygons(
        np.array(
            [
                wkb.encode_polygon([square(3, 3, 5)]),  # overlap
                wkb.encode_polygon([square(20, 0, 5)]),  # disjoint
                wkb.encode_polygon([square(10, 0, 5)]),  # touching at x=5
            ],
            dtype=object,
        )
    )
    got = kernels.polygons_intersect_pairs(a, b, np.arange(3), np.arange(3))
    np.testing.assert_array_equal(got, [True, False, True])


def test_containment_intersects():
    # fully contained polygon: no edge crossings, vertex-in test must catch
    a = wkb.decode_polygons(np.array([wkb.encode_polygon([square(0, 0, 10)])], dtype=object))
    b = wkb.decode_polygons(np.array([wkb.encode_polygon([square(0, 0, 2)])], dtype=object))
    assert kernels.polygons_intersect_pairs(a, b, np.array([0]), np.array([0]))[0]
    assert kernels.polygons_intersect_pairs(b, a, np.array([0]), np.array([0]))[0]


def test_clip_convex_intersection_area():
    subj = square(0, 0, 10)
    clip = square(5, 5, 10)
    out = kernels.clip_ring_convex(subj, clip)
    # overlap is [−5,10]×[−5,10] -> 15×15
    assert kernels.ring_area(out) == pytest.approx(225.0)
    # disjoint
    out2 = kernels.clip_ring_convex(square(0, 0, 2), square(100, 100, 2))
    assert len(out2) == 0
    # clip by diamond
    out3 = kernels.clip_ring_convex(square(0, 0, 10), diamond(0, 0, 5))
    assert kernels.ring_area(out3) == pytest.approx(50.0)


def test_convex_difference_pieces():
    subj = square(0, 0, 10)  # area 400
    clip = square(5, 5, 5)  # overlap area 10x10/... overlap = [0,10]x[0,10] = 100
    pieces = kernels.convex_difference_pieces(subj, clip)
    total = sum(kernels.ring_area(p) for p in pieces)
    assert total == pytest.approx(400.0 - 100.0)
    # subtracting a disjoint polygon leaves area unchanged
    pieces2 = kernels.convex_difference_pieces(subj, square(100, 100, 3))
    assert sum(kernels.ring_area(p) for p in pieces2) == pytest.approx(400.0)
    # subtracting a containing polygon leaves nothing
    pieces3 = kernels.convex_difference_pieces(subj, square(0, 0, 50))
    assert sum(kernels.ring_area(p) for p in pieces3) == pytest.approx(0.0)


def test_is_convex():
    assert kernels.is_convex_ring(square(0, 0, 1))
    assert kernels.is_convex_ring(diamond(0, 0, 1))
    notch = np.array([[0, 0], [10, 0], [10, 10], [5, 2], [0, 10], [0, 0]], dtype=float)
    assert not kernels.is_convex_ring(notch)


def _ngon(m, r=10.0):
    t = 2 * np.pi * np.arange(m) / m
    ring = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    return np.vstack([ring, ring[:1]])


def test_convex_ring_table_matches_is_convex_ring():
    """The SAT table's (V, ok) equals a row-by-row loop over
    is_convex_ring: eligible rows are single-part single-ring convex with
    3..16 vertices, V holds the open ring padded with its first vertex."""
    tri = np.array([[0, 0], [4, 0], [0, 3], [0, 0]], float)
    ell = np.array([[0, 0], [4, 0], [4, 1], [1, 1], [1, 4], [0, 4], [0, 0]],
                   float)
    runs = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [2, 2], [1, 2], [0, 2],
                     [0, 1], [0, 0]], float)
    two_distinct = np.array([[0, 0], [1, 1], [0, 0], [1, 1], [0, 0]], float)
    sliver = np.array([[0, 0], [1, 0], [0, 0]], float)
    polys = [
        wkb.encode_polygon([tri]),
        wkb.encode_polygon([square(0, 0, 1)]),
        wkb.encode_polygon([diamond(5, 5, 2)]),
        wkb.encode_polygon([ell]),
        wkb.encode_polygon([square(0, 0, 10), square(0, 0, 3)[::-1]]),
        wkb.encode_multipolygon([[square(0, 0, 2)], [square(100, 100, 5)]]),
        wkb.encode_polygon([_ngon(17)]),
        wkb.encode_polygon([_ngon(16)]),
        wkb.encode_polygon([runs]),
        wkb.encode_polygon([two_distinct]),
        wkb.encode_polygon([sliver]),
        wkb.encode_polygon([square(0, 0, 1)[::-1]]),
        wkb.encode_polygon([]),
        wkb.encode_polygon([tri]),
    ]
    pg = wkb.decode_polygons(np.array(polys, dtype=object))

    def reference(rows):
        rings = []
        for r in rows:
            p0, p1 = pg.geom_offsets[r], pg.geom_offsets[r + 1]
            ring = None
            if p1 - p0 == 1 and pg.poly_offsets[p0 + 1] - pg.poly_offsets[p0] == 1:
                ring = kernels._exterior_ring(pg, r)
                m = len(ring) - 1
                if not (3 <= m <= 16 and kernels.is_convex_ring(ring)):
                    ring = None
            rings.append(ring)
        return rings

    rng = np.random.default_rng(3)
    for rows in (np.arange(len(pg)), rng.permutation(len(pg)),
                 np.array([3, 4, 5, 6, 10, 12])):
        V, ok = kernels._convex_ring_table(pg, rows)
        want = reference(rows)
        np.testing.assert_array_equal(ok, [w is not None for w in want])
        if not ok.any():
            assert V is None
            continue
        maxm = max(len(w) - 1 for w in want if w is not None)
        assert V.shape == (len(rows), maxm, 2)
        for t, w in enumerate(want):
            exp = np.zeros((maxm, 2))
            if w is not None:
                exp[:] = w[0]
                exp[: len(w) - 1] = w[:-1]
            np.testing.assert_array_equal(V[t], exp, err_msg=str(rows[t]))
    ok = kernels._convex_ring_table(pg, np.arange(len(pg)))[1]
    assert ok.tolist() == [True, True, True, False, False, False, False,
                           True, True, True, False, True, False, True]


def test_point_segment_dist2():
    d2 = kernels.point_segment_dist2(
        np.array([0.0, 5.0, 20.0]),
        np.array([5.0, 5.0, 0.0]),
        np.array([0.0, 0.0, 0.0]),
        np.array([0.0, 0.0, 0.0]),
        np.array([10.0, 10.0, 10.0]),
        np.array([0.0, 0.0, 0.0]),
    )
    np.testing.assert_allclose(d2, [25.0, 25.0, 100.0])


# ---------------------------------------------------------------- cells


def test_cell_roundtrip_and_parent():
    x = np.array([0.0, 1000.0, 2e6, 123456.0])
    y = np.array([0.0, 2000.0, 1e6, 654321.0])
    c = cells.xy_to_cell(x, y, 10)
    cx, cy, res = cells.cell_to_xy(c)
    assert (res == 10).all()
    size = cells.cell_size(10)
    np.testing.assert_array_equal(cx, np.floor(x / size).astype(np.int64))
    parent = cells.cell_to_parent(c, 5)
    cxp, cyp, resp = cells.cell_to_xy(parent)
    assert (resp == 5).all()
    np.testing.assert_array_equal(cxp, cx >> 5)
    # containment: a point's parent cell == parent of the point's cell
    np.testing.assert_array_equal(parent, cells.xy_to_cell(x, y, 5))


def test_cell_bounds_contains_point():
    x = np.array([123456.7])
    y = np.array([89012.3])
    c = cells.xy_to_cell(x, y, 12)
    b = cells.cell_bounds(c)[0]
    assert b[0] <= x[0] < b[2] and b[1] <= y[0] < b[3]


def test_k_ring():
    c = cells.xy_to_cell(np.array([1e5]), np.array([1e5]), 8)[0]
    r1 = cells.k_ring(int(c), 1)
    assert len(r1) == 9 and int(c) in r1.tolist()
    ring2 = cells.ring_only(int(c), 2)
    assert len(ring2) == 16
    # ring ∪ interior == k_ring
    assert set(cells.k_ring(int(c), 2).tolist()) == set(
        cells.k_ring(int(c), 1).tolist() + ring2.tolist()
    )


def test_cover_bbox_halfopen():
    size = cells.cell_size(10)
    # bbox exactly one cell -> 1 cell; bbox ending on boundary stays out of next
    rows, cc = cells.cover_bbox(
        np.array([0.0, 0.0]),
        np.array([0.0, 0.0]),
        np.array([size, 2 * size + 1.0]),
        np.array([size, size]),
        10,
    )
    n0 = (rows == 0).sum()
    n1 = (rows == 1).sum()
    assert n0 == 1
    assert n1 == 3  # crosses into a third cell by 1 unit


def test_ssb_grid_id():
    # reference recipe (bounds.py:357-371): east offset +2_000_000,
    # unpadded int concat
    ids = cells.ssb_grid_id(np.array([1500.0, 999.0]), np.array([2500.0, 0.0]), 1000)
    assert ids[0] == "20010002000"
    assert ids[1] == "20000000"


# ---------------------------------------------------------------- STRtree


def test_strtree_matches_bruteforce():
    rng = np.random.default_rng(42)
    n = 500
    mins = rng.uniform(0, 1000, size=(n, 2))
    sizes = rng.uniform(1, 30, size=(n, 2))
    boxes = np.hstack([mins, mins + sizes])
    tree = STRtree(boxes)
    q_mins = rng.uniform(0, 1000, size=(50, 2))
    q_sizes = rng.uniform(1, 50, size=(50, 2))
    qboxes = np.hstack([q_mins, q_mins + q_sizes])
    qi, ii = tree.query_bbox(qboxes)
    got = set(zip(qi.tolist(), ii.tolist()))
    expect = set()
    for q in range(len(qboxes)):
        for i in range(n):
            if (
                qboxes[q, 0] <= boxes[i, 2]
                and qboxes[q, 2] >= boxes[i, 0]
                and qboxes[q, 1] <= boxes[i, 3]
                and qboxes[q, 3] >= boxes[i, 1]
            ):
                expect.add((q, i))
    assert got == expect


def test_strtree_empty_and_single():
    t0 = STRtree(np.empty((0, 4)))
    qi, ii = t0.query_bbox(np.array([[0, 0, 1, 1.0]]))
    assert len(qi) == 0
    t1 = STRtree(np.array([[0, 0, 10, 10.0]]))
    qi, ii = t1.query_bbox(np.array([[5, 5, 6, 6.0], [20, 20, 21, 21.0]]))
    assert qi.tolist() == [0] and ii.tolist() == [0]


def _str_perm_loop(boxes):
    """Reference STR leaf order: sort by centre x, cut into slices, sort
    each slice by centre y (both stable), one slice per loop step."""
    import math

    from ssb_sgis_ray.geo.strtree import NODE_CAP

    n = len(boxes)
    cx = (boxes[:, 0] + boxes[:, 2]) * 0.5
    cy = (boxes[:, 1] + boxes[:, 3]) * 0.5
    n_slices = math.ceil(math.sqrt(math.ceil(n / NODE_CAP)))
    slice_size = math.ceil(n / n_slices)
    order = np.argsort(cx, kind="stable")
    parts = []
    for s in range(0, n, slice_size):
        sl = order[s : s + slice_size]
        parts.append(sl[np.argsort(cy[sl], kind="stable")])
    return np.concatenate(parts)


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 256, 257, 5000])
def test_strtree_pairs_equal_bruteforce_in_leaf_order(n):
    """Pairs equal the brute-force closed-box overlaps and come ordered by
    (query, leaf rank of the item in tree.perm); the leaf order is the
    per-slice STR sort. Integer grid coordinates make shared edges and
    corners common; zero-area, point and NaN boxes ride along."""
    rng = np.random.default_rng(n)
    lo = rng.integers(0, 40, (n, 2)).astype(np.float64)
    size = rng.integers(0, 6, (n, 2)).astype(np.float64)
    size[rng.random(n) < 0.2] = 0.0  # point boxes
    size[rng.random(n) < 0.1, 0] = 0.0  # zero-width boxes
    boxes = np.hstack([lo, lo + size])
    if n > 2:
        boxes[rng.choice(n, max(1, n // 50), replace=False)] = np.nan
    tree = STRtree(boxes)
    np.testing.assert_array_equal(tree.perm, _str_perm_loop(boxes))
    nq = 300
    qlo = rng.integers(-2, 42, (nq, 2)).astype(np.float64)
    qsize = rng.integers(0, 8, (nq, 2)).astype(np.float64)
    qsize[: nq // 5] = 0.0  # point queries
    qboxes = np.hstack([qlo, qlo + qsize])
    qboxes[7] = np.nan
    qboxes[11, 2] = np.nan
    qi, ii = tree.query_bbox(qboxes)
    hit = (
        (qboxes[:, None, 0] <= boxes[None, :, 2])
        & (qboxes[:, None, 2] >= boxes[None, :, 0])
        & (qboxes[:, None, 1] <= boxes[None, :, 3])
        & (qboxes[:, None, 3] >= boxes[None, :, 1])
    )
    # in leaf order, row-major nonzero IS the (query, leaf rank) order
    eq, erank = np.nonzero(hit[:, tree.perm])
    np.testing.assert_array_equal(qi, eq)
    np.testing.assert_array_equal(ii, tree.perm[erank])
    assert qi.dtype == ii.dtype == np.int64
    assert len(qi) > 0 and 7 not in qi and 11 not in qi
    qi0, ii0 = tree.query_bbox(np.empty((0, 4)))
    assert len(qi0) == len(ii0) == 0


def test_strtree_nan_item_keeps_siblings():
    """One NaN item box (the bounds of an empty geometry) never matches
    and must not hide the other items: its node boxes skip the NaN."""
    x = np.arange(99, dtype=np.float64) * 10
    boxes = np.stack([x, x, x + 1, x + 1], axis=1)
    boxes = np.insert(boxes, 40, np.nan, axis=0)
    qi, ii = STRtree(boxes).query_bbox(boxes)
    live = np.delete(np.arange(100), 40)
    np.testing.assert_array_equal(qi, live)
    np.testing.assert_array_equal(ii, live)


# ---------------------------------------------------------------- buffer


def test_buffer_line_closed_form():
    from ssb_sgis_ray.geo import booleans
    from ssb_sgis_ray.ops import geometry as G

    d, L, res = 10.0, 100.0, 16
    n = 4 * res
    ngon = 0.5 * n * d * d * np.sin(2 * np.pi / n)
    comps = G._buffer_components(
        [np.array([[0.0, 0.0], [L, 0.0]])], d, res, False, closed=False
    )
    area = booleans.union_all_area(comps)
    assert area == pytest.approx(2 * d * L + ngon, abs=1e-9)


def test_buffer_box_closed_form():
    from ssb_sgis_ray.geo import booleans
    from ssb_sgis_ray.ops import geometry as G

    d, w, h, res = 10.0, 80.0, 60.0, 16
    n = 4 * res
    ngon = 0.5 * n * d * d * np.sin(2 * np.pi / n)
    ring = np.array([[0, 0], [w, 0], [w, h], [0, h], [0, 0]], float)
    comps = G._buffer_components([ring], d, res, True)
    area = booleans.union_all_area(comps)
    assert area == pytest.approx(w * h + 2 * (w + h) * d + ngon, abs=1e-9)


def test_buffer_holed_polygon_erodes_hole():
    """Dilating a holed polygon shrinks the hole by d with sharp corners
    (erosion of a square by a disc keeps the square corners)."""
    import pyarrow as pa

    from ssb_sgis_ray.ops import geometry as G

    d, res = 10.0, 16
    n = 4 * res
    ngon = 0.5 * n * d * d * np.sin(2 * np.pi / n)
    shell = np.array([[0, 0], [100, 0], [100, 100], [0, 100], [0, 0]], float)
    hole = np.array([[30, 30], [30, 70], [70, 70], [70, 30], [30, 30]], float)
    t = pa.table(
        {"id": pa.array([1], pa.int64()),
         "geometry_wkb": pa.array([wkb.encode_polygon([shell, hole])], pa.binary())}
    )
    out = G.buff_polygons_batch(t, d, res, emit="area")
    expect = (100 * 100 + 400 * d + ngon) - (40 - 2 * d) ** 2
    assert out["buf_area"][0].as_py() == pytest.approx(expect, abs=1e-8)


def test_buffer_overlapping_lines_union_not_double_counted():
    """buffdissexp on lines: two crossing segments buffered and unioned
    must cover less than the sum of the individual buffers."""
    from ssb_sgis_ray.geo import booleans
    from ssb_sgis_ray.ops import geometry as G

    d, res = 5.0, 8
    a = np.array([[0.0, 0.0], [100.0, 0.0]])
    b = np.array([[50.0, -40.0], [50.0, 40.0]])
    comps = (
        G._buffer_components([a], d, res, False, closed=False)
        + G._buffer_components([b], d, res, False, closed=False)
    )
    union = booleans.union_all_area(comps)
    solo_a = booleans.union_all_area(G._buffer_components([a], d, res, False, closed=False))
    solo_b = booleans.union_all_area(G._buffer_components([b], d, res, False, closed=False))
    assert union < solo_a + solo_b
    assert union > max(solo_a, solo_b)
    # overlap is roughly the 2d x 2d crossing block
    assert solo_a + solo_b - union == pytest.approx(4 * d * d, rel=0.05)


def test_shared_border_length_cases():
    sq = lambda x0, y0, x1, y1: np.array(
        [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)], float
    )
    assert kernels.shared_border_length([sq(0, 0, 10, 10)], [sq(10, 3, 20, 8)]) == 5
    assert kernels.shared_border_length([sq(0, 0, 10, 10)], [sq(10, 10, 20, 20)]) == 0
    assert kernels.shared_border_length([sq(0, 0, 10, 10)], [sq(3, 10, 7, 15)]) == 4
    dia = lambda cx, cy, r: np.array(
        [(cx + r, cy), (cx, cy + r), (cx - r, cy), (cx, cy - r), (cx + r, cy)], float
    )
    assert kernels.shared_border_length([dia(0, 0, 10)], [dia(10, 10, 10)]) == (
        pytest.approx(np.sqrt(200))
    )


# ------------------------------------------------------- segmentize / wkt


def test_segmentize_max_length_and_simplify_roundtrip():
    from ssb_sgis_ray.ops import geometry as G

    dia = np.array([(10, 0), (5, 5), (0, 0), (5, -5), (10, 0)], float)
    seg = G.segmentize_coords(dia, 1.5)
    d = np.diff(seg, axis=0)
    assert (np.hypot(d[:, 0], d[:, 1]) <= 1.5 + 1e-12).all()
    np.testing.assert_allclose(G.simplify_ring(seg, 0.01), dia)
    # simplify removes a genuine small bump within tolerance
    bump = np.array([(0, 0), (5, 0.001), (10, 0)], float)
    out = G.simplify_coords(bump, 0.01)
    assert len(out) == 2
    out2 = G.simplify_coords(bump, 0.0001)
    assert len(out2) == 3


def test_wkt_roundtrip_families():
    from ssb_sgis_ray.geo import wkt

    assert wkt.encode_point(3, -4.5) == "POINT (3 -4.5)"
    line = np.array([(0, 0), (2.5, 1)], float)
    k, c = wkt.decode(wkt.encode_linestring(line))
    assert k == "line"
    np.testing.assert_allclose(c, line)
    shell = square(0, 0, 10)
    hole = square(0, 0, 3)[::-1]
    txt = wkt.encode_polygon([shell, hole])
    k2, rings = wkt.decode(txt)
    assert k2 == "polygon" and len(rings) == 2
    np.testing.assert_allclose(rings[1], hole)
    mp = wkt.encode_multipolygon([[shell], [square(50, 50, 2)]])
    k3, polys = wkt.decode(mp)
    assert k3 == "multipolygon" and len(polys) == 2
    # wkb bridge preserves area incl. hole
    pg = wkb.decode_polygons(np.array([wkt.wkt_to_wkb(txt)], dtype=object))
    np.testing.assert_allclose(kernels.polygon_areas(pg), [400 - 36])


def test_crs_tag_and_mismatch_guard():
    from ssb_sgis_ray.geo import crs

    t = pa.table({"a": pa.array([1])})
    tagged = crs.tag_crs(t, "EPSG:4326")
    assert crs.crs_of(tagged) == "EPSG:4326"
    assert crs.crs_of(t) is None
    crs.ensure_same_crs(t, tagged, default="EPSG:4326")  # untagged adopts default
    with pytest.raises(ValueError, match="mismatch"):
        crs.ensure_same_crs(crs.tag_crs(t, "EPSG:25833"), tagged)
    with pytest.raises(ValueError, match="mismatch"):
        crs.check_crs_pair("EPSG:25833", tagged)
    crs.check_crs_pair(None, tagged)  # permissive when one side untagged


# ---------------------------------------------------------------- proj


def test_utm33_projection_roundtrip_and_anchors():
    from ssb_sgis_ray.geo import proj

    rng = np.random.default_rng(0)
    lon = rng.uniform(0, 30, 3000)
    lat = rng.uniform(-80, 84, 3000)
    e, n = proj.lonlat_to_utm33(lon, lat)
    lon2, lat2 = proj.utm33_to_lonlat(e, n)
    m_err = np.hypot(
        (lon2 - lon) * 111320 * np.cos(np.radians(lat)), (lat2 - lat) * 110574
    ).max()
    assert m_err < 1e-6  # sub-micrometer round trip
    # anchors: central meridian easting exact, equator northing 0
    e0, n0 = proj.lonlat_to_utm33(np.array([15.0]), np.array([60.0]))
    assert e0[0] == 500000.0
    _, nq = proj.lonlat_to_utm33(np.array([15.0]), np.array([0.0]))
    assert nq[0] == 0.0
    # differential vs an independent numeric meridian arc: northing at
    # lon0 must equal k0 * arc(phi)
    a, f = 6378137.0, 1 / 298.257222101
    e2 = f * (2 - f)
    ph = np.linspace(0, np.radians(60.0), 200001)
    arc = np.trapz(a * (1 - e2) / np.power(1 - e2 * np.sin(ph) ** 2, 1.5), ph)
    assert abs(n0[0] - 0.9996 * arc) < 1e-4
    # Oslo lands inside the reference's stated Oslo data extent
    eo, no = proj.lonlat_to_utm33(np.array([10.7522]), np.array([59.9139]))
    assert 230000 < eo[0] < 280000 and 6630000 < no[0] < 6670000


def test_reproject_points_batch():
    from ssb_sgis_ray.ops import geometry as G

    t = pa.table({"lon": pa.array([10.75, 15.0]), "lat": pa.array([59.91, 60.0])})
    out = G.reproject_points_batch(t, "to_utm33")
    back = G.reproject_points_batch(
        pa.table({"easting": out["easting"], "northing": out["northing"]}),
        "to_lonlat", x_col="easting", y_col="northing",
    )
    np.testing.assert_allclose(back["lon"].to_numpy(), [10.75, 15.0], atol=1e-10)
    np.testing.assert_allclose(back["lat"].to_numpy(), [59.91, 60.0], atol=1e-10)


# ---------------------------------------------------------------- voronoi


def test_voronoi_partition_and_membership():
    from ssb_sgis_ray.geo import voronoi

    rng = np.random.default_rng(3)
    px = rng.uniform(0, 100, 50)
    py = rng.uniform(0, 100, 50)
    cells_ = voronoi.voronoi_cells(px, py, (0, 0, 100, 100))
    areas = np.array([kernels.ring_area(c) if len(c) else 0.0 for c in cells_])
    assert abs(areas.sum() - 10000) < 1e-6  # exact partition of the bbox
    qx = rng.uniform(0, 100, 300)
    qy = rng.uniform(0, 100, 300)
    d2 = (qx[:, None] - px[None, :]) ** 2 + (qy[:, None] - py[None, :]) ** 2
    nearest = d2.argmin(axis=1)
    for k in range(300):
        c = cells_[nearest[k]]
        assert len(c) and kernels.points_in_one_polygon(
            np.array([qx[k]]), np.array([qy[k]]), [c]
        )[0]


def test_voronoi_lattice_and_duplicates():
    from ssb_sgis_ray.geo import voronoi

    g = np.arange(5) * 20 + 10.0
    gx, gy = np.meshgrid(g, g, indexing="ij")
    cells_ = voronoi.voronoi_cells(gx.ravel(), gy.ravel(), (0, 0, 100, 100))
    np.testing.assert_allclose(
        [kernels.ring_area(c) for c in cells_], np.full(25, 400.0)
    )
    # duplicates: first site owns the cell, later twins own nothing
    cells2 = voronoi.voronoi_cells(
        np.array([10.0, 10.0, 50.0]), np.array([10.0, 10.0, 50.0]), (0, 0, 100, 100)
    )
    areas2 = [kernels.ring_area(c) if len(c) else 0.0 for c in cells2]
    assert areas2[1] == 0.0
    assert abs(sum(areas2) - 10000) < 1e-9


def test_rects_union_area_grid_vs_slab_differential(monkeypatch):
    """Both Klee plans (compressed diff-grid and slab loop) must return the
    same union area on random overlapping rect mixes, including degenerate
    duplicates and rects touching at edges."""
    from ssb_sgis_ray.geo import kernels as K

    rng = np.random.default_rng(7)
    for n in (1, 2, 17, 120, 700):
        x0 = rng.integers(0, 500, n).astype(float)
        y0 = rng.integers(0, 500, n).astype(float)
        w = rng.integers(1, 120, n).astype(float)
        h = rng.integers(1, 120, n).astype(float)
        rects = np.stack([x0, y0, x0 + w, y0 + h], axis=1)
        # duplicate a few rows and add an edge-touching pair
        rects = np.concatenate([rects, rects[: max(1, n // 5)]])
        rects = np.concatenate(
            [rects, np.array([[0.0, 0.0, 10.0, 10.0], [10.0, 0.0, 20.0, 10.0]])]
        )
        got_grid = K.rects_union_area(rects)
        monkeypatch.setattr(K, "_GRID_UNION_CELL_CAP", 0)
        got_slab = K.rects_union_area(rects)
        monkeypatch.undo()
        assert got_grid == pytest.approx(got_slab, abs=1e-6)
        # independent pixel-accumulation check on a small instance
        if n <= 17:
            xs = np.unique(rects[:, [0, 2]])
            ys = np.unique(rects[:, [1, 3]])
            area = 0.0
            for i in range(len(xs) - 1):
                for j in range(len(ys) - 1):
                    cx = (xs[i] + xs[i + 1]) / 2
                    cy = (ys[j] + ys[j + 1]) / 2
                    if (
                        (rects[:, 0] <= cx)
                        & (rects[:, 2] >= cx)
                        & (rects[:, 1] <= cy)
                        & (rects[:, 3] >= cy)
                    ).any():
                        area += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
            assert got_grid == pytest.approx(area, abs=1e-6)


def test_negative_buffer_rect_closed_form():
    """Erosion of an axis rect: max(0, w-2d)*max(0, h-2d), exact — straight
    edges offset exactly and corner discs are subsets of the tube union."""
    from ssb_sgis_ray.ops import geometry as G

    ring = np.array([[0, 0], [100, 0], [100, 60], [0, 60], [0, 0]], float)
    assert G.erode_polygon_rings_area([ring], [False], 10.0, 16) == pytest.approx(
        80 * 40, abs=1e-9
    )
    # full erosion: min dimension < 2d -> empty
    assert G.erode_polygon_rings_area([ring], [False], 35.0, 16) == 0.0
    assert G.erode_polygon_rings([ring], [False], 35.0, 16) == []


def test_negative_buffer_hole_grows_rounded():
    """Eroding a holed polygon GROWS the hole by its Minkowski dilation
    (rounded corners): hole area becomes A + P*d + ngon(d)."""
    from ssb_sgis_ray.ops import geometry as G

    d, res = 5.0, 16
    n = 4 * res
    ngon = 0.5 * n * d * d * np.sin(2 * np.pi / n)
    shell = np.array([[0, 0], [100, 0], [100, 60], [0, 60], [0, 0]], float)
    hole = np.array([[40, 20], [60, 20], [60, 40], [40, 40], [40, 20]], float)
    area = G.erode_polygon_rings_area([shell, hole], [False, True], d, res)
    expect = (100 - 2 * d) * (60 - 2 * d) - (400 + 80 * d + ngon)
    assert area == pytest.approx(expect, abs=1e-8)


def test_buff_polygons_batch_mixed_sign_distances():
    """Per-row distance column mixing dilation, identity-free erosion and
    full erosion through one schema-stable stage."""
    from ssb_sgis_ray.ops import geometry as G

    ring = np.array([[0, 0], [80, 0], [80, 40], [0, 40], [0, 0]], float)
    blob = wkb.encode_polygon([ring])
    t = pa.table(
        {
            "id": pa.array([1, 2, 3], pa.int64()),
            "d": pa.array([10, -10, -30], pa.int64()),
            "geometry_wkb": pa.array([blob, blob, blob], pa.binary()),
        }
    )
    out = G.buff_polygons_batch(t, "d", 16, emit="area")
    a = out["buf_area"].to_pylist()
    n = 64
    ngon = 0.5 * n * 100.0 * np.sin(2 * np.pi / n)
    assert a[0] == pytest.approx(80 * 40 + 2 * (80 + 40) * 10 + ngon, abs=1e-8)
    assert a[1] == pytest.approx(60 * 20, abs=1e-9)
    assert a[2] == 0.0
    # WKB emit path: fully-eroded row carries a null geometry
    geo = G.buff_polygons_batch(t, "d", 16, emit="geometry")
    assert geo["geometry_wkb"][2].as_py() is None
    pg = wkb.decode_polygons(geo["geometry_wkb"].slice(1, 1))
    assert kernels.polygon_areas(pg)[0] == pytest.approx(60 * 20, abs=1e-9)


def test_polygon_predicate_pairs_vocabulary():
    """Full areal predicate vocabulary through the general scanline leg
    (diamonds dodge the axis-rect fast path): touches / overlaps /
    within / covers / contains / covered_by / crosses on constructed
    cases with known DE-9IM truth."""
    from ssb_sgis_ray.geo import kernels as K
    from ssb_sgis_ray.geo import wkb as W

    def diamond(cx, cy, r):
        return [np.array([[cx + r, cy], [cx, cy + r], [cx - r, cy],
                          [cx, cy - r], [cx + r, cy]], float)]

    # left rows: A (unit fixture), repeated so each pair is (A, right_k)
    rights = [
        diamond(8, 0, 4),    # 0: touches A at (4,0)
        diamond(2, 0, 4),    # 1: overlaps A
        diamond(0, 0, 2),    # 2: inside A (A covers it)
        diamond(0, 0, 4),    # 3: equal to A
        diamond(20, 0, 4),   # 4: disjoint
        diamond(0, 0, 9),    # 5: A inside it (A within)
    ]
    left_pg = W.decode_polygons(
        np.array([W.encode_polygon(diamond(0, 0, 4)) for _ in rights],
                 dtype=object))
    right_pg = W.decode_polygons(
        np.array([W.encode_polygon(r) for r in rights], dtype=object))
    qi = np.arange(len(rights))
    pi = np.arange(len(rights))

    want = {
        #               tch    ovl    win    cov    cnt    cby    crs
        "touches":    [True, False, False, False, False, False],
        "overlaps":   [False, True, False, False, False, False],
        "within":     [False, False, False, True, False, True],
        "covered_by": [False, False, False, True, False, True],
        "covers":     [False, False, True, True, False, False],
        "contains":   [False, False, True, True, False, False],
        "crosses":    [False, False, False, False, False, False],
        "intersects": [True, True, True, True, False, True],
    }
    for pred, exp in want.items():
        got = K.polygon_predicate_pairs(left_pg, right_pg, qi, pi, pred)
        np.testing.assert_array_equal(got, np.array(exp), err_msg=pred)


def test_point_predicate_pairs_vocabulary():
    """Point-left predicates vs a diamond: interior / boundary / outside
    classification for intersects, within, touches, covered_by."""
    from ssb_sgis_ray.geo import kernels as K
    from ssb_sgis_ray.geo import wkb as W

    ring = [np.array([[4.0, 0], [0, 4], [-4, 0], [0, -4], [4, 0]])]
    pg = W.decode_polygons(np.array([W.encode_polygon(ring)], dtype=object))
    px = np.array([0.0, 2.0, 4.0, 1.0, 5.0])   # inside, boundary(2,2)? no:
    py = np.array([0.0, 2.0, 0.0, 0.0, 5.0])   # (2,2) on edge, (4,0) vertex
    qi = np.arange(5)
    pi = np.zeros(5, dtype=np.int64)
    cases = {
        "intersects": [True, True, True, True, False],
        "covered_by": [True, True, True, True, False],
        "within":     [True, False, False, True, False],
        "touches":    [False, True, True, False, False],
        "contains":   [False] * 5,
        "crosses":    [False] * 5,
    }
    for pred, exp in cases.items():
        got = K.points_in_polygon_pairs_predicate(px, py, pg, qi, pi, pred)
        np.testing.assert_array_equal(got, np.array(exp), err_msg=pred)


def test_line_predicate_pairs_vocabulary():
    """Line-left predicates vs a square with a hole: within / crosses /
    touches / covered_by on constructed cases incl. a collinear
    boundary-overlap segment (covered_by but NOT within) and a segment
    through the hole (crosses: interior -> hole-exterior -> interior)."""
    from ssb_sgis_ray.geo import kernels as K
    from ssb_sgis_ray.geo import wkb as W

    shell = np.array([[0.0, 0], [10, 0], [10, 10], [0, 10], [0, 0]])
    hole = np.array([[4.0, 4], [6, 4], [6, 6], [4, 6], [4, 4]])
    pg = W.decode_polygons(np.array(
        [W.encode_polygon([shell, hole])], dtype=object))

    lines = [
        np.array([[1.0, 1], [3, 1]]),       # 0 fully interior -> within
        np.array([[-2.0, 5], [12, 5]]),     # 1 enters+exits (and hole) -> crosses
        np.array([[2.0, 0], [8, 0]]),       # 2 collinear on bottom edge -> covered_by, touches, NOT within
        np.array([[-3.0, 0], [-1, 0]]),     # 3 disjoint
        np.array([[-2.0, 0], [0, 0]]),      # 4 endpoint touches corner from outside -> touches
        np.array([[5.0, 4.5], [5, 5.5]]),   # 5 inside the hole -> disjoint from polygon
        np.array([[1.0, 5], [5, 5]]),       # 6 interior into hole -> crosses (hole is exterior)
    ]
    la = W.decode_lines(np.array(
        [W.encode_linestring(ln) for ln in lines], dtype=object))
    qi = np.arange(len(lines))
    pi = np.zeros(len(lines), dtype=np.int64)

    want = {
        "intersects": [True, True, True, False, True, False, True],
        "crosses":    [False, True, False, False, False, False, True],
        "within":     [True, False, False, False, False, False, False],
        "covered_by": [True, False, True, False, False, False, False],
        "touches":    [False, False, True, False, True, False, False],
        "contains":   [False] * 7,
        "overlaps":   [False] * 7,
    }
    for pred, exp in want.items():
        got = K.lines_in_polygon_pairs_predicate(la, pg, qi, pi, pred)
        np.testing.assert_array_equal(got, np.array(exp), err_msg=pred)


def _mixed_polygons(part_keys, order_keys):
    """Left: part boxes and L-shapes; right: order boxes, holed order
    boxes and the part boxes themselves (equal pairs) — rect×rect pairs
    and general (concave / holed) pairs in one candidate set."""
    from ssb_sgis_ray import synth

    half = len(part_keys) // 2
    left = np.concatenate([
        synth.box_wkb(*synth.part_boxes(part_keys[:half])).to_numpy(
            zero_copy_only=False),
        synth.lshape_wkb(*synth.part_lshapes(part_keys[half:])),
    ])
    right = np.concatenate([
        synth.box_wkb(*synth.orders_boxes(order_keys)).to_numpy(
            zero_copy_only=False),
        synth.holed_box_wkb(*synth.orders_holed(order_keys)),
        synth.box_wkb(*synth.part_boxes(part_keys)).to_numpy(
            zero_copy_only=False),
    ])
    return wkb.decode_polygons(left), wkb.decode_polygons(right)


def _assert_sequence_equals_singles(call, n_pairs):
    masks = call(kernels.PREDICATES)
    assert masks.shape == (len(kernels.PREDICATES), n_pairs)
    for row, name in zip(masks, kernels.PREDICATES):
        single = call(name)
        assert single.shape == (n_pairs,)
        np.testing.assert_array_equal(row, single, err_msg=name)
    return masks


def test_polygon_predicate_sequence_equals_single_calls():
    left_pg, right_pg = _mixed_polygons(np.arange(1, 41), np.arange(1, 121))
    qi, pi = STRtree(kernels.polygon_bounds(right_pg)).query_bbox(
        kernels.polygon_bounds(left_pg))
    rect = kernels.detect_axis_rects(left_pg)[qi] & \
        kernels.detect_axis_rects(right_pg)[pi]
    assert rect.any() and (~rect).any()  # both kernel legs are exercised
    masks = _assert_sequence_equals_singles(
        lambda p: kernels.polygon_predicate_pairs(left_pg, right_pg, qi, pi, p),
        len(qi))
    by = dict(zip(kernels.PREDICATES, masks))
    for name in ("intersects", "touches", "overlaps", "within", "covers"):
        assert (by[name] & ~rect).any(), name  # general leg populated
    assert not by["crosses"].any()


def test_rect_path_masks_equal_on_all_rect_and_mixed_inputs():
    """All-rect lefts and rights take the column path over every pair; the
    same pairs plus pairs against one extra non-rect right row take the
    mixed path. The rect pairs' masks agree for every name, and agree
    with the exact area engine on a sample."""
    from ssb_sgis_ray import synth

    part_keys, order_keys = np.arange(1, 61), np.arange(1, 181)
    left_pg = wkb.decode_polygons(
        synth.box_wkb(*synth.part_boxes(part_keys)))
    right_wkb = synth.box_wkb(*synth.orders_boxes(order_keys)).to_numpy(
        zero_copy_only=False)
    right_pg = wkb.decode_polygons(right_wkb)
    assert kernels.detect_axis_rects(left_pg).all()
    assert kernels.detect_axis_rects(right_pg).all()
    qi, pi = STRtree(kernels.polygon_bounds(right_pg)).query_bbox(
        kernels.polygon_bounds(left_pg))
    n = len(qi)
    names = kernels.PREDICATES
    masks = kernels.polygon_predicate_pairs(left_pg, right_pg, qi, pi, names)
    assert masks.shape == (len(names), n)
    by = dict(zip(names, masks))
    for name in ("touches", "overlaps", "within", "covers"):
        assert by[name].any(), name

    mixed_pg = wkb.decode_polygons(np.concatenate([
        right_wkb, synth.diamond_wkb(*synth.supplier_diamonds(
            np.array([1])))]))
    extra = len(right_pg)
    qi2 = np.concatenate([qi, np.arange(len(left_pg))])
    pi2 = np.concatenate([pi, np.full(len(left_pg), extra)])
    mixed = kernels.polygon_predicate_pairs(left_pg, mixed_pg, qi2, pi2,
                                            names)
    np.testing.assert_array_equal(mixed[:, :n], masks)
    for k, name in enumerate(names):
        one = kernels.polygon_predicate_pairs(left_pg, right_pg, qi, pi, name)
        assert one.shape == (n,)
        np.testing.assert_array_equal(one, masks[k], err_msg=name)

    sample = np.random.default_rng(0).choice(n, min(n, 80), replace=False)
    exact = kernels._predicate_masks(
        names, len(sample), kernels._AREA_RULES,
        lambda: kernels._area_pair_basis(left_pg, right_pg, qi[sample],
                                         pi[sample], names))
    np.testing.assert_array_equal(masks[:, sample], exact)


def test_point_predicate_sequence_equals_single_calls():
    from ssb_sgis_ray import synth

    sx, sy, r = synth.supplier_diamonds(np.arange(1, 31))
    pg = wkb.decode_polygons(synth.diamond_wkb(sx, sy, r))
    px, py = synth.customer_points(np.arange(1, 3001))
    px, py = px.astype(np.float64), py.astype(np.float64)
    qi, pi = STRtree(kernels.polygon_bounds(pg)).query_bbox(
        np.stack([px, py, px, py], axis=1))
    masks = _assert_sequence_equals_singles(
        lambda p: kernels.points_in_polygon_pairs_predicate(
            px, py, pg, qi, pi, p), len(qi))
    assert masks[kernels.PREDICATES.index("within")].any()


def test_line_predicate_sequence_equals_single_calls():
    from ssb_sgis_ray import synth

    keys = np.arange(1, 41)
    rights = np.concatenate([
        synth.diamond_wkb(*synth.supplier_diamonds(keys)),
        synth.holed_box_wkb(*synth.orders_holed(keys)),
    ])
    pg = wkb.decode_polygons(rights)
    rng = np.random.default_rng(5)
    x = rng.integers(0, 36000, 400).astype(np.float64)
    y = rng.integers(0, 36000, 400).astype(np.float64)
    la = wkb.decode_lines(np.array(
        [wkb.encode_linestring(np.array([[a - 300.0, b], [a + 300.0, b]]))
         for a, b in zip(x, y)], dtype=object))
    qi, pi = STRtree(kernels.polygon_bounds(pg)).query_bbox(
        kernels.line_bounds(la))
    masks = _assert_sequence_equals_singles(
        lambda p: kernels.lines_in_polygon_pairs_predicate(la, pg, qi, pi, p),
        len(qi))
    assert masks[kernels.PREDICATES.index("crosses")].any()


def test_predicate_kernels_zero_pairs_give_k_by_zero():
    left_pg, right_pg = _mixed_polygons(np.arange(1, 5), np.arange(1, 5))
    none = np.empty(0, dtype=np.int64)
    names = ("touches", "within")
    assert kernels.polygon_predicate_pairs(
        left_pg, right_pg, none, none, names).shape == (2, 0)
    assert kernels.polygon_predicate_pairs(
        left_pg, right_pg, none, none, "touches").shape == (0,)
    assert kernels.points_in_polygon_pairs_predicate(
        np.zeros(1), np.zeros(1), right_pg, none, none, names).shape == (2, 0)


@pytest.mark.parametrize("bad", ["crosss", "", (), ["within", "within"],
                                 ["within", "Intersects"]])
def test_predicate_kernels_reject_bad_names(bad):
    """Every kernel validates its predicate argument before answering —
    'crosss' used to come back as all-False from polygon_predicate_pairs
    (its crosses short-cut ran before the name check)."""
    left_pg, right_pg = _mixed_polygons(np.arange(1, 5), np.arange(1, 5))
    qi = pi = np.zeros(1, dtype=np.int64)
    la = wkb.decode_lines(np.array(
        [wkb.encode_linestring(np.array([[0.0, 0.0], [1.0, 1.0]]))],
        dtype=object))
    with pytest.raises(ValueError):
        kernels.polygon_predicate_pairs(left_pg, right_pg, qi, pi, bad)
    with pytest.raises(ValueError):
        kernels.points_in_polygon_pairs_predicate(
            np.zeros(1), np.zeros(1), right_pg, qi, pi, bad)
    with pytest.raises(ValueError):
        kernels.lines_in_polygon_pairs_predicate(la, right_pg, qi, pi, bad)


def _lines(rows):
    """LineArray from rows given as lists of coordinate lists (an empty
    list is an empty MULTILINESTRING row)."""
    return wkb.decode_lines(np.array(
        [wkb.encode_multilinestring([np.array(c, dtype=np.float64)
                                     for c in row]) for row in rows],
        dtype=object))


def test_line_bounds_empty_middle_row():
    """An empty row between two lines gets NaN bounds, not the next
    row's first point."""
    b = kernels.line_bounds(_lines([[[[0, 0], [2, 1]]], [],
                                    [[[5, 5], [7, 9]]]]))
    np.testing.assert_array_equal(b[0], [0, 0, 2, 1])
    assert np.isnan(b[1]).all()
    np.testing.assert_array_equal(b[2], [5, 5, 7, 9])


def test_line_bounds_empty_last_row():
    """An empty LAST row used to raise IndexError inside reduceat."""
    b = kernels.line_bounds(_lines([[[[0, 0], [2, 1]], [[-1, 3], [0, 4]]],
                                    []]))
    np.testing.assert_array_equal(b[0], [-1, 0, 2, 4])
    assert np.isnan(b[1]).all()


def test_box_wkb_byte_equal_to_encode_polygon():
    from ssb_sgis_ray import synth

    rng = np.random.default_rng(11)
    lo = rng.uniform(-1e6, 1e6, (200, 2))
    hi = lo + rng.uniform(0, 5e3, (200, 2))
    lo[:50] = np.round(lo[:50])  # integer corners, as the fixtures use
    got = synth.box_wkb(lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1])
    assert isinstance(got, pa.Array) and got.type == pa.binary()
    want = [wkb.encode_polygon([np.array(
        [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])])
        for x0, y0, x1, y1 in zip(lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1])]
    assert got.to_pylist() == want
