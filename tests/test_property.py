"""Property-based tests (hypothesis) over pure kernels — no Ray needed.

Mirrors the reference's randomized-equivalence test strategy
(`/root/reference/tests/test_overlay.py:98-128` random draws vs an
independent oracle): random inputs, independent library oracle, exact
agreement required.
"""

import numpy as np
import pandas as pd
import pytest
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssb_sgis_ray.codecs import geotiff
from ssb_sgis_ray.ops import relational as rel


def _run_asof_kernel(left: pd.DataFrame, right: pd.DataFrame, bucket_us: int):
    """Drive the as-of math exactly as asof_join wires it, single group."""
    def tagged(df, side):
        fine = (df.user_id.to_numpy(np.int64) << rel._FINE_BITS) | (
            df.ts_us.to_numpy(np.int64) // bucket_us
        )
        return pd.DataFrame(
            {
                "fine": fine,
                "ts_us": df.ts_us.to_numpy(np.int64),
                "id": df.id.to_numpy(np.int64),
                "side": np.full(len(df), side, np.int8),
            }
        )

    r = tagged(right, 0)
    af, at, ai = rel._last_per_fine(
        r.fine.to_numpy(), r.ts_us.to_numpy(), r.id.to_numpy()
    )
    order = np.argsort(af, kind="stable")
    kern = rel._AsofGroupKernel.__new__(rel._AsofGroupKernel)
    kern.agg_fine, kern.agg_ts, kern.agg_id = af[order], at[order], ai[order]
    union = pd.concat([tagged(left, 1), r], ignore_index=True)
    return kern(pa.Table.from_pandas(union, preserve_index=False)).to_pandas()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n_left=st.integers(1, 60),
    n_right=st.integers(0, 60),
    bucket=st.sampled_from([1, 7, 100, 10_000]),
)
def test_asof_kernel_matches_pandas_merge_asof(data, n_left, n_right, bucket):
    keys = st.integers(0, 4)
    ts = st.integers(0, 3000)
    left = pd.DataFrame(
        {
            "user_id": [data.draw(keys) for _ in range(n_left)],
            "ts_us": [data.draw(ts) for _ in range(n_left)],
            "id": np.arange(n_left),
        }
    ).astype("int64")
    right = pd.DataFrame(
        {
            "user_id": [data.draw(keys) for _ in range(n_right)],
            "ts_us": [data.draw(ts) for _ in range(n_right)],
            "id": np.arange(1000, 1000 + n_right),
        }
    ).astype("int64")

    got = (
        _run_asof_kernel(left, right, bucket)
        .sort_values("event_id")
        .reset_index(drop=True)
        .astype("int64")
    )

    # independent oracle: pandas merge_asof (right deduped to max id per
    # (key, ts) — the engine's documented duplicate-ts tie rule)
    rd = (
        right.sort_values(["user_id", "ts_us", "id"])
        .groupby(["user_id", "ts_us"], as_index=False)
        .last()
    )
    exp = pd.merge_asof(
        left.sort_values("ts_us", kind="stable"),
        rd.sort_values("ts_us", kind="stable"),
        on="ts_us",
        by="user_id",
        direction="backward",
        allow_exact_matches=True,
        suffixes=("", "_r"),
    ).dropna(subset=["id_r"])
    exp = pd.DataFrame(
        {
            "event_id": exp["id"].astype("int64"),
            "user_id": exp["user_id"].astype("int64"),
            "ts_us": exp["ts_us"].astype("int64"),
            "matched_id": exp["id_r"].astype("int64"),
        }
    )
    exp["lag_us"] = exp["ts_us"] - exp["matched_id"].map(
        rd.set_index("id")["ts_us"]
    ).astype("int64")
    exp = exp.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp[got.columns.tolist()])


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    dtype=st.sampled_from(["uint8", "uint16", "float32"]),
    compression=st.sampled_from(["none", "deflate"]),
    rps=st.integers(1, 16),
    seed=st.integers(0, 2**31 - 1),
)
def test_geotiff_roundtrip_property(h, w, dtype, compression, rps, seed):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 255, size=(h, w)).astype(dtype)
    ox, oy = float(rng.integers(-10**6, 10**6)), float(rng.integers(-10**6, 10**6))
    blob = geotiff.encode_geotiff(
        img, origin=(ox, oy), pixel_scale=(0.5, 2.0),
        compression=compression, rows_per_strip=rps,
    )
    out, tr = geotiff.decode_geotiff(blob)
    np.testing.assert_array_equal(out, img)
    assert tr == (ox, oy, 0.5, 2.0)


@given(
    w=st.integers(min_value=8, max_value=400),
    h=st.integers(min_value=8, max_value=400),
    d=st.integers(min_value=1, max_value=120),
)
@settings(max_examples=40, deadline=None)
@example(w=147, h=296, d=73)  # pinned Hypothesis counterexample: w-2d = 1 sliver
@example(w=304, h=304, d=73)  # pinned: clip-interpolation ulp residue on a square
def test_erosion_morphology_properties(w, h, d):
    """Erosion invariants on axis rects: exact closed form, monotone in d,
    and closing (dilate-then-erode) restores the rect exactly — straight
    edges offset exactly in both directions and corner discs cancel."""
    from ssb_sgis_ray.geo import booleans
    from ssb_sgis_ray.ops import geometry as G

    ring = np.array([[0, 0], [w, 0], [w, h], [0, h], [0, 0]], float)
    res = 16
    er = G.erode_polygon_rings_area([ring], [False], float(d), res)
    assert er == max(0, w - 2 * d) * max(0, h - 2 * d)
    # monotone: eroding further never grows the area
    er2 = G.erode_polygon_rings_area([ring], [False], float(d) + 4.0, res)
    assert er2 <= er
    # closing (dilate-then-erode) restores the rect up to the polygonal-
    # disc approximation: the dilated corners are inscribed chords, so the
    # erosion shaves a per-corner sliver bounded by the chord sagitta —
    # closed is never larger than the rect and approaches it as res grows
    dil = G.buff_polygon_rings([ring], float(d), res)
    rings = [r for poly in dil for r in poly]
    holes = [False] * len(rings)
    closed = G.erode_polygon_rings_area(rings, holes, float(d), res)
    assert closed <= w * h + 1e-9
    sagitta = d * (1 - np.cos(np.pi / (4 * res)))
    # 4 corners, each sliver within a (2*d*sagitta) box — generous bound
    assert closed >= w * h - 4 * (2 * d * sagitta + sagitta * sagitta) - 1e-9


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=12),
    res=st.integers(min_value=5, max_value=7),
)
@settings(max_examples=25, deadline=None)
def test_cell_clip_partition_additivity(seed, n, res):
    """The union-cell plan's invariant: cells tile the plane disjointly,
    so sum over covered cells of area(clip(poly, cell)) == area(poly) —
    for axis rects, L-shapes (rectilinear), and diamonds (general ring
    path) alike."""
    from ssb_sgis_ray.geo import cells, kernels, wkb as W
    from ssb_sgis_ray.ops.overlay import _clip_rows_to_rect_wkb

    rng = np.random.default_rng(seed)
    blobs = []
    for i in range(n):
        kind = rng.integers(0, 3)
        x, y = rng.integers(0, 2_000_000, 2).astype(float)
        w, h = rng.integers(1, 120_000, 2).astype(float)
        if kind == 0:  # axis rect
            ring = np.array([[x, y], [x + w, y], [x + w, y + h],
                             [x, y + h], [x, y]])
        elif kind == 1:  # L-shape (rectilinear, concave)
            ring = np.array([[x, y], [x + w, y], [x + w, y + h / 2],
                             [x + w / 2, y + h / 2], [x + w / 2, y + h],
                             [x, y + h], [x, y]])
        else:  # diamond (non-rectilinear)
            ring = np.array([[x + w / 2, y], [x + w, y + h / 2],
                             [x + w / 2, y + h], [x, y + h / 2],
                             [x + w / 2, y]])
        blobs.append(W.encode_polygon([ring]))
    pg = W.decode_polygons(np.asarray(blobs, dtype=object))
    full = kernels.polygon_areas(pg)
    b = kernels.polygon_bounds(pg)
    rows, cell = cells.cover_bbox(
        b[:, 0], b[:, 1], b[:, 2] + 1e-9, b[:, 3] + 1e-9, res
    )
    acc = np.zeros(len(pg))
    for c in np.unique(cell):
        rect = cells.clip_rect(c, res)  # the cell plans' clip rect
        rsel = rows[cell == c]
        sub = W.decode_polygons(np.asarray(
            [blobs[i] for i in rsel], dtype=object))
        rects, offs, rlin = kernels.decompose_rectilinear(sub)
        cw = _clip_rows_to_rect_wkb(sub, rect, rlin, rects, offs)
        for j, wkb_bytes in enumerate(cw):
            if wkb_bytes is not None:
                cp = W.decode_polygons(np.asarray([wkb_bytes], dtype=object))
                acc[rsel[j]] += kernels.polygon_areas(cp)[0]
    np.testing.assert_allclose(acc, full, rtol=1e-9)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nl=st.integers(min_value=1, max_value=6),
    nr=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=30, deadline=None)
def test_difference_areas_matches_boolean_engine(seed, nl, nr):
    """difference_areas (covers pre-pass + Klee sweep + boolean fallback)
    against the scanline boolean engine computed independently per row —
    mixed rect/L/diamond subjects and clips."""
    from ssb_sgis_ray.geo import booleans, kernels, wkb as W
    from ssb_sgis_ray.ops.overlay import (
        RightGeoms, difference_areas, find_candidate_pairs,
    )

    rng = np.random.default_rng(seed)

    def shape(kind, x, y, w, h):
        if kind == 0:
            return np.array([[x, y], [x + w, y], [x + w, y + h],
                             [x, y + h], [x, y]])
        if kind == 1:
            return np.array([[x, y], [x + w, y], [x + w, y + h / 2],
                             [x + w / 2, y + h / 2], [x + w / 2, y + h],
                             [x, y + h], [x, y]])
        return np.array([[x + w / 2, y], [x + w, y + h / 2],
                         [x + w / 2, y + h], [x, y + h / 2],
                         [x + w / 2, y]])

    def blob():
        kind = int(rng.integers(0, 3))
        x, y = rng.integers(0, 5000, 2).astype(float)
        w, h = rng.integers(1, 3000, 2).astype(float)
        return W.encode_polygon([shape(kind, x, y, w, h)])

    lblobs = [blob() for _ in range(nl)]
    rblobs = [blob() for _ in range(nr)]
    lpg = W.decode_polygons(np.asarray(lblobs, dtype=object))
    R = RightGeoms(pa.table({"geometry_wkb": pa.array(rblobs, pa.binary())}))
    decomp = kernels.decompose_rectilinear(lpg)
    if nr:
        qi, pi = find_candidate_pairs(
            lpg, kernels.detect_axis_rects(lpg), R, decomp[2]
        )
    else:
        qi = pi = np.empty(0, dtype=np.int64)
    got = difference_areas(lpg, R, qi, pi, decomp)
    # independent per-row ground truth: one scanline boolean difference
    # against ALL rights (not just candidates — non-candidates are no-ops)
    rpg = W.decode_polygons(np.asarray(rblobs, dtype=object)) if nr else None
    for i in range(nl):
        s_r, s_h = booleans.ringset_of_row(lpg, i)
        c_r, c_h = [], []
        for r in range(nr):
            rr_, hh_ = booleans.ringset_of_row(rpg, r)
            c_r.extend(rr_)
            c_h.extend(hh_)
        want = booleans.boolean_area(s_r, c_r, "difference", s_h, c_h)
        assert abs(got[i] - want) < 1e-6 * max(1.0, want), (i, got[i], want)


@given(st.lists(st.integers(min_value=1, max_value=2**62 - 1),
                min_size=1, max_size=200))
@example([1, 2, 3, 4, 2**52 - 1, 2**52, 2**52 + 1, 2**62 - 1])
def test_floor_log2_matches_bit_length(vals):
    """The no-float floor(log2) (searchsorted powers of two) equals
    int.bit_length() - 1 everywhere — including just-below-power-of-two
    counts where a float log2 rounds up."""
    from ssb_sgis_ray.ops.text import _floor_log2

    got = _floor_log2(np.asarray(vals, dtype=np.int64))
    want = np.array([v.bit_length() - 1 for v in vals], dtype=np.int64)
    np.testing.assert_array_equal(got, want)


@given(st.lists(st.text(alphabet="ab ", min_size=0, max_size=40),
                min_size=1, max_size=20))
def test_bigram_hashes_concat_invariant(texts):
    """_bigram_hashes over one batch equals the per-document computation:
    document boundaries never leak bigrams, and per-span (h1, bh) pairs
    are a pure function of the token sequence."""
    from ssb_sgis_ray.ops.text import _bigram_hashes

    ids = np.arange(len(texts), dtype=np.int64)
    d_all, h1_all, bh_all, counts = _bigram_hashes(texts, ids)
    assert counts.tolist() == [
        len([w for w in t.lower().split() if w]) for t in texts
    ]
    for i, t in enumerate(texts):
        d1, h1, bh, _ = _bigram_hashes([t], np.array([i], dtype=np.int64))
        m = d_all == i
        np.testing.assert_array_equal(h1_all[m], h1)
        np.testing.assert_array_equal(bh_all[m], bh)


def _dp_levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


@settings(max_examples=150, deadline=None)
@given(
    a=st.text(alphabet="abXY 9", max_size=80),
    b=st.text(alphabet="abXY 9", max_size=80),
)
@example(a="a" * 65, b="a" * 64 + "b")  # cross the 64-bit word boundary
@example(a="", b="ab")
def test_myers_levenshtein_matches_dp(a, b):
    from ssb_sgis_ray.ops.text import myers_levenshtein

    d = myers_levenshtein(a, b)
    assert d == _dp_levenshtein(a, b)
    # metric axioms the bit algorithm must preserve
    assert d == myers_levenshtein(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


@settings(max_examples=60, deadline=None)
@given(
    pts=st.lists(st.integers(0, 999), min_size=0, max_size=30),
    ivs=st.lists(st.tuples(st.integers(0, 999), st.integers(1, 400)),
                 min_size=0, max_size=10),
    bucket=st.sampled_from([64, 100, 250, 1000]),
)
def test_interval_join_matches_bruteforce(ray_session, pts, ivs, bucket):
    import ray.data as rd

    pdf = pd.DataFrame({
        "event_id": np.arange(len(pts), dtype=np.int64),
        "ts_us": np.asarray(pts, np.int64),
    })
    idf = pd.DataFrame({
        "iid": np.arange(len(ivs), dtype=np.int64),
        "s": np.asarray([s for s, _ in ivs], np.int64),
        "e": np.asarray([s + d for s, d in ivs], np.int64),
    })
    got = rel.interval_join(
        rd.from_pandas(pdf) if len(pdf) else
        rd.from_arrow(pa.table({"event_id": pa.array([], pa.int64()),
                                "ts_us": pa.array([], pa.int64())})),
        rd.from_pandas(idf) if len(idf) else
        rd.from_arrow(pa.table({"iid": pa.array([], pa.int64()),
                                "s": pa.array([], pa.int64()),
                                "e": pa.array([], pa.int64())})),
        bucket_us=bucket).to_pandas()
    if got.empty and "event_id" not in got.columns:
        got = pd.DataFrame({c: pd.Series(dtype="int64")
                            for c in ("event_id", "iid", "t_us")})
    want = {(int(p), int(i))
            for p, t in zip(pdf["event_id"], pdf["ts_us"])
            for i, (s, d) in enumerate(ivs) if s <= t < s + d}
    assert set(zip(got["event_id"], got["iid"])) == want


@given(st.lists(st.tuples(
    st.integers(-20, 20), st.integers(-20, 20),
    st.integers(1, 15), st.integers(1, 15)), min_size=1, max_size=8),
    st.integers(-20, 20), st.integers(-20, 20),
    st.integers(1, 15), st.integers(1, 15))
@settings(max_examples=200, deadline=None)
def test_rect_predicates_match_interval_bruteforce(rects, lx, ly, lw, lh):
    """polygon_predicate_pairs on random axis rects == a from-first-
    principles interval-arithmetic brute force for every predicate."""
    import numpy as np

    from ssb_sgis_ray.geo import kernels as K
    from ssb_sgis_ray.geo import wkb as W

    def box_ring(x0, y0, x1, y1):
        return [np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1],
                          [x0, y0]], float)]

    L = (lx, ly, lx + lw, ly + lh)
    left_pg = W.decode_polygons(np.array(
        [W.encode_polygon(box_ring(*L)) for _ in rects], dtype=object))
    Rs = [(x, y, x + w, y + h) for x, y, w, h in rects]
    right_pg = W.decode_polygons(np.array(
        [W.encode_polygon(box_ring(*r)) for r in Rs], dtype=object))
    qi = np.arange(len(rects))
    pi = np.arange(len(rects))

    def brute(pred, R):
        ix = min(L[2], R[2]) - max(L[0], R[0])
        iy = min(L[3], R[3]) - max(L[1], R[1])
        l_in_r = (L[0] >= R[0] and L[2] <= R[2]
                  and L[1] >= R[1] and L[3] <= R[3])
        r_in_l = (R[0] >= L[0] and R[2] <= L[2]
                  and R[1] >= L[1] and R[3] <= L[3])
        if pred == "intersects":
            return ix >= 0 and iy >= 0
        if pred == "touches":
            return ix >= 0 and iy >= 0 and (ix == 0 or iy == 0)
        if pred == "overlaps":
            return ix > 0 and iy > 0 and not l_in_r and not r_in_l
        if pred in ("covers", "contains"):
            return r_in_l
        return l_in_r  # within / covered_by

    for pred in ("intersects", "touches", "overlaps", "covers",
                 "contains", "within", "covered_by"):
        got = K.polygon_predicate_pairs(left_pg, right_pg, qi, pi, pred)
        want = np.array([brute(pred, r) for r in Rs])
        np.testing.assert_array_equal(got, want, err_msg=pred)


@given(st.integers(-12, 12), st.integers(-12, 12),
       st.integers(-12, 12), st.integers(-12, 12),
       st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_segment_diamond_predicates_match_closed_form(x0, y0, x1, y1, r):
    """lines_in_polygon_pairs_predicate for a horizontal segment vs a
    diamond == the closed-form half-width interval rule (the
    sfilter_line_predicates oracle logic, here against the general
    scanline kernel on arbitrary positions incl. exact contacts)."""
    import numpy as np

    from ssb_sgis_ray.geo import kernels as K
    from ssb_sgis_ray.geo import wkb as W

    if x1 <= x0:
        x0, x1 = x1, x0 + 1  # positive-length horizontal segment
    seg = np.array([[float(x0), float(y0)], [float(x1), float(y0)]])
    la = W.decode_lines(np.array([W.encode_linestring(seg)], dtype=object))
    ring = [np.array([[r, 0.0], [0, r], [-r, 0], [0, -r], [r, 0]], float)]
    pg = W.decode_polygons(np.array([W.encode_polygon(ring)], dtype=object))
    qi = np.zeros(1, dtype=np.int64)
    pi = np.zeros(1, dtype=np.int64)

    h = r - abs(y0)  # diamond half-width at the segment's y (cx=cy=0)
    want = {
        "intersects": h >= 0 and x1 >= -h and x0 <= h,
        "within": h > 0 and x0 >= -h and x1 <= h,
        "covered_by": h > 0 and x0 >= -h and x1 <= h,
        "crosses": h > 0 and x1 > -h and x0 < h and (x0 < -h or x1 > h),
        "touches": ((h == 0 and x0 <= 0 and x1 >= 0)
                    or (h > 0 and (x1 == -h or x0 == h))),
    }
    for pred, exp in want.items():
        got = K.lines_in_polygon_pairs_predicate(la, pg, qi, pi, pred)
        assert bool(got[0]) == exp, (pred, (x0, x1, y0, r, h))
