"""Codec correctness + flagship pipeline resume semantics."""

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from ssb_sgis_ray.codecs import lossy, phash, png
from ssb_sgis_ray.sources import images as img_src
from ssb_sgis_ray.state import manifest as mf

SF = "/root/testdata/sf0.001"


def test_png_roundtrip_exact():
    rng = np.random.default_rng(1)
    for shape in [(32, 32, 3), (41, 57, 3), (1, 5, 3)]:
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert np.array_equal(png.decode_png(png.encode_png(img)), img)


def _png_filtered(img: np.ndarray, filters) -> bytes:
    """Hand-built PNG whose scanline y is stored with PNG filter
    ``filters[y]`` (forward filters of RFC 2083, 3 bytes per pixel)."""
    import struct
    import zlib

    h, w = img.shape[:2]
    raw = img.reshape(h, w * 3).astype(np.int32)
    rows = []
    for y, f in enumerate(filters):
        line = raw[y]
        prior = raw[y - 1] if y else np.zeros_like(line)
        a = np.concatenate([np.zeros(3, np.int32), line[:-3]])
        c = np.concatenate([np.zeros(3, np.int32), prior[:-3]])
        if f == 0:
            pred = np.zeros_like(line)
        elif f == 1:
            pred = a
        elif f == 2:
            pred = prior
        elif f == 3:
            pred = (a + prior) >> 1
        else:
            p = a + prior - c
            da, db, dc = np.abs(p - a), np.abs(p - prior), np.abs(p - c)
            pred = np.where((da <= db) & (da <= dc), a, np.where(db <= dc, prior, c))
        rows.append(bytes([f]) + ((line - pred) & 0xFF).astype(np.uint8).tobytes())

    def chunk(tag, data):
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(b"".join(rows))) + chunk(b"IEND", b""))


def test_png_decodes_every_filter_type():
    """Filters 1-4 and a mixed-filter image take the per-row loop; an
    all-filter-0 image takes the fast path. All decode to the source."""
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(9, 13, 3), dtype=np.uint8)
    cases = [[f] * 9 for f in range(5)] + [[0, 1, 2, 3, 4, 0, 4, 3, 2]]
    for filters in cases:
        data = _png_filtered(img, filters)
        got = png.decode_png(data)
        assert got.dtype == np.uint8 and got.shape == img.shape
        assert np.array_equal(got, img), filters
    # the hand builder's filter-0 output is byte-equal to the encoder's
    assert _png_filtered(img, [0] * 9) == png.encode_png(img)
    # the fast path returns an owned, writable array
    assert png.decode_png(png.encode_png(img)).flags.writeable


def test_png_rejects_garbage():
    with pytest.raises(ValueError):
        png.decode_png(b"not a png at all")


def test_lossy_psnr_at_least_40():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(48, 64, 3), dtype=np.uint8)
    dec = lossy.decode_lossy(lossy.encode_lossy(img))
    assert lossy.psnr(dec, img) >= 40.0
    # deterministic
    assert lossy.encode_lossy(img) == lossy.encode_lossy(img)


def test_phash_consistency():
    img1 = img_src.render_pixels(7, 40, 40)
    img2 = img_src.render_pixels(7, 40, 40)
    img3 = img_src.render_pixels(123, 40, 40)
    assert phash.ahash64(img1) == phash.ahash64(img2)
    assert phash.ahash64(img1) >= 0
    # the lossy copy of key 7 keeps the source's hash exactly
    dec = lossy.decode_lossy(lossy.encode_lossy(img1))
    assert phash.ahash64(dec) == phash.ahash64(img1)
    assert phash.ahash64(img3) != phash.ahash64(img1)
    # over the first 500 content keys the lossy copy's hash is at most one
    # bit from the source's (484 equal, 16 one bit apart)
    ws, hs = img_src.image_dims(np.arange(500))
    dist = []
    for k in range(500):
        src = img_src.render_pixels(k, int(ws[k]), int(hs[k]))
        cp = lossy.decode_lossy(lossy.encode_lossy(src))
        dist.append(bin(int(phash.ahash64(src)) ^ int(phash.ahash64(cp))).count("1"))
    assert max(dist) <= 1
    assert dist.count(0) == 484


def test_build_images_stage_duplicates_and_validation():
    docs = pa.table(
        {
            "doc_id": pa.array([98, 99, 100, 101], pa.int64()),
            "text": pa.array(["a", "b", "c", "d"], pa.string()),
        }
    )
    out = img_src.BuildImages()(docs)
    assert out.column_names == [
        "image_id", "doc_id", "ckey", "bytes", "w", "h", "fmt", "caption", "phash"
    ]
    rows = out.to_pylist()
    # doc 99 reuses doc 98's content -> identical payload + phash
    assert rows[0]["bytes"] == rows[1]["bytes"]
    assert rows[0]["phash"] == rows[1]["phash"]
    assert rows[2]["bytes"] != rows[0]["bytes"]
    assert rows[0]["image_id"] == "img000000000098"
    # validation passes for every row
    val = img_src.DecodeValidate()(out)
    assert all(val["decode_ok"].to_pylist())
    # jpeg rows hit the lossy path and report finite psnr >= 40 dB
    jpeg_psnr = [
        p for p, f in zip(val["psnr_c"].to_pylist(), val["fmt"].to_pylist())
        if f == "jpeg"
    ]
    assert jpeg_psnr and all(p >= 4000 for p in jpeg_psnr)


def test_validation_catches_corruption():
    docs = pa.table(
        {"doc_id": pa.array([4], pa.int64()), "text": pa.array(["x"], pa.string())}
    )
    out = img_src.BuildImages()(docs)
    # flip the stored phash -> validation must fail that row
    bad = out.set_column(
        out.schema.get_field_index("phash"), "phash",
        pa.array([out["phash"][0].as_py() ^ 1], pa.int64()),
    )
    val = img_src.DecodeValidate()(bad)
    assert val["decode_ok"].to_pylist() == [False]


def test_flagship_resume_exact(ray_session, tmp_path):
    from ssb_sgis_ray.pipelines import flagship as fl

    out = str(tmp_path / "flag")
    res1 = fl.flagship(SF, out)
    # sink sub-partitions by region × tile-block: more writer groups than
    # the 25 regions (exact count depends on which blocks have rows)
    assert res1["partitions_written"] > 25
    done = mf.load_manifest(out)
    assert len(done) == res1["partitions_written"]

    # full resume: nothing rewritten
    res2 = fl.flagship(SF, out)
    assert res2["partitions_written"] == 0

    # partial failure simulation: kill 3 partition files mid-"run"
    victims = sorted(done.keys())[:3]
    saved_bytes = {}
    for k in victims:
        path = done[k]["path"]
        with open(path, "rb") as f:
            saved_bytes[k] = f.read()
        os.remove(path)
    res3 = fl.flagship(SF, out)
    assert res3["partitions_written"] == 3  # only the missing partitions
    for k in victims:
        with open(done[k]["path"], "rb") as f:
            assert f.read() == saved_bytes[k]  # byte-identical rewrite

    # manifest rows carry lineage metrics
    row = next(iter(mf.load_manifest(out).values()))
    assert set(row) >= {"stage", "partition", "n_rows", "n_bytes", "input_hash", "wall_s", "path"}


def test_flagship_from_materialized_lance_source(ray_session, tmp_path):
    """Materialize the image table (Lance when pylance exists, parquet
    fallback here) and run flagship end-to-end FROM it — the north rule's
    Lance-first input path. Output must equal the synthesized-source run."""
    from ssb_sgis_ray.pipelines import flagship as fl
    from ssb_sgis_ray.sources import lance_io

    src = str(tmp_path / "imgtable")
    fmt = fl.materialize_images(SF, src)
    assert fmt == ("lance" if lance_io.HAVE_LANCE else "parquet")
    out_a = str(tmp_path / "flag_lance")
    out_b = str(tmp_path / "flag_synth")
    res_a = fl.flagship(SF, out_a, source_path=src)
    res_b = fl.flagship(SF, out_b)
    assert res_a["rows_written"] == res_b["rows_written"] > 0
    # byte-identical partition files (deterministic sort inside writer)
    done_a = mf.load_manifest(out_a)
    done_b = mf.load_manifest(out_b)
    assert set(done_a) == set(done_b)
    for k in sorted(done_a)[:5]:
        with open(done_a[k]["path"], "rb") as fa, open(done_b[k]["path"], "rb") as fb:
            assert fa.read() == fb.read()


def test_augment_stage_weighted_sums_closed_form():
    """AugmentStage's weighted sums must equal the index-substituted
    closed forms the SQL oracle uses (flip: x -> w-1-x gives weight
    (w-gx); rot90 CCW likewise; crop sums the center window only)."""
    key = 6  # even content key -> png row
    w, h = 32 + (key * 7) % 33, 32 + (key * 11) % 33
    img = img_src.render_pixels(key, w, h)
    batch = pa.table(
        {
            "image_id": pa.array(["img6"], pa.string()),
            "fmt": pa.array(["png"], pa.string()),
            "bytes": pa.array([png.encode_png(img)], pa.binary()),
        }
    )
    out = img_src.AugmentStage()(batch)
    gx = np.arange(w)[None, :]
    gy = np.arange(h)[:, None]
    r = (3 * gx + 5 * gy + 13 * key) % 256
    g = (7 * gx + 2 * gy + 29 * key) % 256
    b = (4 * (gx + gy) + 53 * key) % 256
    wgt = (w - gx) * (gy + 1)
    assert out["flip_wr"][0].as_py() == int((wgt * r).sum())
    assert out["rot_wg"][0].as_py() == int((wgt * g).sum())
    crop = b[h // 4 : h // 4 + h // 2, w // 4 : w // 4 + w // 2]
    assert out["crop_sum_b"][0].as_py() == int(crop.sum())
    assert out["rot_w"][0].as_py() == h and out["rot_h"][0].as_py() == w


def test_clip_score_matches_brute_force(ray_session):
    """ClipScoreStage == brute force (render_pixels moments x hashed
    caption buckets) on every png row; jpeg rows dropped; empty caption
    -> score 0, kept False; threshold boundary is >= (a row AT the
    threshold is kept)."""
    import ray.data as rd

    from ssb_sgis_ray.ops import infer
    from ssb_sgis_ray.ops.dedup import hash64_str_batch

    ids = np.arange(40, dtype=np.int64)
    texts = [f"tok{i % 7} alpha beta{i % 3}" for i in ids]
    texts[4] = ""          # empty caption on an even (png) content key
    docs = pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})
    imgs = img_src.BuildImages()(docs)

    # brute force over png rows
    import re

    tok_re = re.compile(r"[a-z0-9]+")
    want = {}
    for i in range(len(imgs)):
        if imgs["fmt"][i].as_py() != "png":
            continue
        ck = int(imgs["ckey"][i].as_py())
        w, h = int(imgs["w"][i].as_py()), int(imgs["h"][i].as_py())
        px = img_src.render_pixels(ck, w, h).astype(np.int64)
        f = np.zeros(9, np.int64)
        for c in range(3):
            ch = px[:, :, c]
            f[3 * c] = ch.sum()
            f[3 * c + 1] = (ch.sum(axis=0) * np.arange(1, w + 1)).sum()
            f[3 * c + 2] = (ch.sum(axis=1) * np.arange(1, h + 1)).sum()
        toks = tok_re.findall(imgs["caption"][i].as_py().lower())
        cap = np.zeros(9, np.int64)
        if toks:
            np.add.at(cap, (hash64_str_batch(toks) % np.uint64(9)).astype(int), 1)
        score = int((f * cap).sum())
        norm = score // (w * h * len(toks)) if toks else 0
        want[imgs["image_id"][i].as_py()] = (score, norm, bool(toks))

    # pick a threshold that IS an attained norm_score -> pins >= boundary
    attained = sorted(v[1] for v in want.values() if v[2])
    thr = attained[len(attained) // 2]

    out = infer.clip_score_filter(
        rd.from_arrow(imgs).repartition(5), threshold=thr
    ).to_pandas()
    assert len(out) == len(want)
    hit_boundary = False
    for _, r in out.iterrows():
        score, norm, has_tok = want[r["image_id"]]
        assert (int(r["clip_score"]), int(r["norm_score"])) == (score, norm)
        assert bool(r["kept"]) == (has_tok and norm >= thr)
        if norm == thr:
            hit_boundary = True
            assert bool(r["kept"])
    assert hit_boundary
    empty_row = out[out["image_id"] == "img000000000004"]
    assert len(empty_row) == 1 and not bool(empty_row["kept"].iloc[0])
    assert int(empty_row["clip_score"].iloc[0]) == 0


def test_image_metadata_filter_rules(ray_session):
    """Each rule (min_w, min_h, aspect, caption tokens) independently
    fails exactly the rows it should; boundary values pass (>= / <=);
    bytes never reach the stage (schema pruned before map_batches)."""
    import ray.data as rd

    from ssb_sgis_ray.sources.images import image_metadata_filter

    rows = [
        # (w, h, caption, expect_kept)  thresholds: 40/40/150/3 tokens
        (40, 40, "a b c", True),        # every rule AT its boundary
        (39, 64, "a b c", False),       # min_w
        (64, 39, "a b c", False),       # min_h
        (40, 60, "a b c", True),        # aspect 150 exactly -> kept
        (40, 61, "a b c", False),       # aspect 152 -> dropped
        (64, 64, "a b", False),         # caption too short
        (64, 64, "", False),            # empty caption
    ]
    tbl = pa.table({
        "image_id": pa.array([f"i{j}" for j in range(len(rows))]),
        "bytes": pa.array([b"\x00"] * len(rows), pa.binary()),
        "w": pa.array([r[0] for r in rows], pa.int32()),
        "h": pa.array([r[1] for r in rows], pa.int32()),
        "caption": pa.array([r[2] for r in rows]),
    })
    out = image_metadata_filter(
        rd.from_arrow(tbl), min_w=40, min_h=40, max_aspect_q=150,
        min_cap_tok=3).to_pandas().set_index("image_id")
    for j, (w, h, cap, want) in enumerate(rows):
        r = out.loc[f"i{j}"]
        assert bool(r["kept"]) == want, (j, rows[j])
        assert int(r["n_px"]) == w * h
        assert int(r["aspect_q"]) == 100 * max(w, h) // min(w, h)
    assert "bytes" not in out.columns


def test_partition_input_hash_arrow_equals_pandas():
    """Same ids -> same digest from an Arrow group and a pandas frame, in
    any row order, and equal to the digest earlier writers stored (so
    their output dirs resume without a rewrite)."""
    ids = ["img000000000098", "img000000000004", "img000000000098", "img000000000011"]
    ints = [7, -3, 10**12, 7]
    for col, vals, digest in [("image_id", ids, "c1fb806481838b2859c587c87ea59c05"),
                              ("k", ints, "f1250067a133cc8aa26dff18da922568")]:
        for perm in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]):
            v = [vals[i] for i in perm]
            t = pa.Table.from_batches([pa.record_batch({col: v[:2]}),
                                       pa.record_batch({col: v[2:]})])
            assert mf.partition_input_hash(t, col) == digest
            assert mf.partition_input_hash(pd.DataFrame({col: v}), col) == digest


def _part_table(n=60):
    return pa.table({
        "image_id": pa.array([f"img{i % 23:04d}" for i in range(n)]),
        "tile": pa.array(np.arange(n, dtype=np.int64)[::-1]),
        "part_key": pa.array(np.arange(n, dtype=np.int64) % 4),
    })


def test_partition_writer_arrow_sorted_no_pandas_metadata(tmp_path):
    write_one = mf.make_partition_writer(str(tmp_path), "part_key", "image_id")
    t = _part_table()
    t = t.filter(pc.equal(t["part_key"], 1))
    out = write_one(t)
    assert isinstance(out, pa.Table) and out.num_rows == 1
    assert out["resumed"][0].as_py() is False
    path = out["path"][0].as_py()
    back = pq.read_table(path)
    assert back.schema.metadata is None or b"pandas" not in back.schema.metadata
    want = t.to_pandas().sort_values(["image_id", "tile", "part_key"]).reset_index(drop=True)
    assert back.to_pandas().equals(want)
    assert out["n_bytes"][0].as_py() == os.path.getsize(path)


def test_skip_by_key_rewrites_only_missing_partition(ray_session, tmp_path):
    import ray.data as rd

    out = str(tmp_path / "sink")
    ds = rd.from_arrow(_part_table()).repartition(3)
    first = mf.write_partitioned_resumable(ds, out, "part_key", "image_id")
    assert sorted(r["partition"] for r in first) == ["0", "1", "2", "3"]
    done = mf.load_manifest(out)
    before = {}
    for k, r in done.items():
        with open(r["path"], "rb") as f:
            before[k] = (f.read(), os.stat(r["path"]).st_mtime_ns)
    os.remove(done["2"]["path"])
    again = mf.write_partitioned_resumable(ds, out, "part_key", "image_id",
                                           skip_by_key=True)
    # the finished keys were dropped before the shuffle: one group ran
    assert [(r["partition"], r["resumed"]) for r in again] == [("2", False)]
    for k, (data, mtime) in before.items():
        path = done[k]["path"]
        with open(path, "rb") as f:
            assert f.read() == data
        if k != "2":
            assert os.stat(path).st_mtime_ns == mtime
    assert set(mf.verify_manifest(out).values()) == {"ok"}


def test_flagship_resumes_dir_written_with_pandas_writer(ray_session, tmp_path):
    """An output dir whose partition files and manifest hashes came from a
    pandas-frame writer (pandas metadata in every file) resumes without
    rewriting anything."""
    from ssb_sgis_ray.pipelines import flagship as fl

    out = str(tmp_path / "flag")
    fl.flagship(SF, out)
    rows = []
    for row in mf.load_manifest(out).values():
        df = pq.read_table(row["path"]).to_pandas()
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False), row["path"])
        rows.append(dict(row, n_bytes=os.path.getsize(row["path"]),
                         input_hash=mf.partition_input_hash(df, "image_id")))
    os.remove(mf.manifest_path(out))
    mf.append_manifest(out, rows)
    before = {r["path"]: os.stat(r["path"]).st_mtime_ns for r in rows}
    res = fl.flagship(SF, out)
    assert res["partitions_written"] == 0
    assert res["partitions_total"] == len(rows)
    assert {p: os.stat(p).st_mtime_ns for p in before} == before


def test_flagship_task_concurrency_int_and_tuple(ray_session, tmp_path):
    """A (min, max) tuple caps the stage's tasks at max (no tuple-
    concurrency ValueError for the function stage); the manifest equals
    the int-capped run's."""
    from ssb_sgis_ray.pipelines import flagship as fl

    out_a, out_b = str(tmp_path / "tuple"), str(tmp_path / "int")
    res_a = fl.flagship(SF, out_a, concurrency=(1, 1))
    res_b = fl.flagship(SF, out_b, concurrency=2)
    assert res_a == res_b and res_a["partitions_written"] > 25

    def manifest(out):
        return {k: (r["n_rows"], r["input_hash"], r["n_bytes"])
                for k, r in mf.load_manifest(out).items()}

    assert manifest(out_a) == manifest(out_b)
