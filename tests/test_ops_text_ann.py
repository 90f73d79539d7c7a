"""Tests for text analysis, dedup, and ANN operators."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ssb_sgis_ray.ops import ann as ann_ops
from ssb_sgis_ray.ops import dedup as dedup_ops
from ssb_sgis_ray.ops import text as text_ops

SF = "/root/testdata/sf0.001"


def test_token_stats_exact():
    st = text_ops.TokenStats()
    df = pd.DataFrame({"doc_id": [1, 2], "text": ["Hello, World 42!", "a.b,c;d:e?f"]})
    out = st(df)
    assert out.loc[0, "n_tokens"] == 3  # Hello World 42
    assert out.loc[0, "n_digits"] == 2
    assert out.loc[0, "n_punct"] == 2  # comma + bang
    assert out.loc[0, "n_upper"] == 2
    assert out.loc[0, "len_chars"] == 16
    assert out.loc[1, "n_punct"] == 5


def test_quality_filter_mask():
    df = pd.DataFrame(
        {
            "n_tokens": [10, 2, 10, 10],
            "n_punct": [0, 0, 50, 0],
            "n_digits": [0, 0, 0, 90],
            "len_chars": [100, 100, 100, 100],
        }
    )
    mask = text_ops.quality_filter_mask(df)
    np.testing.assert_array_equal(mask, [True, False, False, False])


def test_langid_obvious():
    li = text_ops.LangId()
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "the cat and the dog of the house",
                "der Hund und die Katze ist nicht hier",
                "xyzzy qwerty plugh",
            ],
        }
    )
    out = li(df)
    assert out["pred_lang"].tolist() == ["en", "de", "und"]


def test_fingerprint_deterministic_and_order_sensitive():
    a = text_ops.rolling_fingerprint(["abc def", "def abc", "abc def"])
    assert a[0] == a[2]
    assert a[0] != a[1]


def test_md5_matches_duckdb():
    import duckdb

    texts = ["hello", "héllo ünicode", ""]
    got = text_ops.md5_hash_column(texts)
    con = duckdb.connect()
    for t, g in zip(texts, got):
        assert con.execute("SELECT md5(?)", [t]).fetchone()[0] == g


def test_minhash_similarity_tracks_jaccard():
    base = "the quick brown fox jumps over the lazy dog " * 20
    near = base[:-30] + "and runs far away home tonight"
    far = "completely different content about spaceships and galaxies " * 15
    s1 = dedup_ops.minhash_signature(base)
    s2 = dedup_ops.minhash_signature(near)
    s3 = dedup_ops.minhash_signature(far)
    est_near = (s1 == s2).mean()
    est_far = (s1 == s3).mean()
    true_near = dedup_ops.ngram_jaccard(base, near)
    assert true_near > 0.5
    assert abs(est_near - true_near) < 0.2  # 64-perm estimator tolerance
    assert est_far < 0.2
    # near-dup pair shares at least one LSH band; far pair shares none
    b1, b2, b3 = (dedup_ops.band_hashes(s) for s in (s1, s2, s3))
    assert (b1 == b2).any()
    assert not (b1 == b3).any()


def test_verify_pairs_distributed_path_matches_broadcast(
        ray_session, monkeypatch):
    """Force the LARGE regime (semi-join + two text joins) and check it
    returns exactly the broadcast regime's pairs/jaccards — the verify
    kernel shingles each distinct doc once per batch in both plans."""
    import ray.data as rd

    base = "the quick brown fox jumps over the lazy dog and keeps going " * 25
    near = base[:-40] + "then rests under a shady tree for a while"
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                base,
                near,
                "other document about completely different topics here " * 25,
                "third unrelated text with its own vocabulary and style " * 25,
            ],
        }
    )
    docs_ds = rd.from_pandas(docs)
    pairs_ds = dedup_ops.minhash_candidate_pairs(docs_ds).materialize()
    small = dedup_ops.verify_pairs_jaccard(
        pairs_ds, docs_ds, threshold=0.5).to_pandas()
    monkeypatch.setattr(dedup_ops, "SMALL_VERIFY_PAIRS", 0)
    large = dedup_ops.verify_pairs_jaccard(
        pairs_ds, docs_ds, threshold=0.5).to_pandas()
    key = ["id_a", "id_b"]
    small = small.sort_values(key).reset_index(drop=True)
    large = large.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(small, large[small.columns])
    assert (1, 2) in set(zip(large["id_a"], large["id_b"]))


def test_vectorized_pair_jaccard_matches_scalar():
    """The batched flat-store Jaccard (one lexsort per batch) must agree
    exactly with the scalar ngram_jaccard on every pair, including empty
    and identical texts."""
    import itertools

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumped over a lazy dog",
        "",
        "abc",
        "completely different content about spaceships",
        "the quick brown fox jumps over the lazy dog",
    ]
    store = dedup_ops._flat_shingles(texts, 5)
    ia, ib = map(
        np.array, zip(*itertools.combinations(range(len(texts)), 2))
    )
    sims = dedup_ops._pair_jaccard_from_flat(*store, ia, ib)
    exp = np.array(
        [dedup_ops.ngram_jaccard(texts[i], texts[j], 5)
         for i, j in zip(ia, ib)]
    )
    np.testing.assert_allclose(sims, exp)
    # both-empty pair is Jaccard 1 by contract
    s = dedup_ops._pair_jaccard_from_flat(
        *dedup_ops._flat_shingles(["", ""], 5),
        np.array([0]), np.array([1]),
    )
    assert s[0] == 1.0


def test_simhash_hamming():
    a = dedup_ops.simhash64("the quick brown fox jumps over the lazy dog " * 10)
    b = dedup_ops.simhash64("the quick brown fox jumps over the lazy cat " * 10)
    c = dedup_ops.simhash64("totally unrelated words about databases and rays " * 10)
    h_ab = dedup_ops.hamming64(np.array([a]), np.array([b]))[0]
    h_ac = dedup_ops.hamming64(np.array([a]), np.array([c]))[0]
    assert h_ab < h_ac
    assert dedup_ops.simhash64("x y z") == dedup_ops.simhash64("x y z")


def test_exact_dedup_groups(ray_session):
    import ray.data as rd

    df = pd.DataFrame(
        {"doc_id": [3, 1, 2, 5, 4], "text": ["aa", "bb", "aa", "cc", "bb"]}
    )
    out = dedup_ops.exact_dedup_groups(rd.from_pandas(df)).to_pandas()
    got = out.sort_values("keep_id").reset_index(drop=True)
    assert got["keep_id"].tolist() == [1, 2, 5]
    assert got["dup_count"].tolist() == [2, 2, 1]


def test_minhash_pipeline_finds_planted_dup(ray_session):
    import ray.data as rd

    base = "spark ray data engine shuffle partition actor pool batch " * 30
    near = base + "tail difference"
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                base,
                near,
                "other document about completely different topics entirely " * 25,
                "third unrelated text with its own vocabulary and phrasing " * 25,
            ],
        }
    )
    docs_ds = rd.from_pandas(docs)
    pairs_ds = dedup_ops.minhash_candidate_pairs(docs_ds).materialize()
    pairs = pairs_ds.to_pandas()
    assert (1, 2) in set(zip(pairs["id_a"], pairs["id_b"]))
    # join-based verify stage (no corpus broadcast) keeps it at 0.5
    out = dedup_ops.verify_pairs_jaccard(pairs_ds, docs_ds, threshold=0.5).to_pandas()
    assert (1, 2) in set(zip(out["id_a"], out["id_b"]))
    assert (out["jaccard"] >= 0.5).all()


def _toy_vectors(n=200, d=16, seed=3):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, d))
    return m


def test_ann_bruteforce_matches_numpy(ray_session):
    import ray.data as rd

    m = _toy_vectors()
    ids = np.arange(len(m), dtype=np.int64)
    tbl = pa.table({"vec_id": ids, "embedding": pa.array(list(m), pa.list_(pa.float64()))})
    queries = {"id": ids[:5], "matrix": m[:5]}
    got = (
        ann_ops.ann_bruteforce(rd.from_arrow(tbl), queries, k=4)
        .to_pandas()
        .sort_values(["query_id", "ann_rank"])
        .reset_index(drop=True)
    )
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = mn @ mn[:5].T
    for qi in range(5):
        order = np.lexsort((ids, -sims[:, qi]))[:4]
        sub = got[got["query_id"] == qi]
        assert sub["vec_id"].tolist() == ids[order].tolist()
        assert sub["ann_rank"].tolist() == [1, 2, 3, 4]


def test_ann_ivf_exact_when_full_probe(ray_session):
    import ray.data as rd

    m = _toy_vectors(300, 16, seed=9)
    ids = np.arange(len(m), dtype=np.int64)
    tbl = pa.table({"vec_id": ids, "embedding": pa.array(list(m), pa.list_(pa.float64()))})
    queries = {"id": ids[:3], "matrix": m[:3]}
    cent = ann_ops.kmeans_fit(m, n_lists=5)
    full = ann_ops.ann_ivf(rd.from_arrow(tbl), queries, k=3, centroids=cent, nprobe=5).to_pandas()
    brute = ann_ops.ann_bruteforce(rd.from_arrow(tbl), queries, k=3).to_pandas()
    key = ["query_id", "ann_rank"]
    f = full.sort_values(key).reset_index(drop=True)
    b = brute.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(f[key + ["vec_id"]], b[key + ["vec_id"]])
    # reduced probing still finds most true neighbors (recall sanity)
    part = ann_ops.ann_ivf(rd.from_arrow(tbl), queries, k=3, centroids=cent, nprobe=2).to_pandas()
    merged = part.merge(b[key + ["vec_id"]], on=key, suffixes=("", "_true"))
    recall = (merged["vec_id"] == merged["vec_id_true"]).mean()
    assert recall >= 0.5


def test_ann_lsh_exact_when_full_probe(ray_session):
    import ray.data as rd

    m = _toy_vectors(300, 16, seed=9)
    ids = np.arange(len(m), dtype=np.int64)
    tbl = pa.table({"vec_id": ids, "embedding": pa.array(list(m), pa.list_(pa.float64()))})
    queries = {"id": ids[:3], "matrix": m[:3]}
    planes = ann_ops.lsh_planes(16, n_tables=4, n_bits=6)
    full = ann_ops.ann_lsh(rd.from_arrow(tbl), queries, k=3, planes=planes, radius=6).to_pandas()
    brute = ann_ops.ann_bruteforce(rd.from_arrow(tbl), queries, k=3).to_pandas()
    key = ["query_id", "ann_rank"]
    f = full.sort_values(key).reset_index(drop=True)
    b = brute.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(f[key + ["vec_id"]], b[key + ["vec_id"]])
    # multiprobe radius 1: queries are corpus members, so their own bucket
    # always holds the rank-1 self match; recall stays well above chance
    part = ann_ops.ann_lsh(rd.from_arrow(tbl), queries, k=3, planes=planes, radius=1).to_pandas()
    merged = part.merge(b[key + ["vec_id"]], on=key, suffixes=("", "_true"))
    recall = (merged["vec_id"] == merged["vec_id_true"]).mean()
    assert recall >= 0.5


def test_lsh_codes_and_ball():
    planes = ann_ops.lsh_planes(8, n_tables=2, n_bits=4)
    m = ann_ops._normalize(np.array([[1.0] * 8, [-1.0] * 8]))
    codes = ann_ops._lsh_codes(m, planes)
    # antipodal vectors get complementary codes in every table
    assert ((codes[0] ^ codes[1]) == 15).all()
    ball = ann_ops._hamming_ball(0b0101, 4, 1)
    assert set(ball) == {0b0101, 0b0100, 0b0111, 0b0001, 0b1101}


def test_embedding_matrix_shapes():
    m = _toy_vectors(7, 4)
    tbl = pa.table({"embedding": pa.array(list(m), pa.list_(pa.float64()))})
    got = ann_ops.embedding_matrix(tbl)
    np.testing.assert_allclose(got, m)


def test_embed_dedup_bucketed_matches_bruteforce(ray_session):
    """IVF-bucketed near-dup pairs (multi-assign=2) equal the all-pairs
    brute force on a corpus with planted near-duplicates."""
    import ray.data as rd

    from ssb_sgis_ray.ops.ann import _normalize, kmeans_fit

    rng = np.random.default_rng(5)
    base = rng.normal(size=(120, 16))
    # plant 10 near-dup pairs (tiny perturbations)
    dups = base[:10] + rng.normal(scale=1e-4, size=(10, 16))
    m = np.vstack([base, dups])
    ids = np.arange(len(m), dtype=np.int64)
    mn = _normalize(m.astype(np.float64))
    sims = mn @ mn.T
    ii, jj = np.nonzero(np.triu(sims >= 0.995, k=1))
    expect = set(zip(ids[ii], ids[jj]))
    assert len(expect) >= 10

    tbl = pd.DataFrame({"vec_id": ids, "embedding": [row.tolist() for row in m]})
    cent = kmeans_fit(m, n_lists=6)
    got = (
        dedup_ops.embed_dedup_pairs_bucketed(
            rd.from_pandas(tbl), cent, threshold=0.995
        )
        .to_pandas()
    )
    got_set = set(zip(got["id_a"], got["id_b"]))
    assert got_set == expect


def test_simhash_batch_properties(ray_session):
    """Vectorized simhash: near-identical docs have tiny hamming distance,
    unrelated docs a large one; empty docs hash to 0."""
    base = "spark ray data engine shuffle partition actor pool batch " * 30
    near = base + "tail difference"
    other = "completely different vocabulary about gardening and soil " * 25
    hs = dedup_ops.simhash64_batch([base, near, other, ""])
    d_near = int(dedup_ops.hamming64(np.array([hs[0]]), np.array([hs[1]]))[0])
    d_far = int(dedup_ops.hamming64(np.array([hs[0]]), np.array([hs[2]]))[0])
    assert d_near <= 8 < d_far
    assert hs[3] == 0


def test_exact_quantiles_differential(ray_session):
    """Histogram-refinement k-select == numpy sorted ranks, on a
    duplicate-heavy signed mix; tiny bins force multi-round refinement."""
    import ray.data as rd

    from ssb_sgis_ray.ops import quantile as quantile_ops

    rng = np.random.default_rng(11)
    vals = np.concatenate(
        [rng.integers(-1000, 50000, 5000), np.full(800, 42), np.full(3, -1000)]
    )
    ds = rd.from_arrow(pa.table({"v": vals}))
    srt = np.sort(vals)
    qs = [0.01, 0.25, 0.5, 0.9, 1.0]
    got = quantile_ops.exact_quantiles(ds, "v", qs)
    exp = [srt[max(int(np.ceil(q * len(vals))), 1) - 1] for q in qs]
    assert list(got) == [int(x) for x in exp]
    # explicit ranks + forced multi-round (bins=4 -> ~8 rounds for 51k range)
    ranks = [1, 17, len(vals)]
    got2 = quantile_ops.exact_kth_smallest(ds, "v", ranks=ranks, bins=4,
                                           max_rounds=40)
    assert list(got2) == [int(srt[r - 1]) for r in ranks]
    with pytest.raises(ValueError):
        quantile_ops.exact_kth_smallest(ds, "v", ranks=[0])
    with pytest.raises(ValueError):
        quantile_ops.exact_kth_smallest(ds, "v", ranks=[len(vals) + 1])


def test_phash_near_dup_pairs_pigeonhole(ray_session):
    """Banded-phash LSH: pairs within Hamming<=3 are found (pigeonhole
    over 4x16-bit bands guarantees a shared exact band), pairs further
    than the threshold are rejected even when they share a band."""
    import ray.data as rd

    base = 0x0123456789ABCDEF
    rows = {
        "doc_id": [1, 2, 3, 4, 5],
        "phash": [
            base,                      # anchor
            base ^ 0b101,              # hamming 2 -> pair with 1
            base ^ (1 << 62),          # hamming 1 -> pair with 1 (and 2: h=3)
            base ^ 0x0F0F,             # hamming 8, shares bands 2,3 -> no pair
            0x7EDCBA9876543210,        # far from everything
        ],
    }
    ds = rd.from_arrow(pa.table({k: pa.array(v, pa.int64()) for k, v in rows.items()}))
    got = sorted(
        (r["id_a"], r["id_b"])
        for r in dedup_ops.phash_near_dup_pairs(ds).take_all()
    )
    assert got == [(1, 2), (1, 3), (2, 3)]


def test_embed_captions_matches_numpy_and_feeds_ann(ray_session):
    """Batched inference stage: per-batch matmul equals a per-doc numpy
    recompute; output composes with ann_bruteforce."""
    import ray.data as rd

    from ssb_sgis_ray.ops import infer

    w = infer.make_embedding_weights(vocab_buckets=64, dim=8, seed=5)
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                ["the quick brown fox", "the quick brown fox", "zebra", ""],
                pa.string(),
            ),
        }
    )
    out = infer.embed_captions(rd.from_arrow(docs), w).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    got = np.stack(out["embedding"].to_numpy())
    # independent per-doc recompute
    import re

    for i, text in enumerate(docs["text"].to_pylist()):
        toks = re.findall(r"[a-z0-9]+", text.lower())
        if not toks:
            assert np.allclose(got[i], 0.0)
            continue
        ids = infer._hash_tokens(np.array(toks, dtype="<U16")) % np.uint64(len(w))
        v = w[ids.astype(np.int64)].mean(axis=0)
        v = v / np.linalg.norm(v)
        assert np.allclose(got[i], v, atol=1e-6)
    # identical captions embed identically; distinct ones don't
    assert np.allclose(got[0], got[1])
    assert not np.allclose(got[0], got[2])
    # composes with ANN: doc 1 is doc 0's nearest non-self neighbor
    from ssb_sgis_ray.ops import ann as ann_ops

    emb = pa.table(
        {"vec_id": pa.array([0, 1, 2], pa.int64()),
         "embedding": pa.array(list(got[:3]), pa.list_(pa.float64()))}
    )
    queries = {"id": np.array([0]), "matrix": got[:1]}
    top = ann_ops.ann_bruteforce(rd.from_arrow(emb), queries, k=2).to_pandas()
    top = top.sort_values("ann_rank")
    assert list(top["vec_id"]) == [0, 1]


def _oracle_con_with_docs(texts):
    import duckdb

    con = duckdb.connect()
    con.execute("CREATE TABLE documents(doc_id BIGINT, text VARCHAR)")
    con.executemany(
        "INSERT INTO documents VALUES (?, ?)", list(enumerate(texts))
    )
    return con


def test_simhash_sql_oracle_matches_kernel():
    """The registry's SQL_SIMHASH must replay simhash64_batch bit-for-bit
    (recursive-CTE FNV-1a + per-bit majority votes). Guards the oracle
    math without needing the driver's gate."""
    from ssb_sgis_ray.queries import SQL_SIMHASH

    texts = [
        "the quick brown fox 123",
        "THE QUICK BROWN FOX 123",   # case-folds to the same hash
        "paddington",
        "",                           # zero tokens -> 0
        "a",                          # single 1-char token
        "x9 " * 40,
    ]
    con = _oracle_con_with_docs(texts)
    got = (
        con.execute(SQL_SIMHASH).df().sort_values("doc_id")["simhash"].to_numpy()
    )
    want = dedup_ops.simhash64_batch(texts)
    assert (got == want).all()
    assert got[0] == got[1]
    assert got[3] == 0


def test_minhash_sql_oracles_match_kernels():
    """SQL_MINHASH_BANDS replays MinHashStage exactly (wrapping-uint64
    HUGEINT arithmetic); SQL_MINHASH_PAIRS's integer Jaccard filter
    (3*inter >= na+nb) equals the engine's float >= 0.5 threshold."""
    import pyarrow as pa

    from ssb_sgis_ray.queries import SQL_MINHASH_BANDS, SQL_MINHASH_PAIRS

    base = "large language models eat the world one token at a time "
    texts = [
        base * 6,
        base * 6 + "tail drift",      # near-dup of 0
        "completely different content about marine biology " * 7,
        "tiny",                        # shorter than one shingle -> padded
        base * 6,                      # exact dup of 0
    ]
    con = _oracle_con_with_docs(texts)

    got_bands = (
        con.execute(SQL_MINHASH_BANDS)
        .df()
        .sort_values(["doc_id", "band_id"])
        .reset_index(drop=True)
    )
    stage = dedup_ops.MinHashStage()
    want_bands = (
        stage(pa.table({"doc_id": list(range(len(texts))), "text": texts}))
        .to_pandas()
        .sort_values(["doc_id", "band_id"])
        .reset_index(drop=True)
    )
    assert (got_bands["band_hash"].to_numpy()
            == want_bands["band_hash"].to_numpy()).all()

    pairs = set(
        map(tuple, con.execute(SQL_MINHASH_PAIRS).df().to_numpy().tolist())
    )
    assert (0, 4) in pairs            # exact dup always survives verify
    assert (0, 1) in pairs            # near-dup above 0.5 Jaccard
    assert not any(2 in p for p in pairs)   # unrelated doc never pairs
    for a, b in pairs:
        assert dedup_ops.ngram_jaccard(texts[a], texts[b]) >= 0.5


def test_hll_sql_oracle_matches_sketch():
    """SQL_HLL_DISTINCT replays hll_registers/hll_estimate to the same
    rounded integer: the float sum is replaced by the exact integer sum
    S = sum(2^(53-reg)), so the SQL and numpy estimates are bit-stable."""
    import duckdb
    import numpy as np

    from ssb_sgis_ray.ops import sketch as sk
    from ssb_sgis_ray.queries import SQL_HLL_DISTINCT

    rng = np.random.RandomState(7)
    for n in (3, 200, 5000):
        vals = rng.randint(0, 1 << 40, size=n).astype(np.int64)
        con = duckdb.connect()
        con.execute("CREATE TABLE events(user_id BIGINT)")
        con.register("_v", __import__("pandas").DataFrame({"user_id": vals}))
        con.execute("INSERT INTO events SELECT user_id FROM _v")
        got = con.execute(SQL_HLL_DISTINCT).fetchone()[0]
        want = int(round(sk.hll_estimate(sk.hll_registers(vals))))
        assert got == want, (n, got, want)


def test_ngram_jaccard_exact_join_matches_bruteforce(ray_session):
    """Prefix-filtered exact similarity join == all-pairs brute force
    (recall 1 is the contract that distinguishes it from the MinHash
    LSH path), on a corpus with exact dups, near dups straddling the
    threshold, and sub-shingle texts."""
    import ray.data as rd

    base = "distributed systems shuffle data across the network " * 4
    texts = [
        base,
        base + "with backpressure",                  # J >= 0.5 vs 0
        "completely unrelated text about gardening " * 5,
        base,                                        # exact dup of 0
        base[: len(base) // 2] + "totally different second half "
        "that pushes jaccard well below the threshold " * 3,
        "tiny",
    ]
    docs = rd.from_arrow(
        pa.table({"doc_id": list(range(len(texts))), "text": texts})
    )
    got = (
        dedup_ops.ngram_jaccard_pairs(docs, threshold=0.5, k=5)
        .to_pandas()[["id_a", "id_b"]]
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    want = sorted(
        (a, b)
        for a in range(len(texts))
        for b in range(a + 1, len(texts))
        if dedup_ops.ngram_jaccard(texts[a], texts[b]) >= 0.5
    )
    assert list(map(tuple, got.to_numpy().tolist())) == want
    assert (0, 3) in want and (0, 1) in want
    assert not any(2 in p or 4 in p for p in want)


def test_ngram_jaccard_distributed_df_fallback_agrees(ray_session):
    """All three plans — dense-universe matmul, prefix-filter with df
    broadcast, and prefix-filter with the df hash-join fallback — must
    emit the same pairs."""
    import ray.data as rd

    texts = [
        "alpha beta gamma delta epsilon zeta " * 6,
        "alpha beta gamma delta epsilon zeta " * 6 + "eta theta",
        "one two three four five six seven eight nine ten " * 4,
        "one two three four five six seven eight nine ten " * 4 + "!!",
    ]
    docs = rd.from_arrow(
        pa.table({"doc_id": list(range(len(texts))), "text": texts})
    )

    def run(df_limit, dense_bits):
        return sorted(
            map(tuple, dedup_ops.ngram_jaccard_pairs(
                docs, threshold=0.5, k=5, df_broadcast_limit=df_limit,
                dense_universe_bits=dense_bits,
            ).to_pandas()[["id_a", "id_b"]].to_numpy().tolist())
        )

    dense = run(10_000_000, 8192)        # dense-universe matmul path
    prefix = run(10_000_000, 0)          # prefix-filter, df broadcast
    fallback = run(0, 0)                 # prefix-filter, df hash join
    assert dense == prefix == fallback == [(0, 1), (2, 3)]


def test_stratified_sample_deterministic_and_exact(ray_session):
    """Per-key deterministic sample: equals the numpy brute force and is
    invariant under repartitioning (the reproducibility contract a
    streaming training-data pipeline needs — no RNG state anywhere)."""
    import ray.data as rd

    from ssb_sgis_ray.ops import sample as sample_ops
    from ssb_sgis_ray.ops.sketch import _hash64

    rng = np.random.RandomState(3)
    keys = rng.randint(0, 17, size=500).astype(np.int64)
    ids = rng.permutation(500).astype(np.int64)
    tbl = pa.table({"k": keys, "i": ids})

    def run(ds):
        out = sample_ops.stratified_sample(ds, "k", "i", 3).to_pandas()
        return sorted(map(tuple, out[["k", "i"]].to_numpy().tolist()))

    got = run(rd.from_arrow(tbl))
    got_repart = run(rd.from_arrow(tbl).repartition(13))

    h = _hash64(ids.view(np.uint64))
    want = []
    for k in np.unique(keys):
        m = keys == k
        order = np.lexsort((ids[m], h[m]))
        want += [(int(k), int(x)) for x in ids[m][order][:3]]
    assert got == got_repart == sorted(want)
    for k in np.unique(keys):
        assert sum(1 for a, _ in got if a == k) == min(3, int((keys == k).sum()))


def test_mixture_sample_deterministic_and_decorrelated(ray_session):
    """Multi-source mixing: equals the numpy brute force per source, is
    invariant under repartitioning, and the per-source salts decorrelate
    the coin flips — two sources sharing the SAME id universe keep
    different subsets (a row doesn't live or die in both)."""
    import ray.data as rd

    from ssb_sgis_ray.ops import sample as sample_ops
    from ssb_sgis_ray.ops.sample import GOLDEN64
    from ssb_sgis_ray.ops.sketch import _hash64

    ids = np.arange(1000, dtype=np.int64)
    tbl = pa.table({"i": ids})

    def run(parts):
        srcs = [
            ("a", rd.from_arrow(tbl).repartition(parts), "i", 1, 2),
            ("b", rd.from_arrow(tbl).repartition(parts), "i", 1, 2),
        ]
        out = sample_ops.mixture_sample(srcs).to_pandas()
        return sorted(map(tuple, out[["source", "rec_id"]].to_numpy().tolist()))

    got = run(1)
    assert got == run(7)

    want = []
    for j, name in enumerate(["a", "b"]):
        salt = np.uint64(((j + 1) * GOLDEN64) % (1 << 64))
        h = _hash64(ids.view(np.uint64) + salt)
        want += [(name, int(x)) for x in ids[h % np.uint64(2) < np.uint64(1)]]
    assert got == sorted(want)

    kept_a = {r for s, r in got if s == "a"}
    kept_b = {r for s, r in got if s == "b"}
    assert kept_a != kept_b  # salted flips are decorrelated
    # each leg's rate is a fair coin over 1000 ids
    assert 400 < len(kept_a) < 600 and 400 < len(kept_b) < 600


def test_duplicated_spans_differential_both_plans(ray_session):
    """Span-granular exact substring dedup: equals the tuple-level brute
    force, identical in the broadcast and distributed-fallback regimes,
    invariant under repartitioning; docs shorter than k get (0, 0)."""
    import re

    import ray.data as rd

    from ssb_sgis_ray.ops import dedup as dedup_ops

    texts = [
        "a b c d e f g h i j",      # shares the 8-span abcdefgh with doc 1
        "a b c d e f g h x y",
        "p q r s t u v w",          # unique single span
        "p q r s t u v w",          # exact dup of doc 2
        "m n",                      # too short: 0 spans
        "z z z z z z z z z z z",    # self-repeating: all spans identical
    ]
    tbl = pa.table({"doc_id": pa.array(range(6), pa.int64()),
                    "text": pa.array(texts, pa.string())})

    spans = {}
    per = {}
    tok = re.compile(r"[a-z0-9]+")
    for d, t in enumerate(texts):
        ts = tok.findall(t.lower())
        ss = [tuple(ts[i:i + 8]) for i in range(max(0, len(ts) - 7))]
        per[d] = ss
        for s in ss:
            spans[s] = spans.get(s, 0) + 1
    want = sorted(
        (d, len(ss), sum(1 for s in ss if spans[s] >= 2))
        for d, ss in per.items()
    )

    def run(parts, limit):
        out = dedup_ops.duplicated_spans(
            rd.from_arrow(tbl).repartition(parts), k=8,
            dup_broadcast_limit=limit,
        ).to_pandas()
        return sorted(map(tuple, out[["doc_id", "n_spans", "n_dup_spans"]]
                          .to_numpy().tolist()))

    assert run(1, 2_000_000) == want
    assert run(5, 2_000_000) == want
    assert run(5, 0) == want  # forced distributed semi-join fallback


def test_mix64_sql_chain_parity_random_including_negatives():
    """The HUGEINT mix64 chain (shared by the HLL and stratified-sample
    oracles) equals sketch._hash64 bit-for-bit on random int64 values,
    including negatives (wrapped to uint64 on both sides)."""
    import duckdb
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from ssb_sgis_ray.ops.sketch import _hash64
    from ssb_sgis_ray.queries import _M64_SQL, _sql_mul64, _sql_xs33

    v = f"((CAST(x AS HUGEINT) % {_M64_SQL}) + {_M64_SQL}) % {_M64_SQL}"
    sql_tail = f"""
h0 AS (SELECT x, {_sql_xs33(v)} AS h FROM vals),
h1 AS (SELECT x, {_sql_mul64('h', 0xFF51AFD7ED558CCD)} AS h FROM h0),
h2 AS (SELECT x, {_sql_xs33('h')} AS h FROM h1),
h3 AS (SELECT x, {_sql_mul64('h', 0xC4CEB9FE1A85EC53)} AS h FROM h2),
h4 AS (SELECT x, {_sql_xs33('h')} AS h FROM h3)
SELECT x, CAST(h AS VARCHAR) AS h FROM h4 ORDER BY x
"""

    @given(st.lists(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
                    min_size=1, max_size=40, unique=True))
    @settings(max_examples=25, deadline=None)
    def check(xs):
        con = duckdb.connect()
        con.execute("CREATE TABLE vals(x BIGINT)")
        con.executemany("INSERT INTO vals VALUES (?)", [(x,) for x in xs])
        got = con.execute("WITH " + sql_tail).df()
        arr = np.array(sorted(xs), dtype=np.int64)
        want = _hash64(arr.view(np.uint64))
        sql_h = np.array([int(v) for v in got["h"]], dtype=object)
        assert all(int(a) == int(b) for a, b in zip(sql_h, want))

    check()


def test_simhash_sql_parity_random_ascii():
    """SQL_SIMHASH == simhash64_batch on random ASCII corpora (random
    token lengths exercise every FNV recursion depth)."""
    import duckdb
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from ssb_sgis_ray.queries import SQL_SIMHASH

    token = st.text(alphabet="abcz019 .,!", min_size=0, max_size=12)

    @given(st.lists(token, min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def check(texts):
        con = duckdb.connect()
        con.execute("CREATE TABLE documents(doc_id BIGINT, text VARCHAR)")
        con.executemany("INSERT INTO documents VALUES (?, ?)",
                        list(enumerate(texts)))
        got = (con.execute(SQL_SIMHASH).df()
               .sort_values("doc_id")["simhash"].to_numpy())
        want = dedup_ops.simhash64_batch(texts)
        assert (got == want).all()

    check()


def test_gram_pass_and_pca_match_numpy(ray_session):
    """The one-pass Gram statistics equal the brute-force Q^T Q / column
    sums / count bitwise (integer domain), are partition-invariant, and
    pca_components reproduces numpy's full eigendecomposition of the
    sample covariance of the quantized vectors (sign-fixed)."""
    import ray.data as rd

    from ssb_sgis_ray.ops import cluster as cluster_ops

    rng = np.random.RandomState(7)
    n, d = 300, 12
    m = rng.uniform(-0.5, 0.5, size=(n, d)).astype(np.float32)
    tbl = pa.table({"vec_id": pa.array(range(n), pa.int64()),
                    "embedding": pa.array(list(m), pa.list_(pa.float32()))})
    q = np.floor(m.astype(np.float64) * 1024.0)

    for parts in (1, 9):
        G, s, cnt = cluster_ops.gram_pass(
            rd.from_arrow(tbl).repartition(parts), bits=10)
        assert cnt == n
        assert (G == (q.T @ q).astype(np.int64)).all()
        assert (s == q.sum(axis=0).astype(np.int64)).all()

    comps, ev = cluster_ops.pca_components(
        rd.from_arrow(tbl), bits=10, n_components=4)
    cov = np.cov(q, rowvar=False)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:4]
    want = v[:, order].T
    for r in want:
        jm = int(np.abs(r).argmax())
        if r[jm] < 0:
            r *= -1.0
    assert np.allclose(ev, w[order])
    assert np.allclose(comps, want)


def test_kmeans_distributed_matches_local_reference(ray_session):
    """The Lloyd AggregateFn pass must equal a plain local loop BITWISE on
    integer-valued vectors: partial float64 sums of integers < 2^53 are
    exact under any tree-merge order, means are the same exact ratio, and
    the argmax tie rule (lowest cluster) is shared. Also pins empty-cluster
    preservation and partition-count invariance."""
    import ray.data as rd

    from ssb_sgis_ray.ops import cluster as cluster_ops

    rng = np.random.RandomState(11)
    n, d, k = 400, 16, 5
    m = rng.randint(-50, 51, size=(n, d)).astype(np.float64)
    ids = np.arange(n, dtype=np.int64)

    def local_kmeans(m, init, iters):
        cent = init.astype(np.float64).copy()
        nrm = np.linalg.norm(cent, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        cent = cent / nrm
        for _ in range(iters):
            assign = (m @ cent.T).argmax(axis=1)
            for c in range(len(cent)):
                sel = m[assign == c]
                if len(sel):
                    cent[c] = sel.sum(axis=0) / len(sel)
            nrm = np.linalg.norm(cent, axis=1, keepdims=True)
            nrm[nrm == 0] = 1.0
            cent = cent / nrm
        return cent

    init = m[:k]
    want_cent = local_kmeans(m, init, iters=4)
    want_assign = (m @ want_cent.T).argmax(axis=1)

    for nparts in (1, 7):
        ds = rd.from_arrow(
            pa.table({"vec_id": ids, "embedding": list(map(list, m))})
        ).repartition(nparts)
        cent = cluster_ops.kmeans_iterate(ds, init, iters=4)
        np.testing.assert_array_equal(cent, want_cent)
        out = (
            cluster_ops.kmeans_assign(ds, cent)
            .to_pandas()
            .sort_values("vec_id")
        )
        np.testing.assert_array_equal(out["cluster"].to_numpy(), want_assign)

    # min-id init + full kmeans() wrapper: same answer as explicit init
    ds = rd.from_arrow(
        pa.table({"vec_id": ids, "embedding": list(map(list, m))})
    ).repartition(5)
    cent2, assign_ds = cluster_ops.kmeans(ds, k=k, iters=4)
    np.testing.assert_array_equal(cent2, want_cent)

    # empty-cluster preservation: a far-away init centroid nobody selects
    # keeps its (normalized) position instead of collapsing to NaN
    far = np.zeros((1, d))
    far[0, 0] = 1e9
    init3 = np.vstack([m[:2], -far])
    cent3 = cluster_ops.kmeans_iterate(ds, init3, iters=2)
    assert not np.isnan(cent3).any()
    np.testing.assert_allclose(np.linalg.norm(cent3, axis=1), 1.0)

    # empty blocks (a filter that empties some partitions) must not crash
    # the aggregate pass or the assignment stage
    import pyarrow.compute as _pc

    ds_empty = ds.map_batches(
        lambda b: b.filter(_pc.less(b["vec_id"], 100)),
        batch_format="pyarrow",
    )
    cent4 = cluster_ops.kmeans_iterate(ds_empty, init, iters=1)
    assert not np.isnan(cent4).any()
    got = cluster_ops.kmeans_assign(ds_empty, cent4).to_pandas()
    assert len(got) == 100

    # quantized assignment refuses float centroids loudly (silent
    # truncation would break the bit-identical-argmax contract)
    with pytest.raises(ValueError, match="integer-valued"):
        cluster_ops.kmeans_assign(ds, want_cent, quantize=512)


def test_kmeans_quantized_assignment_tie_rule():
    """floor(e·2^b) quantization is exact (power-of-two scaling) and exact
    integer ties resolve to the lowest cluster id."""
    from ssb_sgis_ray.ops import cluster as cluster_ops

    m = np.array([[0.25, 0.25]])
    cent = np.array([[1, 1], [2, 2]], dtype=np.int64)  # colinear: exact tie
    q = np.floor(m * 4).astype(np.int64)
    assert (q == np.array([[1, 1]])).all()
    assert cluster_ops.assign_clusters(q, cent.astype(np.float64))[0] == 1
    # tie in the INTEGER world: sims (2, 4) -> no tie here; force one
    cent_tie = np.array([[1, 0], [0, 1]], dtype=np.float64)
    assert cluster_ops.assign_clusters(q, cent_tie)[0] == 0


def test_keep_best_per_cluster_paths_agree(ray_session, monkeypatch):
    """Quality-aware keep rule: argmax by (score DESC, id ASC) per
    component; broadcast and distributed-join paths return identical
    rows; singletons are never emitted."""
    import ray.data as rd

    # two clusters + a singleton: {1,2,3} scores (5, 9, 9) -> keep 2
    # (tie between 2 and 3 at 9 -> lowest id); {10, 11} scores (1, 4)
    # -> keep 11; 99 is clustered with nobody (absent from pairs)
    pairs = rd.from_arrow(pa.table({
        "id_a": pa.array([1, 2, 10], pa.int64()),
        "id_b": pa.array([2, 3, 11], pa.int64()),
    }))
    from ssb_sgis_ray.ops import dissolve as dis

    labels = dis.connected_components(pairs)
    quality = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 10, 11, 99], pa.int64()),
        "n_tokens": pa.array([5, 9, 9, 1, 4, 100], pa.int64()),
    }))
    want = {1: 2, 2: 2, 3: 2, 10: 11, 11: 11}

    got = dedup_ops.keep_best_per_cluster(labels, quality).to_pandas()
    assert dict(zip(got["doc_id"], got["keep_id"])) == want

    # distributed fallback (limits forced to zero) must agree exactly
    monkeypatch.setattr(dedup_ops, "BROADCAST_DOCS_LIMIT", 0)
    from ssb_sgis_ray.ops import lookup as lookup_ops

    monkeypatch.setattr(lookup_ops, "BROADCAST_LOOKUP_LIMIT", 0)
    got2 = dedup_ops.keep_best_per_cluster(
        dis.connected_components(pairs), quality
    ).to_pandas()
    assert dict(zip(got2["doc_id"], got2["keep_id"])) == want


def test_sequence_pack_matches_local_scan(ray_session):
    """Distributed prefix-sum packing must equal the single-process scan
    for any partitioning and range_size, including zero-token docs and
    docs longer than the budget (which span packs)."""
    import ray.data as rd

    texts = {
        0: "one two three",            # 3 tokens
        1: "",                          # 0 tokens
        2: "a " * 700,                  # 700 tokens -> spans two 512-packs
        3: "b c d e",                   # 4
        7: "word " * 520,               # 520 (doc_id gap on purpose)
        8: "x",                         # 1
    }
    budget = 512
    ids = sorted(texts)
    n = {i: len(texts[i].split()) for i in ids}
    off, want = 0, {}
    for i in ids:
        pf = off // budget
        pl = (off + n[i] - 1) // budget if n[i] else pf
        want[i] = (n[i], off, pf, pl)
        off += n[i]

    df = pd.DataFrame({"doc_id": ids, "text": [texts[i] for i in ids]})
    for nparts, rs in ((1, 4096), (3, 4), (6, 2)):
        ds = rd.from_pandas(df).repartition(nparts)
        out = text_ops.sequence_pack(
            ds, budget=budget, range_size=rs
        ).to_pandas().sort_values("doc_id")
        got = {
            r.doc_id: (r.n_tokens, r.tok_offset, r.pack_first, r.pack_last)
            for r in out.itertuples()
        }
        assert got == want, (nparts, rs)


def test_decontaminate_planted_overlap(ray_session):
    """A doc sharing a 5-gram window with the eval set is flagged; a
    disjoint-vocabulary doc is not; eval members flag themselves; n_hits
    counts DISTINCT shared shingles exactly (verified against numpy)."""
    import ray.data as rd

    ev_text = "the secret benchmark answer is forty two"
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [
            "prefix words then the secret benchmark answer leaks here",
            "zzz qqq www eee rrr ttt yyy uuu",   # disjoint alphabet
            ev_text,                              # the eval doc itself
        ],
    })
    ev = pd.DataFrame({"doc_id": [100], "text": [ev_text]})
    out = (
        dedup_ops.decontaminate(rd.from_pandas(docs), rd.from_pandas(ev))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["contaminated"].tolist() == [1, 0, 1]
    u = dedup_ops._shingle_hashes(ev_text, 5)
    for i, t in enumerate(docs["text"]):
        want = len(np.intersect1d(dedup_ops._shingle_hashes(t, 5), u))
        assert out.loc[i, "n_hits"] == want
    # empty eval set: nothing flagged, nothing crashes
    out2 = dedup_ops.decontaminate(
        rd.from_pandas(docs),
        rd.from_pandas(pd.DataFrame({"doc_id": [], "text": []})),
    ).to_pandas()
    assert (out2["contaminated"] == 0).all()


def test_repetition_stats_hand_cases():
    """Token/bigram repetition counters on hand-checkable docs: a
    boilerplate doc dominated by one bigram, an all-distinct doc, the
    empty doc, and a single-token doc (no bigram)."""
    st = text_ops.RepetitionStats()
    out = st(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "buy now buy now buy now and save",   # "buy now" x3
            "alpha beta gamma delta",
            "",
            "solo",
        ]),
    })).to_pandas().set_index("doc_id")
    assert out.loc[1].tolist() == [8, 4, 3, 3]   # buy x3, "buy now" x3
    assert out.loc[2].tolist() == [4, 4, 1, 1]
    assert out.loc[3].tolist() == [0, 0, 0, 0]
    assert out.loc[4].tolist() == [1, 1, 1, 0]


def test_budget_select_matches_brute_force(ray_session):
    """Exclusive-prefix budget selection equals the sorted brute force
    on random integer data — including zero-weight docs, a budget that
    lands mid-bucket, exhausted keys, and keys whose total fits whole —
    and is invariant under repartitioning."""
    import ray.data as rd

    from ssb_sgis_ray.ops import select as select_ops

    rng = np.random.RandomState(13)
    n = 600
    keys = np.array(["s%d" % k for k in rng.randint(0, 5, size=n)])
    q = rng.randint(-3, 4, size=n).astype(np.int64)
    w = rng.randint(0, 9, size=n).astype(np.int64)  # zero weights included
    ids = rng.permutation(n).astype(np.int64)
    tbl = pa.table({"k": pa.array(keys), "q": pa.array(q),
                    "w": pa.array(w), "i": pa.array(ids)})

    budget = 120
    want = set()
    for kk in np.unique(keys):
        m = keys == kk
        order = np.lexsort((ids[m], -q[m]))
        ww = w[m][order]
        before = np.r_[0, np.cumsum(ww)[:-1]]
        sel_ids = ids[m][order][before < budget]
        want |= {(kk, int(x)) for x in sel_ids}

    for parts in (1, 11):
        out = select_ops.budget_select(
            rd.from_arrow(tbl).repartition(parts), budget=budget,
            key_col="k", quality_col="q", weight_col="w", id_col="i",
        ).to_pandas()
        got = set(map(tuple, out[["k", "i"]].to_numpy().tolist()))
        assert got == want

    # budget larger than any key's total: everything selected
    out = select_ops.budget_select(
        rd.from_arrow(tbl), budget=10**9, key_col="k",
        quality_col="q", weight_col="w", id_col="i",
    ).to_pandas()
    assert len(out) == n

    # exact exhaustion with a zero-weight tail: the strict exclusive-
    # prefix rule (sum of strictly-better < budget) must DROP the
    # zero-weight doc whose prefix equals the budget exactly, and keep
    # a zero-weight doc sorted before the bucket's weight
    tbl2 = pa.table({
        "k": pa.array(["s", "s", "s", "s"]),
        "q": pa.array([5, 5, 5, 4], type=pa.int64()),
        "w": pa.array([0, 800, 0, 3], type=pa.int64()),
        "i": pa.array([1, 2, 3, 4], type=pa.int64()),
    })
    out = select_ops.budget_select(
        rd.from_arrow(tbl2), budget=800, key_col="k",
        quality_col="q", weight_col="w", id_col="i",
    ).to_pandas()
    assert sorted(out["i"].astype(int)) == [1, 2]


def test_bigram_surprisal_matches_brute_force_and_plans_agree(ray_session):
    """Integer bigram surprisal equals the numpy brute force (string-keyed
    counts, exact bit_length log2); the broadcast plan and the forced
    all-distributed join plan return identical tables; docs with < 2
    tokens are absent; repartitioning doesn't change the result."""
    import ray.data as rd

    from ssb_sgis_ray.ops import text as text_ops

    rng = np.random.RandomState(7)
    vocab = ["aa", "bb", "cc", "dd", "ee"]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(0, 12)))
             for _ in range(80)]
    texts[3] = ""            # no tokens
    texts[4] = "solo"        # one token -> no bigram
    ids = np.arange(80, dtype=np.int64)

    # brute force on token strings
    from collections import Counter
    cs, cb = Counter(), Counter()
    per_doc = {}
    for i, t in enumerate(texts):
        toks = t.split()
        bgs = list(zip(toks[:-1], toks[1:]))
        per_doc[i] = bgs
        for a, b in bgs:
            cs[a] += 1
            cb[(a, b)] += 1
    want = {}
    for i, bgs in per_doc.items():
        if not bgs:
            continue
        s = sum((cs[a].bit_length() - 1) - (cb[(a, b)].bit_length() - 1)
                for a, b in bgs)
        want[i] = (len(bgs), s)

    tbl = pa.table({"doc_id": pa.array(ids),
                    "text": pa.array(texts)})
    for parts, limit in ((1, None), (7, None), (7, 0)):
        kw = {} if limit is None else {"broadcast_limit": limit}
        out = text_ops.bigram_surprisal(
            rd.from_arrow(tbl).repartition(parts), **kw
        ).to_pandas().set_index("doc_id").sort_index()
        got = {int(i): (int(r["n_bigrams"]), int(r["surprisal"]))
               for i, r in out.iterrows()}
        assert got == want, f"parts={parts} limit={limit}"
    assert 3 not in want and 4 not in want


def test_semdedup_matches_brute_force(ray_session):
    """SemDeDup keep-list equals the numpy brute force under any
    partitioning, including a planted pair sitting EXACTLY on the 0.4
    threshold (x=(2,1,0), y=(1,0,2): S=2, |x|^2=|y|^2=5 -> 25*S^2 ==
    4*nx*ny) — the >= boundary must drop the larger id on both sides."""
    import ray.data as rd

    from ssb_sgis_ray.ops import cluster as cluster_ops

    rng = np.random.RandomState(11)
    d = 3
    qm = rng.randint(-4, 5, size=(60, d)).astype(np.int64)
    qm[qm.sum(axis=1) == 0, 0] += 1      # avoid zero vectors
    qm[10] = (2, 1, 0)                   # exact-threshold pair
    qm[40] = (1, 0, 2)
    ids = np.arange(60, dtype=np.int64)
    cent = np.array([[1, 0, 0], [0, 0, 1]], dtype=np.int64)

    # brute force on the integer predicate
    a = (qm @ cent.T).argmax(axis=1)
    want = set()
    for c in range(len(cent)):
        sel = np.flatnonzero(a == c)
        x, i = qm[sel], ids[sel]
        n = (x * x).sum(axis=1)
        S = x @ x.T
        P = (S > 0) & (25 * S * S >= 4 * np.outer(n, n))
        P &= np.arange(len(i))[None, :] < np.arange(len(i))[:, None]
        want |= {(int(v), int(c)) for v in i[~P.any(axis=1)]}

    emb = (qm.astype(np.float64) / 512.0)  # dyadic: floor(e*512) == qm
    tbl = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(emb.ravel().astype(np.float32)), d
        ).cast(pa.list_(pa.float32())),
    })
    for parts in (1, 9):
        out = cluster_ops.semdedup_keep(
            rd.from_arrow(tbl).repartition(parts), cent,
            threshold=(2, 5), quantize=512, block=7,
        ).to_pandas()
        got = set(zip(out["vec_id"].astype(int), out["cluster"].astype(int)))
        assert got == want, f"parts={parts}"
    # boundary semantics in isolation (one cluster, three vectors):
    # the exact-threshold pair keeps the smaller id and drops the larger;
    # the S=0 vector survives (squaring must not resurrect sign)
    mini = np.array([[2, 1, 0], [1, 0, 2], [-1, 2, -2]], dtype=np.int64)
    tbl2 = pa.table({
        "vec_id": pa.array(np.arange(3, dtype=np.int64)),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array((mini / 512.0).ravel().astype(np.float32)), d
        ).cast(pa.list_(pa.float32())),
    })
    out2 = cluster_ops.semdedup_keep(
        rd.from_arrow(tbl2), np.array([[1, 0, 0]], dtype=np.int64),
        threshold=(2, 5), quantize=512,
    ).to_pandas()
    assert sorted(out2["vec_id"].astype(int)) == [0, 2]


def test_quality_buckets_matches_sorted_brute_force(ray_session):
    """Bucket thresholds equal the exact ceil(i*n/3)-th smallest
    surprisal values from a numpy sort; membership is the pure value
    rule #{thresholds <= s}; result invariant under repartitioning; a
    single-doc corpus lands in the top bucket."""
    import ray.data as rd

    from ssb_sgis_ray.ops import text as text_ops

    rng = np.random.RandomState(5)
    vocab = ["aa", "bb", "cc", "dd", "ee", "ff"]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(2, 30)))
             for _ in range(90)]
    ids = np.arange(90, dtype=np.int64)
    tbl = pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})

    base = text_ops.bigram_surprisal(
        rd.from_arrow(tbl)).to_pandas().set_index("doc_id")
    s = base["surprisal"].to_numpy()
    n = len(s)
    sv = np.sort(s)
    t1, t2 = sv[(n + 2) // 3 - 1], sv[(2 * n + 2) // 3 - 1]
    want = {int(i): (int(base.loc[i, "surprisal"]),
                     int(base.loc[i, "surprisal"] >= t1)
                     + int(base.loc[i, "surprisal"] >= t2))
            for i in base.index}

    for parts in (1, 8):
        out = text_ops.quality_buckets(
            rd.from_arrow(tbl).repartition(parts)
        ).to_pandas().set_index("doc_id")
        got = {int(i): (int(r["surprisal"]), int(r["bucket"]))
               for i, r in out.iterrows()}
        assert got == want, f"parts={parts}"

    solo = pa.table({"doc_id": pa.array([7], pa.int64()),
                     "text": pa.array(["aa bb aa"])})
    out = text_ops.quality_buckets(rd.from_arrow(solo)).to_pandas()
    assert out["bucket"].tolist() == [2]


def test_tfidf_keywords_matches_brute_force(ray_session):
    """Top-k TF-IDF equals the string-keyed brute force — including
    score ties broken token-asc, docs with fewer than k distinct tokens
    (emit what exists), token-less docs absent — and is invariant under
    repartitioning."""
    import ray.data as rd

    from ssb_sgis_ray.ops import text as text_ops

    rng = np.random.RandomState(3)
    vocab = ["ant", "bee", "cat", "dog", "elk", "fox"]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(0, 15)))
             for _ in range(70)]
    texts[0] = ""          # absent from output
    texts[1] = "ant"       # single keyword
    texts[2] = "bee cat"   # tf tie -> idf then token order decides
    ids = np.arange(70, dtype=np.int64)

    from collections import Counter
    docs_tok = [t.split() for t in texts]
    df = Counter()
    for toks in docs_tok:
        for w in set(toks):
            df[w] += 1
    n = sum(1 for toks in docs_tok if toks)
    want = set()
    for i, toks in enumerate(docs_tok):
        if not toks:
            continue
        tf = Counter(toks)
        scored = sorted(
            ((w, c * ((n.bit_length() - 1) - (df[w].bit_length() - 1)))
             for w, c in tf.items()),
            key=lambda x: (-x[1], x[0]))
        for r, (w, s) in enumerate(scored[:3], 1):
            want.add((i, r, w, s))

    tbl = pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})
    for parts in (1, 8):
        out = text_ops.tfidf_keywords(
            rd.from_arrow(tbl).repartition(parts), k=3).to_pandas()
        got = set(zip(out["doc_id"].astype(int), out["rank"].astype(int),
                      out["token"], out["tfidf"].astype(int)))
        assert got == want, f"parts={parts}"
    assert not any(d == 0 for d, *_ in want)
    assert sum(1 for d, *_ in want if d == 1) == 1


def test_embedding_outliers_matches_brute_force(ray_session):
    """Outlier set equals the numpy brute force: argmax-inner-product
    assignment (ties lowest cluster), integer dist2, exact
    ceil(9n/10)-th smallest threshold, STRICT > (values equal to the
    threshold are kept); invariant under repartitioning."""
    import ray.data as rd

    from ssb_sgis_ray.ops import cluster as cluster_ops

    rng = np.random.RandomState(17)
    d = 4
    qm = rng.randint(-6, 7, size=(120, d)).astype(np.int64)
    ids = np.arange(120, dtype=np.int64)
    cent = np.array([[2, 0, -1, 1], [0, 3, 1, -2]], dtype=np.int64)

    S = qm @ cent.T
    a = S.argmax(axis=1)
    d2 = ((qm - cent[a]) ** 2).sum(axis=1)
    n = len(d2)
    t = np.sort(d2)[(9 * n + 9) // 10 - 1]
    want = {(int(i), int(c), int(x))
            for i, c, x in zip(ids[d2 > t], a[d2 > t], d2[d2 > t])}
    assert want and len(want) < n
    assert (d2 == t).any()  # threshold value present -> strictness matters

    emb = qm.astype(np.float64) / 512.0
    tbl = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(emb.ravel().astype(np.float32)), d
        ).cast(pa.list_(pa.float32())),
    })
    for parts in (1, 10):
        out = cluster_ops.embedding_outliers(
            rd.from_arrow(tbl).repartition(parts), cent
        ).to_pandas()
        got = {(int(r["vec_id"]), int(r["cluster"]), int(r["dist2"]))
               for _, r in out.iterrows()}
        assert got == want, f"parts={parts}"


def test_top_bigrams_matches_brute_force(ray_session):
    """Exact top-k adjacent pairs equal the Counter brute force with
    (cnt desc, pair asc) ties, under any partitioning; doc boundaries
    contribute no cross-document pairs."""
    import ray.data as rd

    from collections import Counter

    from ssb_sgis_ray.ops import text as text_ops

    rng = np.random.RandomState(23)
    vocab = ["aa", "bb", "cc"]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(0, 10)))
             for _ in range(60)]
    texts[0] = "aa"      # no pair
    texts[1] = ""        # no tokens
    cnt = Counter()
    for t in texts:
        toks = t.split()
        cnt.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
    want = sorted(cnt.items(), key=lambda x: (-x[1], x[0]))[:5]

    tbl = pa.table({"doc_id": pa.array(np.arange(60, dtype=np.int64)),
                    "text": pa.array(texts)})
    for parts in (1, 9):
        out = text_ops.top_bigrams(rd.from_arrow(tbl).repartition(parts), k=5)
        got = list(zip(out["pair"], out["cnt"].astype(int)))
        assert got == want, f"parts={parts}"


def test_dsir_select_matches_brute_force(ray_session):
    """dsir_select == the brute-force hashed-bigram importance ratio
    under any partitioning; docs with < 2 tokens are absent; a doc AT
    the threshold is kept; target-language docs outrank the rest on
    average (the published method's point)."""
    import ray.data as rd

    from ssb_sgis_ray.ops import text as text_ops
    from ssb_sgis_ray.ops.dedup import hash64_str_batch

    rng = np.random.RandomState(7)
    en_vocab = ["the", "quick", "fox", "jumps", "over"]
    de_vocab = ["der", "schnelle", "fuchs", "springt", "ueber"]
    rows = []
    for i in range(80):
        lang = "en" if i % 2 == 0 else "de"
        vocab = en_vocab if lang == "en" else de_vocab
        n = rng.randint(0, 12)
        rows.append((i, " ".join(rng.choice(vocab, size=n)), lang))
    rows[3] = (3, "solo", "de")   # 1 token -> no bigram -> absent
    NB = 64

    # brute force
    def buckets(text):
        toks = text.split()
        if len(toks) < 2:
            return np.empty(0, np.int64)
        h = hash64_str_batch(toks)
        bh = (h[:-1] * np.uint64(257) + h[1:]) % np.uint64(NB)
        return bh.astype(np.int64)

    ct = np.zeros(NB, np.int64)
    cr = np.zeros(NB, np.int64)
    for _, text, lang in rows:
        b = buckets(text)
        np.add.at(cr, b, 1)
        if lang == "en":
            np.add.at(ct, b, 1)

    def flog(x):
        return np.int64(np.searchsorted(2 ** np.arange(63, dtype=np.int64),
                                        x, side="right") - 1)

    want = {}
    for did, text, lang in rows:
        b = buckets(text)
        if not len(b):
            continue
        v = [(flog(ct[x] + 1) - flog(ct.sum() + 1))
             - (flog(cr[x] + 1) - flog(cr.sum() + 1)) for x in b]
        want[did] = (len(b), int(sum(v)), lang)
    thr = sorted(w for _, w, _ in want.values())[len(want) // 2]  # attained

    tbl = pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "text": pa.array([r[1] for r in rows]),
                    "lang": pa.array([r[2] for r in rows])})
    for parts in (1, 7):
        out = text_ops.dsir_select(
            rd.from_arrow(tbl).repartition(parts), target_lang="en",
            num_buckets=NB, threshold=thr).to_pandas()
        assert len(out) == len(want), parts
        hit = False
        for _, r in out.iterrows():
            nb, lw, _ = want[int(r["doc_id"])]
            assert (int(r["n_bigrams"]), int(r["logw"])) == (nb, lw)
            assert bool(r["kept"]) == (lw >= thr)
            hit = hit or lw == thr
        assert hit
    en_mean = np.mean([w / n for n, w, l in want.values() if l == "en"])
    de_mean = np.mean([w / n for n, w, l in want.values() if l == "de"])
    assert en_mean > de_mean


def test_ann_pq_matches_brute_force(ray_session):
    """PQ encode + ADC scan equals the local brute-force computation of
    the same quantized metric under any partitioning; duplicated vectors
    tie on adist and resolve by vec_id ascending; k caps the output."""
    import ray.data as rd

    from ssb_sgis_ray.ops import ann as ann_ops

    rng = np.random.RandomState(3)
    n, dim, m, ksub, k = 120, 64, 8, 16, 7
    emb = rng.uniform(-0.6, 0.6, size=(n, dim))
    emb[5] = emb[4]  # exact duplicate -> adist tie, vec_id tiebreak
    cb = ann_ops.pq_codebooks(dim, m, ksub)
    d = np.arange(dim, dtype=np.int64)
    qm = np.stack([(d * 37 + qid * 101) % 1025 - 512 for qid in (0, 1)])

    # brute force
    v = np.floor(emb * 512.0).astype(np.int64).reshape(n, m, dim // m)
    codes = np.empty((n, m), np.int64)
    for s in range(m):
        d2 = ((v[:, s, :, None] - cb[s].T[None, :, :]) ** 2).sum(axis=1)
        codes[:, s] = np.argmin(d2, axis=1)
    want = {}
    for qi in range(2):
        lut = ((qm[qi].reshape(m, -1)[:, None, :] - cb) ** 2).sum(axis=2)
        adist = lut[np.arange(m), codes].sum(axis=1)
        order = np.lexsort((np.arange(n), adist))[:k]
        want[qi] = [(int(vid), int(adist[vid]), r + 1)
                    for r, vid in enumerate(order)]
        assert adist[4] == adist[5]  # the planted tie is real

    tbl = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                    "embedding": pa.array(list(emb),
                                          pa.list_(pa.float64()))})
    for parts in (1, 6):
        out = ann_ops.ann_pq(
            rd.from_arrow(tbl).repartition(parts),
            {"id": np.array([0, 1]), "matrix": qm}, k=k, codebooks=cb,
        ).to_pandas()
        assert len(out) == 2 * k
        for qi in range(2):
            g = out[out["query_id"] == qi].sort_values("pq_rank")
            got = [(int(r["vec_id"]), int(r["adist"]), int(r["pq_rank"]))
                   for _, r in g.iterrows()]
            assert got == want[qi], (parts, qi)


def test_ann_ivfpq_matches_brute_force(ray_session):
    """IVF-PQ == the local brute force of the same quantized pipeline
    (coarse argmin, residual PQ, probed-list ADC) under any
    partitioning; vectors outside the probed lists never appear; at
    nprobe == nlist every vector is eligible."""
    import ray.data as rd

    from ssb_sgis_ray.ops import ann as ann_ops

    rng = np.random.RandomState(9)
    n, dim, m, nlist, k = 150, 64, 8, 8, 6
    emb = rng.uniform(-0.6, 0.6, size=(n, dim))
    cc = ann_ops.ivf_coarse_centroids(dim, nlist)
    cb = ann_ops.pq_codebooks(dim, m, 16)
    d = np.arange(dim, dtype=np.int64)
    qm = np.stack([(d * 37 + qid * 101) % 1025 - 512 for qid in (0, 1)])

    # local brute force
    v = np.floor(emb * 512.0).astype(np.int64)
    cd = ((v[:, None, :] - cc[None, :, :]) ** 2).sum(axis=2)
    lists = np.argmin(cd, axis=1)
    res = (v - cc[lists]).reshape(n, m, dim // m)
    codes = np.empty((n, m), np.int64)
    for s in range(m):
        d2 = ((res[:, s, :, None] - cb[s].T[None, :, :]) ** 2).sum(axis=1)
        codes[:, s] = np.argmin(d2, axis=1)

    def brute(nprobe):
        want = {}
        for qi in range(2):
            qd = ((qm[qi][None, :] - cc) ** 2).sum(axis=1)
            probe = np.lexsort((np.arange(nlist), qd))[:nprobe]
            sel = np.isin(lists, probe)
            sids = np.nonzero(sel)[0]
            adist = np.empty(len(sids), np.int64)
            for ii, vid in enumerate(sids):
                lut = ((qm[qi] - cc[lists[vid]]).reshape(m, -1)[:, None, :]
                       - cb) ** 2
                adist[ii] = lut.sum(axis=2)[np.arange(m), codes[vid]].sum()
            order = np.lexsort((sids, adist))[:k]
            want[qi] = [(int(sids[o]), int(adist[o]), r + 1)
                        for r, o in enumerate(order)]
        return want, set(np.nonzero(np.isin(
            lists, np.lexsort((np.arange(nlist),
                               ((qm[0][None, :] - cc) ** 2).sum(axis=1)))
            [:nprobe]))[0])

    tbl = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                    "embedding": pa.array(list(emb),
                                          pa.list_(pa.float64()))})
    for nprobe in (2, nlist):
        want, eligible_q0 = brute(nprobe)
        for parts in (1, 5):
            out = ann_ops.ann_ivfpq(
                rd.from_arrow(tbl).repartition(parts),
                {"id": np.array([0, 1]), "matrix": qm}, k=k,
                coarse=cc, codebooks=cb, nprobe=nprobe).to_pandas()
            for qi in range(2):
                g = out[out["query_id"] == qi].sort_values("pq_rank")
                got = [(int(r["vec_id"]), int(r["adist"]),
                        int(r["pq_rank"])) for _, r in g.iterrows()]
                assert got == want[qi], (nprobe, parts, qi)
            assert set(out[out["query_id"] == 0]["vec_id"]) <= eligible_q0


def test_pair_dedup_local_bigid_matches_packed():
    """_pair_dedup_local: the lexsort (full-int64) leg must return exactly
    the packed-fast-path result shifted — proves the r4 31-bit packing
    ceiling is gone without changing small-id behavior (r4 verdict #1)."""
    rng = np.random.default_rng(42)
    a = rng.integers(0, 1000, size=5000).astype(np.int64)
    b = rng.integers(0, 1000, size=5000).astype(np.int64)
    sa, sb = dedup_ops._pair_dedup_local(a, b)  # packed fast path
    big = np.int64(3_000_000_000)  # > 2^31: forces the lexsort leg
    la, lb = dedup_ops._pair_dedup_local(a + big, b + big)
    np.testing.assert_array_equal(la, sa + big)
    np.testing.assert_array_equal(lb, sb + big)
    # negative ids also take the general leg
    na, nb = dedup_ops._pair_dedup_local(a - 500, b - 500)
    ref = np.unique(np.stack([a - 500, b - 500], axis=1), axis=0)
    np.testing.assert_array_equal(na, ref[:, 0])
    np.testing.assert_array_equal(nb, ref[:, 1])


def test_pair_unique_counts_bigid():
    """_pair_unique_counts multiplicity + representative index over ids
    beyond 2^31, checked against a pandas groupby oracle."""
    rng = np.random.default_rng(7)
    base = np.int64(5_000_000_000)
    a = base + rng.integers(0, 40, size=2000).astype(np.int64)
    b = base + rng.integers(0, 40, size=2000).astype(np.int64)
    ua, ub, counts, first = dedup_ops._pair_unique_counts(a, b)
    df = pd.DataFrame({"a": a, "b": b}).groupby(["a", "b"]).size().reset_index()
    np.testing.assert_array_equal(ua, df["a"].to_numpy())
    np.testing.assert_array_equal(ub, df["b"].to_numpy())
    np.testing.assert_array_equal(counts, df[0].to_numpy())
    # the representative index points at a row holding that exact pair
    np.testing.assert_array_equal(a[first], ua)
    np.testing.assert_array_equal(b[first], ub)


def test_distinct_pairs_bigid_both_plans(ray_session, monkeypatch):
    """distinct_pairs end-to-end with ids beyond 2^31 on BOTH the driver
    fast path and the forced distributed co-group on (id_a, id_b)."""
    import ray.data as rd

    rng = np.random.default_rng(3)
    n = 3000
    big = np.int64(7_000_000_000)
    a = big + rng.integers(0, 50, size=n).astype(np.int64)
    b = big + rng.integers(0, 50, size=n).astype(np.int64)
    pairs = pd.DataFrame({"id_a": a, "id_b": b})
    want = (pairs.drop_duplicates().sort_values(["id_a", "id_b"])
            .reset_index(drop=True))
    small = (dedup_ops.distinct_pairs(rd.from_pandas(pairs).repartition(4))
             .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(small, want)
    monkeypatch.setattr(dedup_ops, "SMALL_VERIFY_PAIRS", 0)
    dist = (dedup_ops.distinct_pairs(rd.from_pandas(pairs).repartition(4))
            .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(dist, want)
