"""Conversion funnel, JSON field extraction, blocklist filter, scene cuts."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ssb_sgis_ray.ops import relational as rel
from ssb_sgis_ray.ops import text as text_ops
from ssb_sgis_ray.sources import media


def _events_ds(rows):
    import ray.data as rd

    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    df["ts"] = pd.to_datetime(df["ts"], unit="us")
    return rd.from_pandas(df)


def _brute_funnel(rows, stages):
    """Per-user python chain: stage k+1 strictly after earliest completion
    of stage k."""
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    reached = np.zeros(len(stages), dtype=np.int64)
    for _, g in df.groupby("user_id"):
        t = -np.inf
        for k, s in enumerate(stages):
            cand = g[(g.event_type == s) & (g.ts > t)]
            if cand.empty:
                break
            t = cand.ts.min()
            reached[k] += 1
    return reached


def test_funnel_matches_bruteforce(ray_session):
    rng = np.random.default_rng(7)
    stages = ("view", "click", "purchase")
    types = ["view", "click", "purchase", "error"]
    rows = [
        (int(rng.integers(0, 40)), int(rng.integers(0, 1000)),
         types[rng.integers(0, 4)])
        for _ in range(600)
    ]
    out = rel.conversion_funnel(_events_ds(rows), stages, num_buckets=8)
    expect = _brute_funnel(rows, stages)
    assert out["stage"].tolist() == [1, 2, 3]
    assert out["n_users"].tolist() == expect.tolist()


def test_funnel_order_and_tie_rules(ray_session):
    rows = [
        # user 1: click BEFORE view -> stops at stage 1
        (1, 10, "click"), (1, 20, "view"),
        # user 2: view and click at the SAME ts -> strict > rejects click
        (2, 10, "view"), (2, 10, "click"),
        # user 3: full ordered chain
        (3, 1, "view"), (3, 2, "click"), (3, 3, "purchase"),
        # user 4: purchase before click -> stage 2 only
        (4, 1, "view"), (4, 2, "purchase"), (4, 3, "click"),
        # user 5: second view starts no new chain (earliest view anchors)
        (5, 5, "view"), (5, 1, "click"), (5, 9, "view"), (5, 7, "click"),
        (5, 8, "purchase"),
    ]
    out = rel.conversion_funnel(
        _events_ds(rows), ("view", "click", "purchase"), num_buckets=4
    )
    # stage1: users 1,2,3,4,5; stage2: 3,4,5 (user5 click@7 > view@5);
    # stage3: 3 and 5 (purchase@8 > click@7)
    assert out["n_users"].tolist() == [5, 3, 2]


def test_funnel_empty_stage(ray_session):
    rows = [(1, 1, "view"), (2, 2, "view")]
    out = rel.conversion_funnel(
        _events_ds(rows), ("view", "click", "purchase"), num_buckets=2
    )
    assert out["n_users"].tolist() == [2, 0, 0]


def test_json_int_field_agg_negative(ray_session):
    import ray.data as rd

    df = pd.DataFrame({
        "event_type": ["a", "a", "b"],
        "props": ['{"k": -5}', '{"k": 12}', '{"k": 0}'],
    })
    out = rel.json_int_field_agg(rd.from_pandas(df), field="k")
    got = out.to_pandas().sort_values("event_type").reset_index(drop=True)
    assert got["k_sum"].tolist() == [7, 0]
    assert got["n_rows"].tolist() == [2, 1]


def test_blocklist_boundary(ray_session):
    import ray.data as rd

    # 25 tokens with exactly 1 bad -> flagged (>= 1/25); 26 tokens -> kept.
    t_at = " ".join(["ok"] * 24 + ["slow"])
    t_below = " ".join(["ok"] * 25 + ["dup"])
    t_two = " ".join(["slow", "dup"] + ["ok"] * 10)
    df = pd.DataFrame({"doc_id": [1, 2, 3], "text": [t_at, t_below, t_two]})
    out = (
        text_ops.blocklist_flags(rd.from_pandas(df), ("slow", "dup"))
        .to_pandas().sort_values("doc_id")
    )
    assert out["n_bad"].tolist() == [1, 1, 2]
    assert out["keep"].tolist() == [False, True, False]


def test_scene_cuts_threshold_strict(ray_session):
    import ray.data as rd

    # 4x4 frames: constant value per frame; pixel-sum delta = 16*dv.
    # thresh=10 -> cut iff dv > 10 (strict).
    def vid(vals):
        frames = np.stack([np.full((4, 4), v, np.uint8) for v in vals])
        return media.encode_video(frames)

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "video": [vid([0, 10, 21]),      # deltas 10 (no), 11 (cut)
                  vid([5, 5, 5, 5]),     # constant -> 1 scene
                  vid([0, 200, 0])],     # two cuts
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df))
    out = (ds.map_batches(media.VideoSceneCuts(thresh=10),
                          batch_format="pyarrow")
           .to_pandas().sort_values("doc_id"))
    assert out["n_scenes"].tolist() == [2, 1, 3]
    assert out["n_frames"].tolist() == [3, 4, 3]


def test_hash_join_inner_and_pruning(ray_session):
    import ray.data as rd

    left = pd.DataFrame({"k": [1, 2, 2, 3], "a": [10, 20, 21, 30],
                         "junk": ["x"] * 4})
    right = pd.DataFrame({"rk": [2, 3, 4], "b": [200, 300, 400]})
    out = (rel.hash_join(rd.from_pandas(left), rd.from_pandas(right),
                         on="k", right_on="rk", num_partitions=4,
                         left_cols=["a"], right_cols=["b"])
           .to_pandas().sort_values(["k", "a"]).reset_index(drop=True))
    assert "junk" not in out.columns
    assert out["k"].tolist() == [2, 2, 3]
    assert out["b"].tolist() == [200, 200, 300]


def test_hash_join_empty_intersection(ray_session):
    import ray.data as rd

    left = pd.DataFrame({"k": [1, 2], "a": [1, 2]})
    right = pd.DataFrame({"k": [5], "b": [9]})
    out = rel.hash_join(rd.from_pandas(left), rd.from_pandas(right),
                        on="k", num_partitions=2)
    assert out.count() == 0


def test_burst_windows_rules(ray_session):
    import ray.data as rd

    # type A: wins 0(n=2), 1(n=5): 5 > 2*2 -> burst; win 3 (gap, n=9):
    # prev PRESENT is win1 (5), 9 <= 10 -> no burst. First window never.
    rows = []
    def add(t, win, n):
        rows.extend({"ts": win * 3_600_000_000 + i, "event_type": t}
                    for i in range(n))
    add("A", 0, 2); add("A", 1, 5); add("A", 3, 9)
    add("B", 2, 4)  # single window -> never a burst
    df = pd.DataFrame(rows)
    df["ts"] = pd.to_datetime(df["ts"], unit="us")
    out = rel.burst_windows(rd.from_pandas(df))
    out = out.sort_values(["event_type", "win"]).reset_index(drop=True)
    assert out["burst"].tolist() == [False, True, False, False]
    assert out["n"].tolist() == [2, 5, 9, 4]


def test_redact_pattern(ray_session):
    import ray.data as rd

    df = pd.DataFrame({"event_id": [1, 2], "props": ['{"k": 87}', "none"]})
    out = (rel.redact_pattern(rd.from_pandas(df))
           .to_pandas().sort_values("event_id"))
    assert out["redacted"].tolist() == ['{"k": ##}', "none"]
    assert out["n_redacted"].tolist() == [2, 0]


def test_audio_fingerprint_from_samples(ray_session):
    import ray.data as rd

    # fingerprints must come from the DECODED samples: two clips with the
    # same (half, amp bucket) but different lengths share a fingerprint.
    w1 = media.render_waveform(40, 3, 700)
    w2 = media.render_waveform(80, 3, 900)   # same bucket 700//500==900//500
    w3 = media.render_waveform(40, 4, 700)   # different half
    df = pd.DataFrame({
        "doc_id": np.array([1, 2, 3], np.int64),
        "audio": [media.encode_audio(w) for w in (w1, w2, w3)],
    })
    out = (rd.from_arrow(pa.Table.from_pandas(df))
           .map_batches(media.AudioFingerprint(), batch_format="pyarrow")
           .to_pandas().sort_values("doc_id"))
    assert out["fp_half"].tolist() == [3, 3, 4]
    assert out["fp_ampb"].tolist() == [1, 1, 1]


def test_length_histogram_buckets(ray_session):
    import os
    import tempfile

    import pyarrow.parquet as pq
    from ssb_sgis_ray.queries import q_length_histogram

    # 1 token -> bucket 0; 2-3 -> 1; 4-7 -> 2; 8 -> 3
    texts = ["a", "a b", "a b c", "a b c d", "a b c d e f g",
             "a b c d e f g h"]
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.table({"text": pa.array(texts)}),
                       os.path.join(d, "documents.parquet"))
        out = q_length_histogram(d).sort_values("bucket").reset_index(drop=True)
    assert out["bucket"].tolist() == [0, 1, 2, 3]
    assert out["n_docs"].tolist() == [1, 2, 2, 1]
    assert out["token_sum"].tolist() == [1, 5, 11, 8]


def _day_events(rows):
    import ray.data as rd

    df = pd.DataFrame(rows, columns=["user_id", "day"])
    # match the parquet tables' timestamp[us] resolution (a pandas-default
    # ns column would make the int64 cast read nanoseconds)
    df["ts"] = pd.to_datetime(
        df["day"] * 86_400_000_000 + 7, unit="us"
    ).astype("datetime64[us]")
    return rd.from_pandas(df[["user_id", "ts"]])


def test_active_users_dedup_across_batches(ray_session):
    # user 1 active on days 0,0,1; user 2 on day 0 twice -> DAU 2,1
    ds = _day_events([(1, 0), (1, 0), (1, 1), (2, 0), (2, 0)])
    out = rel.active_users(ds, num_buckets=4).sort_values("win")
    assert out["win"].tolist() == [0, 1]
    assert out["n_users"].tolist() == [2, 1]


def test_retention_consecutive_only(ray_session):
    # u1: days 0,1,3 -> retained day0 (1->next), not day1, not day3
    # u2: days 0,2 -> never retained; u3: day 1 only
    ds = _day_events([(1, 0), (1, 1), (1, 3), (2, 0), (2, 2), (3, 1)])
    out = rel.retention(ds, num_buckets=2).sort_values("win") \
        .reset_index(drop=True)
    assert out["win"].tolist() == [0, 1, 2, 3]
    assert out["n_active"].tolist() == [2, 2, 1, 1]
    assert out["n_retained"].tolist() == [1, 0, 0, 0]


def test_event_pattern_order_and_overlap(ray_session):
    import ray.data as rd

    # u1 sequence (ts order, eid tiebreak at ts=5): V C C P V P  ->
    # one VC+P match (second VP has no click). u2: VCP VCP -> 2.
    rows = [
        (1, 1, "view", 10), (1, 2, "click", 11), (1, 5, "click", 12),
        (1, 5, "purchase", 13), (1, 6, "view", 14), (1, 7, "purchase", 15),
        (2, 1, "view", 20), (2, 2, "click", 21), (2, 3, "purchase", 22),
        (2, 4, "view", 23), (2, 5, "click", 24), (2, 6, "purchase", 25),
        (3, 1, "error", 30),  # unmapped type only -> user absent
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type",
                                     "event_id"])
    df["ts"] = pd.to_datetime(df["ts"], unit="us").astype("datetime64[us]")
    out = (rel.event_pattern_count(
        rd.from_pandas(df), r"VC+P",
        {"view": "V", "click": "C", "purchase": "P"})
        .to_pandas().sort_values("user_id"))
    assert out["user_id"].tolist() == [1, 2]
    assert out["n_matches"].tolist() == [1, 2]


def test_salted_join_matches_plain(ray_session):
    import ray.data as rd

    # hot key 0 on the left; salted result must equal the plain join
    left = pd.DataFrame({
        "k": [0] * 20 + [1, 2, 3],
        "uid": np.arange(23, dtype=np.int64),
        "lv": np.arange(23, dtype=np.int64) * 10,
    })
    right = pd.DataFrame({"k": [0, 2, 9], "rv": [100, 200, 900]})
    got = (rel.salted_join(rd.from_pandas(left), rd.from_pandas(right),
                           on="k", salt=4, left_salt_col="uid",
                           num_partitions=4)
           .to_pandas().sort_values(["k", "uid"]).reset_index(drop=True))
    want = left.merge(right, on="k").sort_values(["k", "uid"]) \
        .reset_index(drop=True)
    assert got["uid"].tolist() == want["uid"].tolist()
    assert got["rv"].tolist() == want["rv"].tolist()


@pytest.mark.parametrize("key", [np.iinfo(np.int64).min, np.iinfo(np.int64).max])
def test_salted_join_rejects_keys_outside_packing_range(ray_session, key):
    import ray.data as rd

    # key * salt + sid would wrap; int64 min also wraps np.abs. The
    # ValueError is raised in a map task and reaches here wrapped by Ray.
    left = pd.DataFrame({"k": np.array([key, 1], np.int64), "lv": [1, 2]})
    right = pd.DataFrame({"k": np.array([1], np.int64), "rv": [10]})
    with pytest.raises(Exception, match="ValueError: salted_join: key range"):
        rel.salted_join(rd.from_pandas(left), rd.from_pandas(right),
                        on="k", salt=4).to_pandas()


def test_interval_join_bucket_spans_and_boundaries(ray_session):
    import ray.data as rd

    B = 100  # tiny bucket so intervals span several buckets
    pts = pd.DataFrame({
        "event_id": np.arange(6, dtype=np.int64),
        "ts_us": np.array([50, 100, 250, 399, 400, 999], np.int64),
    })
    ivs = pd.DataFrame({
        "iid": np.array([1, 2, 3], np.int64),
        "s": np.array([100, 0, 950], np.int64),    # iid1 spans 3 buckets
        "e": np.array([400, 60, 1000], np.int64),  # half-open ends
    })
    out = (rel.interval_join(rd.from_pandas(pts), rd.from_pandas(ivs),
                             bucket_us=B)
           .to_pandas().sort_values(["event_id", "iid"])
           .reset_index(drop=True))
    # t=100 in iid1 (start inclusive), t=399 in iid1, t=400 NOT (end
    # exclusive); t=50 in iid2 [0,60); t=999 in iid3 [950,1000)
    got = list(zip(out["event_id"], out["iid"]))
    assert got == [(0, 2), (1, 1), (2, 1), (3, 1), (5, 3)]


def test_running_totals_tie_order(ray_session):
    import ray.data as rd

    # user 1: two events at the SAME ts -> event_id breaks the tie
    df = pd.DataFrame({
        "event_id": np.array([5, 3, 9], np.int64),
        "user_id": np.array([1, 1, 1], np.int64),
        "ts": pd.to_datetime([10, 10, 20], unit="us").astype("datetime64[us]"),
        "value": [1.0, 2.0, 4.0],
    })
    out = (rel.running_totals(rd.from_pandas(df), num_buckets=2)
           .to_pandas().sort_values("run_n"))
    # order: (ts=10, id=3), (ts=10, id=5), (ts=20, id=9)
    assert out["event_id"].tolist() == [3, 5, 9]
    assert out["run_value_c"].tolist() == [200, 300, 700]
