"""CEP pattern detection (cep.py): batch operator vs brute force, streaming
matcher vs batch (epoch-boundary matches, snapshot/restore), e2e sink."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ray_ordered_stream.cep import PatternMatcher, match_pattern
from ray_ordered_stream.fixtures import gen_transcripts, oracle_ordered
from ray_ordered_stream.schema import COUNTERS_SCHEMA, KEY, SEQ

PAT = ["user", "tool", "user"]


def _brute(df: pd.DataFrame, pattern, within_us=None) -> pd.DataFrame:
    rows = []
    for k, g in df.sort_values([KEY, SEQ]).groupby(KEY, sort=True):
        roles = g["role"].tolist()
        seqs = g[SEQ].tolist()
        tss = g["ts"].tolist()
        L = len(pattern)
        for i in range(len(g) - L + 1):
            if roles[i : i + L] == pattern and seqs[i + L - 1] - seqs[i] == L - 1:
                if within_us is not None:
                    d = (
                        pd.Timestamp(tss[i + L - 1]).value // 1000
                        - pd.Timestamp(tss[i]).value // 1000
                    )
                    if d > within_us:
                        continue
                rows.append((k, seqs[i], seqs[i + L - 1]))
    return pd.DataFrame(rows, columns=[KEY, "start_seq", "end_seq"]).astype(
        {"start_seq": "int64", "end_seq": "int64"}
    )


@pytest.fixture(scope="module")
def transcript():
    t = gen_transcripts(n_convs=10, min_turns=12, max_turns=60, seed=13)
    return oracle_ordered(t)


def test_match_pattern_batch_vs_bruteforce(transcript, ray_session):
    import ray.data

    ds = ray.data.from_arrow(
        pa.Table.from_pandas(transcript, preserve_index=False)
    )
    got = (
        match_pattern(ds, PAT, num_partitions=3)
        .to_pandas()
        .sort_values([KEY, "start_seq"])
        .reset_index(drop=True)
    )
    exp = _brute(transcript, PAT).sort_values([KEY, "start_seq"]).reset_index(drop=True)
    assert len(exp) > 0
    pd.testing.assert_frame_equal(got[[KEY, "start_seq", "end_seq"]], exp)


def test_pattern_matcher_epoch_boundary_exactly_once(transcript):
    tbl = pa.Table.from_pandas(
        transcript.sort_values([KEY, SEQ]), preserve_index=False
    )
    exp = _brute(transcript, PAT).sort_values([KEY, "start_seq"]).reset_index(drop=True)
    # feed in many tiny chunks so matches straddle chunk boundaries
    for n_chunks in (1, 7, 23):
        m = PatternMatcher(PAT)
        outs = []
        step = -(-tbl.num_rows // n_chunks)
        for i in range(n_chunks):
            outs.append(m.update(tbl.slice(i * step, step)))
        got = (
            pa.concat_tables(outs)
            .to_pandas()
            .sort_values([KEY, "start_seq"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[[KEY, "start_seq", "end_seq"]], exp)


def test_pattern_matcher_snapshot_restore(transcript):
    tbl = pa.Table.from_pandas(
        transcript.sort_values([KEY, SEQ]), preserve_index=False
    )
    half = tbl.num_rows // 2
    a = PatternMatcher(PAT)
    out1 = a.update(tbl.slice(0, half))
    snap = a.snapshot()
    b = PatternMatcher(PAT)
    b.restore(snap)
    out2a = a.update(tbl.slice(half))
    out2b = b.update(tbl.slice(half))
    pd.testing.assert_frame_equal(out2a.to_pandas(), out2b.to_pandas())
    total = pa.concat_tables([out1, out2a]).num_rows
    assert total == len(_brute(transcript, PAT))


def test_pattern_within_us_bound(transcript):
    # per-conv turn spacing in the fixture is n_convs/rate = 1.0s; a 1.5s
    # bound kills every 3-turn match, a 3s bound keeps them all
    tbl = pa.Table.from_pandas(
        transcript.sort_values([KEY, SEQ]), preserve_index=False
    )
    tight = PatternMatcher(PAT, within_us=1_500_000).update(tbl)
    loose = PatternMatcher(PAT, within_us=3_000_000).update(tbl)
    assert tight.num_rows == 0
    assert loose.num_rows == len(_brute(transcript, PAT))


def test_stream_matches_sink_e2e(tmp_path, ray_session):
    from ray_ordered_stream.epochs import run_stream
    from ray_ordered_stream.state import OrderedConfig

    t = gen_transcripts(
        n_convs=8, min_turns=10, max_turns=40, lateness=25, dup_rate=0.02, seed=3
    )
    # the second input bounds a match by event time; the fixture spaces one
    # key's turns evenly, so shift them by 0-0.9 s to make the bound split
    # the matches (1.6 s apart before the shift)
    seq = t[SEQ].to_numpy()
    shifted = t.set_column(
        t.schema.get_field_index("ts"), t.schema.field("ts"),
        pa.array(t["ts"].to_numpy() + (seq % 4 * 300_000).astype("timedelta64[us]")),
    )
    for i, (t, within_s) in enumerate([(t, 0.0), (shifted, 1.5)]):
        d = tmp_path / f"landing{i}"
        d.mkdir()
        files = []
        n, nf = t.num_rows, 5
        step = -(-n // nf)
        for j in range(nf):
            f = d / f"part-{j:05d}.parquet"
            pq.write_table(t.slice(j * step, step), f)
            files.append(str(f))
        cfg = OrderedConfig(pattern=tuple(PAT), pattern_within_s=within_s)
        res = run_stream(files, str(tmp_path / f"out{i}"), cfg, num_partitions=3,
                         files_per_epoch=2)
        got = (
            res.sinks["matches"].read().to_pandas()
            .sort_values([KEY, "start_seq"])
            .reset_index(drop=True)
        )
        within_us = int(within_s * 1_000_000) or None
        exp = (
            _brute(oracle_ordered(t), PAT, within_us)
            .sort_values([KEY, "start_seq"])
            .reset_index(drop=True)
        )
        if within_us:  # the bound drops some matches, not all
            assert 0 < len(exp) < len(_brute(oracle_ordered(t), PAT))
        pd.testing.assert_frame_equal(got[[KEY, "start_seq", "end_seq"]], exp)


def test_pattern_matcher_carry_dropped_after_end_sentinel():
    m = PatternMatcher(PAT, end_role="end")
    t1 = pa.table(
        {
            KEY: pa.array(["a", "a", "b", "b"], pa.string()),
            SEQ: pa.array([0, 1, 0, 1], pa.int32()),
            "role": pa.array(["user", "end", "user", "tool"], pa.string()),
            "ts": pa.array([0, 1, 0, 1], pa.int64()).cast(pa.timestamp("us")),
        }
    )
    m.update(t1)
    carried = m._carry.to_pydict()
    # key 'a' ended -> its tail is dropped; key 'b' keeps its last 2 turns
    assert set(carried[KEY]) == {"b"}
    # and 'b' can still complete the pattern across the boundary
    t2 = pa.table(
        {
            KEY: pa.array(["b"], pa.string()),
            SEQ: pa.array([2], pa.int32()),
            "role": pa.array(["user"], pa.string()),
            "ts": pa.array([2], pa.int64()).cast(pa.timestamp("us")),
        }
    )
    out = m.update(t2).to_pandas()
    assert len(out) == 1 and out["start_seq"].iloc[0] == 0


# ---------------------------------------------------------------------------
# CEP negation (match_absence / AbsenceMatcher)
# ---------------------------------------------------------------------------

APAT = ["user", "assistant"]
ABSENT = "tool"


def _brute_absence(df, pattern, absent_role, absent_within_us):
    """Reference semantics: pattern on consecutive turns NOT followed by any
    same-key absent_role turn with ts <= end_ts + window."""
    base = _brute(df, pattern)
    d = df.sort_values([KEY, SEQ])
    keep = []
    for _, m in base.iterrows():
        g = d[d[KEY] == m[KEY]]
        end_row = g[g[SEQ] == m["end_seq"]].iloc[0]
        end_ts = pd.Timestamp(end_row["ts"]).value // 1000
        later = g[(g[SEQ] > m["end_seq"]) & (g["role"] == absent_role)]
        if absent_within_us is not None:
            later = later[
                later["ts"].astype("datetime64[us]").astype("int64") <= end_ts + absent_within_us
            ]
        keep.append(len(later) == 0)
    return base[np.array(keep, dtype=bool)].reset_index(drop=True)


def test_match_absence_batch_vs_bruteforce(transcript, ray_session):
    import ray.data

    from ray_ordered_stream.cep import match_absence

    ds = ray.data.from_arrow(
        pa.Table.from_pandas(transcript, preserve_index=False)
    )
    for win in (2_500_000, None):
        got = (
            match_absence(ds, APAT, ABSENT, absent_within_us=win,
                          num_partitions=3)
            .to_pandas()
            .sort_values([KEY, "start_seq"])
            .reset_index(drop=True)
        )
        exp = (
            _brute_absence(transcript, APAT, ABSENT, win)
            .sort_values([KEY, "start_seq"])
            .reset_index(drop=True)
        )
        # the fixture must exercise BOTH outcomes or the test proves nothing
        assert 0 < len(exp) < len(_brute(transcript, APAT))
        pd.testing.assert_frame_equal(got[[KEY, "start_seq", "end_seq"]], exp)


def test_absence_matcher_epochs_equals_batch(transcript):
    # event-time-ordered arrival (the realistic case): when the watermark
    # first passes a candidate's deadline, every potential canceller
    # (ts <= deadline) has already been fed — update() cancels before it
    # fires, so incremental firing with ZERO lateness is already exact
    from ray_ordered_stream.cep import AbsenceMatcher

    tbl = pa.Table.from_pandas(
        transcript.sort_values(["ts", KEY, SEQ]), preserve_index=False
    )
    win = 2_500_000
    exp = (
        _brute_absence(transcript, APAT, ABSENT, win)
        .sort_values([KEY, "start_seq"])
        .reset_index(drop=True)
    )
    for n_chunks in (1, 7, 23):
        m = AbsenceMatcher(APAT, ABSENT, absent_within_us=win)
        outs = []
        step = -(-tbl.num_rows // n_chunks)
        for i in range(n_chunks):
            outs.append(m.update(tbl.slice(i * step, step)))
        fired_incrementally = sum(o.num_rows for o in outs)
        outs.append(m.take_final())
        got = (
            pa.concat_tables(outs)
            .to_pandas()
            .sort_values([KEY, "start_seq"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[[KEY, "start_seq", "end_seq"]], exp)
        # exactly-once: nothing left pending after the final take
        assert m.state_size()["pending_rows"] == 0
        if n_chunks > 1:
            # the watermark path must actually fire matches mid-stream —
            # otherwise this only tests the final flush
            assert fired_incrementally > 0


def test_absence_matcher_key_sorted_needs_lateness(transcript):
    # key-sorted arrival is the adversarial case for a partition-level
    # watermark (one key's deadline passes while another key's canceller
    # is still queued). A lateness margin past the per-key time span
    # restores exactness — the documented knob for skewed arrivals.
    from ray_ordered_stream.cep import AbsenceMatcher

    tbl = pa.Table.from_pandas(
        transcript.sort_values([KEY, SEQ]), preserve_index=False
    )
    win = 2_500_000
    exp = (
        _brute_absence(transcript, APAT, ABSENT, win)
        .sort_values([KEY, "start_seq"])
        .reset_index(drop=True)
    )
    m = AbsenceMatcher(APAT, ABSENT, absent_within_us=win,
                       lateness_us=120_000_000)
    outs = []
    step = -(-tbl.num_rows // 7)
    for i in range(7):
        outs.append(m.update(tbl.slice(i * step, step)))
    outs.append(m.take_final())
    got = (
        pa.concat_tables(outs)
        .to_pandas()
        .sort_values([KEY, "start_seq"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[[KEY, "start_seq", "end_seq"]], exp)


def test_absence_matcher_cancel_across_epochs():
    from ray_ordered_stream.cep import AbsenceMatcher

    def turns(key, rows):
        return pa.table(
            {
                KEY: pa.array([key] * len(rows), pa.string()),
                SEQ: pa.array([r[0] for r in rows], pa.int32()),
                "role": pa.array([r[1] for r in rows], pa.string()),
                "ts": pa.array([r[2] for r in rows], pa.int64()).cast(
                    pa.timestamp("us")
                ),
            }
        )

    m = AbsenceMatcher(["a", "b"], "c", absent_within_us=10)
    # epoch 1: the pattern completes; candidate goes pending
    assert m.update(turns("k", [(0, "a", 0), (1, "b", 1)])).num_rows == 0
    assert m.state_size()["pending_rows"] == 1
    # epoch 2: the absent role arrives INSIDE the window -> cancelled
    assert m.update(turns("k", [(2, "c", 5)])).num_rows == 0
    assert m.state_size()["pending_rows"] == 0
    assert m.take_final().num_rows == 0

    m2 = AbsenceMatcher(["a", "b"], "c", absent_within_us=10)
    m2.update(turns("k", [(0, "a", 0), (1, "b", 1)]))
    # absent role OUTSIDE the window (ts 20 > 1+10) -> candidate survives
    # and fires as soon as the watermark passes its deadline
    out = m2.update(turns("k", [(2, "c", 20)]))
    assert out.num_rows == 1
    assert out.to_pydict()["start_seq"] == [0]
    assert m2.take_final().num_rows == 0


def test_absence_matcher_snapshot_restore(transcript):
    from ray_ordered_stream.cep import AbsenceMatcher

    tbl = pa.Table.from_pandas(
        transcript.sort_values([KEY, SEQ]), preserve_index=False
    )
    win = 2_500_000
    half = tbl.num_rows // 2
    m = AbsenceMatcher(APAT, ABSENT, absent_within_us=win)
    o1 = m.update(tbl.slice(0, half))
    snap = m.snapshot()

    m2 = AbsenceMatcher(APAT, ABSENT, absent_within_us=win)
    m2.restore(snap)
    o2a = m2.update(tbl.slice(half))
    o2b = m2.take_final()

    o3a = m.update(tbl.slice(half))
    o3b = m.take_final()
    got_resumed = pa.concat_tables([o1, o2a, o2b]).to_pandas()
    got_straight = pa.concat_tables([o1, o3a, o3b]).to_pandas()
    pd.testing.assert_frame_equal(
        got_resumed.sort_values([KEY, "start_seq"]).reset_index(drop=True),
        got_straight.sort_values([KEY, "start_seq"]).reset_index(drop=True),
    )


def test_stream_absence_sink_e2e(tmp_path, ray_session):
    from ray_ordered_stream.epochs import run_stream
    from ray_ordered_stream.state import OrderedConfig

    t = gen_transcripts(
        n_convs=8, min_turns=10, max_turns=40, lateness=25, dup_rate=0.02, seed=3
    )
    d = tmp_path / "landing"
    d.mkdir()
    files = []
    n, nf = t.num_rows, 5
    step = -(-n // nf)
    for i in range(nf):
        f = d / f"part-{i:05d}.parquet"
        pq.write_table(t.slice(i * step, step), f)
        files.append(str(f))
    cfg = OrderedConfig(
        pattern=tuple(APAT), absent_role=ABSENT, absent_within_s=2.5,
        pattern_lateness_s=1e9,  # fire only at the final flush (exact)
    )
    res = run_stream(files, str(tmp_path / "out"), cfg, num_partitions=3,
                     files_per_epoch=2)
    got = (
        res.sinks["matches"].read().to_pandas()
        .sort_values([KEY, "start_seq"])
        .reset_index(drop=True)
    )
    exp = (
        _brute_absence(oracle_ordered(t), APAT, ABSENT, 2_500_000)
        .sort_values([KEY, "start_seq"])
        .reset_index(drop=True)
    )
    assert len(exp) > 0
    pd.testing.assert_frame_equal(got[[KEY, "start_seq", "end_seq"]], exp)


def _aturns(key, rows):
    return pa.table(
        {
            KEY: pa.array([key] * len(rows), pa.string()),
            SEQ: pa.array([r[0] for r in rows], pa.int32()),
            "role": pa.array([r[1] for r in rows], pa.string()),
            "ts": pa.array([r[2] for r in rows], pa.int64()).cast(
                pa.timestamp("us")
            ),
        }
    )


def _aturns64(key, rows):
    # int64 seq: the generic CEP API accepts any integer sequence column
    # (the transcript schema's int32 turn_idx is just one caller)
    return pa.table(
        {
            KEY: pa.array([key] * len(rows), pa.string()),
            SEQ: pa.array([r[0] for r in rows], pa.int64()),
            "role": pa.array([r[1] for r in rows], pa.string()),
            "ts": pa.array([r[2] for r in rows], pa.int64()).cast(
                pa.timestamp("us")
            ),
        }
    )


def test_absence_matcher_seq_beyond_32_bits():
    """The cancellation search must stay full-width: seq >= 2^32 used to
    wrap in a packed (code<<32)|seq composite and corrupt decisions."""
    from ray_ordered_stream.cep import AbsenceMatcher

    big = 1 << 33
    m = AbsenceMatcher(["a", "b"], "c", absent_within_us=10)
    m.update(_aturns64("k", [(big, "a", 0), (big + 1, "b", 1)]))
    assert m.state_size()["pending_rows"] == 1
    # cancelling event with a huge seq INSIDE the window must cancel
    assert m.update(_aturns64("k", [(big + 2, "c", 5)])).num_rows == 0
    assert m.state_size()["pending_rows"] == 0
    assert m.take_final().num_rows == 0

    # and an event BEFORE end_seq (after wrap it would look later) must NOT
    m2 = AbsenceMatcher(["a", "b"], "c", absent_within_us=10)
    m2.update(_aturns64("k", [(big, "a", 0), (big + 1, "b", 1)]))
    m2.update(_aturns64("k2", [((big + 2) % (1 << 32), "c", 5)]))  # other key
    assert m2.take_final().num_rows == 1


def test_absence_matcher_unbounded_pending_ttl():
    """absent_within_us=None: pending candidates never fire via watermark;
    gc(ttl) must bound them on an unbounded stream (bounded-horizon drop,
    same semantics as the window/dedup TTLs)."""
    from ray_ordered_stream.cep import AbsenceMatcher

    m = AbsenceMatcher(["a", "b"], "c", absent_within_us=None)
    for i in range(50):
        m.update(
            _aturns(f"k{i}", [(0, "a", i * 1000), (1, "b", i * 1000 + 1)])
        )
    assert m.state_size()["pending_rows"] == 50
    # watermark is the max ts seen (~49_001); ttl 10_000 evicts candidates
    # whose end_ts is older than wm - ttl
    evicted = m.gc(10_000)
    assert evicted >= 30
    assert m.state_size()["pending_rows"] < 20


def test_rescale_migrates_absence_matcher_state(ray_session, tmp_path):
    """Autoscale rescale on a stream with CEP negation: both the pattern
    carry and the pending candidates must migrate by key (an earlier
    migration only understood the carry and crashed restore / dropped
    pending candidates)."""
    from ray_ordered_stream.cep import AbsenceMatcher, _PENDING_COLS
    from ray_ordered_stream.rescale import _migrate_snapshots

    m = AbsenceMatcher(["a", "b"], "c", absent_within_us=1_000_000)
    for i in range(8):
        m.update(
            _aturns(f"conv{i}", [(0, "a", i), (1, "b", i + 1)])
        )
    # plus an unfinished pattern tail (inner pm carry)
    m.update(_aturns("conv8", [(0, "a", 100)]))
    snap = m.snapshot()
    assert snap["pending"].num_rows and snap["carry"].num_rows

    def full(cep):
        return {"counters": COUNTERS_SCHEMA.empty_table(), "buffer": None,
                "last_status_us": 0, "cep": cep}

    old = [full(snap), full(AbsenceMatcher(["a", "b"], "c").snapshot())]
    new = _migrate_snapshots(old, 3, KEY)
    # every pending key lands in exactly one new partition, with its rows
    all_keys = []
    for q in range(3):
        p = new[q]["cep"]["pending"]
        assert p.column_names == [KEY, *_PENDING_COLS]
        all_keys.extend(p[KEY].to_pylist())
    assert sorted(all_keys) == sorted(snap["pending"][KEY].to_pylist())
    # the inner carry rows survived, partitioned without loss or dup
    carried = [
        k for q in range(3) for k in new[q]["cep"]["carry"][KEY].to_pylist()
    ]
    assert sorted(carried) == sorted(snap["carry"][KEY].to_pylist())
    assert "conv8" in carried
    # and restore accepts the migrated shape
    for q in range(3):
        m2 = AbsenceMatcher(["a", "b"], "c", absent_within_us=1_000_000)
        m2.restore(new[q]["cep"])
