"""Streaming sliding/session window accumulators (stream_ops) vs pandas
oracles, plus end-to-end sink wiring through run_stream.

These are the streaming counterparts the north rule mandates alongside the
tumbling accumulator (BASELINE.json north_rule: "tumbling/sliding/session
windows, watermarks"); the batch equivalents live in windows.py.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ray_ordered_stream.fixtures import gen_transcripts, oracle_ordered
from ray_ordered_stream.schema import KEY, SEQ
from ray_ordered_stream.state import OrderedConfig
from ray_ordered_stream.stream_ops import SessionAccumulator, WindowAccumulator

US = 1_000_000


def _sliding_oracle(df: pd.DataFrame, size_s: float, step_s: float) -> pd.DataFrame:
    size, step = int(size_s * US), int(step_s * US)
    n_w = -(-size // step)
    tsi = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
    last_ws = (tsi // step) * step
    ws = last_ws[:, None] - (np.arange(n_w) * step)[None, :]
    valid = ((ws + size) > tsi[:, None]) & (ws >= 0)
    rep = np.repeat(np.arange(len(df)), n_w)[valid.ravel()]
    out = pd.DataFrame(
        {
            KEY: df[KEY].to_numpy()[rep],
            "window_start": ws.ravel()[valid.ravel()],
            "n_user": (df["role"].to_numpy()[rep] == "user").astype("int64"),
            "n_assistant": (df["role"].to_numpy()[rep] == "assistant").astype("int64"),
        }
    )
    g = out.groupby([KEY, "window_start"], sort=True)
    return (
        g.agg(
            turn_count=("n_user", "size"),
            n_user=("n_user", "sum"),
            n_assistant=("n_assistant", "sum"),
        )
        .reset_index()
    )


def _feed_chunks(acc, tbl: pa.Table, n_chunks: int) -> list[pa.Table]:
    """Feed a ts-ordered table in n chunks, draining closed output between
    feeds (the epoch cadence)."""
    outs = []
    n = tbl.num_rows
    step = -(-n // n_chunks)
    for i in range(n_chunks):
        acc.update(tbl.slice(i * step, step))
        outs.append(acc.take_closed())
    outs.append(acc.take_closed(final=True))
    return outs


def test_sliding_accumulator_matches_batch_oracle():
    t = gen_transcripts(n_convs=6, min_turns=8, max_turns=40, seed=7)
    exp_df = oracle_ordered(t)
    inorder = pa.Table.from_pandas(
        exp_df.sort_values("ts", kind="stable"), preserve_index=False
    )
    acc = WindowAccumulator(120.0, step_s=45.0)
    outs = _feed_chunks(acc, inorder, 5)
    # watermark gating actually released something before the final flush
    assert sum(o.num_rows for o in outs[:-1]) > 0
    got = (
        pa.concat_tables(outs)
        .to_pandas()
        .assign(
            window_start=lambda d: d["window_start"]
            .astype("datetime64[us]")
            .astype("int64")
        )
        .sort_values([KEY, "window_start"])
        .reset_index(drop=True)
    )[[KEY, "window_start", "turn_count", "n_user", "n_assistant"]]
    exp = _sliding_oracle(exp_df, 120.0, 45.0)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def _mk(key_ts: list[tuple[str, float]], role: str = "user") -> pa.Table:
    keys, tss = zip(*key_ts)
    return pa.table(
        {
            KEY: pa.array(keys, pa.string()),
            SEQ: pa.array(range(len(keys)), pa.int32()),
            "role": pa.array([role] * len(keys), pa.string()),
            "ts": pa.array(
                (np.asarray(tss) * US).astype("int64"), pa.int64()
            ).cast(pa.timestamp("us")),
        }
    )


def test_session_accumulator_sessions_and_sids():
    # key a: ts 0,1,2 | 10,11 | 30  (gap 5) -> three sessions, sids 0,1,2
    # key b: ts 0, 20            -> two sessions
    acc = SessionAccumulator(5.0)
    acc.update(_mk([("a", 0), ("b", 0), ("a", 1), ("a", 2)]))
    acc.update(_mk([("a", 10), ("a", 11), ("b", 20)]))
    early = acc.take_closed()          # watermark 20: a's [0..2] closed (2+5<20)
    assert early.num_rows >= 1
    acc.update(_mk([("a", 30)]))
    rest = pa.concat_tables([acc.take_closed(), acc.take_closed(final=True)])
    got = (
        pa.concat_tables([early, rest])
        .to_pandas()
        .sort_values([KEY, "session_id"])
        .reset_index(drop=True)
    )
    exp = pd.DataFrame(
        {
            KEY: ["a", "a", "a", "b", "b"],
            "session_id": [0, 1, 2, 0, 1],
            "start_s": [0, 10, 30, 0, 20],
            "end_s": [2, 11, 30, 0, 20],
            "turn_count": [3, 2, 1, 1, 1],
        }
    )
    assert got["session_id"].tolist() == exp["session_id"].tolist()
    assert got[KEY].tolist() == exp[KEY].tolist()
    assert got["turn_count"].tolist() == exp["turn_count"].tolist()
    assert (
        got["session_start"].astype("datetime64[us]").astype("int64") // US
    ).tolist() == exp["start_s"].tolist()
    assert (
        got["session_end"].astype("datetime64[us]").astype("int64") // US
    ).tolist() == exp["end_s"].tolist()


def test_session_chain_merge_needs_second_pass():
    # open A=[0,100] (events 0,60,100), then a batch lands B=[20,30] and
    # C=[90,95] with gap 5: sorted by start the single-pass boundary check
    # sees C.start(90) - B.end(30) > gap, but C overlaps A -- the chain
    # merge must iterate to collapse all three into [0,100].
    acc = SessionAccumulator(5.0, allowed_lateness_s=1000.0)
    acc.update(_mk([("k", 0), ("k", 60), ("k", 100)]))
    assert len(acc._kc) == 3  # gap 5 -> three singletons... bridge them:
    acc.update(_mk([("k", 3), ("k", 57), ("k", 97)]))
    assert len(acc._kc) == 3
    # now the true second-pass case: a long open session + nested later ones
    acc2 = SessionAccumulator(5.0, allowed_lateness_s=1000.0)
    acc2.update(_mk([("k", 0), ("k", 4), ("k", 8)]))      # open [0,8]
    acc2.update(_mk([("k", 2), ("k", 12)]))               # [2,2] inside, [12] chains
    out = acc2.take_closed(final=True).to_pandas()
    assert len(out) == 1
    assert out["turn_count"].iloc[0] == 5
    assert out["session_end"].iloc[0].timestamp() == 12.0


def test_session_snapshot_restore_continuity():
    chunks = [
        _mk([("a", 0), ("b", 0), ("a", 1)]),
        _mk([("a", 50), ("b", 51)]),
        _mk([("a", 100), ("b", 101), ("a", 102)]),
    ]
    ref = SessionAccumulator(5.0)
    for c in chunks[:2]:
        ref.update(c)
    ref.take_closed()  # releases some sessions -> sid counters advance
    snap = ref.snapshot()
    dup = SessionAccumulator(5.0)
    dup.restore(snap)
    ref.update(chunks[2])
    dup.update(chunks[2])
    a = pa.concat_tables([ref.take_closed(final=True)]).to_pandas()
    b = pa.concat_tables([dup.take_closed(final=True)]).to_pandas()
    pd.testing.assert_frame_equal(a, b)


@pytest.fixture(scope="module")
def sliding_stream_files(tmp_path_factory, ray_session):
    t = gen_transcripts(
        n_convs=10, min_turns=10, max_turns=50, lateness=40, dup_rate=0.02, seed=33
    )
    d = tmp_path_factory.mktemp("landing_sw")
    n, n_files = t.num_rows, 6
    step = -(-n // n_files)
    files = []
    for i in range(n_files):
        f = d / f"part-{i:05d}.parquet"
        pq.write_table(t.slice(i * step, step), f)
        files.append(str(f))
    return t, files


def test_stream_sliding_and_session_sinks_e2e(sliding_stream_files, tmp_path):
    from ray_ordered_stream.epochs import run_stream

    t, files = sliding_stream_files
    # per-conv turn spacing is n_convs/rate = 1.0s, so gap 0.5s makes every
    # turn its own session (exercises per-key sid progression end to end)
    cfg = OrderedConfig(
        window_size_s=120.0, window_step_s=60.0, window_lateness_s=15.0,
        session_gap_s=0.5,
    )
    res = run_stream(files, str(tmp_path / "run"), cfg, num_partitions=3,
                     files_per_epoch=2)
    exp = oracle_ordered(t)

    win = (
        res.sinks["windows"].read().to_pandas()
        .assign(
            window_start=lambda d: d["window_start"]
            .astype("datetime64[us]")
            .astype("int64")
        )
        .sort_values([KEY, "window_start"])
        .reset_index(drop=True)
    )[[KEY, "window_start", "turn_count", "n_user", "n_assistant"]]
    wexp = _sliding_oracle(exp, 120.0, 60.0)
    pd.testing.assert_frame_equal(win, wexp, check_dtype=False)

    ses = (
        res.sinks["sessions"].read().to_pandas()
        .sort_values([KEY, "session_id"])
        .reset_index(drop=True)
    )
    sexp = exp.sort_values([KEY, "ts"], kind="stable").reset_index(drop=True)
    sexp["session_id"] = sexp.groupby(KEY).cumcount()
    assert len(ses) == len(sexp)
    assert (ses["turn_count"] == 1).all()
    pd.testing.assert_frame_equal(
        ses[[KEY, "session_id"]].reset_index(drop=True),
        sexp[[KEY, "session_id"]].reset_index(drop=True),
        check_dtype=False,
    )
    assert (
        ses["session_start"].astype("datetime64[us]").to_numpy()
        == sexp["ts"].astype("datetime64[us]").to_numpy()
    ).all()


def test_stream_joiner_within_us_matches_batch(ray_session, tmp_path):
    """Streaming joiner with an event-time bound == batch join_user_assistant
    with the same within_us: the joiner alone, and in the engine
    (``join_within_s``), whose run also ends keys on a non-default
    ``last_value``."""
    import ray.data

    from ray_ordered_stream.epochs import run_stream
    from ray_ordered_stream.join import join_user_assistant
    from ray_ordered_stream.stream_ops import StreamJoiner

    # no "end" sentinel turns, so under the default last_value no key ends
    t = gen_transcripts(n_convs=8, min_turns=10, max_turns=40, seed=17,
                        end_sentinel=False)
    exp_df = oracle_ordered(t)
    within = 2_000_000  # 2s; pairs are 0.8 s or 2.4 s apart -> some drop
    inorder = pa.Table.from_pandas(
        exp_df.sort_values([KEY, SEQ], kind="stable"), preserve_index=False
    )
    j = StreamJoiner(within_us=within)
    outs = []
    n_chunks = 6
    step = -(-inorder.num_rows // n_chunks)
    for i in range(n_chunks):
        outs.append(j.update(inorder.slice(i * step, step)))
    ds = ray.data.from_arrow(
        pa.Table.from_pandas(exp_df, preserve_index=False)
    )
    exp = (
        join_user_assistant(ds, within_us=within)
        .to_pandas()
        .sort_values([KEY, "user_turn_idx"])
        .reset_index(drop=True)
    )
    assert 0 < len(exp) < len(join_user_assistant(ds).to_pandas())

    files = []
    for i in range(n_chunks):
        files.append(str(tmp_path / f"part-{i:05d}.parquet"))
        pq.write_table(t.slice(i * step, step), files[-1])
    cfg = OrderedConfig(stream_join=True, join_within_s=within / US, last_value="tool")
    res = run_stream(files, str(tmp_path / "out"), cfg, num_partitions=2,
                     files_per_epoch=2, collect_final_status=True)
    for joined in (pa.concat_tables(outs), res.sinks["joined"].read()):
        got = (
            joined.to_pandas()
            .sort_values([KEY, "user_turn_idx"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[[KEY, "user_turn_idx", "assistant_turn_idx", "lag_us"]],
            exp[[KEY, "user_turn_idx", "assistant_turn_idx", "lag_us"]],
            check_dtype=False,
        )
    # a key has seen its last event once it has a "tool" turn
    ended = exp_df.groupby(KEY)["role"].apply(lambda r: bool((r == "tool").any()))
    assert ended.any()
    fin = res.final_status.set_index(KEY)["last_event_received"]
    assert fin.sort_index().to_dict() == ended.sort_index().to_dict()


def test_session_merge_many_nested_singletons_converges():
    """Regression (review): one long open session + 65+ late singletons
    inside it must collapse to ONE session (per-key cummax merge, not a
    capped prev-element chain)."""
    acc = SessionAccumulator(5.0, allowed_lateness_s=10_000.0)
    acc.update(_mk([("k", 0.0), ("k", 4.0), ("k", 1000.0)]))  # opens [0,4],[1000]
    acc.update(_mk([("k", 4.0 + 4.96 * i) for i in range(1, 202)]))  # bridge chain
    out = acc.take_closed(final=True).to_pandas()
    assert len(out) == 1
    assert out["turn_count"].iloc[0] == 204


# ---------------------------------------------------------------------------
# late-data policy (late_data="drop": Flink allowedLateness + sideOutputLateData)
# ---------------------------------------------------------------------------


def test_window_late_drop_routes_to_side_output():
    """With late_data="drop" a contribution to an already-released tumbling
    window goes to the side output; the window never re-fires."""
    merge = WindowAccumulator(5.0)
    drop = WindowAccumulator(5.0, late_data="drop")
    head = _mk([("a", 0), ("a", 1), ("a", 10)])
    late = _mk([("a", 2)])
    for acc in (merge, drop):
        assert acc.update(head) is None
        released = acc.take_closed()
        assert released.num_rows == 1  # window [0,5) closed by watermark 10

    # merge: the late row re-opens [0,5) and re-fires a partial row
    assert merge.update(late) is None
    refire = merge.take_closed()
    assert refire.num_rows == 1
    assert refire["turn_count"].to_pylist() == [1]

    # drop: the late row is diverted; [0,5) stays closed forever
    side = drop.update(late)
    assert side is not None and side.num_rows == 1
    assert side["operator"].to_pylist() == ["windows"]
    assert side["dropped_windows"].to_pylist() == [1]
    assert side[KEY].to_pylist() == ["a"]
    assert drop.take_closed().num_rows == 0
    # only the still-open [10,15) window remains for the final flush
    fin = drop.take_closed(final=True)
    assert fin.num_rows == 1
    assert fin["window_start"].to_pandas().iloc[0].timestamp() == 10.0


def test_window_late_drop_sliding_partial_expiry():
    """A sliding-window row whose older hops expired still contributes to
    its surviving hops; the side output records the expired count."""
    acc = WindowAccumulator(4.0, step_s=2.0, late_data="drop")
    acc.update(_mk([("a", 5.0)]))  # watermark 5
    # ts=3 covers hops [0,4) (end 4 <= 5: expired) and [2,6) (end 6 > 5: open)
    side = acc.update(_mk([("a", 3.0)]))
    assert side is not None and side.num_rows == 1
    assert side["dropped_windows"].to_pylist() == [1]
    fin = acc.take_closed(final=True).to_pandas()
    w26 = fin[fin["window_start"].astype("datetime64[us]").astype("int64") == 2 * US]
    # ts=5 also covers [2,6): count 2 proves the surviving hop kept ts=3
    assert w26["turn_count"].tolist() == [2]


def test_session_late_drop_routes_to_side_output():
    """With late_data="drop" an event whose singleton session is already
    releasable opens no out-of-order session."""
    merge = SessionAccumulator(5.0)
    drop = SessionAccumulator(5.0, late_data="drop")
    head = _mk([("a", 0), ("a", 1), ("a", 100)])
    late = _mk([("a", 3)])  # 3 + 5 < 100: its session could already release
    for acc in (merge, drop):
        assert acc.update(head) is None
        assert acc.take_closed().num_rows == 1  # [0,1] released

    assert merge.update(late) is None          # merge: new session [3,3]
    assert merge.take_closed(final=True).num_rows == 2

    side = drop.update(late)
    assert side is not None and side.num_rows == 1
    assert side["operator"].to_pylist() == ["sessions"]
    assert side[KEY].to_pylist() == ["a"]
    fin = drop.take_closed(final=True)
    assert fin.num_rows == 1                   # only [100,100] remains
    assert fin["session_id"].to_pylist() == [1]  # sid continuity intact


def test_session_late_drop_not_late_within_lateness():
    """allowed_lateness widens the drop horizon exactly like take_closed's
    release criterion; a late event that still merges into an unfired open
    session is kept (Flink session-lateness rule — that window has not
    fired, so keeping it cannot double-fire)."""
    acc = SessionAccumulator(5.0, allowed_lateness_s=50.0, late_data="drop")
    acc.update(_mk([("a", 0), ("a", 100)]))
    # 60 + 5 >= 100 - 50: NOT late (still inside the lateness bound)
    assert acc.update(_mk([("a", 60)])) is None
    # 3 + 5 < 100 - 50 BUT [3-gap, 3+gap] overlaps the session at 0, which
    # has not fired yet -> merged and kept, not dropped
    assert acc.update(_mk([("a", 3)])) is None
    assert acc.take_closed().num_rows == 1  # [0,3] fires once, with the event
    # now 4 + 5 < 50 and no open session overlaps [4-gap, 4+gap]: dropped
    side = acc.update(_mk([("a", 4)]))
    assert side is not None and side.num_rows == 1


def test_stream_late_sink_e2e(ray_session, tmp_path):
    """run_stream with late_data="drop" commits dropped rows to a 'late'
    sink with exactly-once manifests like any other side output."""
    import pyarrow.parquet as pq

    from ray_ordered_stream.epochs import run_stream

    def turns(rows):
        ks, seqs, tss = zip(*rows)
        return pa.table(
            {
                KEY: pa.array(ks, pa.string()),
                SEQ: pa.array(seqs, pa.int32()),
                "role": pa.array(
                    ["user" if s % 2 == 0 else "assistant" for s in seqs],
                    pa.string(),
                ),
                "text": pa.array([f"{k}:{s}" for k, s in zip(ks, seqs)], pa.string()),
                "ts": pa.array(
                    (np.asarray(tss) * US).astype("int64"), pa.int64()
                ).cast(pa.timestamp("us")),
            }
        )

    d = tmp_path / "landing"
    d.mkdir()
    # epoch 0: key a turns 0-3 (ts 0..3) + key b turn 0 at ts 100 -> the
    # partition watermark jumps to 100 and window [0,10) for a releases
    f0 = d / "part-00000.parquet"
    pq.write_table(
        turns([("a", 0, 0), ("a", 1, 1), ("a", 2, 2), ("a", 3, 3), ("b", 0, 100)]),
        f0,
    )
    # epoch 1: key a turns 4-5 with ts 4,5 -> late for window [0,10)
    f1 = d / "part-00001.parquet"
    pq.write_table(turns([("a", 4, 4), ("a", 5, 5)]), f1)

    cfg = OrderedConfig(window_size_s=10.0, late_data="drop", warmup_rows=0)
    res = run_stream(
        [str(f0), str(f1)], str(tmp_path / "run"), cfg,
        num_partitions=1, files_per_epoch=1,
    )
    assert res.total_emitted == 7
    assert "late" in res.sinks
    late = res.sinks["late"].read().to_pandas()
    assert sorted(late[KEY]) == ["a", "a"]
    assert late["operator"].tolist() == ["windows", "windows"]
    win = res.sinks["windows"].read().to_pandas()
    # [0,10) fired exactly once, with only the 4 pre-watermark rows
    w0 = win[
        (win[KEY] == "a")
        & (win["window_start"].astype("datetime64[us]").astype("int64") == 0)
    ]
    assert w0["turn_count"].tolist() == [4]
