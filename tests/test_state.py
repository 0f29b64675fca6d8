"""Unit tests for the pure (Ray-free) ordered state machine, re-expressing
the reference's pipeline-test expectations
(order-book-pipeline/.../OrderBookProcessingPipelineTest.java:50-232) as
per-turn text equality under stable (conv_id, turn_idx) ordering plus the
golden status trajectories (FIXTURES.md §3)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ray_ordered_stream.fixtures import (
    gen_transcripts,
    oracle_final_status,
    oracle_ordered,
    tiny_fixture,
)
from ray_ordered_stream.schema import ARRIVAL, KEY, SEQ
from ray_ordered_stream.state import OrderedConfig, OrderedPartitionState

TS = pd.Timestamp("2025-01-01")


def run_single_epoch(tbl, cfg=None):
    st = OrderedPartitionState(cfg or OrderedConfig())
    emitted, status = st.process(tbl, TS)
    return st, emitted, status


def assert_matches_oracle(tbl, emitted):
    exp = oracle_ordered(tbl)
    got = (
        emitted.to_pandas()
        .sort_values([KEY, SEQ], kind="stable")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]].reset_index(drop=True),
        exp[[KEY, SEQ, "text", "emit_seq"]].reset_index(drop=True),
    )


def test_inorder_never_buffers():
    t = tiny_fixture("t_inorder")
    cfg = OrderedConfig(status_every_event=True)
    st, emitted, status = run_single_epoch(t, cfg)
    assert_matches_oracle(t, emitted)
    s = status.to_pandas()
    # ≙ OrderBookProcessingPipelineTest.java:92-137: received=n, buffered=0,
    # lastProcessed=n, result=n, dup=0 after every event (0-based here).
    assert list(s["received_count"]) == [1, 2, 3]
    assert list(s["buffered_count"]) == [0, 0, 0]
    assert list(s["last_processed_sequence"]) == [0, 1, 2]
    assert list(s["result_count"]) == [1, 2, 3]
    assert list(s["duplicate_count"]) == [0, 0, 0]


def test_reverse_golden_trajectory():
    t = tiny_fixture("t_reverse")
    cfg = OrderedConfig(status_every_event=True)
    st, emitted, status = run_single_epoch(t, cfg)
    assert_matches_oracle(t, emitted)
    s = status.to_pandas()
    # FIXTURES.md §3 golden trajectory (0-based re-expression of
    # OrderBookProcessingPipelineTest.java:180-191): turns arrive 2,1,0.
    assert list(s["received_count"]) == [1, 2, 3]
    assert list(s["buffered_count"]) == [1, 2, 0]
    assert s["last_processed_sequence"].tolist()[:2] == [None, None] or list(
        s["last_processed_sequence"].isna()[:2]
    ) == [True, True]
    assert s["last_processed_sequence"].iloc[2] == 2
    assert s["earliest_buffered_sequence"].iloc[0] == 2
    assert s["latest_buffered_sequence"].iloc[0] == 2
    assert s["earliest_buffered_sequence"].iloc[1] == 1
    assert s["latest_buffered_sequence"].iloc[1] == 2
    assert pd.isna(s["earliest_buffered_sequence"].iloc[2])
    assert list(s["result_count"]) == [0, 0, 3]


def test_gap_buffer_and_flush():
    t = tiny_fixture("t_gap")  # arrival: turn0, then 2,3,4,5, then 1
    cfg = OrderedConfig(status_every_event=True)
    st, emitted, status = run_single_epoch(t, cfg)
    assert_matches_oracle(t, emitted)
    s = status.to_pandas()
    assert list(s["buffered_count"]) == [0, 1, 2, 3, 4, 0]
    assert list(s["result_count"]) == [1, 1, 1, 1, 1, 6]
    assert s["earliest_buffered_sequence"].iloc[4] == 2
    assert s["latest_buffered_sequence"].iloc[4] == 5


def test_duplicates_dropped_and_counted():
    t = tiny_fixture("t_dup")  # turns 0..3 in order, then dups of 0 and 2
    cfg = OrderedConfig(status_every_event=True)
    st, emitted, status = run_single_epoch(t, cfg)
    assert_matches_oracle(t, emitted)
    s = status.to_pandas()
    assert list(s["duplicate_count"]) == [0, 0, 0, 0, 1, 2]
    assert list(s["result_count"]) == [1, 2, 3, 4, 4, 4]
    assert emitted.num_rows == 4


def test_duplicate_of_buffered_row():
    # turn 2 arrives twice while 0,1 missing -> second copy is a duplicate
    t = tiny_fixture("t_inorder")
    t2 = pa.concat_tables([t.take([2]), t.take([2]), t.take([0]), t.take([1])])
    t2 = t2.drop_columns([ARRIVAL]).append_column(
        ARRIVAL, pa.array(np.arange(4), pa.int64())
    )
    cfg = OrderedConfig(status_every_event=True)
    st, emitted, status = run_single_epoch(t2, cfg)
    s = status.to_pandas()
    assert list(s["duplicate_count"]) == [0, 1, 1, 1]
    assert emitted.num_rows == 3


def test_multi_key_independence_bulk():
    t = tiny_fixture("t_multi")
    st, emitted, status = run_single_epoch(t)
    assert_matches_oracle(t, emitted)
    fin = oracle_final_status(t)
    s = status.to_pandas().set_index(KEY)
    for _, row in fin.iterrows():
        got = s.loc[row[KEY]]
        assert got["received_count"] == row["received_count"]
        assert got["duplicate_count"] == row["duplicate_count"]
        assert got["result_count"] == row["result_count"]
        assert got["buffered_count"] == 0
        assert got["last_processed_sequence"] == row["last_processed_sequence"]
        assert bool(got["last_event_received"]) == bool(row["last_event_received"])


def test_multi_epoch_equals_single_epoch():
    t = tiny_fixture("t_multi")
    st1, e1, _ = run_single_epoch(t)
    st2 = OrderedPartitionState(OrderedConfig())
    parts = []
    n = t.num_rows
    for lo in range(0, n, 97):
        e, _ = st2.process(t.slice(lo, min(97, n - lo)), TS)
        parts.append(e)
    e2 = pa.concat_tables(parts)
    df1 = e1.to_pandas().sort_values([KEY, SEQ]).reset_index(drop=True)
    df2 = e2.to_pandas().sort_values([KEY, SEQ]).reset_index(drop=True)
    pd.testing.assert_frame_equal(df1, df2)


def test_max_emit_per_round_loop_drain():
    t = tiny_fixture("t_multi")
    cfg = OrderedConfig(max_emit_per_round=50)
    st = OrderedPartitionState(cfg)
    parts = []
    e, _ = st.process(t, TS)
    parts.append(e)
    # loop-drain the overflow with empty batches
    empty = t.slice(0, 0)
    for _ in range(1000):
        e, _ = st.process(empty, TS)
        if e.num_rows == 0:
            break
        parts.append(e)
    emitted = pa.concat_tables(parts)
    assert_matches_oracle(t, emitted)
    assert max(p.num_rows for p in parts) <= 50


def test_digest_is_order_dependent():
    t = tiny_fixture("t_reverse")
    cfg = OrderedConfig(with_digest=True)
    st, emitted, _ = run_single_epoch(t, cfg)
    df = emitted.to_pandas().sort_values(SEQ)
    assert df["state_digest"].nunique() == 3
    # replaying in order gives the same digest chain
    t_in = tiny_fixture("t_inorder")
    st2, emitted2, _ = run_single_epoch(t_in, OrderedConfig(with_digest=True))
    df2 = emitted2.to_pandas().sort_values(SEQ)
    assert list(df["state_digest"]) == list(df2["state_digest"])


def test_snapshot_restore_roundtrip():
    t = tiny_fixture("t_multi")
    half = t.num_rows // 2
    st1 = OrderedPartitionState(OrderedConfig())
    e_a, _ = st1.process(t.slice(0, half), TS)
    st2 = OrderedPartitionState.restore(OrderedConfig(), st1.snapshot())
    e_b, _ = st2.process(t.slice(half), TS)
    emitted = pa.concat_tables([e_a, e_b])
    assert_matches_oracle(t, emitted)


def test_initial_seq_gap_from_start():
    # first arrival is turn 1 -> buffered until turn 0 arrives
    t = tiny_fixture("t_inorder")
    t2 = pa.concat_tables([t.take([1]), t.take([2]), t.take([0])])
    t2 = t2.drop_columns([ARRIVAL]).append_column(
        ARRIVAL, pa.array(np.arange(3), pa.int64())
    )
    cfg = OrderedConfig(status_every_event=True)
    st, emitted, status = run_single_epoch(t2, cfg)
    s = status.to_pandas()
    assert list(s["buffered_count"]) == [1, 2, 0]
    assert list(s["result_count"]) == [0, 0, 3]
    assert_matches_oracle(t2, emitted)


def test_status_thinning_every_k_epochs():
    # ≙ withStatusUpdateFrequency: status emitted every 3rd call only;
    # counters still accumulate and the final accounting is complete.
    t = tiny_fixture("t_multi")
    st = OrderedPartitionState(OrderedConfig(status_every_epochs=3))
    n = t.num_rows
    rows_per_call = []
    for lo in range(0, n, 97):
        _, s = st.process(t.slice(lo, min(97, n - lo)), TS)
        rows_per_call.append(s.num_rows)
    calls = len(rows_per_call)
    emitted_calls = [i for i, r in enumerate(rows_per_call) if r > 0]
    assert emitted_calls == [i for i in range(calls) if (i + 1) % 3 == 0]
    total_results = sum(c.results for c in st.counters.values())
    from ray_ordered_stream.fixtures import oracle_ordered

    assert total_results == len(oracle_ordered(t))


def test_buffer_offload_pathological_gap(tmp_path):
    # turn 0 of a big conversation withheld until the end: every other row
    # buffers; with offload enabled the buffer lives on disk between calls.
    import glob as _glob

    t = gen_transcripts(n_convs=1, min_turns=400, max_turns=400, end_sentinel=False)
    t = t.drop_columns([ARRIVAL])
    withheld = t.slice(0, 1)
    rest = t.slice(1)
    scratch = str(tmp_path / "scratch")
    st = OrderedPartitionState(
        OrderedConfig(buffer_offload_rows=50, scratch_dir=scratch)
    )
    parts = []
    for lo in range(0, rest.num_rows, 37):
        e, s = st.process(rest.slice(lo, 37), TS)
        parts.append(e)
    assert st.buffer is None and st._buffer_file is not None  # offloaded
    assert len(_glob.glob(f"{scratch}/*.parquet")) == 1
    assert st.buffered_row_count() == rest.num_rows
    # status bounds still served from the cache while offloaded
    b = st._buffered_bounds()
    assert list(b.values())[0][0] == rest.num_rows
    e, s = st.process(withheld, TS)  # gap fills -> full drain
    parts.append(e)
    emitted = pa.concat_tables(parts)
    assert_matches_oracle(t, emitted)
    assert st.buffered_row_count() == 0
    assert len(_glob.glob(f"{scratch}/*.parquet")) == 0  # scratch reclaimed


def test_drain_empty_batch_works_with_offloaded_buffer(tmp_path):
    # ADVICE r1: an offloaded buffer must still drain on an empty-batch call
    # (max_emit_per_round overflow), in both status modes.
    for every_event in (False, True):
        t = gen_transcripts(n_convs=1, min_turns=200, max_turns=200,
                            end_sentinel=False).drop_columns([ARRIVAL])
        st = OrderedPartitionState(
            OrderedConfig(
                buffer_offload_rows=10,
                scratch_dir=str(tmp_path / f"s{every_event}"),
                status_every_event=every_event,
            )
        )
        # withhold turn 0 -> everything buffers (and offloads)
        e, _ = st.process(t.slice(1), TS)
        assert e.num_rows == 0
        assert st._buffer_file is not None and st.buffer is None
        e, _ = st.process(t.slice(0, 1), TS)  # gap fills
        parts = [e]
        empty = t.slice(0, 0)
        for _ in range(10):
            e, _ = st.process(empty, TS)
            if e.num_rows == 0:
                break
            parts.append(e)
        emitted = pa.concat_tables(parts)
        assert_matches_oracle(t, emitted)


def test_call_count_survives_snapshot_restore():
    # ADVICE r1: the status_every_epochs thinning phase must survive
    # kill-and-resume so re-run epochs emit status on the same cadence.
    t = tiny_fixture("t_multi")
    st = OrderedPartitionState(OrderedConfig(status_every_epochs=3))
    st.process(t.slice(0, 50), TS)   # call 1: thinned
    snap = st.snapshot()
    st2 = OrderedPartitionState.restore(OrderedConfig(status_every_epochs=3), snap)
    assert st2._call_count == 1
    _, s2 = st2.process(t.slice(50, 50), TS)  # call 2: thinned
    assert s2.num_rows == 0
    _, s3 = st2.process(t.slice(100, 50), TS)  # call 3: emits
    assert s3.num_rows > 0


_TICK_US = 1_735_689_601_000_007  # 2025-01-01 00:00:01.000007 UTC


@pytest.mark.parametrize("ts", [
    pd.Timestamp("2025-01-01 00:00:01.000007"),
    pd.Timestamp("2025-01-01 00:00:01.000007").to_pydatetime(),
    np.datetime64("2025-01-01T00:00:01.000007"),
    np.datetime64("2025-01-01T00:00:01.000007123", "ns"),
    pd.Timestamp("2025-01-01 01:00:01.000007", tz="Etc/GMT-1"),
    pd.Timestamp("2025-01-01 01:00:01.000007", tz="Etc/GMT-1").to_pydatetime(),
], ids=["pd_timestamp", "datetime", "datetime64_us", "datetime64_ns",
        "pd_timestamp_tz", "datetime_tz"])
def test_ts_us_agrees_across_timestamp_types(ts):
    from ray_ordered_stream.state import _ts_us

    assert _ts_us(ts) == _TICK_US


@pytest.mark.parametrize("ts", [None, 1_735_689_601, "2025-01-01", 1.5])
def test_ts_us_rejects_non_timestamps(ts):
    from ray_ordered_stream.state import _ts_us

    with pytest.raises(TypeError, match="status_ts"):
        _ts_us(ts)


@pytest.mark.parametrize("tick", [
    lambda s: pd.Timestamp("2025-01-01") + pd.Timedelta(seconds=s),
    lambda s: pd.Timestamp("2025-01-01").to_pydatetime() + pd.Timedelta(seconds=s).to_pytimedelta(),
    lambda s: np.datetime64("2025-01-01T00:00:00", "us") + np.timedelta64(s, "s"),
], ids=["pd_timestamp", "datetime", "datetime64"])
def test_status_interval_thins_every_timestamp_type(tick):
    # two ticks 1 s apart inside a 10 s interval: only the first emits
    # status, whatever type the tick is (a datetime used to disable the
    # thinning silently and emit twice)
    t = tiny_fixture("t_multi")
    st = OrderedPartitionState(OrderedConfig(status_interval_s=10.0))
    _, s0 = st.process(t.slice(0, 4), tick(0))
    _, s1 = st.process(t.slice(4, 4), tick(1))
    assert s0.num_rows > 0 and s1.num_rows == 0


def test_status_interval_time_based():
    # ≙ withStatusUpdateFrequency(Duration): status suppressed until event
    # time has advanced >= the interval; counters always complete.
    t = tiny_fixture("t_multi")
    st = OrderedPartitionState(OrderedConfig(status_interval_s=10.0))
    base = pd.Timestamp("2025-01-01")
    rows_at = []
    n = t.num_rows
    step = n // 6 + 1
    for i, lo in enumerate(range(0, n, step)):
        _, s = st.process(t.slice(lo, step), base + pd.Timedelta(seconds=4 * i))
        rows_at.append(s.num_rows > 0)
    # emissions at t=0,12,24s... -> pattern True,False,False,True,...
    assert rows_at[0] is True
    assert rows_at[1] is False and rows_at[2] is False
    assert rows_at[3] is True
    # the phase survives snapshot/restore
    snap = st.snapshot()
    st2 = OrderedPartitionState.restore(OrderedConfig(status_interval_s=10.0), snap)
    assert st2._last_status_us == st._last_status_us


def _simulate_per_row(t, cfg_kwargs, epochs):
    """Reference trajectory: feed rows ONE per process() call (normal status
    mode emits exactly one status row per touched key per call, which for
    single-row calls is the per-event-status definition — the legacy loop
    did literally this)."""
    st = OrderedPartitionState(OrderedConfig(**cfg_kwargs))
    emitted, statuses = [], []
    for lo, hi in epochs:
        for i in range(lo, hi):
            e, s = st.process(t.slice(i, 1), TS)
            emitted.append(e)
            statuses.append(s)
    return st, pa.concat_tables(emitted), pa.concat_tables(statuses)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_event_matches_per_row_simulation(seed):
    # Differential oracle for the vectorized conformance mode: the per-event
    # status TRAJECTORY (all 10 fields, row for row) must equal feeding the
    # same rows one per call, across multi-key input with lateness, dups,
    # end sentinels, and a multi-epoch split.
    t = gen_transcripts(
        n_convs=6, min_turns=3, max_turns=25, seed=seed,
        lateness=12, dup_rate=0.15, end_sentinel=bool(seed % 2),
    )
    n = t.num_rows
    cuts = [0, n // 3, n // 3 + 7, n]
    epochs = list(zip(cuts[:-1], cuts[1:]))

    st_v = OrderedPartitionState(OrderedConfig(status_every_event=True, with_digest=True))
    em_v, ss_v = [], []
    for lo, hi in epochs:
        e, s = st_v.process(t.slice(lo, hi - lo), TS)
        em_v.append(e)
        ss_v.append(s)
    em_v = pa.concat_tables(em_v)
    ss_v = pa.concat_tables(ss_v).to_pandas()

    st_r, em_r, ss_r = _simulate_per_row(t, dict(with_digest=True), epochs)
    ss_r = ss_r.to_pandas()

    pd.testing.assert_frame_equal(ss_v.reset_index(drop=True), ss_r.reset_index(drop=True))
    df_v = em_v.to_pandas().sort_values([KEY, SEQ]).reset_index(drop=True)
    df_r = em_r.to_pandas().sort_values([KEY, SEQ]).reset_index(drop=True)
    pd.testing.assert_frame_equal(df_v, df_r)
    # final state parity too
    assert {k: (c.received, c.duplicates, c.results, c.next_seq, c.last_event, c.digest)
            for k, c in st_v.counters.items()} == \
           {k: (c.received, c.duplicates, c.results, c.next_seq, c.last_event, c.digest)
            for k, c in st_r.counters.items()}


def test_every_event_thinning_matches_per_row():
    # status_every_epochs counts CALLS; in per-event mode each row is a call.
    t = tiny_fixture("t_multi")
    cfg = dict(status_every_event=True, status_every_epochs=3)
    st_v = OrderedPartitionState(OrderedConfig(**cfg))
    _, s_v = st_v.process(t.slice(0, 20), TS)
    st_r, _, s_r = _simulate_per_row(
        t, dict(status_every_epochs=3), [(0, 20)]
    )
    pd.testing.assert_frame_equal(
        s_v.to_pandas().reset_index(drop=True),
        s_r.to_pandas().reset_index(drop=True),
    )
    assert st_v._call_count == st_r._call_count == 20
