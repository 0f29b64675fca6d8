"""End-to-end engine tests: ordered_process over Ray Datasets vs the serial
oracle, multi-partition determinism (same output at P=2 and P=8), final
status completion — the pipeline-level re-expression of
OrderBookProcessingPipelineTest (reference, see SURVEY.md §5)."""

import mmap
import sys

import pandas as pd
import pyarrow as pa
import pytest

from ray_ordered_stream.fixtures import oracle_final_status, oracle_ordered, tiny_fixture
from ray_ordered_stream.ordered import OrderedProcessor, _shared_resident_kb, ordered_process
from ray_ordered_stream.schema import KEY, SEQ
from ray_ordered_stream.state import OrderedConfig

TS = pd.Timestamp("2025-06-01")


def sorted_df(ds_or_tbl):
    if isinstance(ds_or_tbl, pa.Table):
        df = ds_or_tbl.to_pandas()
    else:
        df = ds_or_tbl.to_pandas()
    return df.sort_values([KEY, SEQ], kind="stable").reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
def test_ordered_process_table_input():
    t = tiny_fixture("t_multi")
    res = ordered_process(t, OrderedConfig(), num_partitions=2)
    got = sorted_df(res.ordered)
    exp = oracle_ordered(t)
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )


@pytest.mark.usefixtures("ray_session")
def test_ordered_process_dataset_input_and_partition_invariance():
    import ray.data as rd

    t = tiny_fixture("t_skew")
    ds = rd.from_arrow(t).repartition(8)
    out = {}
    for P in (2, 8):
        res = ordered_process(ds, OrderedConfig(), num_partitions=P)
        out[P] = sorted_df(res.ordered)
    pd.testing.assert_frame_equal(out[2], out[8])
    exp = oracle_ordered(t)
    pd.testing.assert_frame_equal(
        out[2][[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )


def _facade_feed(t, cfg):
    res = ordered_process(t, cfg, num_partitions=2)
    got = sorted_df(res.ordered)
    assert res.status.count() > 0
    exp = oracle_ordered(t)
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )


def _processor_feed(t, cfg):
    # the registry's ordered_final_status / order_book_depth shape
    proc = OrderedProcessor(cfg, 2)
    proc.feed_epoch(t, TS)
    fin = proc.final_status_table(TS).to_pandas().sort_values(KEY)
    proc.shutdown()
    exp = oracle_final_status(t).sort_values(KEY)
    assert list(fin["received_count"]) == list(exp["received_count"])
    assert list(fin["result_count"]) == list(exp["result_count"])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("feed", [_facade_feed, _processor_feed],
                         ids=["ordered_process", "feed_epoch"])
def test_ordered_process_leaves_the_actor_pool_alone(tmp_path, feed):
    # a batch feed's actors load ray.data (Ray's pa.Table reducer), so they
    # can never go back to the pool: a batch feed must not take the pool's
    # idle actors either
    import ray

    from ray_ordered_stream.ordered import _POOL

    warm = OrderedProcessor(OrderedConfig(warmup_rows=256), num_partitions=2)
    warm.wait_ready(str(tmp_path), None)
    warm.shutdown()
    before = [w._actor_id.hex() for w in _POOL.idle]
    assert len(before) >= 2
    feed(tiny_fixture("t_multi"), OrderedConfig(warmup_rows=256))
    assert [w._actor_id.hex() for w in _POOL.idle] == before
    assert ray.get([w.ping.remote() for w in _POOL.idle])


@pytest.mark.usefixtures("ray_session")
def test_final_status_completion_protocol():
    # ≙ run-perf-test.sh check_processing_progress: all input rows accounted
    # for; every key fully processed with empty buffers.
    t = tiny_fixture("t_multi")
    proc = OrderedProcessor(OrderedConfig(), num_partitions=4)
    proc.feed_epoch(t, TS)
    fin = proc.final_status(TS).to_pandas()
    exp = oracle_final_status(t).sort_values(KEY).reset_index(drop=True)
    fin = fin.sort_values(KEY).reset_index(drop=True)
    assert fin["result_count"].sum() == exp["result_count"].sum()
    assert (fin["buffered_count"] == 0).all()
    assert fin["last_event_received"].all()
    assert list(fin["received_count"]) == list(exp["received_count"])
    assert list(fin["duplicate_count"]) == list(exp["duplicate_count"])
    proc.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_multi_epoch_streaming_feed():
    t = tiny_fixture("t_multi")
    proc = OrderedProcessor(OrderedConfig(), num_partitions=3)
    n = t.num_rows
    step = 101
    for i, lo in enumerate(range(0, n, step)):
        proc.feed_epoch(t.slice(lo, min(step, n - lo)), TS + pd.Timedelta(seconds=i))
    res = proc.datasets()
    got = sorted_df(res.ordered)
    exp = oracle_ordered(t)
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )
    assert proc.buffered_rows() == 0
    proc.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_hot_key_overrides_do_not_change_results():
    from ray_ordered_stream.partitioning import compute_hot_key_overrides

    t = tiny_fixture("t_skew")
    ov = compute_hot_key_overrides(t, KEY, 4)
    assert len(ov) > 0
    res = ordered_process(t, OrderedConfig(), num_partitions=4, overrides=ov)
    got = sorted_df(res.ordered)
    exp = oracle_ordered(t)
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )


@pytest.mark.usefixtures("ray_session")
def test_emit_cap_with_drain_loop():
    t = tiny_fixture("t_multi")
    res = ordered_process(
        t, OrderedConfig(max_emit_per_round=40), num_partitions=2
    )
    got = sorted_df(res.ordered)
    exp = oracle_ordered(t)
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )


@pytest.mark.usefixtures("ray_session")
def test_engine_level_every_event_status_trajectory():
    # FIXTURES.md §3 golden trajectory through the FULL engine (P=1 keeps the
    # global arrival order; ≙ OrderBookProcessingPipelineTest.java:140-195).
    t = tiny_fixture("t_reverse")
    res = ordered_process(
        t, OrderedConfig(status_every_event=True), num_partitions=1
    )
    s = res.status.to_pandas()
    assert list(s["received_count"]) == [1, 2, 3]
    assert list(s["buffered_count"]) == [1, 2, 0]
    assert s["last_processed_sequence"].iloc[2] == 2
    assert list(s["result_count"]) == [0, 0, 3]
    exp = oracle_ordered(t)
    got = sorted_df(res.ordered)
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )


@pytest.mark.usefixtures("ray_session")
def test_range_partitioning_matches_oracle():
    from ray_ordered_stream.partitioning import compute_range_bounds

    t = tiny_fixture("t_multi")
    bounds = compute_range_bounds(t, KEY, 3)
    assert len(bounds) >= 1
    proc = OrderedProcessor(OrderedConfig(), num_partitions=3, range_bounds=bounds)
    proc.feed_epoch(t, TS)
    res = proc.datasets()
    got = sorted_df(res.ordered)
    exp = oracle_ordered(t)
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )
    proc.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_null_key_rows_quarantined_to_dlq():
    import pyarrow as pa

    t = tiny_fixture("t_multi")
    # corrupt two rows: null conv_id / null turn_idx
    bad = pa.table(
        {
            KEY: pa.array([None, "cX"], pa.string()),
            SEQ: pa.array([0, None], pa.int32()),
            "role": pa.array(["user", "user"]),
            "text": pa.array(["b1", "b2"]),
            "tool": pa.array(["", ""]),
            "ts": t["ts"].slice(0, 2),
            "arrival_seq": pa.array([10**9, 10**9 + 1], pa.int64()),
        }
    )
    nullable_schema = pa.schema([pa.field(f.name, f.type, nullable=True) for f in t.schema])
    mixed = pa.concat_tables([t.cast(nullable_schema), bad.cast(nullable_schema)])
    proc = OrderedProcessor(OrderedConfig(), num_partitions=2)
    proc.feed_epoch(mixed, TS)
    res = proc.datasets()
    got = sorted_df(res.ordered)
    exp = oracle_ordered(t)  # clean rows only
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )
    import ray

    dlq = [ray.get(w.take_dlq.remote()) for w in proc.workers]
    dlq_rows = sum(d.num_rows for d in dlq if d is not None)
    assert dlq_rows == 2
    proc.shutdown()


def _wire_bytes(obj) -> int:
    """Pickled size with protocol 5, out-of-band buffers included (what
    Ray's serializer puts in plasma for a natively pickled object)."""
    import pickle

    bufs = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=bufs.append)
    return len(data) + sum(b.raw().nbytes for b in bufs)


@pytest.mark.usefixtures("ray_session")
def test_exchange_shards_ship_o_rows_bytes(tmp_path):
    # Exchange shards are RecordBatches, which pickle natively: a sliced
    # batch would ship its whole parent buffers (ARROW-10739; Ray's
    # pa.Table reducer used to truncate them). Every shard of a
    # multi-file split must cost about its own nbytes on the wire.
    import pyarrow.parquet as pq
    import ray

    from ray_ordered_stream.fixtures import gen_transcripts
    from ray_ordered_stream.ordered import _read_and_split_parts

    t = gen_transcripts(n_convs=60, min_turns=20, max_turns=60, lateness=30, seed=5)
    files = []
    for i, lo in enumerate(range(0, t.num_rows, t.num_rows // 3 + 1)):
        f = str(tmp_path / f"f{i}.parquet")
        pq.write_table(t.slice(lo, t.num_rows // 3 + 1), f)
        files.append(f)
    assert len(files) == 3
    shards = ray.get(
        _read_and_split_parts.options(num_returns=4).remote(KEY, 4, None, None, files)
    )
    shards.append(ray.get(_read_and_split_parts.remote(KEY, 1, None, None, files)))
    assert sum(s.num_rows for s in shards[:4]) == shards[4].num_rows == t.num_rows

    def bound(b):
        return 1.2 * b.nbytes + 4096

    for s in shards:
        assert isinstance(s, pa.RecordBatch)
        assert _wire_bytes(s) <= bound(s), (s.num_rows, s.nbytes, _wire_bytes(s))
    # the bound has teeth: a zero-copy slice of the same data fails it
    sliced = shards[4].slice(0, 50)
    assert _wire_bytes(sliced) > bound(sliced)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_shared_resident_kb_counts_touched_shared_pages():
    # the read task's page drop runs only past _TASK_SHARED_KEEP_KB of this
    # reading, so it must see shared pages as they are touched
    before = _shared_resident_kb()
    m = mmap.mmap(-1, 8 << 20)  # anonymous and MAP_SHARED: shmem pages
    try:
        m.write(b"x" * (8 << 20))
        assert _shared_resident_kb() - before >= 7 * 1024
    finally:
        m.close()
