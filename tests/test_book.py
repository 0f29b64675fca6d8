"""Order-book state tests, re-expressing the reference's
OrderBookBuilderTest (business-model/.../OrderBookBuilderTest.java:47-73)
and the book-through-the-ordered-engine integration."""

import numpy as np
import pandas as pd
import pyarrow as pa

from ray_ordered_stream.book import (
    BookState,
    OrderBookBuilder,
    flatten_depth,
)


def _ev(seq, typ, side, price, qty, ts_ms=1000, contract=1):
    return {
        "type": typ,
        "side": side,
        "price": price,
        "qty": qty,
        "seq_id": seq,
        "contract_seq_id": seq,
        "contract_id": contract,
        "timestamp_ms": ts_ms,
    }


def test_simple_depth_mirrors_reference():
    # ≙ OrderBookBuilderTest.simpleTest: BUY 100@100 then SELL 100@101 ->
    # one bid (100,100), one offer (101,100), seq metadata from last event.
    b = OrderBookBuilder()
    b.process_event(_ev(1, "NEW", "BUY", 100, 100))
    b.process_event(_ev(2, "NEW", "SELL", 101, 100))
    d = b.get_current_market_depth(10, False)
    assert d["bids"] == [{"price": 100, "quantity": 100}]
    assert d["offers"] == [{"price": 101, "quantity": 100}]
    assert d["seq_id"] == 2 and d["contract_seq_id"] == 2
    assert d["contract_id"] == 1 and d["timestamp_ms"] == 1000
    assert d["last_trade"] is None


def test_executed_deleted_and_level_removal():
    b = OrderBookBuilder()
    b.process_event(_ev(1, "NEW", "BUY", 100, 100))
    b.process_event(_ev(2, "NEW", "BUY", 99, 50))
    b.process_event(_ev(3, "EXECUTED", "BUY", 100, 40))  # partial fill
    d = b.get_current_market_depth(10, True)
    # bids best-first (highest price first), last trade exposed
    assert d["bids"] == [
        {"price": 100, "quantity": 60},
        {"price": 99, "quantity": 50},
    ]
    assert d["last_trade"] == {"price": 100, "quantity": 40}
    b.process_event(_ev(4, "DELETED", "BUY", 100, 60))  # level -> 0 -> gone
    d = b.get_current_market_depth(10, False)
    assert d["bids"] == [{"price": 99, "quantity": 50}]


def test_depth_truncates_to_k():
    b = OrderBookBuilder()
    for i, p in enumerate(range(90, 100)):
        b.process_event(_ev(i + 1, "NEW", "BUY", p, 10))
    d = b.get_current_market_depth(3, False)
    assert [x["price"] for x in d["bids"]] == [99, 98, 97]


def _batch(rows):
    return pa.table(
        {
            "key": pa.array([r[0] for r in rows], pa.string()),
            "seq": pa.array([r[1] for r in rows], pa.int64()),
            "type": pa.array([r[2] for r in rows], pa.string()),
            "side": pa.array([r[3] for r in rows], pa.string()),
            "price": pa.array([r[4] for r in rows], pa.int64()),
            "qty": pa.array([r[5] for r in rows], pa.int64()),
            "ts": pa.array([r[6] for r in rows], pa.int64()).cast(pa.timestamp("us")),
        }
    )


def test_bookstate_matches_row_builder():
    # the vectorized batch path must equal the row-at-a-time reference API
    rng = np.random.default_rng(7)
    rows = []
    builders = {}
    for seq in range(500):
        k = f"c{rng.integers(3)}"
        typ = ["NEW", "NEW", "EXECUTED", "DELETED"][rng.integers(4)]
        side = ["BUY", "SELL"][rng.integers(2)]
        price = int(rng.integers(95, 105))
        qty = int(rng.integers(1, 9))
        rows.append((k, seq, typ, side, price, qty, seq * 1000))
        b = builders.setdefault(k, OrderBookBuilder())
        b.process_event(_ev(seq, typ, side, price, qty))
    st = BookState()
    # feed in two batches to exercise cross-batch merging
    st.update(_batch(rows[:260]))
    st.update(_batch(rows[260:]))
    for k, b in builders.items():
        assert st.books.get(k, {}) == b.prices, k
    # nested depth table vs per-key reference projection
    d = st.depth_table(4, with_trade=True)
    by_key = {r["key"]: r for r in d.to_pylist()}
    for k, b in builders.items():
        ref = b.get_current_market_depth(4, True)
        got = by_key[k]
        assert [(x["price"], x["quantity"]) for x in got["bids"]] == [
            (x["price"], x["quantity"]) for x in ref["bids"]
        ]
        assert [(x["price"], x["quantity"]) for x in got["offers"]] == [
            (x["price"], x["quantity"]) for x in ref["offers"]
        ]
        if ref["last_trade"] is None:
            assert got["last_trade_price"] is None
        else:
            assert got["last_trade_price"] == ref["last_trade"]["price"]
            assert got["last_trade_qty"] == ref["last_trade"]["quantity"]


def test_last_trade_is_order_dependent():
    # same event SET, different order -> different last_trade (the
    # sequence-dependent field the ordered engine must protect)
    rows = [
        ("k", 0, "NEW", "BUY", 100, 10, 0),
        ("k", 1, "EXECUTED", "BUY", 100, 3, 1),
        ("k", 2, "EXECUTED", "BUY", 100, 5, 2),
    ]
    a = BookState()
    a.update(_batch(rows))
    swapped = [rows[0], (("k", 1) + rows[2][2:]), (("k", 2) + rows[1][2:])]
    b = BookState()
    b.update(_batch(swapped))
    assert a.books == b.books  # level sums agree
    assert a.last["k"][3:] == (100, 5)
    assert b.last["k"][3:] == (100, 3)  # but the trade tape differs


def test_bookstate_snapshot_restore_roundtrip():
    import json

    rows = [
        ("k1", 0, "NEW", "BUY", 100, 10, 0),
        ("k1", 1, "NEW", "SELL", 102, 4, 1),
        ("k2", 0, "EXECUTED", "SELL", 50, 2, 2),
    ]
    st = BookState()
    st.update(_batch(rows))
    # snapshot must survive the JSON round-trip of the checkpoint metadata
    snap = json.loads(json.dumps(st.snapshot()))
    st2 = BookState()
    st2.restore(snap)
    assert st2.books == st.books
    assert st2.last == st.last
    more = [("k1", 2, "EXECUTED", "SELL", 102, 4, 3)]
    st.update(_batch(more))
    st2.update(_batch(more))
    assert st2.books == st.books


def test_flatten_depth_levels():
    st = BookState()
    st.update(
        _batch(
            [
                ("k", 0, "NEW", "BUY", 100, 10, 0),
                ("k", 1, "NEW", "BUY", 98, 5, 1),
                ("k", 2, "NEW", "SELL", 101, 7, 2),
            ]
        )
    )
    flat = flatten_depth(st.depth_table(5)).to_pylist()
    assert {
        (r["conv_id"], r["side"], r["level"], r["price"], r["quantity"])
        for r in flat
    } == {
        ("k", "BUY", 1, 100, 10),
        ("k", "BUY", 2, 98, 5),
        ("k", "SELL", 1, 101, 7),
    }


def test_book_through_engine_checkpoint_resume(tmp_path, ray_session):
    # with_book rides the ordered drain; kill-and-resume via the partition
    # checkpoints must reproduce the same final depth as an unbroken run.
    from ray_ordered_stream.ordered import OrderedProcessor
    from ray_ordered_stream.state import OrderedConfig

    rng = np.random.default_rng(11)
    n = 600
    keys = [f"c{rng.integers(5)}" for _ in range(n)]
    seqs = {}
    rows = {"conv_id": [], "turn_idx": [], "type": [], "side": [],
            "price": [], "qty": [], "ts": []}
    for k in keys:
        s = seqs.get(k, 0)
        seqs[k] = s + 1
        rows["conv_id"].append(k)
        rows["turn_idx"].append(s)
        rows["type"].append(["NEW", "NEW", "EXECUTED"][int(rng.integers(3))])
        rows["side"].append(["BUY", "SELL"][int(rng.integers(2))])
        rows["price"].append(int(rng.integers(95, 105)))
        rows["qty"].append(int(rng.integers(1, 9)))
        rows["ts"].append(s * 1000)
    t = pa.table(
        {
            "conv_id": pa.array(rows["conv_id"], pa.string()),
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "type": pa.array(rows["type"], pa.string()),
            "side": pa.array(rows["side"], pa.string()),
            "price": pa.array(rows["price"], pa.int64()),
            "qty": pa.array(rows["qty"], pa.int64()),
            "ts": pa.array(rows["ts"], pa.int64()).cast(pa.timestamp("us")),
        }
    )
    cfg = OrderedConfig(with_book=True, book_depth=5)
    root = str(tmp_path / "out")

    # unbroken run
    p1 = OrderedProcessor(cfg, 3)
    p1.feed_epoch(t, pd.Timestamp("1970-01-01"))
    full = p1.book_depth_table().to_pandas().sort_values("key").reset_index(drop=True)
    p1.shutdown()

    # half, checkpoint, new processor, restore, second half
    half = t.num_rows // 2
    p2 = OrderedProcessor(cfg, 3)
    import ray

    p2.feed_epoch(t.slice(0, half), pd.Timestamp("1970-01-01"))
    ray.get([w.checkpoint_to.remote(root, 0) for w in p2.workers])
    p2.shutdown()

    p3 = OrderedProcessor(cfg, 3)
    assert all(ray.get([w.restore_from.remote(root, 0) for w in p3.workers]))
    p3.feed_epoch(t.slice(half), pd.Timestamp("1970-01-01") + pd.Timedelta(seconds=1))
    resumed = p3.book_depth_table().to_pandas().sort_values("key").reset_index(drop=True)
    p3.shutdown()

    pd.testing.assert_frame_equal(full, resumed)
