"""Property-based tests (hypothesis): for ANY arrival permutation with any
duplication pattern, the engine's output equals the serial oracle and the
status accounting is exact. Stronger than the reference's fixed-case tests
(SURVEY.md §5) — same invariants, randomized inputs."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from ray_ordered_stream.fixtures import gen_transcripts, oracle_ordered
from ray_ordered_stream.schema import ARRIVAL, KEY, SEQ
from ray_ordered_stream.state import OrderedConfig, OrderedPartitionState

TS = pd.Timestamp("2025-01-01")


def _permuted(n_convs, turns, perm_seed, dup_idx):
    t = gen_transcripts(n_convs=n_convs, min_turns=turns, max_turns=turns,
                        end_sentinel=False)
    t = t.drop_columns([ARRIVAL])
    rng = np.random.default_rng(perm_seed)
    if dup_idx:
        extra = t.take([i % t.num_rows for i in dup_idx])
        t = pa.concat_tables([t, extra])
    order = rng.permutation(t.num_rows)
    t = t.take(order)
    return t.append_column(ARRIVAL, pa.array(np.arange(t.num_rows), pa.int64()))


@settings(max_examples=25, deadline=None)
@given(
    n_convs=st.integers(1, 5),
    turns=st.integers(1, 12),
    perm_seed=st.integers(0, 10_000),
    dup_idx=st.lists(st.integers(0, 100), max_size=6),
    chunk=st.integers(1, 17),
)
def test_any_permutation_matches_oracle(n_convs, turns, perm_seed, dup_idx, chunk):
    t = _permuted(n_convs, turns, perm_seed, dup_idx)
    stt = OrderedPartitionState(OrderedConfig())
    emitted = []
    for lo in range(0, t.num_rows, chunk):
        e, _ = stt.process(t.slice(lo, min(chunk, t.num_rows - lo)), TS)
        emitted.append(e)
    got = (
        pa.concat_tables(emitted)
        .to_pandas()
        .sort_values([KEY, SEQ], kind="stable")
        .reset_index(drop=True)
    )
    exp = oracle_ordered(t)
    assert list(got["text"]) == list(exp["text"])
    assert list(got[SEQ]) == list(exp[SEQ])
    assert list(got["emit_seq"]) == list(exp["emit_seq"])
    # buffers fully drained; accounting exact
    assert stt.buffer is None or stt.buffer.num_rows == 0
    total = int(stt.counters.results.sum())
    dups = int(stt.counters.duplicates.sum())
    recv = int(stt.counters.received.sum())
    assert total == len(exp)
    assert recv == t.num_rows
    assert dups == t.num_rows - len(exp)


@settings(max_examples=10, deadline=None)
@given(
    perm_seed=st.integers(0, 10_000),
    cap=st.integers(1, 7),
)
def test_emit_cap_never_breaks_contiguity(perm_seed, cap):
    t = _permuted(3, 8, perm_seed, [])
    stt = OrderedPartitionState(OrderedConfig(max_emit_per_round=cap))
    emitted = []
    e, _ = stt.process(t, TS)
    emitted.append(e)
    for _ in range(200):
        e, _ = stt.process(t.slice(0, 0), TS)
        if e.num_rows == 0:
            break
        emitted.append(e)
    assert all(e.num_rows <= cap for e in emitted)
    got = (
        pa.concat_tables(emitted)
        .to_pandas()
        .sort_values([KEY, SEQ], kind="stable")
        .reset_index(drop=True)
    )
    exp = oracle_ordered(t)
    assert list(got["emit_seq"]) == list(exp["emit_seq"])
    assert list(got["text"]) == list(exp["text"])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_keys=st.integers(1, 4),
    n_events=st.integers(1, 120),
    chunk=st.integers(1, 23),
)
def test_book_any_batching_matches_row_builder(seed, n_keys, n_events, chunk):
    # BookState consumes the ordered emission (per-key in-sequence); ANY
    # batching of that stream must equal the reference-shaped row builder.
    from ray_ordered_stream.book import BookState, OrderBookBuilder

    rng = np.random.default_rng(seed)
    rows = {k: [] for k in ("key", "seq", "type", "side", "price", "qty", "ts")}
    builders, seqs = {}, {}
    for i in range(n_events):
        k = f"k{rng.integers(n_keys)}"
        s = seqs.get(k, 0)
        seqs[k] = s + 1
        typ = ["NEW", "NEW", "EXECUTED", "DELETED"][rng.integers(4)]
        side = ["BUY", "SELL"][rng.integers(2)]
        price = int(rng.integers(1, 12))
        qty = int(rng.integers(1, 9))
        rows["key"].append(k)
        rows["seq"].append(s)
        rows["type"].append(typ)
        rows["side"].append(side)
        rows["price"].append(price)
        rows["qty"].append(qty)
        rows["ts"].append(i * 1000)
        builders.setdefault(k, OrderBookBuilder()).process_event(
            {"type": typ, "side": side, "price": price, "qty": qty,
             "seq_id": s, "contract_seq_id": s, "contract_id": 1,
             "timestamp_ms": i}
        )
    t = pa.table(
        {
            "key": pa.array(rows["key"], pa.string()),
            "seq": pa.array(rows["seq"], pa.int64()),
            "type": pa.array(rows["type"], pa.string()),
            "side": pa.array(rows["side"], pa.string()),
            "price": pa.array(rows["price"], pa.int64()),
            "qty": pa.array(rows["qty"], pa.int64()),
            "ts": pa.array(rows["ts"], pa.int64()).cast(pa.timestamp("us")),
        }
    )
    stt = BookState()
    for lo in range(0, t.num_rows, chunk):
        stt.update(t.slice(lo, min(chunk, t.num_rows - lo)))
    for k, b in builders.items():
        assert stt.books.get(k, {}) == b.prices, k


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_convs=st.integers(1, 4),
    turns=st.integers(2, 20),
    chunk=st.integers(1, 13),
)
def test_stream_joiner_any_batching_matches_serial(seed, n_convs, turns, chunk):
    # ANY batching of the in-sequence emission must produce exactly the
    # serial pairs: each user turn joined to the key's NEXT assistant turn.
    from ray_ordered_stream.stream_ops import StreamJoiner

    t = gen_transcripts(n_convs=n_convs, min_turns=turns, max_turns=turns,
                        seed=seed, end_sentinel=False)
    t = t.drop_columns([ARRIVAL]).sort_by([(KEY, "ascending"), (SEQ, "ascending")])
    j = StreamJoiner()
    outs = []
    for lo in range(0, t.num_rows, chunk):
        o = j.update(t.slice(lo, min(chunk, t.num_rows - lo)))
        if o.num_rows:
            outs.append(o)
    got = (
        pa.concat_tables(outs).to_pandas().sort_values([KEY, "user_turn_idx"])
        .reset_index(drop=True)
        if outs
        else pd.DataFrame(columns=[KEY, "user_turn_idx", "assistant_turn_idx"])
    )
    df = t.to_pandas()
    exp = []
    for k, g in df.groupby(KEY):
        users = g[g["role"] == "user"]
        asst = g[g["role"] == "assistant"]
        for _, u in users.iterrows():
            nxt = asst[asst[SEQ] > u[SEQ]]
            if len(nxt):
                exp.append((k, int(u[SEQ]), int(nxt.iloc[0][SEQ])))
    assert len(got) == len(exp)
    assert [
        (r[KEY], int(r["user_turn_idx"]), int(r["assistant_turn_idx"]))
        for _, r in got.iterrows()
    ] == sorted(exp)
