"""Property-based tests for the streaming session/sliding-window
accumulators, the stream joiner and the CEP matcher: for ANY key/timestamp
layout and ANY chunking of the (per-key
ordered) emission, the streamed output equals the batch oracle — and a run
cut at ANY chunk boundary, checkpointed and restored into a fresh operator,
emits exactly the uncut run's tables — also with a TTL ``gc`` between the
chunks of the session and sliding-window runs."""

import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ray_ordered_stream.cep import PatternMatcher
from ray_ordered_stream.checkpoint import (
    read_merged_checkpoint,
    write_partition_checkpoint,
)
from ray_ordered_stream.schema import COUNTERS_SCHEMA, KEY, SEQ
from ray_ordered_stream.stream_ops import (
    SessionAccumulator,
    StreamJoiner,
    WindowAccumulator,
)

US = 1_000_000
GAP_S = 5.0


def _table(keys, tss, roles=None):
    n = len(keys)
    return pa.table(
        {
            KEY: pa.array([f"k{k}" for k in keys], pa.string()),
            SEQ: pa.array(range(n), pa.int32()),
            "role": pa.array(roles if roles is not None else ["user"] * n,
                             pa.string()),
            "ts": pa.array(
                (np.asarray(tss, dtype=np.float64) * US).astype("int64"),
                pa.int64(),
            ).cast(pa.timestamp("us")),
        }
    )


def _run_cut(make, slot: str, chunks: list[pa.Table], cut: int, feed) -> pa.Table:
    """Feed ``chunks[:cut]`` to one operator, send its state through a real
    checkpoint (snapshot -> write_partition_checkpoint ->
    read_merged_checkpoint -> restore) into a fresh one, feed it the rest.
    ``feed(op, chunk, final)`` returns the tables one step emits."""
    op, outs = make(), []
    for i, c in enumerate(chunks):
        if i == cut:
            with tempfile.TemporaryDirectory() as root:
                write_partition_checkpoint(
                    root, 0, 0,
                    {"counters": COUNTERS_SCHEMA.empty_table(), "buffer": None,
                     slot: op.snapshot()},
                )
                op = make()
                op.restore(read_merged_checkpoint(root, 0, 0)[slot])
        outs.extend(feed(op, c, i == len(chunks) - 1))
    return pa.concat_tables(outs)


def _chunks(tbl: pa.Table, n_chunks: int) -> list[pa.Table]:
    step = -(-tbl.num_rows // n_chunks)
    return [c for i in range(n_chunks)
            if (c := tbl.slice(i * step, step)).num_rows]


def _feed(ttl_s):
    """One step of a window or session run: update, take what closed (all
    on the last chunk), then evict keys idle past ``ttl_s`` (None: no gc),
    as a partition actor does at each epoch end."""
    def feed(acc, chunk, final):
        acc.update(chunk)
        out = [acc.take_closed()] + ([acc.take_closed(final=True)] if final else [])
        if ttl_s is not None:
            acc.gc(int(ttl_s * US))
        return out
    return feed


def _session_oracle(df: pd.DataFrame, gap_s: float) -> pd.DataFrame:
    rows = []
    for k, g in df.sort_values([KEY, "ts"]).groupby(KEY, sort=True):
        tss = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        sid = 0
        start = end = tss[0]
        cnt = 1
        for t in tss[1:]:
            if t - end > gap_s * US:
                rows.append((k, sid, start, end, cnt))
                sid += 1
                start = end = t
                cnt = 1
            else:
                end = t
                cnt += 1
        rows.append((k, sid, start, end, cnt))
    return pd.DataFrame(
        rows, columns=[KEY, "session_id", "start", "end", "turn_count"]
    )


@settings(max_examples=40, deadline=None)
@given(
    n_keys=st.integers(1, 4),
    n_events=st.integers(1, 40),
    seed=st.integers(0, 10_000),
    n_chunks=st.integers(1, 9),
    cut=st.integers(0, 9),
    ttl_s=st.sampled_from([None, 0.0, 20.0]),
)
@example(n_keys=3, n_events=30, seed=7, n_chunks=6, cut=0, ttl_s=None)  # empty state
@example(n_keys=1, n_events=25, seed=3, n_chunks=5, cut=2, ttl_s=None)  # one key
# at the cut a key has no open session but its intern code and session_id
# counter still decide later rows
@example(n_keys=3, n_events=30, seed=1, n_chunks=6, cut=3, ttl_s=None)
# gc evicts idle keys between chunks; an evicted key comes back with a new
# code after the keys still held
@example(n_keys=3, n_events=30, seed=1, n_chunks=6, cut=3, ttl_s=0.0)
def test_session_accumulator_any_layout_any_chunking(
    n_keys, n_events, seed, n_chunks, cut, ttl_s
):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_keys, n_events)
    # per-event ts increments 0..3*gap => sessions split at random points;
    # global ts-sorted feed keeps watermark vs. per-key order consistent
    tss = np.cumsum(rng.uniform(0, 3 * GAP_S, n_events))
    tbl = _table(keys, tss)
    df = tbl.to_pandas()
    exp = _session_oracle(df, GAP_S).sort_values([KEY, "session_id"]).reset_index(
        drop=True
    )

    chunks = _chunks(tbl, n_chunks)
    feed = _feed(ttl_s)
    uncut = _run_cut(lambda: SessionAccumulator(GAP_S), "sessions", chunks,
                     len(chunks), feed)
    assert _run_cut(lambda: SessionAccumulator(GAP_S), "sessions", chunks,
                    min(cut, len(chunks) - 1), feed).equals(uncut)
    got = (
        uncut
        .to_pandas()
        .sort_values([KEY, "session_start"])  # == session_id order without gc
        .reset_index(drop=True)
    )
    assert got[KEY].tolist() == exp[KEY].tolist()
    if ttl_s is None:
        assert got["session_id"].tolist() == exp["session_id"].tolist()
    else:
        # an evicted key's session ids restart at 0 when it returns
        assert all(s == 0 or s == p + 1 for k, g in got.groupby(KEY)
                   for p, s in zip([-1, *g["session_id"][:-1]], g["session_id"]))
    assert got["turn_count"].tolist() == exp["turn_count"].tolist()
    assert (
        got["session_start"].astype("datetime64[us]").astype("int64").tolist()
        == exp["start"].tolist()
    )
    assert (
        got["session_end"].astype("datetime64[us]").astype("int64").tolist()
        == exp["end"].tolist()
    )


@settings(max_examples=40, deadline=None)
@given(
    n_keys=st.integers(1, 3),
    n_events=st.integers(1, 60),
    seed=st.integers(0, 10_000),
    pat_len=st.integers(1, 3),
    n_chunks=st.integers(1, 9),
    cut=st.integers(0, 9),
)
@example(n_keys=3, n_events=50, seed=5, pat_len=2, n_chunks=5, cut=0)  # empty state
@example(n_keys=1, n_events=40, seed=9, pat_len=3, n_chunks=8, cut=3)  # one key
def test_pattern_matcher_any_roles_any_chunking(
    n_keys, n_events, seed, pat_len, n_chunks, cut
):
    rng = np.random.default_rng(seed)
    alphabet = ["a", "b", "c"]
    pattern = [alphabet[i] for i in rng.integers(0, 3, pat_len)]
    keys = np.sort(rng.integers(0, n_keys, n_events))
    # per-key consecutive seqs (the ordered-emission contract)
    seqs = np.zeros(n_events, dtype=np.int64)
    for k in np.unique(keys):
        m = keys == k
        seqs[m] = np.arange(m.sum())
    roles = [alphabet[i] for i in rng.integers(0, 3, n_events)]
    tbl = pa.table(
        {
            KEY: pa.array([f"k{k}" for k in keys], pa.string()),
            SEQ: pa.array(seqs, pa.int32()),
            "role": pa.array(roles, pa.string()),
            "ts": pa.array(np.arange(n_events) * US, pa.int64()).cast(
                pa.timestamp("us")
            ),
        }
    )
    # brute force over the per-key ordered stream
    df = tbl.to_pandas()
    exp = []
    for k, g in df.sort_values([KEY, SEQ]).groupby(KEY, sort=True):
        rs = g["role"].tolist()
        sq = g[SEQ].tolist()
        for i in range(len(g) - pat_len + 1):
            if rs[i : i + pat_len] == pattern:
                exp.append((k, sq[i], sq[i + pat_len - 1]))
    exp = sorted(exp)

    chunks = _chunks(tbl, n_chunks)
    uncut = _run_cut(lambda: PatternMatcher(pattern), "cep", chunks,
                     len(chunks), lambda m, c, _f: [m.update(c)])
    assert _run_cut(lambda: PatternMatcher(pattern), "cep", chunks,
                    min(cut, len(chunks) - 1),
                    lambda m, c, _f: [m.update(c)]).equals(uncut)
    got = uncut.to_pandas()
    got = sorted(zip(got[KEY], got["start_seq"], got["end_seq"]))
    assert got == exp


@settings(max_examples=30, deadline=None)
@given(
    n_keys=st.integers(1, 4),
    n_events=st.integers(1, 50),
    seed=st.integers(0, 10_000),
    n_chunks=st.integers(1, 8),
    size_s=st.integers(2, 30),
    step_frac=st.integers(1, 4),
    cut=st.integers(0, 8),
    ttl_s=st.sampled_from([None, 0.0, 20.0]),
)
@example(n_keys=3, n_events=40, seed=1, n_chunks=4, size_s=10, step_frac=2,
         cut=0, ttl_s=None)  # empty state
@example(n_keys=1, n_events=30, seed=2, n_chunks=6, size_s=8, step_frac=4,
         cut=3, ttl_s=None)  # one key
# at the cut a key has all its windows closed; its intern code still
# decides the order of later releases
@example(n_keys=3, n_events=40, seed=1, n_chunks=4, size_s=10, step_frac=2,
         cut=2, ttl_s=None)
# gc evicts idle keys between chunks
@example(n_keys=3, n_events=40, seed=1, n_chunks=4, size_s=10, step_frac=2,
         cut=2, ttl_s=0.0)
def test_sliding_accumulator_any_layout_any_chunking(
    n_keys, n_events, seed, n_chunks, size_s, step_frac, cut, ttl_s
):
    step_s = max(1, size_s // step_frac)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_keys, n_events)
    tss = np.sort(rng.uniform(0, 120, n_events))  # global ts-sorted feed
    tbl = _table(keys, tss)

    # oracle: explode each row into its covering hops, count per (key, ws)
    size, step = size_s * US, step_s * US
    tsi = (tss * US).astype("int64")
    n_w = -(-size // step)
    last_ws = (tsi // step) * step
    ws = last_ws[:, None] - (np.arange(n_w) * step)[None, :]
    valid = ((ws + size) > tsi[:, None]) & (ws >= 0)
    rep = np.repeat(np.arange(n_events), n_w)[valid.ravel()]
    exp = {}
    for i, w in zip(rep, ws.ravel()[valid.ravel()]):
        exp[(f"k{keys[i]}", int(w))] = exp.get((f"k{keys[i]}", int(w)), 0) + 1

    def make():
        return WindowAccumulator(float(size_s), step_s=float(step_s))

    chunks = _chunks(tbl, n_chunks)
    feed = _feed(ttl_s)
    uncut = _run_cut(make, "windows", chunks, len(chunks), feed)
    assert _run_cut(make, "windows", chunks, min(cut, len(chunks) - 1),
                    feed).equals(uncut)
    got = {}
    d = uncut.to_pydict()
    for k, w, c in zip(
        d[KEY],
        [int(pd.Timestamp(x).value // 1000) for x in d["window_start"]],
        d["turn_count"],
    ):
        assert (k, w) not in got, "window released twice"
        got[(k, w)] = c
    assert got == exp


@settings(max_examples=30, deadline=None)
@given(
    n_keys=st.integers(1, 3),
    n_events=st.integers(1, 60),
    seed=st.integers(0, 10_000),
    n_chunks=st.integers(1, 9),
    cut=st.integers(0, 9),
)
@example(n_keys=3, n_events=40, seed=4, n_chunks=5, cut=0)  # empty state
@example(n_keys=1, n_events=30, seed=6, n_chunks=6, cut=2)  # one key
def test_stream_joiner_any_chunking_through_checkpoint(
    n_keys, n_events, seed, n_chunks, cut
):
    rng = np.random.default_rng(seed)
    # keys interleave in arrival order; each key's seqs rise (the ordered
    # emission contract), so lefts carry across chunk boundaries
    keys = rng.integers(0, n_keys, n_events)
    seqs = np.zeros(n_events, dtype=np.int64)
    for k in np.unique(keys):
        m = keys == k
        seqs[m] = np.arange(m.sum())
    roles = [("user", "assistant", "tool")[i] for i in rng.integers(0, 3, n_events)]
    tbl = pa.table(
        {
            KEY: pa.array([f"k{k}" for k in keys], pa.string()),
            SEQ: pa.array(seqs, pa.int32()),
            "role": pa.array(roles, pa.string()),
            "text": pa.array([f"t{i}" for i in range(n_events)], pa.string()),
            "ts": pa.array(np.arange(n_events) * US, pa.int64()).cast(
                pa.timestamp("us")
            ),
        }
    )
    # oracle: each user turn pairs with its key's next assistant turn
    exp = []
    for i in range(n_events):
        if roles[i] != "user":
            continue
        nxt = [j for j in range(i + 1, n_events)
               if keys[j] == keys[i] and roles[j] == "assistant"]
        if nxt:
            j = nxt[0]
            exp.append((f"k{keys[i]}", int(seqs[i]), int(seqs[j]),
                        f"t{i}", f"t{j}", (j - i) * US))

    chunks = _chunks(tbl, n_chunks)
    uncut = _run_cut(StreamJoiner, "join", chunks, len(chunks),
                     lambda j, c, _f: [j.update(c)])
    assert _run_cut(StreamJoiner, "join", chunks, min(cut, len(chunks) - 1),
                    lambda j, c, _f: [j.update(c)]).equals(uncut)
    d = uncut.to_pydict()
    got = sorted(zip(d[KEY], d["user_turn_idx"], d["assistant_turn_idx"],
                     d["user_text"], d["assistant_text"], d["lag_us"]))
    assert got == sorted(exp)
