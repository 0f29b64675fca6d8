"""The ordered core's columnar per-key counters against a pure-Python
per-key model of the same contract: status rows (every column), dirty
snapshots and emitted order, over random arrival orders with duplicates,
buffer carry-over, ``max_emit_per_round`` and a restore mid-stream; the
packed-key sort against its ``lexsort`` fallback; and a checkpoint written
in format 4 (tests/data/ckpt_v4)."""

from datetime import datetime
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ray_ordered_stream.checkpoint import (
    read_merged_checkpoint,
    write_partition_checkpoint,
)
from ray_ordered_stream.schema import COUNTERS_SCHEMA, KEY, SEQ, STATUS_SCHEMA
from ray_ordered_stream.state import (
    OrderedConfig,
    OrderedPartitionState,
    _key_seq_order,
)
from ray_ordered_stream.stream_ops import Operator, operator_kinds

TS = datetime(2025, 1, 1)
# byte order differs from naive expectations: upper case before lower, and
# multi-byte UTF-8 after ASCII
KEYS = ["b", "a", "Z", "aa", "é", "ä", "k10", "k9"]


class RefState:
    """Per-key reference of OrderedPartitionState: plain dicts and lists,
    one key at a time."""

    def __init__(self, initial_seq=0, cap=0):
        self.initial_seq, self.cap = initial_seq, cap
        self.c: dict[str, dict] = {}
        self.buffer: list[dict] = []   # remainder rows, in the engine's order
        self.dirty: set[str] = set()

    def _kc(self, k):
        return self.c.setdefault(k, dict(received=0, duplicates=0, results=0,
                                         next_seq=None, last_event=False))

    def process(self, rows, ts):
        combined = self.buffer + rows
        keys = list(dict.fromkeys(r[KEY] for r in combined))  # first seen
        touched = set()
        for r in rows:
            self._kc(r[KEY])["received"] += 1
            touched.add(r[KEY])
        runs, rest = {}, {}
        for k in keys:
            kc = self._kc(k)
            start = self.initial_seq if kc["next_seq"] is None else kc["next_seq"]
            seen, valid = set(), []
            for r in sorted((r for r in combined if r[KEY] == k), key=lambda r: r[SEQ]):
                if r[SEQ] < start or r[SEQ] in seen:
                    kc["duplicates"] += 1
                else:
                    seen.add(r[SEQ])
                    valid.append(r)
            n = 0
            while n < len(valid) and valid[n][SEQ] == start + n:
                n += 1
            runs[k], rest[k] = valid[:n], valid[n:]
        emitted = [r for k in keys for r in runs[k]]
        if self.cap and len(emitted) > self.cap:
            for r in reversed(emitted[self.cap:]):
                rest[r[KEY]].insert(0, r)
            emitted = emitted[: self.cap]
        out = []
        for r in emitted:
            kc = self._kc(r[KEY])
            kc["results"] += 1
            kc["next_seq"] = r[SEQ] + 1
            kc["last_event"] |= r["role"] == "end"
            touched.add(r[KEY])
            out.append((r[KEY], r[SEQ], kc["results"]))
        self.buffer = [r for k in keys for r in rest[k]]
        self.dirty |= touched
        status = []
        for k in sorted(touched):
            kc, b = self.c[k], [r[SEQ] for r in rest.get(k, [])]
            status.append({
                KEY: k, "status_ts": ts, "received_count": kc["received"],
                "buffered_count": len(b),
                "last_processed_sequence":
                    None if kc["next_seq"] is None else kc["next_seq"] - 1,
                "earliest_buffered_sequence": min(b) if b else None,
                "latest_buffered_sequence": max(b) if b else None,
                "duplicate_count": kc["duplicates"],
                "result_count": kc["results"],
                "last_event_received": kc["last_event"],
            })
        return out, status

    def take_dirty(self):
        rows = [{"key": k, "received": (c := self.c[k])["received"],
                 "duplicates": c["duplicates"], "results": c["results"],
                 "next_seq": c["next_seq"], "last_event": c["last_event"]}
                for k in sorted(self.dirty)]
        self.dirty = set()
        return rows


def _random_calls(seed):
    """Arrival-ordered rows of KEYS in random order with re-delivered
    duplicates and one key that never sees its initial event, cut into
    calls of random size (some empty)."""
    rng = np.random.default_rng(seed)
    rows = []
    for i, k in enumerate(KEYS):
        n = int(rng.integers(1, 25))
        first = 1 if i == 3 else 0   # "aa" waits for a seq 0 that never comes
        for s in range(first, n):
            rows.append({KEY: k, SEQ: s, "role": "end" if s == n - 1 else "user"})
    rows = [rows[i] for i in rng.permutation(len(rows))]
    for _ in range(len(rows) // 6):   # re-deliver ~16 % later in the stream
        j = int(rng.integers(0, len(rows)))
        rows.insert(int(rng.integers(j, len(rows) + 1)), dict(rows[j]))
    cuts = np.sort(rng.integers(0, len(rows) + 1, 7))
    return [rows[a:b] for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(rows)])]


def _table(rows):
    return pa.table({
        KEY: pa.array([r[KEY] for r in rows], pa.string()),
        SEQ: pa.array([r[SEQ] for r in rows], pa.int32()),
        "role": pa.array([r["role"] for r in rows], pa.string()),
    })


@pytest.mark.parametrize("cap", [0, 5])
@pytest.mark.parametrize("seed", range(6))
def test_counters_match_per_key_model(tmp_path, seed, cap):
    cfg = OrderedConfig(max_emit_per_round=cap)
    st, ref = OrderedPartitionState(cfg), RefState(cap=cap)
    calls = _random_calls(seed)
    for i, rows in enumerate(calls):
        if i == len(calls) // 2:
            # restore mid-stream from the incremental checkpoint lineage
            st = OrderedPartitionState.restore(
                cfg, read_merged_checkpoint(str(tmp_path), 0, i - 1))
        emitted, status = st.process(_table(rows), TS)
        want_emitted, want_status = ref.process(rows, TS)
        assert list(zip(emitted[KEY].to_pylist(), emitted[SEQ].to_pylist(),
                        emitted["emit_seq"].to_pylist())) == want_emitted
        assert status.schema == STATUS_SCHEMA
        assert status.to_pylist() == want_status
        snap = st.snapshot(dirty_only=True)
        assert snap["counters"].schema == COUNTERS_SCHEMA
        assert snap["counters"].to_pylist() == ref.take_dirty()
        write_partition_checkpoint(str(tmp_path), 0, i, snap, full=i == 0)
        st.mark_clean()
    # drain what the output cap left behind, then every key's final row
    while st.buffered_row_count() and cap:
        emitted, status = st.process(_table([]), TS)
        want_emitted, want_status = ref.process([], TS)
        assert list(zip(emitted[KEY].to_pylist(), emitted[SEQ].to_pylist(),
                        emitted["emit_seq"].to_pylist())) == want_emitted
        assert status.to_pylist() == want_status
        if not want_emitted:
            break
    final = st.final_status(TS).to_pylist()
    assert [r[KEY] for r in final] == sorted(ref.c)
    assert st.snapshot()["counters"].to_pylist() == [
        {"key": k, **{f: ref.c[k][f] for f in
                      ("received", "duplicates", "results", "next_seq", "last_event")}}
        for k in sorted(ref.c)]


def test_lexsort_fallback_matches_packed_path(monkeypatch):
    rng = np.random.default_rng(0)
    n = 5000
    codes = rng.integers(0, 1000, n)
    small = rng.integers(0, 40, n)
    for seq in (small, small + (small % 3) * 2**45):
        order, c, s = _key_seq_order(codes, seq)
        want = np.lexsort((np.arange(n), seq, codes))
        np.testing.assert_array_equal(order, want)
        np.testing.assert_array_equal(c, codes[want])
        np.testing.assert_array_equal(s, seq[want])

    # the same input through the state, once with a seq span that packs
    # and once with one (2^50) that needs the lexsort: same emitted rows and
    # status, up to the far key's seq offset
    import ray_ordered_stream.state as state_mod

    lexsorts = []
    real = np.lexsort
    monkeypatch.setattr(state_mod.np, "lexsort",
                        lambda keys: lexsorts.append(len(keys)) or real(keys))
    keys = [f"k{i}" for i in range(200) for _ in range(20)] + ["far"] * 10
    base = [s for _ in range(200) for s in range(20)]
    perm = rng.permutation(len(keys))
    out = []
    for offset in (1000, 2**50):
        seqs = base + [offset + s for s in range(10)]
        t = pa.table({KEY: [keys[i] for i in perm],
                      SEQ: pa.array([seqs[i] for i in perm], pa.int64())})
        lexsorts.clear()
        emitted, status = OrderedPartitionState().process(t, TS)
        out.append((emitted, status, len(lexsorts)))
    (e_packed, s_packed, n_packed), (e_lex, s_lex, n_lex) = out
    assert (n_packed, n_lex) == (0, 1)
    assert e_packed.equals(e_lex) and e_packed.num_rows == 4000
    rows_p, rows_l = s_packed.to_pylist(), s_lex.to_pylist()
    far_p, far_l = rows_p.pop(0), rows_l.pop(0)   # "far" sorts first
    assert far_p[KEY] == far_l[KEY] == "far"
    for bound in ("earliest_buffered_sequence", "latest_buffered_sequence"):
        assert far_l[bound] - far_p[bound] == 2**50 - 1000
    assert rows_p == rows_l and len(rows_p) == 200


def test_counters_written_by_previous_version_restore_unchanged(tmp_path):
    """tests/data/ckpt_v4 is a checkpoint lineage in format 4 (a full epoch
    0 and a delta epoch 1, with buffered rows and a windows operator of
    ``window_size_s=2.0``), written from ``gen_transcripts(n_convs=12,
    min_turns=4, max_turns=24, lateness=20, dup_rate=0.05, seed=7)`` in
    three calls of a third each, plus that version's output for the last
    third: restoring it must keep every counter, and go on to the same
    emitted rows, window rows and final status."""
    data = Path(__file__).parent / "data" / "ckpt_v4"
    cfg = OrderedConfig(window_size_s=2.0)
    full = read_merged_checkpoint(str(data), 0, 0)
    delta = read_merged_checkpoint(str(data), 0, 1)
    merged = {r["key"]: r for r in full["counters"].to_pylist()}
    assert delta["counters"].num_rows > len(merged)  # both epochs were read
    merged.update((r["key"], r) for r in delta["counters"].to_pylist())

    st = OrderedPartitionState.restore(cfg, delta)
    assert st.snapshot()["counters"].to_pylist() == [merged[k] for k in sorted(merged)]
    assert st.buffered_row_count() > 0
    (op,) = [Operator(k, cfg) for k in operator_kinds(cfg)]
    op.restore(delta["windows"])
    emitted, _ = st.process(pq.read_table(data / "rest.parquet"), TS)
    assert emitted.equals(pq.read_table(data / "rest_emitted.parquet"))
    assert st.final_status(TS).equals(pq.read_table(data / "final_status.parquet"))
    op.update(emitted, None, [])
    assert op.take(final=True).equals(pq.read_table(data / "rest_windows.parquet"))

    # a full epoch rewritten from the restored state is the same checkpoint
    st0 = OrderedPartitionState.restore(cfg, full)
    op.restore(full["windows"])
    snap = {**st0.snapshot(), "windows": op.snapshot()}
    write_partition_checkpoint(str(tmp_path), 0, 0, snap, full=True)
    again = read_merged_checkpoint(str(tmp_path), 0, 0)
    assert again["counters"].equals(full["counters"])
    assert again["last_status_us"] == full["last_status_us"]
    assert again["windows"].keys() == full["windows"].keys()
    for part, v in full["windows"].items():
        assert again["windows"][part].equals(v) if isinstance(v, pa.Table) \
            else again["windows"][part] == v
