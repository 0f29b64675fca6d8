"""Event-time TTL / state GC for the keyed streaming operators (VERDICT r2
#3): on an unbounded keyspace the window/session intern tables, the
joiner's pending lefts, and the CEP carry must stay bounded — mirroring
the dedup streams' ttl_epochs and Beam's state GC on window expiry —
while remaining deterministic across crash-resume."""

import hashlib
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ray_ordered_stream.cep import PatternMatcher
from ray_ordered_stream.schema import KEY, SEQ
from ray_ordered_stream.state import OrderedConfig
from ray_ordered_stream.stream_ops import (
    SessionAccumulator,
    StreamJoiner,
    WindowAccumulator,
)

US = 1_000_000


def _band(epoch: int, n_keys: int = 12, turns: int = 6) -> pa.Table:
    """One epoch of a ROTATING keyspace: fresh keys each epoch, all activity
    inside [epoch*3600s, epoch*3600s + ~turns s) — the unbounded-stream
    shape where per-key state must not accumulate forever."""
    base = epoch * 3600 * US
    keys, seqs, roles, texts, ts = [], [], [], [], []
    for i in range(n_keys):
        for j in range(turns):
            keys.append(f"e{epoch}k{i}")
            seqs.append(j)
            roles.append("user" if j % 2 == 0 else "assistant")
            texts.append(f"t{epoch}.{i}.{j}")
            ts.append(base + i * 10 * US + j * US)
    return pa.table(
        {
            KEY: pa.array(keys, pa.string()),
            SEQ: pa.array(seqs, pa.int32()),
            "role": pa.array(roles, pa.string()),
            "text": pa.array(texts, pa.string()),
            "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        }
    )


def test_window_gc_bounds_keys_and_preserves_output():
    n_epochs, ttl_us = 12, 1800 * US
    with_gc = WindowAccumulator(60.0)
    without = WindowAccumulator(60.0)
    out_gc, out_plain = [], []
    sizes = []
    for e in range(n_epochs):
        b = _band(e)
        with_gc.update(b)
        without.update(b)
        out_gc.append(with_gc.take_closed())
        out_plain.append(without.take_closed())
        with_gc.gc(ttl_us)
        sizes.append(with_gc.state_size()["keys"])
    out_gc.append(with_gc.take_closed(final=True))
    out_plain.append(without.take_closed(final=True))
    # bounded: at most ~2 epochs of keys alive; unbounded grows linearly
    assert max(sizes) <= 2 * 12
    assert without.state_size()["keys"] == n_epochs * 12
    g = pa.concat_tables(out_gc).to_pandas().sort_values(
        [KEY, "window_start"]).reset_index(drop=True)
    p = pa.concat_tables(out_plain).to_pandas().sort_values(
        [KEY, "window_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, p)


def test_session_gc_bounds_keys_session_id_restarts():
    ttl_us = 1800 * US
    acc = SessionAccumulator(5.0)
    b0 = _band(0, n_keys=3)
    acc.update(b0)
    acc.take_closed()  # nothing closes yet (watermark == max ts)
    # advance the watermark with epoch 1 so epoch-0 sessions close
    acc.update(_band(1, n_keys=3))
    closed = acc.take_closed().to_pandas()
    assert (closed[closed[KEY] == "e0k0"]["session_id"] == 0).all()
    evicted = acc.gc(ttl_us)
    assert evicted == 3  # the three epoch-0 keys
    # the SAME key returns after the TTL: session_id restarts at 0
    late_return = pa.table(
        {
            KEY: pa.array(["e0k0"] * 2, pa.string()),
            SEQ: pa.array([0, 1], pa.int32()),
            "role": pa.array(["user", "assistant"], pa.string()),
            "text": pa.array(["x", "y"], pa.string()),
            "ts": pa.array(
                [2 * 3600 * US, 2 * 3600 * US + US], pa.int64()
            ).cast(pa.timestamp("us")),
        }
    )
    acc.update(late_return)
    out = acc.take_closed(final=True).to_pandas()
    r = out[out[KEY] == "e0k0"]
    assert r["session_id"].tolist() == [0]  # restarted (TTL trade-off)


def test_joiner_gc_drops_stale_pending():
    j = StreamJoiner()
    # a user turn with no assistant after it stays pending
    only_user = pa.table(
        {
            KEY: pa.array(["a"], pa.string()),
            SEQ: pa.array([0], pa.int32()),
            "role": pa.array(["user"], pa.string()),
            "text": pa.array(["hi"], pa.string()),
            "ts": pa.array([0], pa.int64()).cast(pa.timestamp("us")),
        }
    )
    j.update(only_user)
    assert j.state_size() == {"keys": 1, "pending": 1}
    # another key far in the future advances the joiner's watermark
    j.update(_band(2, n_keys=1, turns=2))
    assert j.gc(1800 * US) == 1
    assert j.state_size()["keys"] <= 1  # only non-stale pendings survive


def test_cep_gc_drops_idle_carry():
    m = PatternMatcher(["user", "assistant", "user"])
    m.update(_band(0, n_keys=4, turns=5))
    assert m.state_size()["carry_rows"] == 4 * 2  # L-1 tail per key
    m.update(_band(3, n_keys=1, turns=5))
    dropped = m.gc(1800 * US)
    assert dropped == 8  # all four epoch-0 tails evicted
    assert m.state_size()["carry_rows"] == 2


def test_gc_snapshot_roundtrip_is_exact():
    acc = SessionAccumulator(5.0)
    acc.update(_band(0, n_keys=4))
    acc.update(_band(1, n_keys=4))
    acc.take_closed()
    acc.gc(1800 * US)
    snap = acc.snapshot()
    acc2 = SessionAccumulator(5.0)
    acc2.restore(snap)
    assert acc2.snapshot() == snap
    a = acc.take_closed(final=True).to_pandas()
    b = acc2.take_closed(final=True).to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_run_stream_ttl_crash_resume_byte_identical(ray_session, tmp_path):
    from ray_ordered_stream.epochs import run_stream

    feed = tmp_path / "feed"
    feed.mkdir()
    files = []
    for e in range(6):
        f = feed / f"part-{e:05d}.parquet"
        pq.write_table(_band(e), f)
        files.append(str(f))
    cfg = OrderedConfig(
        window_size_s=60.0,
        session_gap_s=5.0,
        stream_join=True,
        pattern=("user", "assistant"),
        state_ttl_s=1800.0,
    )
    run_stream(files, str(tmp_path / "a"), cfg=cfg, num_partitions=2,
               files_per_epoch=1, resume=False)

    def digest(root):
        h = {}
        for f in sorted(Path(root).rglob("*.parquet")):
            h[str(f).replace(str(root), "")] = hashlib.md5(
                f.read_bytes()
            ).hexdigest()
        return h

    import pytest

    with pytest.raises(RuntimeError):
        run_stream(files, str(tmp_path / "b"), cfg=cfg, num_partitions=2,
                   files_per_epoch=1, resume=False, fail_after_epoch=2)
    run_stream(files, str(tmp_path / "b"), cfg=cfg, num_partitions=2,
               files_per_epoch=1, resume=True)
    assert digest(tmp_path / "b") == digest(tmp_path / "a")


def test_autoscale_on_backlog_grows_P_and_matches_fixed_run(
    ray_session, tmp_path
):
    # VERDICT r2 #4: a hot stream triggers P growth mid-run; output content
    # equals the fixed-P run, lineage records the new P, and crash-resume
    # re-enters at the migrated P.
    import json

    from ray_ordered_stream.checkpoint import read_lineage_meta
    from ray_ordered_stream.epochs import run_stream_continuous
    from ray_ordered_stream.fixtures import gen_transcripts

    t = gen_transcripts(n_convs=16, min_turns=6, max_turns=24, lateness=20,
                        dup_rate=0.02, seed=13)
    land_a, land_b = tmp_path / "land_a", tmp_path / "land_b"
    for d in (land_a, land_b):
        d.mkdir()
    n, F = t.num_rows, 10
    step = -(-n // F)
    for i in range(F):
        for d in (land_a, land_b):
            pq.write_table(t.slice(i * step, step), d / f"p{i:04d}.parquet")
    (land_a / "_STOP").write_text("")
    (land_b / "_STOP").write_text("")

    res_auto = run_stream_continuous(
        str(land_a), str(tmp_path / "out_a"), num_partitions=2,
        files_per_epoch=2, poll_interval_s=0.05, idle_timeout_s=5.0,
        autoscale_backlog_epochs=2, autoscale_factor=2,
    )
    assert res_auto.metrics["rescales"], "backlog never triggered a rescale"
    ev = res_auto.metrics["rescales"][0]
    assert ev["from"] == 2 and ev["to"] == 4
    assert read_lineage_meta(str(tmp_path / "out_a"))["partitions"] == 4

    res_fixed = run_stream_continuous(
        str(land_b), str(tmp_path / "out_b"), num_partitions=2,
        files_per_epoch=2, poll_interval_s=0.05, idle_timeout_s=5.0,
    )

    def content(res):
        return (
            res.sinks["ordered"].read()
            .select_columns(["conv_id", "turn_idx", "text"])
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )

    pd.testing.assert_frame_equal(content(res_auto), content(res_fixed))
    assert res_auto.total_emitted == res_fixed.total_emitted

    # crash-resume AFTER an autoscale: resumed run adopts the migrated P
    land_c = tmp_path / "land_c"
    land_c.mkdir()
    for i in range(F):
        pq.write_table(t.slice(i * step, step), land_c / f"p{i:04d}.parquet")
    (land_c / "_STOP").write_text("")
    import pytest

    with pytest.raises(RuntimeError):
        run_stream_continuous(
            str(land_c), str(tmp_path / "out_c"), num_partitions=2,
            files_per_epoch=2, poll_interval_s=0.05, idle_timeout_s=5.0,
            autoscale_backlog_epochs=2, fail_after_epoch=3,
        )
    res_resumed = run_stream_continuous(
        str(land_c), str(tmp_path / "out_c"), num_partitions=2,
        files_per_epoch=2, poll_interval_s=0.05, idle_timeout_s=5.0,
        autoscale_backlog_epochs=2, resume=True,
    )
    pd.testing.assert_frame_equal(content(res_resumed), content(res_fixed))


def test_interrupted_autoscale_completes_on_resume(ray_session, tmp_path):
    # a crash right after the durable autoscale marker (before/within the
    # two-phase rescale) must be finished by the next resume, which then
    # adopts the migrated P
    import json

    from ray_ordered_stream.checkpoint import read_lineage_meta, resume_epoch
    from ray_ordered_stream.epochs import run_stream_continuous
    from ray_ordered_stream.fixtures import gen_transcripts

    t = gen_transcripts(n_convs=8, min_turns=6, max_turns=16, seed=29)
    land = tmp_path / "land"
    land.mkdir()
    n, F = t.num_rows, 6
    step = -(-n // F)
    for i in range(F):
        pq.write_table(t.slice(i * step, step), land / f"p{i:04d}.parquet")
    (land / "_STOP").write_text("")
    out = str(tmp_path / "out")
    first = run_stream_continuous(
        str(land), out, num_partitions=2, files_per_epoch=2,
        poll_interval_s=0.05, idle_timeout_s=5.0,
    )
    cut = resume_epoch(out, 2)
    (Path(out) / "ckpt" / "_autoscale.json").write_text(
        json.dumps({"epoch": cut, "from": 2, "to": 4})
    )
    res = run_stream_continuous(
        str(land), out, num_partitions=2, files_per_epoch=2,
        poll_interval_s=0.05, idle_timeout_s=5.0,
        autoscale_backlog_epochs=8, resume=True,
    )
    assert read_lineage_meta(out)["partitions"] == 4
    assert not (Path(out) / "ckpt" / "_autoscale.json").exists()
    got = (
        res.sinks["ordered"].read()
        .select_columns(["conv_id", "turn_idx", "text"]).to_pandas()
        .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    assert len(got) == first.total_emitted


def test_autoscale_shrinks_on_idle_and_matches_fixed_run(ray_session, tmp_path):
    # scale-DOWN parity: a sustained low-backlog lull drops P by the factor
    # through the same two-phase migration; files landed after the shrink
    # process at the smaller P and output content is unchanged.
    import threading
    import time

    from ray_ordered_stream.checkpoint import read_lineage_meta
    from ray_ordered_stream.epochs import run_stream_continuous
    from ray_ordered_stream.fixtures import gen_transcripts

    t = gen_transcripts(n_convs=12, min_turns=6, max_turns=20, lateness=15,
                        dup_rate=0.02, seed=31)
    n, F = t.num_rows, 8
    step = -(-n // F)
    land_a, land_b = tmp_path / "land_a", tmp_path / "land_b"
    land_a.mkdir(); land_b.mkdir()

    # fixed-P control gets ALL files up front (content is arrival-invariant)
    for i in range(F):
        pq.write_table(t.slice(i * step, step), land_b / f"p{i:04d}.parquet")
    (land_b / "_STOP").write_text("")

    # autoscaled run: first half now, second half after a lull long enough
    # for the shrink clock, then stop
    for i in range(F // 2):
        pq.write_table(t.slice(i * step, step), land_a / f"p{i:04d}.parquet")

    def late_producer():
        # event-driven, not timed: the shrink rewrites the on-disk lineage
        # meta to P=2, so wait for that (bounded) before landing the rest —
        # robust under suite-level host contention
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            meta = read_lineage_meta(str(tmp_path / "out_a"))
            if meta is not None and meta.get("partitions") == 2:
                break
            time.sleep(0.1)
        for i in range(F // 2, F):
            tmp = land_a / f".p{i:04d}.tmp"
            pq.write_table(t.slice(i * step, step), tmp)
            tmp.rename(land_a / f"p{i:04d}.parquet")
        (land_a / "_STOP").write_text("")

    th = threading.Thread(target=late_producer)
    th.start()
    res = run_stream_continuous(
        str(land_a), str(tmp_path / "out_a"), num_partitions=4,
        files_per_epoch=2, poll_interval_s=0.05, idle_timeout_s=15.0,
        autoscale_shrink_idle_s=0.7, autoscale_min_partitions=2,
    )
    th.join()
    shrinks = [r for r in res.metrics["rescales"] if r["kind"] == "shrink"]
    assert shrinks, "idle lull never triggered a shrink"
    assert shrinks[0]["from"] == 4 and shrinks[0]["to"] == 2
    assert read_lineage_meta(str(tmp_path / "out_a"))["partitions"] == 2

    res_fixed = run_stream_continuous(
        str(land_b), str(tmp_path / "out_b"), num_partitions=4,
        files_per_epoch=2, poll_interval_s=0.05, idle_timeout_s=5.0,
    )

    def content(r):
        return (
            r.sinks["ordered"].read()
            .select_columns(["conv_id", "turn_idx", "text"])
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )

    pd.testing.assert_frame_equal(content(res), content(res_fixed))
    assert res.total_emitted == res_fixed.total_emitted


def _grow_then_shrink(t, tmp_path, name):
    """A continuous run that grows 2 -> 4 on a pre-landed backlog of five
    epochs, shrinks back to 2 in the lull after them, then takes one more
    epoch: every rescale lands on a fixed epoch."""
    import threading
    import time

    from ray_ordered_stream.checkpoint import read_lineage_meta
    from ray_ordered_stream.epochs import run_stream_continuous

    n, F = t.num_rows, 12
    step = -(-n // F)
    land, out = tmp_path / f"land_{name}", tmp_path / f"out_{name}"
    land.mkdir()
    for i in range(10):
        pq.write_table(t.slice(i * step, step), land / f"p{i:04d}.parquet")

    def late_producer():
        deadline = time.monotonic() + 30.0
        grown = False
        while time.monotonic() < deadline:
            P = (read_lineage_meta(str(out)) or {}).get("partitions")
            grown |= P == 4
            if grown and P == 2:
                break
            time.sleep(0.05)
        for i in range(10, F):
            tmp = land / f".p{i:04d}.tmp"
            pq.write_table(t.slice(i * step, step), tmp)
            tmp.rename(land / f"p{i:04d}.parquet")
        (land / "_STOP").write_text("")

    th = threading.Thread(target=late_producer)
    th.start()
    res = run_stream_continuous(
        str(land), str(out), num_partitions=2, files_per_epoch=2,
        poll_interval_s=0.05, idle_timeout_s=15.0,
        autoscale_backlog_epochs=2, autoscale_factor=2,
        autoscale_shrink_idle_s=0.7, autoscale_min_partitions=2,
    )
    th.join()
    return res


def test_autoscale_reuses_pooled_actors(ray_session, tmp_path, monkeypatch):
    """A grow keeps the old actors and a shrink leaves the surplus idle:
    the sinks of a grow + shrink run on a reused pool are byte-identical to
    the same run started on an empty pool, and the idle pool never holds
    more actors than the largest P returned to it."""
    from ray_ordered_stream.fixtures import gen_transcripts
    from ray_ordered_stream.ordered import _ActorPool, _POOL

    t = gen_transcripts(n_convs=16, min_turns=6, max_turns=24, lateness=20,
                        dup_rate=0.02, seed=13)
    idle_after, largest = [], [0]
    give_back = _ActorPool.give_back

    def record(self, workers):
        largest[0] = max(largest[0], len(workers))
        give_back(self, workers)
        idle_after.append((len(self.idle), largest[0]))

    monkeypatch.setattr(_ActorPool, "give_back", record)
    _POOL.kill_idle()
    runs = [_grow_then_shrink(t, tmp_path, name) for name in ("empty", "reused")]
    for res in runs:
        assert [(r["from"], r["to"]) for r in res.metrics["rescales"]] == [(2, 4), (4, 2)]
        assert res.total_emitted == runs[0].total_emitted > 0
    assert idle_after and all(n <= cap for n, cap in idle_after), idle_after

    def digests(res):
        return {
            (name, Path(f).relative_to(s.root).as_posix()):
                hashlib.sha256(Path(f).read_bytes()).hexdigest()
            for name, s in res.sinks.items() for f in s.committed_files()
        }

    assert digests(runs[1]) == digests(runs[0])


def test_busy_stream_never_idle_shrinks(tmp_path, ray_session):
    """Regression: the shrink clock must reset whenever epochs flow. The
    old reset condition (`len(new) >= files_per_epoch` AFTER the
    assignment loop drained `new`) was unreachable, so a fully busy
    stream shrank as if idle."""
    import threading
    import time

    from ray_ordered_stream.epochs import run_stream_continuous
    from ray_ordered_stream.fixtures import gen_transcripts

    t = gen_transcripts(n_convs=10, min_turns=4, max_turns=10, lateness=5,
                        seed=33)
    F = 24
    step = -(-t.num_rows // F)
    land = tmp_path / "land"
    land.mkdir()

    def producer():
        # steady trickle >= one epoch (1 file) per shrink window
        for i in range(F):
            tmp = land / f".p{i:04d}.tmp"
            pq.write_table(t.slice(i * step, step), tmp)
            tmp.rename(land / f"p{i:04d}.parquet")
            time.sleep(0.15)
        (land / "_STOP").write_text("")

    th = threading.Thread(target=producer)
    th.start()
    res = run_stream_continuous(
        str(land), str(tmp_path / "out"), num_partitions=4,
        files_per_epoch=1, poll_interval_s=0.05, idle_timeout_s=20.0,
        autoscale_shrink_idle_s=1.0, autoscale_min_partitions=2,
    )
    th.join()
    shrinks = [r for r in res.metrics["rescales"] if r["kind"] == "shrink"]
    assert not shrinks, f"busy stream idle-shrank: {shrinks}"
    assert res.total_emitted == t.num_rows
