"""Streaming driver tests: exactly-once sinks, checkpoint/resume equality,
in-actor streaming windows and join vs their batch/oracle counterparts
(FIXTURES.md t_resume / t_windows / t_join)."""

import shutil
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ray_ordered_stream.epochs import _EpochDriver, _open_sinks, run_stream
from ray_ordered_stream.fixtures import gen_transcripts, oracle_ordered
from ray_ordered_stream.schema import ARRIVAL, KEY, SEQ
from ray_ordered_stream.state import OrderedConfig
from ray_ordered_stream.userstate import ChainedDigestState


@pytest.fixture(scope="module")
def stream_files(tmp_path_factory, ray_session):
    """Arrival-ordered multi-file landing directory (8 files)."""
    t = gen_transcripts(
        n_convs=12, min_turns=10, max_turns=60, lateness=60, dup_rate=0.03, seed=21
    )
    d = tmp_path_factory.mktemp("landing")
    n, n_files = t.num_rows, 8
    step = -(-n // n_files)
    files = []
    for i in range(n_files):
        f = d / f"part-{i:05d}.parquet"
        pq.write_table(t.slice(i * step, step), f)
        files.append(str(f))
    return t, files


def read_sink(res, name):
    return res.sinks[name].read().to_pandas()


def part_digests(sink):
    """(path relative to the sink root, sha256) of every committed part."""
    import hashlib

    return [
        (Path(f).relative_to(sink.root).as_posix(),
         hashlib.sha256(Path(f).read_bytes()).hexdigest())
        for f in sink.committed_files()
    ]


def test_stream_end_to_end_and_exactly_once(stream_files, tmp_path):
    t, files = stream_files
    out = str(tmp_path / "run1")
    cfg = OrderedConfig(window_size_s=60.0, stream_join=True)
    res = run_stream(files, out, cfg, num_partitions=3, files_per_epoch=2,
                     collect_final_status=True)

    exp = oracle_ordered(t)
    got = (
        read_sink(res, "ordered")
        .sort_values([KEY, SEQ], kind="stable")
        .reset_index(drop=True)
    )
    assert res.total_emitted == len(exp)
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )
    # completion protocol on the final status
    fin = res.final_status
    assert (fin["buffered_count"] == 0).all()
    assert fin["result_count"].sum() == len(exp)

    # streaming windows == batch oracle (pandas)
    win = (
        read_sink(res, "windows")
        .sort_values([KEY, "window_start"])
        .reset_index(drop=True)
    )
    df = exp.copy()
    df["window_start"] = df["ts"].dt.floor("60s")
    wexp = (
        df.groupby([KEY, "window_start"])
        .agg(
            turn_count=("role", "size"),
            n_user=("role", lambda s: (s == "user").sum()),
            n_assistant=("role", lambda s: (s == "assistant").sum()),
        )
        .reset_index()
        .sort_values([KEY, "window_start"])
        .reset_index(drop=True)
    )
    assert len(win) == len(wexp)
    assert (win["turn_count"].values == wexp["turn_count"].values).all()
    assert (win["n_user"].values == wexp["n_user"].values).all()

    # streaming join == serial oracle (next assistant turn per user turn)
    joined = (
        read_sink(res, "joined")
        .sort_values([KEY, "user_turn_idx"])
        .reset_index(drop=True)
    )
    jexp_rows = []
    for k, g in exp.groupby(KEY):
        users = g[g["role"] == "user"]
        assistants = g[g["role"] == "assistant"]
        for _, u in users.iterrows():
            nxt = assistants[assistants[SEQ] > u[SEQ]]
            if len(nxt):
                jexp_rows.append((k, u[SEQ], nxt.iloc[0][SEQ]))
    assert len(joined) == len(jexp_rows)
    assert [
        (r[KEY], r["user_turn_idx"], r["assistant_turn_idx"])
        for _, r in joined.iterrows()
    ] == [(a, int(b), int(c)) for a, b, c in jexp_rows]


def test_kill_and_resume_equality(stream_files, tmp_path):
    t, files = stream_files
    cfg = OrderedConfig(window_size_s=60.0, stream_join=True,
                        session_gap_s=0.5,
                        pattern=("user", "tool", "user"))

    out_full = str(tmp_path / "full")
    res_full = run_stream(files, out_full, cfg, num_partitions=3, files_per_epoch=2)

    out_crash = str(tmp_path / "crash")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_stream(
            files, out_crash, cfg, num_partitions=3, files_per_epoch=2,
            fail_after_epoch=1,
        )
    res_resumed = run_stream(
        files, out_crash, cfg, num_partitions=3, files_per_epoch=2, resume=True
    )
    assert res_resumed.epochs_skipped == 2  # epochs 0,1 committed pre-crash

    for sink in ("ordered", "status", "windows", "joined", "sessions", "matches"):
        a = read_sink(res_full, sink)
        b = read_sink(res_resumed, sink)
        cols = sorted(a.columns)
        a = a[cols].sort_values(cols, kind="stable").reset_index(drop=True)
        b = b[cols].sort_values(cols, kind="stable").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)
    # and byte-identical: every committed part file of every sink (the
    # restored operator state must reproduce the emission order, not just
    # the rows)
    assert res_full.sinks.keys() == res_resumed.sinks.keys()
    for sink, s_full in res_full.sinks.items():
        s_res = res_resumed.sinks[sink]
        fa = [Path(f) for f in s_full.committed_files()]
        fb = [Path(f) for f in s_res.committed_files()]
        assert [f.relative_to(s_full.root) for f in fa] == [
            f.relative_to(s_res.root) for f in fb
        ], sink
        for a, b in zip(fa, fb):
            assert a.read_bytes() == b.read_bytes(), (
                f"{sink}: {a.relative_to(s_full.root)} differs after resume"
            )


def test_resume_noop_when_complete(stream_files, tmp_path):
    t, files = stream_files
    out = str(tmp_path / "done")
    r1 = run_stream(files, out, OrderedConfig(), num_partitions=2, files_per_epoch=2)
    r2 = run_stream(files, out, OrderedConfig(), num_partitions=2, files_per_epoch=2)
    assert r2.epochs_run == 0
    assert r2.epochs_skipped == len(files) // 2
    assert (
        r1.sinks["ordered"].total_committed_rows()
        == r2.sinks["ordered"].total_committed_rows()
    )


def test_partition_count_must_match_checkpoint(stream_files, tmp_path):
    # SURVEY.md §7.4.1: P is recorded in the checkpoint lineage; resuming
    # with a different P must NOT silently resume from a partial cut — it
    # raises (both grow AND shrink, where the extra partitions' keyed state
    # would otherwise be silently dropped). resume=False restarts clean.
    t, files = stream_files
    out = str(tmp_path / "pmix")
    run_stream(files[:4], out, OrderedConfig(), num_partitions=3, files_per_epoch=2)
    with pytest.raises(ValueError, match="3 partitions"):
        run_stream(files, out, OrderedConfig(), num_partitions=4, files_per_epoch=2)
    with pytest.raises(ValueError, match="3 partitions"):
        run_stream(files, out, OrderedConfig(), num_partitions=2, files_per_epoch=2)
    res = run_stream(files, out, OrderedConfig(), num_partitions=4,
                     files_per_epoch=2, resume=False)
    assert res.epochs_skipped == 0
    exp = oracle_ordered(t)
    got = (
        read_sink(res, "ordered")
        .sort_values([KEY, SEQ], kind="stable")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )
    # the restart rewrote the lineage meta: same-P resume is a clean no-op
    res2 = run_stream(files, out, OrderedConfig(), num_partitions=4,
                      files_per_epoch=2)
    assert res2.epochs_run == 0


def test_checkpoint_overwrite_clears_stale_buffer(tmp_path):
    # ADVICE r1: re-writing an epoch checkpoint whose previous write had a
    # non-empty buffer must not leave the stale buffer.parquet behind.
    from ray_ordered_stream.checkpoint import (
        read_partition_checkpoint,
        write_partition_checkpoint,
    )

    root = str(tmp_path / "out")
    buf = pa.table({"conv_id": ["c"], "turn_idx": pa.array([5], pa.int32())})
    write_partition_checkpoint(root, 0, 3, {"counters": {}, "buffer": buf})
    snap = read_partition_checkpoint(root, 0, 3)
    assert snap["buffer"] is not None and snap["buffer"].num_rows == 1
    write_partition_checkpoint(root, 0, 3, {"counters": {}, "buffer": None})
    snap = read_partition_checkpoint(root, 0, 3)
    assert snap["buffer"] is None  # no phantom rows


def test_checkpoint_compaction_bounds_restore(tmp_path):
    # Full snapshots every K epochs bound restore to <= K delta reads.
    from ray_ordered_stream.checkpoint import (
        read_merged_checkpoint,
        write_partition_checkpoint,
    )
    from ray_ordered_stream.stream_ops import WindowAccumulator

    root = str(tmp_path / "out")
    acc = WindowAccumulator(5.0)
    expect: dict = {}  # dict.update merge from the newest full epoch
    for e in range(60):
        full = e % 16 == 0
        counters = {f"k{e}": (1, 0, 1, e + 1, False, ""),
                    "hot": (e, 0, e, e + 1, False, f"d{e}")}
        if full:  # full snapshot carries everything seen so far
            counters = {f"k{i}": (1, 0, 1, i + 1, False, "") for i in range(e + 1)}
            counters["hot"] = (e, 0, e, e + 1, False, f"d{e}")
            expect = {}
        expect.update(sorted(counters.items()))
        acc.update(pa.table({
            KEY: [f"k{e}", "hot"],
            "ts": pa.array([e * 1_000_000] * 2, pa.int64()).cast(pa.timestamp("us")),
        }))
        acc.take_closed()
        buf = pa.table({KEY: [f"k{e}"], SEQ: pa.array([e], pa.int32())})
        write_partition_checkpoint(
            root, 0, e,
            {"counters": counters, "buffer": buf, "windows": acc.snapshot()},
            full=full,
        )
    snap = read_merged_checkpoint(root, 0, 59)
    assert len(snap["counters"]) == 61
    assert snap["counters"]["k59"][3] == 60
    assert snap["counters"]["hot"] == (59, 0, 59, 60, False, "d59")
    assert list(snap["counters"].items()) == list(expect.items())  # key order too
    # deleting pre-base epochs must not affect restore (bounded lineage)
    import shutil

    ck = tmp_path / "out" / "ckpt" / "p=00000"
    for e in range(48):
        shutil.rmtree(ck / f"epoch-{e:05d}")
    snap2 = read_merged_checkpoint(root, 0, 59)
    assert {k for k in snap2["counters"]} >= {f"k{i}" for i in range(48, 60)}

    # restore reads only the counters of the base and delta epochs: garbage
    # in every other file of theirs must not change the merged snapshot
    for e in range(48, 59):
        d = ck / f"epoch-{e:05d}"
        ops = sorted(d.glob("windows.*.parquet"))
        assert ops
        for f in ops + [d / "extras.json"]:
            f.write_bytes(b"\x00garbage")
        (d / "buffer.parquet").unlink()
    snap3 = read_merged_checkpoint(root, 0, 59)
    assert list(snap3["counters"].items()) == list(snap["counters"].items())
    assert snap3["buffer"].equals(snap["buffer"])
    assert snap3["windows"]["watermark"] == snap["windows"]["watermark"]
    assert snap3["windows"]["keys"].equals(snap["windows"]["keys"])
    # a delta epoch that never committed is skipped
    (ck / "epoch-00055" / "_COMMIT").unlink()
    snap4 = read_merged_checkpoint(root, 0, 59)
    assert "k55" not in snap4["counters"]
    assert snap4["counters"]["hot"] == snap["counters"]["hot"]
    assert len(snap4["counters"]) == len(snap["counters"]) - 1


@pytest.mark.parametrize("extras", [
    # the previous layout: operator state inline in extras.json
    {"call_count": 0, "last_status_us": None,
     "windows": {"watermark": 5, "acc": [["k", 0, [1, 1, 0]]], "names": ["k"]}},
    {"format": 99, "call_count": 0, "last_status_us": None, "operators": {}},
    # format 2: order-book and user state outside "operators", no config
    {"format": 2, "call_count": 0, "last_status_us": None, "operators": {},
     "user": {"k": "d0"}},
])
def test_checkpoint_of_another_format_fails_loudly(tmp_path, extras):
    import json

    from ray_ordered_stream.checkpoint import (
        FORMAT,
        read_merged_checkpoint,
        read_partition_checkpoint,
        write_partition_checkpoint,
    )

    root = str(tmp_path / "out")
    d = Path(write_partition_checkpoint(
        root, 0, 0, {"counters": {"k": (1, 0, 1, 1, False, "")}, "buffer": None}
    ))
    (d / "extras.json").write_text(json.dumps(extras))
    for read in (read_partition_checkpoint, read_merged_checkpoint):
        with pytest.raises(ValueError) as ei:
            read(root, 0, 0)
        assert str(d) in str(ei.value)
        assert f"checkpoint format {FORMAT}" in str(ei.value)


def test_resume_with_changed_operator_config_fails_loudly(stream_files, tmp_path):
    """Each operator's checkpoint records the config fields it was built
    from. A resume under other values raises, naming the operator and the
    field: open windows built with the old size would otherwise be released
    with the new size's window_end, and a plain pattern's state does not
    hold what an absence matcher restores."""
    from dataclasses import replace

    _t, files = stream_files
    cfg = OrderedConfig(window_size_s=60.0, pattern=("user", "tool", "user"),
                        warmup_rows=0)
    out = str(tmp_path / "run")
    kw = dict(num_partitions=2, files_per_epoch=2)
    with pytest.raises(RuntimeError, match="injected failure"):
        run_stream(files, out, cfg, fail_after_epoch=1, **kw)
    changed = {
        ("windows", "window_size_s"): replace(cfg, window_size_s=30.0),
        ("cep", "absent_role"): replace(cfg, absent_role="assistant",
                                        absent_within_s=5.0),
    }
    for (name, field_name), new in changed.items():
        with pytest.raises(ValueError, match=f"{name} operator") as ei:
            run_stream(files, out, new, **kw)
        assert f"{field_name}=" in str(ei.value)
        assert "resume=False" in str(ei.value)
    res = run_stream(files, out, new, resume=False, **kw)
    assert res.epochs_skipped == 0 and res.epochs_run == 4


def _write_files_atomic(tbl, d, n_files, start=0, total=None):
    import os

    total = total or n_files
    n = tbl.num_rows
    step = -(-n // total)
    out = []
    for i in range(start, start + n_files):
        tmp = d / f"part-{i:05d}.parquet.tmp"
        pq.write_table(tbl.slice(i * step, step), tmp)
        os.replace(tmp, d / f"part-{i:05d}.parquet")
        out.append(str(d / f"part-{i:05d}.parquet"))
    return out


def test_continuous_source_processes_midrun_files(tmp_path, ray_session):
    # files land WHILE the loop runs (producer thread, write+rename), then a
    # stop sentinel; every turn must be processed exactly once.
    import threading
    import time

    from ray_ordered_stream.epochs import run_stream_continuous

    t = gen_transcripts(n_convs=10, min_turns=8, max_turns=30, lateness=40,
                        dup_rate=0.02, seed=33)
    land = tmp_path / "landing"
    land.mkdir()
    _write_files_atomic(t, land, 4, start=0, total=10)

    def producer():
        time.sleep(0.6)
        _write_files_atomic(t, land, 6, start=4, total=10)
        time.sleep(0.3)
        (land / "_STOP").write_text("")

    th = threading.Thread(target=producer)
    th.start()
    res = run_stream_continuous(
        str(land), str(tmp_path / "out"),
        OrderedConfig(window_size_s=60.0, session_gap_s=0.5,
                      pattern=("user", "tool", "user")),
        num_partitions=3, files_per_epoch=2, poll_interval_s=0.1,
        collect_final_status=True,
    )
    th.join()
    exp = oracle_ordered(t)
    assert res.total_emitted == len(exp)
    got = (
        read_sink(res, "ordered")
        .sort_values([KEY, SEQ], kind="stable")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )
    assert (res.final_status["buffered_count"] == 0).all()

    # the session and CEP side outputs also commit exactly once in
    # continuous mode (flush epoch covers whatever the watermark left open)
    ses = read_sink(res, "sessions")
    assert len(ses) == len(exp)  # gap 0.5s < 1.0s spacing -> one per turn
    assert (ses["turn_count"] == 1).all()
    matches = read_sink(res, "matches")
    n_pat = 0
    for _k, g in exp.sort_values([KEY, SEQ]).groupby(KEY):
        rs = g["role"].tolist()
        n_pat += sum(
            rs[i : i + 3] == ["user", "tool", "user"] for i in range(len(rs) - 2)
        )
    assert len(matches) == n_pat > 0


def test_continuous_crash_resume_exactly_once(tmp_path, ray_session):
    # crash after epoch 1, more files land, resume -> identical output to an
    # uninterrupted run over the same file sequence.
    from ray_ordered_stream.epochs import run_stream, run_stream_continuous

    t = gen_transcripts(n_convs=8, min_turns=8, max_turns=25, lateness=30,
                        dup_rate=0.02, seed=34)
    # three null-key rows, so the dlq sink commits real parts
    keys = t[KEY].to_pylist()
    for i in (3, t.num_rows // 2, t.num_rows - 2):
        keys[i] = None
    t = t.set_column(t.schema.get_field_index(KEY), KEY,
                     pa.array(keys, t.schema.field(KEY).type))
    land = tmp_path / "landing"
    land.mkdir()
    files = _write_files_atomic(t, land, 6, start=0, total=6)

    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_stream_continuous(
            str(land), out, num_partitions=3, files_per_epoch=2,
            poll_interval_s=0.05, fail_after_epoch=1,
        )
    # finished epochs commit eagerly, yet nothing past the injected failure
    # does, and every committed epoch has its file group recorded
    for name, sink in _open_sinks(out, OrderedConfig()).items():
        assert sink.committed_epochs() == [0, 1], name
    for e in (0, 1):
        assert (Path(out) / "epochs" / f"epoch-{e:05d}.json").exists()
    (land / "_STOP").write_text("")
    res = run_stream_continuous(
        str(land), out, num_partitions=3, files_per_epoch=2, poll_interval_s=0.05
    )
    assert res.epochs_skipped >= 1

    ref = run_stream(files, str(tmp_path / "ref"), num_partitions=3,
                     files_per_epoch=2)
    for sink in ("ordered", "status"):
        a = read_sink(res, sink)
        b = read_sink(ref, sink)
        cols = sorted(a.columns)
        a = a[cols].sort_values(cols, kind="stable").reset_index(drop=True)
        b = b[cols].sort_values(cols, kind="stable").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)
    assert res.sinks["dlq"].total_committed_rows() == 3
    # both feeds drive one epoch protocol, so the ordered, status and dlq
    # parts are byte-identical, file for file. Windows and sessions would
    # legitimately differ (this config runs neither): the bounded feed
    # closes them in its last data epoch, the continuous one in a separate
    # flush epoch.
    for sink in ("ordered", "status", "dlq"):
        assert part_digests(res.sinks[sink]) == part_digests(ref.sinks[sink]), sink


def _fed_driver(files, out):
    """An epoch driver with three finished, uncommitted epochs in flight."""
    import ray

    groups = [files[i : i + 2] for i in (0, 2, 4)]
    drv = _EpochDriver(
        str(out), OrderedConfig(), 2, groups, resume=False,
        salt_hot_keys=False, sample_files=[], checkpoint_full_every=16,
        max_inflight=3, fail_after_epoch=None,
    )
    for e, g in enumerate(groups):
        drv.feed(e, g)
    ray.get([r for _, refs, _ in drv.pending for r in refs])
    return drv


def _committed(drv):
    return {n: drv.sinks[n].committed_epochs() for n in ("ordered", "status", "dlq")}


def test_commit_ready_commits_every_finished_epoch(stream_files, tmp_path):
    # the continuous feed's commit policy: one call commits every finished
    # in-flight epoch, oldest first
    drv = _fed_driver(stream_files[1], tmp_path / "out")
    drv.commit_ready()
    assert _committed(drv) == {n: [0, 1, 2] for n in ("ordered", "status", "dlq")}
    assert drv.pending == []
    drv.proc.shutdown()


def test_commit_ready_stops_at_an_unfinished_epoch(stream_files, tmp_path):
    # an unfinished oldest epoch holds back the finished ones behind it:
    # manifests commit strictly in epoch order
    import asyncio

    import ray

    @ray.remote(num_cpus=0)
    class Signal:
        def __init__(self):
            self.event = asyncio.Event()

        async def wait(self):
            await self.event.wait()

    sig = Signal.remote()
    drv = _fed_driver(stream_files[1], tmp_path / "out")
    blocked = sig.wait.remote()
    drv.pending.insert(0, (-1, [blocked], 0.0))
    drv.commit_ready()
    assert _committed(drv) == {n: [] for n in ("ordered", "status", "dlq")}
    assert [e for e, _, _ in drv.pending] == [-1, 0, 1, 2]
    ray.cancel(blocked)
    ray.kill(sig)
    drv.proc.shutdown()


def test_missing_epoch_record_fails_loudly(tmp_path, ray_session):
    # a gap in the continuous feed's epoch records would renumber every
    # later file group, and a resume would overwrite committed epochs with
    # other files' output: the resume must refuse before writing anything
    from ray_ordered_stream.epochs import run_stream_continuous

    t = gen_transcripts(n_convs=6, min_turns=4, max_turns=12, lateness=10,
                        seed=35)
    land = tmp_path / "landing"
    land.mkdir()
    _write_files_atomic(t, land, 6)
    (land / "_STOP").write_text("")
    out = tmp_path / "out"
    run_stream_continuous(str(land), str(out), num_partitions=2,
                          files_per_epoch=2, poll_interval_s=0.05)
    (out / "epochs" / "epoch-00001.json").unlink()

    def committed():
        return {f.relative_to(out).as_posix(): f.read_bytes()
                for f in sorted(out.rglob("_manifests/*.json"))}

    before = committed()
    with pytest.raises(ValueError, match="epoch 1 is missing") as err:
        run_stream_continuous(str(land), str(out), num_partitions=2,
                              files_per_epoch=2, poll_interval_s=0.05)
    assert str(out / "epochs") in str(err.value)
    assert committed() == before


def test_long_stream_compaction_resume(tmp_path, ray_session):
    # 12 epochs, full checkpoints every 4: resume after a crash must read
    # only from the newest FULL base (bounded lineage) and reproduce the
    # uninterrupted output.
    from ray_ordered_stream.epochs import run_stream

    t = gen_transcripts(n_convs=10, min_turns=10, max_turns=40, lateness=50,
                        dup_rate=0.02, seed=77)
    d = tmp_path / "landing"
    d.mkdir()
    n, n_files = t.num_rows, 12
    step = -(-n // n_files)
    files = []
    for i in range(n_files):
        f = d / f"part-{i:05d}.parquet"
        pq.write_table(t.slice(i * step, step), f)
        files.append(str(f))

    ref = run_stream(files, str(tmp_path / "ref"), num_partitions=3,
                     files_per_epoch=1, checkpoint_full_every=4)
    assert ref.epochs_run == 12

    out = str(tmp_path / "crash")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_stream(files, out, num_partitions=3, files_per_epoch=1,
                   checkpoint_full_every=4, fail_after_epoch=9)
    # FULL markers exist at epochs 0,4,8 for every partition
    for p in range(3):
        for e in (0, 4, 8):
            assert (Path(out) / "ckpt" / f"p={p:05d}" / f"epoch-{e:05d}" / "_FULL").exists()
    # deleting pre-base delta epochs must not hurt the resume (bounded read)
    import shutil as _sh

    for p in range(3):
        for e in range(0, 7):
            if e % 4 != 0:
                _sh.rmtree(Path(out) / "ckpt" / f"p={p:05d}" / f"epoch-{e:05d}",
                           ignore_errors=True)
    res = run_stream(files, out, num_partitions=3, files_per_epoch=1,
                     checkpoint_full_every=4)
    assert res.epochs_skipped >= 9
    for sink in ("ordered", "status"):
        a = read_sink(ref, sink)
        b = read_sink(res, sink)
        cols = sorted(a.columns)
        a = a[cols].sort_values(cols, kind="stable").reset_index(drop=True)
        b = b[cols].sort_values(cols, kind="stable").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


def test_rerun_overwrites_byte_identical(tmp_path, stream_files):
    # deterministic re-run: running the same stream into the same out_root
    # twice produces byte-identical sink parts (the property exactly-once
    # overwrite relies on).
    import hashlib

    from ray_ordered_stream.epochs import run_stream

    t, files = stream_files
    out = str(tmp_path / "out")
    run_stream(files, out, num_partitions=3, files_per_epoch=2, resume=False)

    def digest():
        h = {}
        for f in sorted(Path(out).glob("ordered/epoch=*/*.parquet")):
            h[str(f)] = hashlib.md5(f.read_bytes()).hexdigest()
        return h

    first = digest()
    assert first
    run_stream(files, out, num_partitions=3, files_per_epoch=2, resume=False)
    assert digest() == first


def test_composite_key_ordering(ray_session, tmp_path):
    # composite (session, contract)-style key through the full engine
    import ray.data as rd

    from ray_ordered_stream.ordered import ordered_process
    from ray_ordered_stream.partitioning import composite_key

    rows = []
    for sess in ("s1", "s2"):
        for contract in (1, 2):
            for seq in (2, 0, 1):  # shuffled arrival per composite key
                rows.append(
                    {"session": sess, "contract": contract, "turn_idx": seq,
                     "text": f"{sess}/{contract}/{seq}"}
                )
    ds = composite_key(rd.from_items(rows), ["session", "contract"], "conv_id")
    res = ordered_process(ds, OrderedConfig(), num_partitions=2)
    got = res.ordered.to_pandas().sort_values(["conv_id", "turn_idx"])
    assert len(got) == len(rows)
    # per composite key, emit_seq follows turn order
    for _, g in got.groupby("conv_id"):
        assert list(g["emit_seq"]) == [1, 2, 3]
        assert list(g["turn_idx"]) == [0, 1, 2]


def test_continuous_idle_timeout_flushes_partial_group(tmp_path, ray_session):
    # 3 files with files_per_epoch=2 and NO stop sentinel: the idle timeout
    # must fire (review r2: unassigned leftovers used to reset the idle
    # clock forever), the partial group must be processed, and open windows
    # must be flushed by the terminal flush epoch.
    from ray_ordered_stream.epochs import run_stream_continuous

    t = gen_transcripts(n_convs=6, min_turns=6, max_turns=20, lateness=20,
                        dup_rate=0.0, seed=55)
    land = tmp_path / "landing"
    land.mkdir()
    _write_files_atomic(t, land, 3, start=0, total=3)
    res = run_stream_continuous(
        str(land), str(tmp_path / "out"),
        OrderedConfig(window_size_s=3600.0),
        num_partitions=2, files_per_epoch=2,
        poll_interval_s=0.05, idle_timeout_s=1.0,
    )
    exp = oracle_ordered(t)
    assert res.total_emitted == len(exp)  # all 3 files processed
    # every (key, window) present — including those only closed by the
    # terminal flush
    win = read_sink(res, "windows")
    df = exp.copy()
    df["window_start"] = df["ts"].dt.floor("3600s")
    n_exp = df.groupby([KEY, "window_start"]).ngroups
    assert len(win) == n_exp
    assert win["turn_count"].sum() == len(exp)


def _book_stream(seed=19):
    """Transcript stream augmented with deterministic book-event columns."""
    import numpy as np

    t = gen_transcripts(n_convs=8, min_turns=8, max_turns=30, lateness=20,
                        seed=seed)
    ev = np.arange(t.num_rows, dtype=np.int64)
    side = np.where(ev % 2 == 0, "BUY", "SELL")
    typ = np.where(ev % 5 == 0, "EXECUTED", "NEW")
    return (
        t.append_column("type", pa.array(typ, pa.string()))
        .append_column("side", pa.array(side, pa.string()))
        .append_column("price", pa.array(ev % 15 + 1, pa.int64()))
        .append_column("qty", pa.array(ev % 6 + 1, pa.int64()))
    )


def test_depth_sink_streams_and_resumes_identically(tmp_path, ray_session):
    """The 'depth' sink emits per-epoch snapshots of touched keys (the
    micro-batch analogue of the reference's continuous market_depth
    output); the last snapshot per key equals the final book, and a
    crash-resume run reproduces the sink byte-identically."""
    import pyarrow.compute as pc

    from ray_ordered_stream.book import flatten_depth
    from ray_ordered_stream.ordered import OrderedProcessor

    t = _book_stream()
    files = []
    land = tmp_path / "landing"
    land.mkdir()
    n, nf = t.num_rows, 6
    step = -(-n // nf)
    for i in range(nf):
        f = land / f"part-{i:05d}.parquet"
        pq.write_table(t.slice(i * step, step), f)
        files.append(str(f))
    cfg = OrderedConfig(with_book=True, book_depth=4, warmup_rows=0)

    res = run_stream(files, str(tmp_path / "a"), cfg, num_partitions=3,
                     files_per_epoch=2)
    depth = res.sinks["depth"].read().to_pandas()
    assert len(depth) > 0

    # final snapshot per key (max seq_id) == a fresh one-shot run's book
    import pandas as pd

    last = (
        depth.sort_values(["key", "seq_id"], kind="stable")
        .drop_duplicates("key", keep="last")
        .reset_index(drop=True)
    )
    proc = OrderedProcessor(cfg, num_partitions=3)
    proc.feed_epoch(t, pd.Timestamp("1970-01-01"))
    exp = proc.book_depth_table(4).to_pandas()
    proc.shutdown()
    fl_last = flatten_depth(pa.Table.from_pandas(last, preserve_index=False))
    fl_exp = flatten_depth(pa.Table.from_pandas(
        exp.rename(columns={"key": "key"}), preserve_index=False))
    a = fl_last.to_pandas().sort_values(["conv_id", "side", "level"]).reset_index(drop=True)
    b = fl_exp.to_pandas().sort_values(["conv_id", "side", "level"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)

    # crash after epoch 1, resume: depth sink content identical to run A
    with pytest.raises(RuntimeError):
        run_stream(files, str(tmp_path / "b"), cfg, num_partitions=3,
                   files_per_epoch=2, fail_after_epoch=1)
    res_b = run_stream(files, str(tmp_path / "b"), cfg, num_partitions=3,
                       files_per_epoch=2)
    da = depth.sort_values(["key", "seq_id"], kind="stable").reset_index(drop=True)
    db = (
        res_b.sinks["depth"].read().to_pandas()
        .sort_values(["key", "seq_id"], kind="stable")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(da, db)


def test_continuous_salt_waits_for_first_files(tmp_path, ray_session):
    """Consumer started on an EMPTY landing dir with salt_hot_keys=True must
    wait for the first files (not permanently record a pin-free lineage),
    then pin hot keys and process everything exactly once."""
    import threading
    import time

    from ray_ordered_stream.checkpoint import read_lineage_meta
    from ray_ordered_stream.epochs import run_stream_continuous

    t = gen_transcripts(n_convs=8, min_turns=10, max_turns=60, lateness=30,
                        dup_rate=0.0, seed=44, degree=3.0)
    land = tmp_path / "landing"
    land.mkdir()
    out = tmp_path / "out"

    def producer():
        time.sleep(0.8)  # consumer is already polling an empty dir
        _write_files_atomic(t, land, 6, start=0, total=6)
        time.sleep(0.3)
        (land / "_STOP").write_text("")

    th = threading.Thread(target=producer)
    th.start()
    res = run_stream_continuous(
        str(land), str(out), OrderedConfig(),
        num_partitions=3, files_per_epoch=2, poll_interval_s=0.1,
        salt_hot_keys=True, idle_timeout_s=30.0,
    )
    th.join()
    exp = oracle_ordered(t)
    assert res.total_emitted == len(exp)
    meta = read_lineage_meta(str(out))
    assert meta is not None and meta.get("overrides"), meta
    got = (
        read_sink(res, "ordered")
        .sort_values([KEY, SEQ], kind="stable")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text"]], exp[[KEY, SEQ, "text"]]
    )


def test_ingest_ts_stamp_deterministic_and_monotone(stream_files, tmp_path):
    """stamp_ingest_ts: every ordered-sink row carries the committing
    epoch's tick; re-running after an injected crash reproduces the SAME
    ingest_ts per row (exactly-once includes the latency surface), and
    within a key ingest_ts is monotone in turn_idx (a turn cannot commit
    before its predecessors)."""
    t, files = stream_files
    cfg = OrderedConfig(stamp_ingest_ts=True)
    full = run_stream(files, str(tmp_path / "full"), cfg,
                      num_partitions=3, files_per_epoch=2)
    got = (
        read_sink(full, "ordered")
        .sort_values([KEY, SEQ], kind="stable")
        .reset_index(drop=True)
    )
    assert "ingest_ts" in got.columns
    # epoch ticks: 1970-01-01 + epoch seconds
    ep = got["ingest_ts"].astype("int64") // 1_000_000_000
    assert (ep >= 0).all() and (ep < len(files) // 2 + 1).all()
    assert (
        got.groupby(KEY)["ingest_ts"].apply(lambda s: s.is_monotonic_increasing)
    ).all()

    out = str(tmp_path / "resumed")
    with pytest.raises(RuntimeError):
        run_stream(files, out, cfg, num_partitions=3, files_per_epoch=2,
                   fail_after_epoch=1)
    resumed = run_stream(files, out, cfg, num_partitions=3, files_per_epoch=2)
    got2 = (
        read_sink(resumed, "ordered")
        .sort_values([KEY, SEQ], kind="stable")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, got2)


@pytest.mark.parametrize("cfg", [
    OrderedConfig(),
    OrderedConfig(window_size_s=60.0, session_gap_s=0.5, stream_join=True,
                  pattern=("user", "tool", "user"), stamp_ingest_ts=True,
                  status_interval_s=1.5, state_factory=ChainedDigestState),
], ids=["ordered_only", "all_operators"])
def test_streaming_actor_never_imports_ray_data(stream_files, tmp_path, monkeypatch, cfg):
    """A streaming partition actor stays lean: shards arrive as RecordBatches,
    the schema as a pa.Schema and the status tick as a datetime, so nothing
    on the drain / sink / checkpoint / restore path unpickles through Ray's
    pa.Table reducer, which loads ray.data (and ray.air) into the actor.
    Each actor's sys.modules is read through __ray_call__ just before the
    driver kills it, on a run that crashes after checkpointing epoch 0 and
    on the resume that restores it."""
    import sys

    import ray

    from ray_ordered_stream.ordered import OrderedProcessor, ordered_process

    t, files = stream_files
    seen = []
    kill = OrderedProcessor.shutdown

    def probe_then_kill(self):
        probe = lambda _actor: sorted(  # noqa: E731 (pickled by value)
            m for m in sys.modules if m.split(".")[:2] in (["ray", "data"], ["ray", "air"])
        )
        seen.extend(ray.get([w.__ray_call__.remote(probe) for w in self.workers]))
        kill(self)

    monkeypatch.setattr(OrderedProcessor, "shutdown", probe_then_kill)
    out = str(tmp_path / "run")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_stream(files[:4], out, cfg, num_partitions=2, files_per_epoch=2,
                   fail_after_epoch=0)
    res = run_stream(files[:4], out, cfg, num_partitions=2, files_per_epoch=2)
    assert res.epochs_skipped == 1 and res.epochs_run == 1
    assert len(seen) == 4
    assert seen == [[]] * 4, seen
    # the batch facade still hands back Datasets the driver can materialize
    got = ordered_process(t, cfg, num_partitions=2).ordered.to_pandas()
    assert len(got) == len(oracle_ordered(t))
