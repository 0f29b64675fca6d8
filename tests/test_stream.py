"""Streaming driver tests: exactly-once sinks, checkpoint/resume equality,
in-actor streaming windows and join vs their batch/oracle counterparts
(FIXTURES.md t_resume / t_windows / t_join)."""

import os
import shutil
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ray_ordered_stream.epochs import _EpochDriver, _open_sinks, run_stream
from ray_ordered_stream.fixtures import gen_transcripts, oracle_ordered
from ray_ordered_stream.schema import ARRIVAL, COUNTERS_SCHEMA, KEY, SEQ
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


def test_run_stream_names_the_missing_columns_of_a_file(ray_session, tmp_path, monkeypatch):
    """A file without the sequence column fails with the column named,
    from the read task that has the file's table in hand; the failed epoch
    ends the run as an injected failure does, with no partition actor
    left, leased or idle."""
    from ray_ordered_stream.ordered import OrderedProcessor, _POOL

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from procs import wait_until_gone

    t = gen_transcripts(n_convs=4, min_turns=3, max_turns=6, seed=2)
    f = tmp_path / "no-seq.parquet"
    pq.write_table(t.drop_columns([SEQ]), f)
    spare = OrderedProcessor(OrderedConfig(), 3)  # idle actors in the pool
    spare.wait_ready(str(tmp_path), None)
    spare.shutdown()
    assert len(_POOL.idle) >= 3
    with pytest.raises(ValueError, match=(
        rf"missing ordered-processing columns \['{SEQ}'\].*"
        r"OrderedConfig\(key=\.\.\., seq=\.\.\.\)"
    )):
        run_stream([str(f)], str(tmp_path / "out"), num_partitions=2,
                   files_per_epoch=1)
    assert not _POOL.idle
    assert wait_until_gone(b"ray::OrderedWorker", 30.0)


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


@pytest.mark.parametrize("feed", ["bounded", "continuous"])
def test_fresh_run_over_a_longer_earlier_run(stream_files, tmp_path, feed):
    """resume=False over a root that holds a longer earlier run (A: 6
    one-file epochs, B: the first 3 files): nothing of A's later epochs
    survives, neither committed manifests, checkpoints nor (continuous)
    epoch records, and the sink holds exactly B's parts."""
    from ray_ordered_stream.checkpoint import committed_epoch
    from ray_ordered_stream.epochs import run_stream_continuous

    t, files = stream_files

    def run(fs, out, resume):
        if feed == "bounded":
            return run_stream(fs, out, num_partitions=2, files_per_epoch=1,
                              resume=resume)
        land = tmp_path / f"land-{Path(out).name}-{len(fs)}"
        land.mkdir()
        for f in fs:
            (land / Path(f).name).symlink_to(f)
        (land / "_STOP").write_text("")
        return run_stream_continuous(str(land), out, num_partitions=2,
                                     files_per_epoch=1, poll_interval_s=0.05,
                                     resume=resume)

    out = str(tmp_path / "out")
    run(files[:6], out, True)
    res = run(files[:3], out, False)
    sink = res.sinks["ordered"]
    assert sink.committed_epochs() == [0, 1, 2]
    assert [committed_epoch(out, p) for p in range(2)] == [2, 2]
    fresh = run(files[:3], str(tmp_path / "fresh"), False)
    assert part_digests(sink) == part_digests(fresh.sinks["ordered"])
    assert sink.total_committed_rows() == res.total_emitted > 0


def test_checkpoint_overwrite_clears_stale_buffer(tmp_path):
    # ADVICE r1: re-writing an epoch checkpoint whose previous write had a
    # non-empty buffer must not restore the stale buffered rows.
    from ray_ordered_stream.checkpoint import (
        read_merged_checkpoint,
        write_partition_checkpoint,
    )

    root = str(tmp_path / "out")
    buf = pa.table({"conv_id": ["c"], "turn_idx": pa.array([5], pa.int32())})
    none = COUNTERS_SCHEMA.empty_table()
    write_partition_checkpoint(root, 0, 3, {"counters": none, "buffer": buf})
    snap = read_merged_checkpoint(root, 0, 3)
    assert snap["buffer"] is not None and snap["buffer"].num_rows == 1
    write_partition_checkpoint(root, 0, 3, {"counters": none, "buffer": None})
    snap = read_merged_checkpoint(root, 0, 3)
    assert snap["buffer"] is None  # no phantom rows


def _counters_table(counters: dict) -> pa.Table:
    """A checkpoint ``counters`` entry from {key: (received, duplicates,
    results, next_seq, last_event)}, in key order."""
    rows = [(k, *v) for k, v in sorted(counters.items())]
    return pa.table(
        [pa.array(col, f.type) for col, f in
         zip(zip(*rows) if rows else [()] * len(COUNTERS_SCHEMA), COUNTERS_SCHEMA)],
        schema=COUNTERS_SCHEMA,
    )


def _counters_dict(t: pa.Table) -> dict:
    """Inverse of ``_counters_table``, keeping the table's row order."""
    cols = t.to_pydict()
    return dict(zip(cols["key"], zip(*(cols[n] for n in COUNTERS_SCHEMA.names[1:]))))


def test_checkpoint_compaction_bounds_restore(tmp_path):
    # Full snapshots every K epochs bound restore to <= K delta reads.
    from ray_ordered_stream.checkpoint import (
        STATE_FILE,
        committed_epoch,
        read_merged_checkpoint,
        write_partition_checkpoint,
    )
    from ray_ordered_stream.stream_ops import WindowAccumulator

    root = str(tmp_path / "out")
    acc = WindowAccumulator(5.0)
    expect: dict = {}  # dict.update merge from the newest full epoch
    written = []  # each epoch's counters table
    for e in range(60):
        full = e % 16 == 0
        counters = {f"k{e}": (1, 0, 1, e + 1, False),
                    "hot": (e, 0, e, e + 1, False)}
        if full:  # full snapshot carries everything seen so far
            counters = {f"k{i}": (1, 0, 1, i + 1, False) for i in range(e + 1)}
            counters["hot"] = (e, 0, e, e + 1, False)
            expect = {}
        expect.update(sorted(counters.items()))
        acc.update(pa.table({
            KEY: [f"k{e}", "hot"],
            "ts": pa.array([e * 1_000_000] * 2, pa.int64()).cast(pa.timestamp("us")),
        }))
        acc.take_closed()
        buf = pa.table({KEY: [f"k{e}"], SEQ: pa.array([e], pa.int32())})
        written.append(_counters_table(counters))
        write_partition_checkpoint(
            root, 0, e,
            {"counters": written[-1], "buffer": buf, "windows": acc.snapshot()},
            full=full,
        )
    snap = read_merged_checkpoint(root, 0, 59)
    snap["counters"] = _counters_dict(snap["counters"])
    assert len(snap["counters"]) == 61
    assert snap["counters"]["k59"][3] == 60
    assert snap["counters"]["hot"] == (59, 0, 59, 60, False)
    assert list(snap["counters"].items()) == list(expect.items())  # key order too
    # deleting pre-base epochs must not affect restore (bounded lineage)
    import shutil

    ck = tmp_path / "out" / "ckpt" / "p=00000"
    for e in range(48):
        shutil.rmtree(ck / f"epoch-{e:05d}")
    snap2 = read_merged_checkpoint(root, 0, 59)
    snap2["counters"] = _counters_dict(snap2["counters"])
    assert {k for k in snap2["counters"]} >= {f"k{i}" for i in range(48, 60)}

    # restore reads only the counters of the base and delta epochs: garbage
    # in every other column and JSON part of theirs must not change the
    # merged snapshot
    garbage = pa.table({"x": [b"\x00garbage"]})
    for e in range(48, 59):
        write_partition_checkpoint(
            root, 0, e,
            {"counters": written[e], "buffer": garbage, "last_status_us": "garbage",
             "windows": {"watermark": "garbage", "keys": garbage}},
            full=e % 16 == 0,
        )
    snap3 = read_merged_checkpoint(root, 0, 59)
    snap3["counters"] = _counters_dict(snap3["counters"])
    assert list(snap3["counters"].items()) == list(snap["counters"].items())
    assert snap3["buffer"].equals(snap["buffer"])
    assert snap3["windows"]["watermark"] == snap["windows"]["watermark"]
    assert snap3["windows"]["keys"].equals(snap["windows"]["keys"])
    # a leftover temporary file next to a committed state.arrow is ignored
    for e in (58, 59):
        (ck / f"epoch-{e:05d}" / (STATE_FILE + ".tmp")).write_bytes(b"\x00garbage")
    snap4 = read_merged_checkpoint(root, 0, 59)
    assert list(_counters_dict(snap4["counters"]).items()) == list(snap["counters"].items())
    assert snap4["buffer"].equals(snap["buffer"])
    assert committed_epoch(root, 0) == 59
    # a delta epoch that never committed (its write stopped before the
    # rename) is skipped
    d = ck / "epoch-00055"
    (d / STATE_FILE).replace(d / (STATE_FILE + ".tmp"))
    snap5 = read_merged_checkpoint(root, 0, 59)
    snap5["counters"] = _counters_dict(snap5["counters"])
    assert "k55" not in snap5["counters"]
    assert snap5["counters"]["hot"] == snap["counters"]["hot"]
    assert len(snap5["counters"]) == len(snap["counters"]) - 1
    assert read_merged_checkpoint(root, 0, 55) is None


V3_LINEAGE = Path(__file__).parent / "data" / "counters_v3"


@pytest.mark.parametrize("extras", [
    # the checkpoint metadata of another layout: no format version
    {"last_status_us": None, "operators": {}},
    {"format": 99, "full": True, "last_status_us": None, "operators": {}},
    # format 2: order-book and user state outside "operators", no config
    {"format": 2, "full": True, "last_status_us": None, "operators": {},
     "user": {"k": "d0"}},
    # the checked-in format-3 lineage (_COMMIT, per-table Parquet files)
    pytest.param(None, id="format3_lineage"),
])
def test_checkpoint_of_another_format_fails_loudly(tmp_path, extras):
    import json
    import shutil

    from ray_ordered_stream.checkpoint import (
        FORMAT,
        STATE_FILE,
        committed_epoch,
        read_merged_checkpoint,
        resume_epoch,
        write_partition_checkpoint,
    )
    from ray_ordered_stream.rescale import rescale_checkpoint

    root = str(tmp_path / "out")
    if extras is None:
        shutil.copytree(V3_LINEAGE / "ckpt", tmp_path / "out" / "ckpt")
        d = tmp_path / "out" / "ckpt" / "p=00000" / "epoch-00001"
        reads = [lambda: read_merged_checkpoint(root, 0, 1),
                 lambda: committed_epoch(root, 0),
                 lambda: resume_epoch(root, 1),
                 lambda: rescale_checkpoint(root, 1, 1, 2)]
    else:
        d = Path(write_partition_checkpoint(
            root, 0, 0, {"counters": _counters_table({"k": (1, 0, 1, 1, False)}),
                      "buffer": None}
        ))
        f = d / STATE_FILE
        with pa.ipc.open_file(f) as r:
            t = r.read_all()
        t = t.replace_schema_metadata({"checkpoint": json.dumps(extras)})
        with pa.ipc.new_file(f, t.schema) as w:
            w.write_table(t)
        reads = [lambda: read_merged_checkpoint(root, 0, 0),
                 lambda: rescale_checkpoint(root, 0, 1, 2)]
    for read in reads:
        with pytest.raises(ValueError) as ei:
            read()
        assert str(d) in str(ei.value)
        assert f"checkpoint format {FORMAT}" in str(ei.value)
        assert "resume=False" in str(ei.value)
    # nothing was migrated or rewritten
    assert not (tmp_path / "out" / "ckpt" / "p=00001").exists()


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


def _run_midrun_files(tmp_path):
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
    return res


def test_continuous_source_processes_midrun_files(tmp_path, ray_session):
    assert _run_midrun_files(tmp_path).metrics["landing_wake"] == "inotify"


def test_continuous_source_without_inotify_polls(tmp_path, ray_session, monkeypatch):
    # where the landing dir cannot be watched, every wait sleeps out the
    # poll interval: the same turns, exactly once, and the result says so
    from ray_ordered_stream import source

    monkeypatch.setattr(source, "_inotify_fd", lambda path: None)
    assert _run_midrun_files(tmp_path).metrics["landing_wake"] == "poll"


def test_continuous_wakes_on_landing(tmp_path, ray_session):
    # with no epoch in flight the loop waits on the landing dir, not on
    # poll_interval_s: a file renamed in is recorded as an epoch, and the
    # stop marker ends the run, well within one 5 s interval
    import threading
    import time

    from ray_ordered_stream.epochs import run_stream_continuous

    t = gen_transcripts(n_convs=6, min_turns=4, max_turns=10, seed=35)
    land, out, src = tmp_path / "landing", tmp_path / "out", tmp_path / "src"
    land.mkdir()
    src.mkdir()
    f = _write_files_atomic(t, src, 1)[0]
    landed = {}

    def wait_for(path):
        deadline = time.monotonic() + 60
        while not path.exists() and time.monotonic() < deadline:
            time.sleep(0.01)

    def lander():
        wait_for(out / "ckpt" / "meta.json")
        time.sleep(0.5)  # the loop is in its first wait by now
        os.replace(f, land / "part-00000.parquet")
        landed["file"] = time.time()
        wait_for(out / "epochs" / "epoch-00000.json")
        (land / "_STOP.tmp").write_text("")
        os.replace(land / "_STOP.tmp", land / "_STOP")
        landed["stop"] = time.time()

    th = threading.Thread(target=lander, daemon=True)
    th.start()
    res = run_stream_continuous(
        str(land), str(out), OrderedConfig(), num_partitions=2,
        files_per_epoch=1, poll_interval_s=5.0, idle_timeout_s=60.0,
    )
    t_end = time.time()
    th.join(timeout=60)
    assert not th.is_alive()
    rec = out / "epochs" / "epoch-00000.json"
    assert rec.stat().st_mtime - landed["file"] < 1.0
    assert t_end - landed["stop"] < 2.0
    assert res.metrics["landing_wake"] == "inotify"
    assert res.total_emitted == len(oracle_ordered(t))


def _inotify_fds() -> int:
    n = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            n += os.readlink(f"/proc/self/fd/{fd}") == "anon_inode:inotify"
        except OSError:
            pass  # the fd of the listing itself, closed by now
    return n


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
    watches = _inotify_fds()
    with pytest.raises(RuntimeError, match="injected failure"):
        run_stream_continuous(
            str(land), out, num_partitions=3, files_per_epoch=2,
            poll_interval_s=0.05, fail_after_epoch=1,
        )
    assert _inotify_fds() == watches  # the crash closed the landing watch
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
    # epochs 0,4,8 are full for every partition, the others deltas
    import json

    for p in range(3):
        for e in range(10):
            f = Path(out) / "ckpt" / f"p={p:05d}" / f"epoch-{e:05d}" / "state.arrow"
            with pa.ipc.open_file(f) as r:
                meta = json.loads(r.schema.metadata[b"checkpoint"])
            assert meta["full"] == (e % 4 == 0)
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


ALL_OPERATORS = OrderedConfig(
    window_size_s=60.0, session_gap_s=0.5, stream_join=True,
    pattern=("user", "tool", "user"), stamp_ingest_ts=True,
    status_interval_s=1.5, state_factory=ChainedDigestState,
)


@pytest.mark.parametrize("cfg", [OrderedConfig(), ALL_OPERATORS],
                         ids=["ordered_only", "all_operators"])
def test_streaming_actor_never_imports_ray_data(stream_files, tmp_path, monkeypatch, cfg):
    """A streaming partition actor stays lean: shards arrive as RecordBatches,
    the schema as a pa.Schema and the status tick as a datetime, so nothing
    on the drain / sink / checkpoint / restore path unpickles through Ray's
    pa.Table reducer, which loads ray.data (and ray.air) into the actor.
    Each actor's sys.modules is read through __ray_call__ just before the
    driver gives it up, on a run that crashes after checkpointing epoch 0,
    on the resume that restores it and on a third run that leases the
    resume's actors from the driver's pool."""
    import sys

    import ray

    from ray_ordered_stream.ordered import OrderedProcessor, ordered_process

    t, files = stream_files
    seen, ids = [], []
    give_up = OrderedProcessor.shutdown

    def probe_then_give_up(self):
        probe = lambda _actor: (  # noqa: E731 (pickled by value)
            ray.get_runtime_context().get_actor_id(),
            sorted(m for m in sys.modules
                   if m.split(".")[:2] in (["ray", "data"], ["ray", "air"])),
        )
        got = ray.get([w.__ray_call__.remote(probe) for w in self.workers])
        ids.append({a for a, _ in got})
        seen.extend(m for _, m in got)
        give_up(self)

    monkeypatch.setattr(OrderedProcessor, "shutdown", probe_then_give_up)
    out = str(tmp_path / "run")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_stream(files[:4], out, cfg, num_partitions=2, files_per_epoch=2,
                   fail_after_epoch=0)
    res = run_stream(files[:4], out, cfg, num_partitions=2, files_per_epoch=2)
    assert res.epochs_skipped == 1 and res.epochs_run == 1
    run_stream(files[:4], str(tmp_path / "again"), cfg, num_partitions=2,
               files_per_epoch=2)
    # the crash killed its actors, the third run reused the resume's
    assert not ids[0] & ids[1] and ids[2] == ids[1]
    assert len(seen) == 6
    assert seen == [[]] * 6, seen
    # the batch facade still hands back Datasets the driver can materialize
    got = ordered_process(t, cfg, num_partitions=2).ordered.to_pandas()
    assert len(got) == len(oracle_ordered(t))


# -- the driver's pool of partition actors ------------------------------------


def _record_leases(monkeypatch):
    """The actor ids of every processor, read when it is given up."""
    import ray

    from ray_ordered_stream.ordered import OrderedProcessor

    ids = []
    give_up = OrderedProcessor.shutdown

    def record_then_give_up(self):
        probe = lambda _actor: ray.get_runtime_context().get_actor_id()  # noqa: E731
        ids.append(sorted(ray.get([w.__ray_call__.remote(probe) for w in self.workers])))
        give_up(self)

    monkeypatch.setattr(OrderedProcessor, "shutdown", record_then_give_up)
    return ids


def _digests(res):
    return {name: part_digests(s) for name, s in res.sinks.items()}


def test_consecutive_runs_lease_the_same_actors(stream_files, tmp_path, monkeypatch):
    """Back-to-back runs reuse the same P actors, and a reused actor's
    output is byte-identical to a new actor's, also when the config
    switches between leases (reset rebuilds the operators and the user
    state)."""
    from ray_ordered_stream.ordered import _POOL

    _, files = stream_files
    ids = _record_leases(monkeypatch)
    cfgs = [OrderedConfig(), ALL_OPERATORS, OrderedConfig()]
    reused = [
        _digests(run_stream(files, str(tmp_path / f"reused{i}"), c,
                            num_partitions=2, files_per_epoch=2))
        for i, c in enumerate(cfgs)
    ]
    assert len(ids[0]) == 2 and ids[0] == ids[1] == ids[2]
    for i, c in enumerate(cfgs[:2]):
        _POOL.kill_idle()
        fresh = run_stream(files, str(tmp_path / f"fresh{i}"), c,
                           num_partitions=2, files_per_epoch=2)
        assert not set(ids[-1]) & set(ids[0])
        assert _digests(fresh) == reused[i] and reused[i]["ordered"]


def _all_dead(handles, timeout_s: float = 30.0) -> bool:
    """Whether every actor dies within ``timeout_s`` (ray.kill takes effect
    asynchronously, so a call may still reach the actor for a while)."""
    import time

    import ray

    deadline = time.monotonic() + timeout_s
    for w in handles:
        while True:
            try:
                ray.get(w.ping.remote(), timeout=timeout_s)
            except ray.exceptions.RayActorError:
                break
            if time.monotonic() > deadline:
                return False
            time.sleep(0.05)
    return True


def test_injected_failure_kills_leased_and_idle_actors(stream_files, tmp_path, monkeypatch):
    """The injected crash leaves no partition actor alive, the idle pooled
    ones included, and empties the pool: the benchmark's crash step waits
    for exactly this (perfbench/procs.py wait_until_gone)."""
    from ray_ordered_stream.ordered import OrderedProcessor, _POOL

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from procs import wait_until_gone

    _, files = stream_files
    cfg = OrderedConfig()
    # at least four idle actors: two for the crashing run, the rest stay idle
    spare = OrderedProcessor(cfg, 4)
    spare.wait_ready(str(tmp_path), None)
    spare.shutdown()
    idle_before = list(_POOL.idle)
    assert len(idle_before) >= 4
    drv = _EpochDriver(
        str(tmp_path / "out"), cfg, 2, [files[:2], files[2:4]], resume=False,
        salt_hot_keys=False, sample_files=[], checkpoint_full_every=16,
        max_inflight=3, fail_after_epoch=0,
    )
    leased = list(drv.proc.workers)
    drv.feed(0, files[:2])
    with pytest.raises(RuntimeError, match="injected failure"):
        drv.commit_oldest()
    assert not _POOL.idle
    assert _all_dead(leased + idle_before)
    assert wait_until_gone(b"ray::OrderedWorker", 30.0)


def test_killed_idle_actor_is_replaced_on_lease(stream_files, tmp_path, monkeypatch):
    """A pooled actor killed while idle is replaced by a new one at the next
    lease, and the run's output is still the oracle's."""
    import ray

    from ray_ordered_stream.ordered import _POOL

    t, files = stream_files
    cfg = OrderedConfig()
    ids = _record_leases(monkeypatch)
    run_stream(files, str(tmp_path / "first"), cfg, num_partitions=2, files_per_epoch=2)
    victim = _POOL.idle[-1]
    ray.kill(victim)
    assert _all_dead([victim])
    res = run_stream(files, str(tmp_path / "second"), cfg, num_partitions=2,
                     files_per_epoch=2)
    assert len(set(ids[1]) & set(ids[0])) == 1
    exp = oracle_ordered(t)
    got = (
        read_sink(res, "ordered")
        .sort_values([KEY, SEQ], kind="stable")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )
