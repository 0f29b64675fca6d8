"""Streaming content-dedup pipeline: keep-first semantics, exactly-once
across crash-resume, serial-oracle equality."""

import os
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ray_ordered_stream.stream_dedup import run_dedup_stream


def _corpus(n=400, dup_rate=0.3, seed=3):
    rng = np.random.default_rng(seed)
    words = np.array(["red", "blue", "lime", "teal", "gold", "gray", "pink"])
    texts = [" ".join(rng.choice(words, size=12)) for _ in range(n)]
    # duplicates scattered FORWARD (a copy always arrives after its source)
    for i in rng.choice(np.arange(1, n), size=int(n * dup_rate), replace=False):
        texts[i] = texts[rng.integers(0, i)]
    return pd.DataFrame({"doc_id": np.arange(n, dtype="int64"), "text": texts})


def _oracle_keep(df):
    return df.loc[~df["text"].duplicated(keep="first")]


def _write_feed(df, land, n_files):
    land.mkdir(parents=True, exist_ok=True)
    files = []
    step = -(-len(df) // n_files)
    for i in range(n_files):
        f = land / f"feed-{i:05d}.parquet"
        pq.write_table(
            pa.Table.from_pandas(df.iloc[i * step : (i + 1) * step],
                                 preserve_index=False), f,
        )
        files.append(str(f))
    return files


def _ckpt_dirs(ck):
    """(full snapshot dirs, delta dirs) under a marker stream's ckpt/."""
    return (sorted(d.name for d in ck.glob("full-*") if d.is_dir()),
            sorted(d.name for d in ck.glob("delta-*")))


def _part_bytes(sink):
    """Every committed part file of a sink, by its path under the sink."""
    return {Path(f).relative_to(sink.root).as_posix(): Path(f).read_bytes()
            for f in sink.committed_files()}


def test_dedup_stream_keep_first(ray_session, tmp_path):
    df = _corpus()
    files = _write_feed(df, tmp_path / "feed", 8)
    res = run_dedup_stream(files, str(tmp_path / "out"), num_partitions=3,
                           files_per_epoch=3)
    exp = _oracle_keep(df)
    # select_columns: Ray's read infers a hive `epoch=` column from the
    # sink's directory layout
    got = (
        res.sink.read().select_columns(["doc_id", "text"])
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got, exp.sort_values("doc_id").reset_index(drop=True)
    )
    assert res.total_kept == len(exp)
    assert res.total_dropped == len(df) - len(exp)
    # one partition (Ray returns a bare ref for num_returns=1) keeps the
    # same documents
    one = run_dedup_stream(files, str(tmp_path / "out1"), num_partitions=1,
                           files_per_epoch=3)
    assert set(one.sink.read().to_pandas()["doc_id"]) == set(got["doc_id"])


def test_dedup_stream_crash_resume_exactly_once(ray_session, tmp_path):
    df = _corpus(seed=5)
    files = _write_feed(df, tmp_path / "feed", 8)

    for P in (3, 1):
        full = run_dedup_stream(files, str(tmp_path / f"full{P}"),
                                num_partitions=P, files_per_epoch=2)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_dedup_stream(files, str(tmp_path / f"crash{P}"), num_partitions=P,
                             files_per_epoch=2, fail_after_epoch=1)
        res = run_dedup_stream(files, str(tmp_path / f"crash{P}"), num_partitions=P,
                               files_per_epoch=2, resume=True)
        assert res.epochs_skipped == 2
        a = (full.sink.read().select_columns(["doc_id", "text"])
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
        b = (res.sink.read().select_columns(["doc_id", "text"])
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)
        assert _part_bytes(res.sink) == _part_bytes(full.sink)
        # a duplicate whose source arrived BEFORE the crash is still dropped
        # after resume (seen-state restored from the deltas)
        assert res.sink.total_committed_rows() == len(_oracle_keep(df))


def test_dedup_stream_partition_guard(ray_session, tmp_path):
    df = _corpus(n=60, seed=6)
    files = _write_feed(df, tmp_path / "feed", 4)
    run_dedup_stream(files[:2], str(tmp_path / "out"), num_partitions=3,
                     files_per_epoch=2)
    with pytest.raises(ValueError, match="3 partitions"):
        run_dedup_stream(files, str(tmp_path / "out"), num_partitions=2,
                         files_per_epoch=2, resume=True)


def test_dedup_stream_compaction_bounds_restore(ray_session, tmp_path):
    """With compact_every=2 the folded delta dirs are deleted; a resume
    after a crash restores from the latest full snapshot + trailing deltas
    and still produces byte-identical output."""
    df = _corpus(n=320, seed=9)
    files = _write_feed(df, tmp_path / "feed", 8)  # 8 epochs of 1 file

    full = run_dedup_stream(files, str(tmp_path / "full"), num_partitions=3,
                            files_per_epoch=1, compact_every=2)
    with pytest.raises(RuntimeError, match="injected failure"):
        run_dedup_stream(files, str(tmp_path / "crash"), num_partitions=3,
                         files_per_epoch=1, compact_every=2,
                         fail_after_epoch=4)
    ck = tmp_path / "crash" / "ckpt"
    # epochs 0..4 committed; fulls at 1 and 3: only the newest snapshot and
    # the delta after it are kept
    assert (ck / "full-00003.json").exists()
    assert _ckpt_dirs(ck) == (["full-00003"], ["delta-00004"])

    res = run_dedup_stream(files, str(tmp_path / "crash"), num_partitions=3,
                           files_per_epoch=1, compact_every=2, resume=True)
    assert res.epochs_skipped == 5
    assert _part_bytes(res.sink) == _part_bytes(full.sink)
    exp = _oracle_keep(df)
    assert res.sink.total_committed_rows() == len(exp)
    # 8 epochs, fulls at 1, 3, 5 and 7: one snapshot, no delta left
    assert _ckpt_dirs(ck) == (["full-00007"], [])


def test_neardup_stream_drops_copies(ray_session, tmp_path):
    """Streaming banded-LSH near-dedup: exact copies collide in every band
    and are dropped whether they arrive in a later epoch or inside the same
    epoch; distinct docs survive."""
    from ray_ordered_stream.stream_dedup import run_neardup_stream

    rng = np.random.default_rng(12)
    words = np.array(["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh", "ii",
                      "jj", "kk", "ll", "mm", "nn"])
    n = 200
    texts = [" ".join(rng.choice(words, size=40)) for _ in range(n)]
    df = pd.DataFrame({"doc_id": np.arange(n, dtype="int64"), "text": texts})
    # copies arriving later: ids n..n+49 duplicate ids 0..49
    copies = pd.DataFrame(
        {"doc_id": np.arange(n, n + 50, dtype="int64"), "text": texts[:50]}
    )
    feed = pd.concat([df, copies], ignore_index=True)
    files = _write_feed(feed, tmp_path / "feed", 5)  # 50/file

    for P in (3, 1):
        res = run_neardup_stream(files, str(tmp_path / f"out{P}"),
                                 num_partitions=P, files_per_epoch=2)
        got = (
            res.sink.read().select_columns(["doc_id", "text"]).to_pandas()
        )
        kept_ids = set(got["doc_id"])
        # every copy dropped
        assert kept_ids.isdisjoint(set(range(n, n + 50)))
        # near-complete survival of distinct docs (banding false positives
        # are possible in principle; none expected on this corpus)
        assert len(kept_ids) >= n - 2
        assert res.total_dropped >= 50


def test_neardup_stream_crash_resume(ray_session, tmp_path):
    from ray_ordered_stream.stream_dedup import run_neardup_stream

    rng = np.random.default_rng(13)
    words = np.array(["x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8"])
    n = 160
    texts = [" ".join(rng.choice(words, size=30)) for _ in range(n)]
    for i in rng.choice(np.arange(40, n), size=40, replace=False):
        texts[i] = texts[rng.integers(0, 40)]
    df = pd.DataFrame({"doc_id": np.arange(n, dtype="int64"), "text": texts})
    files = _write_feed(df, tmp_path / "feed", 8)

    for P in (3, 1):
        kw = dict(num_partitions=P, files_per_epoch=2, compact_every=1)
        full = run_neardup_stream(files, str(tmp_path / f"full{P}"), **kw)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_neardup_stream(files, str(tmp_path / f"crash{P}"), **kw,
                               fail_after_epoch=1)
        res = run_neardup_stream(files, str(tmp_path / f"crash{P}"), **kw,
                                 resume=True)
        assert res.epochs_skipped == 2
        a = (full.sink.read().select_columns(["doc_id", "text"])
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
        b = (res.sink.read().select_columns(["doc_id", "text"])
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)
        assert _part_bytes(res.sink) == _part_bytes(full.sink)


def test_dedup_stream_continuous_midrun_files(ray_session, tmp_path):
    """Continuous mode: files land while the loop polls; every distinct doc
    is kept exactly once, duplicates across the arrival boundary are
    dropped (seen-state survives between polls via the checkpoints)."""
    import threading
    import time as _t

    from ray_ordered_stream.stream_dedup import run_dedup_stream_continuous

    df = _corpus(n=240, seed=15)
    land = tmp_path / "landing"
    land.mkdir()
    step = 30
    def write(i):
        # write-then-rename: the loop may list the directory at any moment
        tmp = land / f"feed-{i:05d}.parquet.tmp"
        pq.write_table(
            pa.Table.from_pandas(df.iloc[i * step : (i + 1) * step],
                                 preserve_index=False),
            tmp,
        )
        os.replace(tmp, land / f"feed-{i:05d}.parquet")
    for i in range(4):
        write(i)

    def producer():
        _t.sleep(0.8)
        for i in range(4, 8):
            write(i)
        _t.sleep(0.3)
        (land / "_STOP").write_text("")

    th = threading.Thread(target=producer)
    th.start()
    res = run_dedup_stream_continuous(
        str(land), str(tmp_path / "out"), poll_interval_s=0.2,
        num_partitions=3, files_per_epoch=2,
    )
    th.join()
    exp = _oracle_keep(df)
    got = (
        res.sink.read().select_columns(["doc_id", "text"])
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got, exp.sort_values("doc_id").reset_index(drop=True)
    )
    assert res.sink.total_committed_rows() == len(exp)


def test_dedup_stream_continuous_wakes_on_landing(ray_session, tmp_path):
    """Between runner calls the loop waits on the landing directory, not on
    ``poll_interval_s``: a file renamed in after the first call committed
    starts the next call well within one 5 s interval of landing."""
    import threading
    import time as _t

    from ray_ordered_stream.stream_dedup import run_dedup_stream_continuous

    df = _corpus(n=120, seed=19)
    land = tmp_path / "landing"
    src = _write_feed(df, tmp_path / "src", 2)
    land.mkdir()
    os.replace(src[0], land / "feed-00000.parquet")
    ck = tmp_path / "out" / "ckpt"
    landed = {}

    def wait_for(path):
        deadline = _t.monotonic() + 60
        while not path.exists() and _t.monotonic() < deadline:
            _t.sleep(0.01)

    def lander():
        wait_for(ck / "epoch-00000.json")
        _t.sleep(0.3)  # the loop is in its wait by now
        os.replace(src[1], land / "feed-00001.parquet")
        landed["t"] = _t.time()
        wait_for(ck / "epoch-00001.json")
        (land / "_STOP.tmp").write_text("")
        os.replace(land / "_STOP.tmp", land / "_STOP")

    th = threading.Thread(target=lander, daemon=True)
    th.start()
    res = run_dedup_stream_continuous(
        str(land), str(tmp_path / "out"), poll_interval_s=5.0,
        idle_timeout_s=60.0, num_partitions=2, files_per_epoch=1,
    )
    th.join(timeout=60)
    assert not th.is_alive()
    # every runner call first rewrites ckpt/meta.json: its mtime is when the
    # loop woke (the call itself starts new actors, ~1 s)
    assert (ck / "epoch-00001.json").exists()
    assert (ck / "meta.json").stat().st_mtime - landed["t"] < 1.0
    assert res.sink.total_committed_rows() == len(_oracle_keep(df))


def test_dedup_rescale_checkpoint(ray_session, tmp_path):
    """Grow P mid-stream: rescale folds the seen-state into a re-routed
    full snapshot; the resumed run at the new P still drops every
    duplicate whose source arrived before the rescale."""
    from ray_ordered_stream.stream_dedup import (
        rescale_dedup_checkpoint,
        run_dedup_stream,
    )

    df = _corpus(n=320, seed=17)
    files = _write_feed(df, tmp_path / "feed", 8)
    out = str(tmp_path / "out")

    run_dedup_stream(files[:4], out, num_partitions=3, files_per_epoch=2)
    rescale_dedup_checkpoint(out, 5)
    with pytest.raises(ValueError, match="5 partitions"):
        run_dedup_stream(files, out, num_partitions=3, files_per_epoch=2,
                         resume=True)
    res = run_dedup_stream(files, out, num_partitions=5, files_per_epoch=2,
                           resume=True)
    assert res.epochs_skipped == 2
    exp = _oracle_keep(df)
    got = (
        res.sink.read().select_columns(["doc_id", "text"])
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got, exp.sort_values("doc_id").reset_index(drop=True)
    )


def test_neardup_rescale_checkpoint(ray_session, tmp_path):
    from ray_ordered_stream.stream_dedup import (
        rescale_dedup_checkpoint,
        run_neardup_stream,
    )

    rng = np.random.default_rng(19)
    words = np.array(["p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9"])
    n = 160
    texts = [" ".join(rng.choice(words, size=30)) for _ in range(n)]
    for i in rng.choice(np.arange(80, n), size=30, replace=False):
        texts[i] = texts[rng.integers(0, 80)]
    df = pd.DataFrame({"doc_id": np.arange(n, dtype="int64"), "text": texts})
    files = _write_feed(df, tmp_path / "feed", 8)
    out = str(tmp_path / "out")
    full_out = str(tmp_path / "full")

    full = run_neardup_stream(files, full_out, num_partitions=3,
                              files_per_epoch=2)
    run_neardup_stream(files[:4], out, num_partitions=3, files_per_epoch=2)
    rescale_dedup_checkpoint(out, 5, near=True)
    res = run_neardup_stream(files, out, num_partitions=5, files_per_epoch=2,
                             resume=True)
    a = (full.sink.read().select_columns(["doc_id", "text"])
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (res.sink.read().select_columns(["doc_id", "text"])
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_dedup_stream_ttl_eviction(tmp_path, ray_session):
    # 4 epochs x 1 file x 3 docs: doc A appears in epochs 0, 1, and 3
    texts = {
        0: ["A", "b0", "c0"],
        1: ["A", "b1", "c1"],   # dup of A within ttl=1 -> dropped
        2: ["d2", "e2", "f2"],
        3: ["A", "b3", "c3"],   # A kept at epoch 0, ttl=1 expired -> kept
    }
    rows = []
    for e, ts in texts.items():
        for j, t in enumerate(ts):
            rows.append((e * 10 + j, t))
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    files = _write_feed(df, tmp_path / "land", 4)

    res = run_dedup_stream(
        files, str(tmp_path / "out"), num_partitions=2, files_per_epoch=1,
        ttl_epochs=1,
    )
    got = res.sink.read().to_pandas().sort_values("doc_id")
    kept_texts = got["text"].tolist()
    assert kept_texts.count("A") == 2  # epoch 0 and epoch 3
    assert 10 not in got["doc_id"].tolist()  # epoch-1 copy dropped
    assert {30} <= set(got["doc_id"])  # epoch-3 copy kept (expired)

    # forever semantics keep exactly one A
    res2 = run_dedup_stream(
        files, str(tmp_path / "out2"), num_partitions=2, files_per_epoch=1,
    )
    assert res2.sink.read().to_pandas()["text"].tolist().count("A") == 1

    # crash-resume with ttl reproduces the same output bytes
    import hashlib
    from pathlib import Path

    def sink_digest(root):
        h = hashlib.md5()
        for f in sorted(Path(root).rglob("*.parquet")):
            h.update(f.read_bytes())
        return h.hexdigest()

    with pytest.raises(RuntimeError):
        run_dedup_stream(
            files, str(tmp_path / "out3"), num_partitions=2,
            files_per_epoch=1, ttl_epochs=1, fail_after_epoch=1,
        )
    run_dedup_stream(
        files, str(tmp_path / "out3"), num_partitions=2, files_per_epoch=1,
        ttl_epochs=1, resume=True,
    )
    assert sink_digest(tmp_path / "out3" / "deduped") == sink_digest(
        tmp_path / "out" / "deduped"
    )


def test_neardup_stream_ttl_eviction(tmp_path, ray_session):
    from ray_ordered_stream.stream_dedup import run_neardup_stream

    # near-identical long docs so every band collides between copies
    base = " ".join(f"w{i}" for i in range(60))
    texts = {
        0: [base, "totally different content one two three"],
        1: [base + " tail", "another unrelated document here"],  # near-dup
        2: ["fresh unique doc alpha beta", "fresh unique doc gamma delta"],
        3: [base + " tail2", "yet another unrelated text"],      # expired
    }
    rows = []
    for e, ts in texts.items():
        for j, t in enumerate(ts):
            rows.append((e * 10 + j, t))
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    files = _write_feed(df, tmp_path / "land", 4)

    # forever semantics: both later near-copies of `base` drop
    res = run_neardup_stream(
        files, str(tmp_path / "out"), num_partitions=2, files_per_epoch=1,
    )
    kept = set(res.sink.read().to_pandas()["doc_id"])
    assert 0 in kept and 10 not in kept and 30 not in kept

    # ttl=1: the epoch-3 near-copy is past the horizon anchored at epoch 0
    res2 = run_neardup_stream(
        files, str(tmp_path / "out2"), num_partitions=2, files_per_epoch=1,
        ttl_epochs=1,
    )
    kept2 = set(res2.sink.read().to_pandas()["doc_id"])
    assert 0 in kept2 and 10 not in kept2 and 30 in kept2


def test_neardup_stream_resume_param_mismatch_raises(ray_session, tmp_path):
    # ADVICE r2: resuming with different MinHash parameters must refuse —
    # the restored band hashes were computed under the old ones.
    from ray_ordered_stream.stream_dedup import run_neardup_stream

    df = _corpus(n=60, dup_rate=0.0)
    files = _write_feed(df, tmp_path / "feed", 4)
    run_neardup_stream(files, str(tmp_path / "out"), num_partitions=2,
                       files_per_epoch=2, bands=4, num_perm=16, seed=7)
    for kw in ({"bands": 8}, {"num_perm": 32}, {"k": 5}, {"seed": 8}):
        with pytest.raises(ValueError, match="resume requires"):
            run_neardup_stream(
                files, str(tmp_path / "out"), num_partitions=2,
                files_per_epoch=2,
                **{"bands": 4, "num_perm": 16, "k": 7, "seed": 7, **kw},
                resume=True,
            )
    # identical params resume cleanly (all epochs already committed)
    res = run_neardup_stream(files, str(tmp_path / "out"), num_partitions=2,
                             files_per_epoch=2, bands=4, num_perm=16, seed=7,
                             resume=True)
    assert res.epochs_run == 0


def test_dedup_stream_fresh_rerun_wipes_phantom_epochs(ray_session, tmp_path):
    # ADVICE r2: a resume=False rerun over a SHORTER feed must not keep
    # committed manifests from the earlier, longer run.
    from ray_ordered_stream.stream_dedup import run_dedup_stream

    df = _corpus(n=200, dup_rate=0.0)
    files = _write_feed(df, tmp_path / "feed", 8)
    long = run_dedup_stream(files, str(tmp_path / "out"), num_partitions=2,
                            files_per_epoch=2)
    assert long.total_kept == 200
    short = run_dedup_stream(files[:2], str(tmp_path / "out"),
                             num_partitions=2, files_per_epoch=2)
    n_short = short.total_kept
    got = short.sink.read().count()
    assert got == n_short  # no phantom rows from the longer run
    assert short.sink.committed_epochs() == [0]



@pytest.mark.parametrize("stream", ["dedup", "pack"])
def test_continuous_fresh_start_over_a_longer_run(ray_session, tmp_path, stream):
    """resume=False reaches the continuous runner's first call: over a root
    holding a longer earlier run it commits exactly what a fresh bounded
    run over the landed files commits."""
    import shutil

    from ray_ordered_stream.sink import ManifestSink
    from ray_ordered_stream.stream_dedup import run_dedup_stream_continuous
    from ray_ordered_stream.stream_pack import (
        run_pack_stream,
        run_pack_stream_continuous,
    )

    bounded, continuous, sink = {
        "dedup": (run_dedup_stream, run_dedup_stream_continuous, "deduped"),
        "pack": (run_pack_stream, run_pack_stream_continuous, "packed"),
    }[stream]
    files = _write_feed(_corpus(n=160, seed=21), tmp_path / "feed", 8)
    kw = dict(num_partitions=2, files_per_epoch=2)
    out, fresh, land = tmp_path / "out", tmp_path / "fresh", tmp_path / "land"
    bounded(files, str(out), **kw)  # four epochs
    land.mkdir()
    for f in files[:4]:
        shutil.copy(f, land)
    (land / "_STOP").write_text("")
    continuous(str(land), str(out), poll_interval_s=0.05, resume=False, **kw)
    bounded(files[:4], str(fresh), **kw)
    assert ManifestSink(str(out), sink).committed_epochs() == [0, 1]
    assert _part_bytes(ManifestSink(str(out), sink)) == _part_bytes(
        ManifestSink(str(fresh), sink))

def _emb_feed(n=160, d=32, n_copies=40, seed=21):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, d)).astype(np.float32)
    rows = [list(map(float, v)) for v in vecs]
    df = pd.DataFrame({"vec_id": np.arange(n, dtype="int64"), "embedding": rows})
    copies = pd.DataFrame(
        {
            "vec_id": np.arange(n, n + n_copies, dtype="int64"),
            "embedding": rows[:n_copies],
        }
    )
    return pd.concat([df, copies], ignore_index=True), n, n_copies


def test_embdedup_stream_drops_copies(ray_session, tmp_path):
    """Streaming hyperplane-LSH embedding near-dedup: identical vectors
    collide in every band; random 32-dim vectors never collide at 48
    planes/band."""
    from ray_ordered_stream.stream_dedup import run_embdedup_stream

    feed, n, n_copies = _emb_feed()
    files = _write_feed(feed, tmp_path / "feed", 5)
    res = run_embdedup_stream(
        files, str(tmp_path / "out"), num_partitions=3, files_per_epoch=2
    )
    got = res.sink.read().select_columns(["vec_id"]).to_pandas()
    kept = set(got["vec_id"])
    assert kept == set(range(n))
    assert res.total_dropped == n_copies


def test_embdedup_stream_crash_resume_and_param_guard(ray_session, tmp_path):
    import pytest as _pt

    from ray_ordered_stream.stream_dedup import run_embdedup_stream

    feed, n, _ = _emb_feed(n=120, n_copies=30, seed=22)
    files = _write_feed(feed, tmp_path / "feed", 6)

    full = run_embdedup_stream(files, str(tmp_path / "full"),
                               num_partitions=2, files_per_epoch=2)
    with _pt.raises(RuntimeError, match="injected failure"):
        run_embdedup_stream(files, str(tmp_path / "crash"), num_partitions=2,
                            files_per_epoch=2, fail_after_epoch=0)
    res = run_embdedup_stream(files, str(tmp_path / "crash"),
                              num_partitions=2, files_per_epoch=2, resume=True)
    assert res.epochs_skipped == 1
    a = full.sink.read().select_columns(["vec_id"]).to_pandas()
    b = res.sink.read().select_columns(["vec_id"]).to_pandas()
    assert sorted(a["vec_id"]) == sorted(b["vec_id"])
    # resuming the hyperplane stream as a minhash stream must refuse
    from ray_ordered_stream.stream_dedup import run_neardup_stream

    with _pt.raises(ValueError, match="resume requires identical"):
        run_neardup_stream(files, str(tmp_path / "crash"), id_col="vec_id",
                           text_col="embedding",
                           columns=["vec_id", "embedding"],
                           bands=4, num_perm=192, k=0, seed=13,
                           num_partitions=2, files_per_epoch=2, resume=True)


@pytest.mark.parametrize("layout", ["delta_without_ep", "pack_carry"])
def test_old_checkpoint_layout_fails_loudly(ray_session, tmp_path, layout):
    """A dedup delta without its keep-epoch column, or the pack stream's
    former carry-<e> directories, cannot be resumed (the deltas' epochs are
    unknown; the carry would restore as empty): resume raises ValueError
    naming the path and resume=False, and so does a dedup rescale."""
    import re

    from ray_ordered_stream.stream_dedup import rescale_dedup_checkpoint
    from ray_ordered_stream.stream_pack import run_pack_stream

    df = _corpus(n=120, seed=23)
    files = _write_feed(df, tmp_path / "feed", 4)
    out = tmp_path / "out"
    ck = out / "ckpt"
    if layout == "delta_without_ep":
        run = run_dedup_stream
        run(files[:2], str(out), num_partitions=2, files_per_epoch=1)
        bad = ck / "delta-00001" / "part-00000.parquet"
        pq.write_table(pq.read_table(bad).drop_columns(["ep"]), bad)
    else:
        run = run_pack_stream
        run(files[:2], str(out), num_partitions=2, files_per_epoch=1)
        for d in ck.glob("delta-*"):
            d.rename(ck / d.name.replace("delta-", "carry-"))
        bad = ck / "carry-00000"
    msg = f"{re.escape(str(bad))}.*resume=False"
    with pytest.raises(ValueError, match=msg):
        run(files, str(out), num_partitions=2, files_per_epoch=1, resume=True)
    if layout == "delta_without_ep":
        with pytest.raises(ValueError, match=msg):
            rescale_dedup_checkpoint(str(out), 3)


def test_md5_kernels_equal_hashlib():
    """Both md5 kernels equal hashlib.md5 (a null hashes as '') on short
    rows (DuckDB's path) and on rows of >= 640 B mean length (hashlib's),
    each with a null."""
    import hashlib

    from ray_ordered_stream.stream_dedup import _fingerprints, md5_hex

    for rows in (["a", "bb", None, "ccc dd"], ["x" * 700, None, "y" * 1500]):
        exp = [hashlib.md5((r or "").encode()).digest() for r in rows]
        hi, lo = _fingerprints(pa.array(rows, pa.string()))
        assert [int(h).to_bytes(8, "big") + int(v).to_bytes(8, "big")
                for h, v in zip(hi, lo)] == exp
        assert md5_hex(pa.array(rows, pa.string())).to_pylist() == [
            d.hex() for d in exp]
    # the hashlib path's no-null form: raw buffer slices of a sliced array
    rows = pa.array(["skip", "z" * 800, "w" * 900], pa.string()).slice(1)
    exp = [hashlib.md5(r.encode()).hexdigest() for r in rows.to_pylist()]
    assert md5_hex(rows).to_pylist() == exp
    hi, _ = _fingerprints(rows)
    assert [int(h).to_bytes(8, "big").hex() for h in hi] == [e[:16] for e in exp]
