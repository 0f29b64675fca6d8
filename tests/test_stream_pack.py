"""Streaming sequence packing: serial oracle, carry continuity,
crash-resume byte-equality."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ray_ordered_stream.stream_pack import run_pack_stream

V, B = 101, 9


def _feed(tmp_path, n_files=6, docs_per_file=7, seed=2):
    rng = np.random.default_rng(seed)
    words = ["aa", "bb", "cc", "dd", "ee"]
    land = tmp_path / "land"
    land.mkdir(parents=True, exist_ok=True)
    files, frames = [], []
    did = 0
    for i in range(n_files):
        rows = []
        for _ in range(docs_per_file):
            rows.append((did, " ".join(rng.choice(words, size=int(rng.integers(2, 12))))))
            did += 1
        df = pd.DataFrame(rows, columns=["doc_id", "text"])
        frames.append(df)
        f = land / f"feed-{i:05d}.parquet"
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False), f)
        files.append(str(f))
    return files, pd.concat(frames, ignore_index=True)


def _tid(w):
    return int(hashlib.md5(w.encode()).hexdigest()[:8], 16) % V


def _route(doc_id, P):
    return int((np.uint64(doc_id) * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(P))


def _serial_oracle(df, P, files_per_epoch, docs_per_file=7):
    """Per-partition packed streams (arrival order within partition)."""
    streams = {p: [] for p in range(P)}
    for row in df.itertuples(index=False):  # df is already arrival-ordered
        streams[_route(row.doc_id, P)].extend(
            _tid(w) for w in re.findall(r"\w+", row.text)
        )
    packs = {}
    for p, s in streams.items():
        packs[p] = [s[i * B : (i + 1) * B] for i in range(len(s) // B)]
    return packs


def test_pack_stream_matches_serial_oracle_and_resumes(tmp_path, ray_session):
    files, df = _feed(tmp_path)

    def digest(root):
        h = hashlib.md5()
        for f in sorted(Path(root).rglob("*.parquet")):
            h.update(f.read_bytes())
        return h.hexdigest()

    # P = 1: Ray returns a bare ref for num_returns=1
    for P in (3, 1):
        out, out2 = tmp_path / f"out{P}", tmp_path / f"out2_{P}"
        sink, run_, skip, total = run_pack_stream(
            files, str(out), budget=B, vocab_size=V,
            num_partitions=P, files_per_epoch=2,
        )
        got = sink.read().to_pandas().sort_values(["partition", "pack_seq"])
        exp = _serial_oracle(df, P, 2)
        assert total == sum(len(v) for v in exp.values()) == len(got)
        for p, g in got.groupby("partition"):
            assert g["pack_seq"].tolist() == list(range(len(exp[p])))
            for seq, row in enumerate(g.itertuples(index=False)):
                assert list(row.token_ids) == exp[p][seq], (p, seq)
                assert row.n_tokens == B
        # token conservation: packs + final carries == all tokens
        n_tokens = sum(len(re.findall(r"\w+", t)) for t in df["text"])
        carries = sum(
            json.loads(f.read_text())["carry"]
            for f in [sorted((out / "ckpt").glob("epoch-*.json"))[-1]]
        )
        assert total * B + carries == n_tokens

        # crash-resume: byte-identical sink
        with pytest.raises(RuntimeError):
            run_pack_stream(
                files, str(out2), budget=B, vocab_size=V,
                num_partitions=P, files_per_epoch=2, fail_after_epoch=0,
            )
        sink2, run2, skip2, total2 = run_pack_stream(
            files, str(out2), budget=B, vocab_size=V,
            num_partitions=P, files_per_epoch=2, resume=True,
        )
        assert skip2 == 1 and total2 + json.loads(
            sorted((out2 / "ckpt").glob("epoch-00000.json"))[0].read_text()
        )["packs"] == total
        assert digest(out2 / "packed") == digest(out / "packed")


def test_pack_stream_continuous_midrun_files(tmp_path, ray_session):
    import threading
    import time

    from ray_ordered_stream.stream_pack import run_pack_stream_continuous

    files, df = _feed(tmp_path, n_files=6)
    land = tmp_path / "land"
    staged = tmp_path / "staged"
    staged.mkdir()
    # hold back the last 2 files; drop them mid-run, then the stop file
    late = files[4:]
    for f in late:
        Path(f).rename(staged / Path(f).name)

    def drip():
        time.sleep(2.0)
        for f in late:
            (staged / Path(f).name).rename(land / Path(f).name)
        time.sleep(1.0)
        (land / "_STOP").touch()

    t = threading.Thread(target=drip)
    t.start()
    sink, run_, skip, total = run_pack_stream_continuous(
        str(land), str(tmp_path / "out"), budget=B, vocab_size=V,
        num_partitions=3, files_per_epoch=2, poll_interval_s=0.2,
        idle_timeout_s=30.0,
    )
    t.join()

    # identical to the one-shot run over the full feed
    exp = _serial_oracle(df, 3, 2)
    got = sink.read().to_pandas().sort_values(["partition", "pack_seq"])
    assert len(got) == sum(len(v) for v in exp.values())
    for p, g in got.groupby("partition"):
        for seq, row in enumerate(g.itertuples(index=False)):
            assert list(row.token_ids) == exp[p][seq], (p, seq)


def test_materialize_packs_property(ray_session):
    """Random corpora x budgets x partition counts: the distributed pack
    layout must equal the serial token stream exactly (the boundary
    fragment assembly is the tricky part: empty partitions, partitions
    smaller than one pack, packs spanning 3+ partitions)."""
    import ray.data
    from hypothesis import given, settings, strategies as st

    from ray_ordered_stream.functions.pack import materialize_packs

    @settings(max_examples=12, deadline=None)
    @given(
        n_docs=st.integers(1, 30),
        budget=st.integers(2, 17),
        P=st.integers(1, 9),
        seed=st.integers(0, 10**6),
    )
    def check(n_docs, budget, P, seed):
        rng = np.random.default_rng(seed)
        words = ["aa", "bb", "cc", "dd"]
        texts = [
            " ".join(rng.choice(words, size=int(rng.integers(0, 7))))
            for _ in range(n_docs)
        ]
        df = pd.DataFrame(
            {"doc_id": np.arange(n_docs, dtype="int64"), "text": texts}
        )
        stream = []
        for t in texts:
            stream.extend(_tid(w) for w in re.findall(r"\w+", t))
        ds = materialize_packs(
            ray.data.from_pandas(df).repartition(3),
            budget=budget, vocab_size=V, num_partitions=P,
        )
        if not stream:  # all-empty corpus: Ray's to_pandas drops the
            assert ds.count() == 0  # schema of all-empty Arrow blocks
            return
        got = ds.to_pandas().sort_values("pack_id").reset_index(drop=True)
        flat = [t for row in got["token_ids"] for t in row]
        assert flat == stream
        assert got["pack_id"].tolist() == list(
            range(-(-len(stream) // budget))
        )

    check()


def test_pack_stream_rescale_grow(tmp_path, ray_session):
    from ray_ordered_stream.stream_pack import (
        rescale_pack_checkpoint,
        run_pack_stream,
    )

    files, df = _feed(tmp_path, n_files=6)
    out = str(tmp_path / "out")
    # run the first 2 epochs at P=2
    run_pack_stream(
        files[:4], out, budget=B, vocab_size=V, num_partitions=2,
        files_per_epoch=2,
    )
    rescale_pack_checkpoint(out, 4)
    with pytest.raises(ValueError):
        rescale_pack_checkpoint(out, 1)
    sink, run_, skip, _tot = run_pack_stream(
        files, out, budget=B, vocab_size=V, num_partitions=4,
        files_per_epoch=2, resume=True,
    )
    assert skip == 2 and run_ == 1

    # serial oracle with the routing change: epochs 0-1 route %2 (P=2),
    # epoch 2 routes under P=4; old shards keep their carries
    streams = {p: [] for p in range(4)}
    n_epoch_rows = 14  # 2 files x 7 docs per epoch
    for i, row in enumerate(df.itertuples(index=False)):
        P_at = 2 if i < 2 * n_epoch_rows else 4
        streams[_route(row.doc_id, P_at)].extend(
            _tid(w) for w in re.findall(r"\w+", row.text)
        )
    got = sink.read().to_pandas().sort_values(["partition", "pack_seq"])
    for p, g in got.groupby("partition"):
        exp = [
            streams[p][i * B : (i + 1) * B]
            for i in range(len(streams[p]) // B)
        ]
        assert [list(r) for r in g["token_ids"]] == exp, p
    total_tokens = sum(len(re.findall(r"\w+", t)) for t in df["text"])
    carries = json.loads(
        sorted((Path(out) / "ckpt").glob("epoch-*.json"))[-1].read_text()
    )["carry"]
    assert len(got) * B + carries == total_tokens


def test_pack_stream_resume_budget_mismatch_raises(tmp_path, ray_session):
    # ADVICE r2: resuming with a different --pack-budget must refuse —
    # committed epochs were cut at the old budget.
    files, df = _feed(tmp_path)
    run_pack_stream(files, str(tmp_path / "out"), budget=B, vocab_size=V,
                    num_partitions=2, files_per_epoch=2)
    with pytest.raises(ValueError, match=f"budget={B}, got budget={B + 16}; resume requires"):
        run_pack_stream(files, str(tmp_path / "out"), budget=B + 16,
                        vocab_size=V, num_partitions=2, files_per_epoch=2,
                        resume=True)


def test_pack_stream_fresh_rerun_wipes_phantom_epochs(tmp_path, ray_session):
    files, df = _feed(tmp_path)
    sink, *_ = run_pack_stream(files, str(tmp_path / "out"), budget=B,
                               vocab_size=V, num_partitions=2,
                               files_per_epoch=2)
    n_epochs_long = len(sink.committed_epochs())
    assert n_epochs_long > 1
    sink2, *_ = run_pack_stream(files[:2], str(tmp_path / "out"), budget=B,
                                vocab_size=V, num_partitions=2,
                                files_per_epoch=2)
    assert sink2.committed_epochs() == [0]


def test_pack_stream_checkpoint_stays_bounded(tmp_path, ray_session):
    """Over more than 2 x COMPACT_EVERY epochs the checkpoint keeps one full
    carry snapshot and fewer than COMPACT_EVERY deltas, and a crash after a
    compaction resumes to byte-identical packs."""
    from ray_ordered_stream.stream_dedup import COMPACT_EVERY

    n = 2 * COMPACT_EVERY + 2
    files, _df = _feed(tmp_path, n_files=n)
    kw = dict(budget=B, vocab_size=V, num_partitions=2, files_per_epoch=1)
    sink, *_ = run_pack_stream(files, str(tmp_path / "full"), **kw)
    ck = tmp_path / "full" / "ckpt"
    fulls = [d.name for d in ck.glob("full-*") if d.is_dir()]
    deltas = list(ck.glob("delta-*"))
    assert fulls == [f"full-{2 * COMPACT_EVERY - 1:05d}"]
    assert len(deltas) < COMPACT_EVERY

    with pytest.raises(RuntimeError, match="injected failure"):
        run_pack_stream(files, str(tmp_path / "crash"),
                        fail_after_epoch=COMPACT_EVERY + 1, **kw)
    sink2, run2, skip2, _ = run_pack_stream(
        files, str(tmp_path / "crash"), resume=True, **kw
    )
    assert skip2 == COMPACT_EVERY + 2 and run2 == n - skip2

    def parts(s):
        return {Path(f).relative_to(s.root).as_posix(): Path(f).read_bytes()
                for f in s.committed_files()}

    assert parts(sink2) == parts(sink)
