"""The ray-job-submit entrypoint (ray_ordered_stream.job) end to end:
bounded run with several operators enabled, then an idempotent re-submit
(exactly-once resume skips all committed epochs)."""

import json
import subprocess
import sys
from pathlib import Path

import pyarrow.parquet as pq

from ray_ordered_stream.fixtures import gen_transcripts

REPO = str(Path(__file__).resolve().parent.parent)


def _run(args):
    out = subprocess.run(
        [sys.executable, "-m", "ray_ordered_stream.job", *args],
        capture_output=True, text=True, timeout=240,
        cwd="/tmp", env={"PYTHONPATH": REPO, "PATH": "/usr/bin:/bin",
                         "HOME": "/root", "RAY_ADDRESS": "local"},
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_job_cli_run_and_resume(tmp_path):
    t = gen_transcripts(n_convs=5, min_turns=6, max_turns=16, lateness=8, seed=9)
    land = tmp_path / "landing"
    land.mkdir()
    n, nf = t.num_rows, 4
    step = -(-n // nf)
    for i in range(nf):
        pq.write_table(t.slice(i * step, step), land / f"part-{i:05d}.parquet")
    args = [
        "--input", str(land), "--out", str(tmp_path / "out"),
        "--partitions", "2", "--files-per-epoch", "2", "--address", "local",
        "--warmup-rows", "0",
        "--window-size", "60", "--session-gap", "0.5",
        "--pattern", "user,tool,user",
    ]
    res = _run(args)
    assert res["total_emitted"] == res["summary"]["results"] > 0
    assert res["summary"]["buffered"] == 0
    for sink in ("ordered", "status", "windows", "sessions", "matches"):
        assert res["sinks"][sink] == "committed"

    res2 = _run(args)  # idempotent re-submit: everything already committed
    assert res2["epochs_run"] == 0
    assert res2["epochs_skipped"] >= 1


def test_job_cli_dedup_pipeline(tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow as pa

    rng = np.random.default_rng(11)
    words = np.array(["red", "blue", "lime", "teal", "gold"])
    texts = [" ".join(rng.choice(words, size=10)) for _ in range(120)]
    for i in rng.choice(np.arange(1, 120), size=30, replace=False):
        texts[i] = texts[rng.integers(0, i)]
    df = pd.DataFrame({"doc_id": np.arange(120, dtype="int64"), "text": texts})
    land = tmp_path / "feed"
    land.mkdir()
    step = 30
    for i in range(4):
        pq.write_table(
            pa.Table.from_pandas(df.iloc[i * step:(i + 1) * step],
                                 preserve_index=False),
            land / f"feed-{i:05d}.parquet")

    args = [
        "--input", str(land), "--out", str(tmp_path / "out"),
        "--pipeline", "dedup", "--partitions", "2",
        "--files-per-epoch", "2", "--address", "local",
    ]
    res = _run(args)
    n_unique = df["text"].nunique()
    assert res["total_kept"] == n_unique == res["committed_rows"]
    assert res["total_dropped"] == len(df) - n_unique
    assert res["epochs_run"] == 2

    res2 = _run(args)  # exactly-once resume: nothing re-runs
    assert res2["epochs_run"] == 0
    assert res2["epochs_skipped"] == 2
    assert res2["committed_rows"] == n_unique


def test_job_cli_curate_pipeline(tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    # corpus with planted exact dups and a few too-short docs
    rng = np.random.default_rng(4)
    words = ["alpha", "beta", "gamma", "delta", "epsilon"]
    texts = [" ".join(rng.choice(words, size=30)) for _ in range(40)]
    texts[5] = texts[0]            # exact dup -> dropped by dedup
    texts[7] = "too short"         # below the quality quantile
    df = pd.DataFrame({"doc_id": np.arange(40, dtype="int64"),
                       "text": texts})
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src)

    args = [
        "--input", str(src), "--out", str(tmp_path / "out"),
        "--pipeline", "curate", "--chunk-size", "8", "--chunk-stride", "6",
        "--quality-q", "0.1", "--address", "local",
    ]
    res = _run(args)
    assert res["pipeline"] == "curate" and res["rows"] > 0
    assert res["parts_skipped"] == 0
    assert (tmp_path / "out" / "curated" / "_SUCCESS").exists()

    back = pq.read_table(
        sorted((tmp_path / "out" / "curated").glob("*.parquet"))
    ).to_pandas()
    assert len(back) == res["rows"]
    assert 5 not in set(back["doc_id"])   # dup dropped (keep-first id 0)
    assert 7 not in set(back["doc_id"])   # short doc filtered
    assert 0 in set(back["doc_id"])
    # 30-word docs at size 8 / stride 6: ceil((30-8)/6)+1 = 5 chunks
    assert (back.groupby("doc_id").size() == 5).all()

    res2 = _run(args)  # resumable export: everything skipped
    assert res2["parts_written"] == 0
    assert res2["parts_skipped"] == res["n_parts"]


def test_job_cli_pack_with_rescale(tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    rng = np.random.default_rng(6)
    words = ["alpha", "beta", "gamma"]
    land = tmp_path / "land"
    land.mkdir()
    did = 0
    for i in range(4):
        rows = []
        for _ in range(8):
            rows.append((did, " ".join(rng.choice(words, size=20))))
            did += 1
        pq.write_table(
            pa.Table.from_pandas(
                pd.DataFrame(rows, columns=["doc_id", "text"]),
                preserve_index=False,
            ),
            land / f"feed-{i:05d}.parquet",
        )

    base = [
        "--input", str(land), "--out", str(tmp_path / "out"),
        "--pipeline", "pack", "--files-per-epoch", "1",
        "--pack-budget", "16", "--address", "local",
    ]
    # first two epochs at P=2 (limit input by running on a copy dir)
    first = tmp_path / "first"
    first.mkdir()
    for f in sorted(land.glob("*.parquet"))[:2]:
        (first / f.name).symlink_to(f)
    res1 = _run(["--input", str(first)] + base[2:] + ["--partitions", "2"])
    assert res1["epochs_run"] == 2

    # rescale to 4 and finish the full feed
    res2 = _run(base + ["--partitions", "4", "--rescale", "4"])
    assert res2["epochs_skipped"] == 2 and res2["epochs_run"] == 2
    assert res2["committed_rows"] >= res1["packs"]

    # a mismatched rescale value is refused
    out = subprocess.run(
        [sys.executable, "-m", "ray_ordered_stream.job", *base,
         "--partitions", "8", "--rescale", "4"],
        capture_output=True, text=True, timeout=240, cwd="/tmp",
        env={"PYTHONPATH": REPO, "PATH": "/usr/bin:/bin", "HOME": "/root",
             "RAY_ADDRESS": "local"},
    )
    assert out.returncode == 2


def test_job_cli_publish_then_queue_consumer(tmp_path):
    """Producer CLI publishes shards onto the lease queue (+ close), the
    consumer CLI runs --source queue --continuous: in-job pump delivers,
    engine emits exactly-once, every message acked, run terminates via the
    stop marker the pump writes once every message has landed. 5 messages
    at --files-per-epoch 2 leave a trailing partial group, which runs on
    that marker: the job ends well inside its 60 s idle timeout."""
    import time

    from ray_ordered_stream.fixtures import oracle_ordered

    t = gen_transcripts(n_convs=6, min_turns=6, max_turns=18, lateness=10,
                        dup_rate=0.05, seed=21)
    src = tmp_path / "shards"
    src.mkdir()
    nf = 5
    step = -(-t.num_rows // nf)
    for i in range(nf):
        pq.write_table(t.slice(i * step, step), src / f"s{i:03d}.parquet")

    queue = str(tmp_path / "queue")
    pub = _run(["--input", str(src), "--out", queue,
                "--pipeline", "publish", "--close"])
    assert pub == {"pipeline": "publish", "published": nf, "closed": True,
                   "available": nf, "leased": 0, "acked": 0}

    out_root = tmp_path / "out"
    t0 = time.monotonic()
    res = _run(["--input", queue, "--out", str(out_root),
                "--source", "queue", "--continuous",
                "--partitions", "2", "--files-per-epoch", "2",
                "--address", "local", "--warmup-rows", "0",
                "--idle-timeout", "60", "--lease-s", "30"])
    # Ray's start is most of it; waiting out the idle timeout would add 60 s
    assert time.monotonic() - t0 < 40
    assert res["source"]["kind"] == "queue"
    # at-least-once: every message delivered; a slow first commit may let a
    # lease expire and redeliver (same landing name -> engine dedups)
    assert res["source"]["delivered"] >= nf
    assert res["source"]["acked"] == nf
    assert res["source"]["redelivered"] == res["source"]["delivered"] - nf
    exp = oracle_ordered(t)
    assert res["total_emitted"] == len(exp)
    import duckdb

    got = duckdb.sql(
        f"""SELECT conv_id, turn_idx, text
            FROM read_parquet('{out_root}/ordered/epoch=*/*.parquet')
            ORDER BY conv_id, turn_idx"""
    ).df()
    assert got["text"].tolist() == exp["text"].tolist()


def test_job_cli_pack_continuous_polls(tmp_path):
    """--pipeline pack --continuous started on an empty landing dir polls
    it: files landed while it runs, then _STOP, are packed exactly as a
    bounded run over the same feed packs them."""
    import hashlib
    import os
    import shutil
    import time

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ray_ordered_stream.sink import ManifestSink

    rng = np.random.default_rng(8)
    words = ["alpha", "beta", "gamma", "delta"]
    src = tmp_path / "src"
    src.mkdir()
    for i in range(4):
        rows = [(i * 8 + j, " ".join(rng.choice(words, size=int(rng.integers(3, 20)))))
                for j in range(8)]
        pq.write_table(
            pa.Table.from_pandas(pd.DataFrame(rows, columns=["doc_id", "text"]),
                                 preserve_index=False),
            src / f"feed-{i:05d}.parquet",
        )
    base = ["--pipeline", "pack", "--files-per-epoch", "1", "--partitions", "2",
            "--pack-budget", "16", "--address", "local"]
    _run(["--input", str(src), "--out", str(tmp_path / "bounded"), *base])

    land = tmp_path / "land"
    land.mkdir()

    def land_files(names):
        for f in names:  # write, then rename: the landing-dir convention
            shutil.copy(src / f, land / f"{f}.tmp")
            os.replace(land / f"{f}.tmp", land / f)

    out = tmp_path / "cont"
    proc = subprocess.Popen(
        [sys.executable, "-m", "ray_ordered_stream.job", "--input", str(land),
         "--out", str(out), "--continuous", "--idle-timeout", "120", *base],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd="/tmp",
        env={"PYTHONPATH": REPO, "PATH": "/usr/bin:/bin",
             "HOME": os.environ["HOME"], "RAY_ADDRESS": "local"},
    )
    try:
        names = sorted(f.name for f in src.glob("*.parquet"))
        land_files(names[:2])
        first = out / "packed" / "_manifests" / "epoch-00000.json"
        deadline = time.monotonic() + 180
        while not first.exists():  # the CLI has packed the first files
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline
            time.sleep(0.2)
        land_files(names[2:])
        (land / "_STOP").write_text("")
        _stdout, stderr = proc.communicate(timeout=240)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0, stderr[-2000:]

    def parts(root):
        s = ManifestSink(str(root), "packed")
        return {Path(f).relative_to(s.root).as_posix():
                hashlib.sha256(Path(f).read_bytes()).hexdigest()
                for f in s.committed_files()}

    assert parts(out) == parts(tmp_path / "bounded")
    assert len(ManifestSink(str(out), "packed").committed_epochs()) == 4
