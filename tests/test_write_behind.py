"""The partition actor's write-behind: epoch k's sink parts and checkpoint
are written while epoch k+1 drains (ordered.OrderedWorker, _EpochGate).

- every operator's snapshot stays as it was taken while the next batch is
  fed, since the snapshot is written after the next drain has started;
- a failed epoch fails the calls behind it instead of leaving them waiting;
- one actor's epoch calls start in submission order, even when their
  arguments resolve in reverse, so the epoch group's two threads cannot
  both wait at the gate for an epoch that has no thread;
- a crash with later epochs in flight resumes byte for byte;
- the continuous feed's flush epoch and state probes keep their place;
- the session accumulator's vectorized late-drop check equals the per-key
  loop it replaced.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ray_ordered_stream.fixtures import gen_transcripts
from ray_ordered_stream.schema import KEY, SEQ
from ray_ordered_stream.state import OrderedConfig
from ray_ordered_stream.stream_ops import OPERATOR_KINDS, Operator, SessionAccumulator
from ray_ordered_stream.userstate import RunningStatsState

# one config per operator kind (stream_ops.OPERATOR_KINDS), the CEP kind in
# both of its forms
KIND_CONFIGS = {
    "windows": OrderedConfig(window_size_s=60.0, window_step_s=20.0),
    "sessions": OrderedConfig(session_gap_s=0.5),
    "join": OrderedConfig(stream_join=True),
    "cep": OrderedConfig(pattern=("user", "tool", "user")),
    "cep_absence": OrderedConfig(pattern=("user", "assistant"), absent_role="tool",
                                 absent_within_s=30.0),
    "book": OrderedConfig(with_book=True),
    "user": OrderedConfig(state_factory=RunningStatsState),
}


def _emitted(batch: int, n_keys: int = 5, turns: int = 4) -> pa.Table:
    """Turns ``batch * turns ...`` of ``n_keys`` keys, in sequence per key,
    with the columns of every operator's input (the book's order fields
    too); each batch is later in event time than the one before."""
    roles = ["user", "assistant", "tool", "user"]
    keys, seqs = [], []
    for k in range(n_keys):
        for s in range(batch * turns, (batch + 1) * turns):
            keys.append(f"k{k}")
            seqs.append(s)
    seqs = np.array(seqs, dtype=np.int64)
    n = len(keys)
    return pa.table({
        KEY: pa.array(keys, pa.string()),
        SEQ: pa.array(seqs, pa.int32()),
        "role": pa.array([roles[s % 4] for s in seqs], pa.string()),
        "ts": pa.array(seqs * 2_000_000 + np.arange(n), pa.timestamp("us")),
        "text": pa.array([f"t{i}" for i in range(n)], pa.string()),
        "price": pa.array(100 + seqs % 3, pa.int64()),
        "qty": pa.array(np.ones(n, np.int64), pa.int64()),
        "side": pa.array(["BUY" if s % 2 else "SELL" for s in seqs], pa.string()),
        "type": pa.array(["NEW"] * n, pa.string()),
    })


def _frozen(snap: dict) -> dict:
    """A snapshot as bytes: each table's IPC serialization, every other
    part as JSON."""
    out = {}
    for name, v in snap.items():
        if isinstance(v, pa.Table):
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, v.schema) as w:
                w.write_table(v)
            out[name] = sink.getvalue().to_pybytes()
        else:
            out[name] = json.dumps(v, sort_keys=True, default=str).encode()
    return out


@pytest.mark.parametrize("name", list(KIND_CONFIGS))
def test_snapshot_does_not_change_with_the_next_batch(name):
    """A snapshot is written while the next epoch drains, so no later
    update may reach into it: feed a batch, snapshot, feed the same keys
    again, and the snapshot's bytes are the same."""
    cfg = KIND_CONFIGS[name]
    (kind,) = [k for k in OPERATOR_KINDS if k.enabled(cfg)]
    op = Operator(kind, cfg)
    late: list = []
    op.update(_emitted(0), None, late)
    snap = op.snapshot()
    before = _frozen(snap)
    op.update(_emitted(1), None, late)
    op.take(final=False)
    assert _frozen(snap) == before
    assert _frozen(op.snapshot()) != before  # the state did move on


def test_snapshot_kinds_cover_the_operator_table():
    covered = {k.name for c in KIND_CONFIGS.values() for k in OPERATOR_KINDS if k.enabled(c)}
    assert covered == {k.name for k in OPERATOR_KINDS}


# -- the session accumulator's late-drop check --------------------------------


def _merges_open_loop(acc: SessionAccumulator, cg: np.ndarray, ct: np.ndarray) -> np.ndarray:
    """The per-key loop ``SessionAccumulator._merges_open`` replaced."""
    merge_ok = np.zeros(len(cg), dtype=bool)
    for g in np.unique(cg):
        lo = np.searchsorted(acc._kc, g, side="left")
        hi = np.searchsorted(acc._kc, g, side="right")
        if lo == hi:
            continue
        m = cg == g
        t = ct[m]
        j = lo + np.searchsorted(acc._start[lo:hi], t + acc.gap, side="right") - 1
        ok = j >= lo
        jj = np.where(ok, j, lo)
        ok &= acc._end[jj] + acc.gap >= t
        merge_ok[m] = ok
    return merge_ok


@st.composite
def _open_sessions_and_events(draw):
    gap = draw(st.integers(1, 50))
    n_keys = draw(st.integers(1, 6))
    kc, start, end = [], [], []
    for k in range(n_keys):
        t = draw(st.integers(0, 100))
        for _ in range(draw(st.integers(0, 4))):
            s = t
            e = s + draw(st.integers(0, 60))
            kc.append(k)
            start.append(s)
            end.append(e)
            # open sessions of a key are more than one gap apart
            t = e + gap + 1 + draw(st.integers(0, 60))
    n_ev = draw(st.integers(1, 30))
    codes = draw(st.lists(st.integers(0, n_keys), min_size=n_ev, max_size=n_ev))
    ts = draw(st.lists(st.integers(0, 700), min_size=n_ev, max_size=n_ev))
    return gap, kc, start, end, codes, ts


@settings(max_examples=300, deadline=None)
@given(_open_sessions_and_events())
def test_session_late_check_matches_the_per_key_loop(case):
    gap, kc, start, end, codes, ts = case
    n = len(kc)
    if not n:
        return  # _merge asks only with sessions open
    acc = SessionAccumulator(gap_s=1.0)
    acc.gap = gap
    acc._set_open([np.array(kc, np.int64), np.array(start, np.int64),
                   np.array(end, np.int64), *[np.ones(n, np.int64)] * 3])
    codes = np.array(codes, np.int64)
    ts = np.array(ts, np.int64)
    np.testing.assert_array_equal(acc._merges_open(codes, ts),
                                  _merges_open_loop(acc, codes, ts))


# -- the actor: failures, crashes and the flush epoch -------------------------


@pytest.fixture(scope="module")
def files(tmp_path_factory, ray_session):
    t = gen_transcripts(n_convs=12, min_turns=10, max_turns=60, lateness=60,
                        dup_rate=0.03, seed=21)
    d = tmp_path_factory.mktemp("wb_landing")
    n_files = 8
    step = -(-t.num_rows // n_files)
    out = []
    for i in range(n_files):
        f = d / f"part-{i:05d}.parquet"
        pq.write_table(t.slice(i * step, step), f)
        out.append(str(f))
    return out


ALL_OPERATORS = OrderedConfig(
    window_size_s=60.0, session_gap_s=0.5, stream_join=True,
    pattern=("user", "tool", "user"),
)


def _digests(root: Path, pattern: str) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.glob(pattern))}


def _block_part(out: Path, sink: str, epoch: int, partition: int) -> None:
    """Make the part path of (sink, epoch, partition) a non-empty directory,
    so the part's rename into place fails."""
    d = out / sink / f"epoch={epoch:05d}" / f"part-{partition:05d}.parquet"
    d.mkdir(parents=True)
    (d / "x").write_text("")


def test_failed_part_write_fails_the_epochs_behind_it(files, tmp_path):
    """Epoch 1's part write fails on one partition: its call raises, and
    epoch 2's call on that actor, drained already, raises at its
    checkpoint's turn instead of waiting for epoch 1's checkpoint. Epoch
    0's call, whose writes may still run when epoch 1 fails, succeeds."""
    import ray

    from ray_ordered_stream.epochs import _epoch_ts, _open_sinks
    from ray_ordered_stream.ordered import OrderedProcessor

    out = tmp_path / "out"
    _block_part(out, "status", 1, 0)
    sinks = _open_sinks(str(out), OrderedConfig())
    proc = OrderedProcessor(OrderedConfig(), 2)
    proc.broken = True  # its actors are killed, not pooled, at the end
    try:
        proc.wait_ready(str(out), None)
        refs = []
        for e in range(3):
            paths = [{n: s.part_path(e, p) for n, s in sinks.items()} for p in range(2)]
            refs.append(proc.feed_epoch_to_sinks(
                e, proc.exchange(files[2 * e: 2 * e + 2]), _epoch_ts(e), paths,
                ckpt=(str(out), False)))
        assert ray.get(refs[0], timeout=60)
        with pytest.raises(ray.exceptions.RayTaskError,
                           match="IsADirectory|Directory not empty"):
            ray.get(refs[1][0], timeout=60)
        with pytest.raises(ray.exceptions.RayTaskError,
                           match="epoch 2 not run: epoch 1 failed in its writes"):
            ray.get(refs[2][0], timeout=60)
        # the other partition is not affected
        ray.get([refs[1][1], refs[2][1]], timeout=60)
        ckpt = out / "ckpt" / "p=00000"
        assert (ckpt / "epoch-00000" / "state.arrow").exists()
        assert not (ckpt / "epoch-00001" / "state.arrow").exists()
        assert not (ckpt / "epoch-00002" / "state.arrow").exists()
    finally:
        proc.shutdown()


def test_epoch_calls_with_arguments_ready_in_reverse_complete(files, tmp_path):
    """Four epoch calls to one actor whose shards resolve last epoch
    first. Ray must start them in submission order: were epochs 2 and 3
    started first, they would hold both of the epoch group's threads at
    the gate, and epoch 0 would never get one. The timeout turns such a
    hang into a failure."""
    import time

    import ray

    from ray_ordered_stream.epochs import _epoch_ts, _open_sinks
    from ray_ordered_stream.ordered import OrderedProcessor, _as_batch

    @ray.remote(num_cpus=0)
    def shard_after(delay_s: float, path: str) -> pa.RecordBatch:
        time.sleep(delay_s)
        return _as_batch(pq.read_table(path))

    out = tmp_path / "out"
    n = 4
    sinks = _open_sinks(str(out), OrderedConfig())
    proc = OrderedProcessor(OrderedConfig(), 1)
    proc.broken = True  # a hung actor is killed, not pooled
    try:
        proc.wait_ready(str(out), None)
        refs = []
        for e in range(n):
            shard = shard_after.remote(0.5 * (n - 1 - e), files[e])
            paths = [{name: s.part_path(e, 0) for name, s in sinks.items()}]
            refs += proc.feed_epoch_to_sinks(e, [[shard]], _epoch_ts(e), paths,
                                             ckpt=(str(out), False))
        rows = ray.get(refs, timeout=60)
        assert all(r["ordered"] > 0 for r in rows)
        ckpt = out / "ckpt" / "p=00000"
        assert all((ckpt / f"epoch-{e:05d}" / "state.arrow").exists() for e in range(n))
    finally:
        proc.shutdown()


def test_failed_part_write_ends_the_run_without_actors(files, tmp_path, monkeypatch):
    """The same failure through run_stream: it raises and no partition
    actor is left, leased or idle."""
    import ray

    from ray_ordered_stream.epochs import run_stream
    from ray_ordered_stream.ordered import _POOL

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from procs import wait_until_gone

    out = tmp_path / "out"
    _block_part(out, "ordered", 1, 1)
    with pytest.raises(ray.exceptions.RayTaskError):
        run_stream(files, str(out), OrderedConfig(), num_partitions=2, files_per_epoch=1)
    assert not _POOL.idle
    assert wait_until_gone(b"ray::OrderedWorker", 30.0)


def test_crash_with_later_epochs_in_flight_resumes_byte_identical(files, tmp_path):
    """fail_after_epoch kills the actors right after epoch 2 commits, with
    epochs 3 and 4 already submitted (max_inflight 3), so their drains and
    writes are in flight. The resume rewrites them: every sink part and
    every state.arrow equals the uninterrupted run's."""
    from ray_ordered_stream.epochs import run_stream

    full, crash = tmp_path / "full", tmp_path / "crash"
    kw = dict(num_partitions=3, files_per_epoch=1, checkpoint_full_every=4)
    run_stream(files, str(full), ALL_OPERATORS, **kw)
    with pytest.raises(RuntimeError, match="injected failure"):
        run_stream(files, str(crash), ALL_OPERATORS, fail_after_epoch=2, **kw)
    res = run_stream(files, str(crash), ALL_OPERATORS, resume=True, **kw)
    assert res.epochs_skipped == 3
    for pattern in ("*/epoch=*/part-*.parquet", "ckpt/p=*/epoch-*/state.arrow"):
        a, b = _digests(full, pattern), _digests(crash, pattern)
        assert a and a == b, pattern


def test_continuous_flush_epoch_follows_the_probed_epochs(tmp_path, ray_session):
    """A continuous run with windows and a state probe after every epoch:
    the probes read between drains, the flush epoch runs after the last
    data epoch, and every sink part equals a run without probes."""
    from ray_ordered_stream.epochs import run_stream_continuous

    t = gen_transcripts(n_convs=8, min_turns=8, max_turns=25, lateness=30,
                        dup_rate=0.02, seed=34)
    land = tmp_path / "landing"
    land.mkdir()
    n_files = 6
    step = -(-t.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(t.slice(i * step, step), land / f"part-{i:05d}.parquet")
    (land / "_STOP").write_text("")
    cfg = OrderedConfig(window_size_s=60.0, session_gap_s=0.5)
    roots = {}
    for probe in (0, 1):
        out = tmp_path / f"out{probe}"
        res = run_stream_continuous(str(land), str(out), cfg, num_partitions=2,
                                    files_per_epoch=2, poll_interval_s=0.05,
                                    probe_state_every_epochs=probe)
        # three data epochs, then the flush epoch
        assert res.sinks["windows"].committed_epochs() == [0, 1, 2, 3]
        assert json.loads((out / "epochs" / "epoch-00003.json").read_text())["files"] == []
        roots[probe] = out
    probes = [json.loads(ln) for ln in (roots[1] / "state_probe.jsonl").read_text().splitlines()]
    assert [p["epoch"] for p in probes] == [0, 1, 2]
    assert all(p["state"]["windows"]["keys"] > 0 for p in probes)
    # the flush epoch released every window still open
    flushed = pq.read_table(roots[1] / "windows" / "epoch=00003")
    assert flushed.num_rows > 0
    a = _digests(roots[0], "*/epoch=*/part-*.parquet")
    assert a and a == _digests(roots[1], "*/epoch=*/part-*.parquet")
