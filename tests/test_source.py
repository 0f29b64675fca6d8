"""Push-source shim tests: lease/ack delivery (FileLeaseQueue + Pump)
bridging a message bus to the landing-dir consumer — at-least-once delivery
with redelivery on lease expiry, exactly-once engine output."""

import os
import threading
import time

import pandas as pd
import pyarrow.parquet as pq

from ray_ordered_stream.epochs import run_stream_continuous
from ray_ordered_stream.fixtures import gen_transcripts, oracle_ordered
from ray_ordered_stream.schema import KEY, SEQ
from ray_ordered_stream.source import FileLeaseQueue, LandingWatch, Pump
from ray_ordered_stream.state import OrderedConfig


def _publish_fixture(tmp_path, n_files=8, seed=31):
    t = gen_transcripts(
        n_convs=10, min_turns=8, max_turns=30, lateness=40, dup_rate=0.02,
        seed=seed,
    )
    src = tmp_path / "src"
    src.mkdir()
    step = -(-t.num_rows // n_files)
    files = []
    for i in range(n_files):
        f = src / f"shard-{i:03d}.parquet"
        pq.write_table(t.slice(i * step, step), f)
        files.append(str(f))
    q = FileLeaseQueue(str(tmp_path / "queue"))
    q.publish(files)
    return t, q


def test_lease_pump_delivers_acks_exactly_once(tmp_path, ray_session):
    """The Pump (incremental commit-frontier cursor) delivers, and acks
    exactly through the committed frontier."""
    t, q = _publish_fixture(tmp_path)
    land, out = str(tmp_path / "landing"), str(tmp_path / "out")
    stop = threading.Event()
    p = Pump(q, land, out, max_n=3, lease_s=30.0)

    def pumper():
        while not stop.is_set():
            st = p.step()
            if st["available"] == 0 and st["leased"] == 0:
                (tmp_path / "landing" / "_STOP").write_text("")
                return
            time.sleep(0.1)

    th = threading.Thread(target=pumper)
    th.start()
    res = run_stream_continuous(
        land, out, OrderedConfig(), num_partitions=2, files_per_epoch=2,
        poll_interval_s=0.1,
    )
    stop.set()
    th.join()
    # every message acked exactly through the committed frontier
    c = q.counts()
    assert c == {"available": 0, "leased": 0, "acked": 8}
    st = p.stats()
    assert st["delivered"] == 8 and st["acked"] == 8 and st["inflight"] == 0
    assert st["ack_latency_s"]["n"] == 8 >= 1
    assert 0 <= st["ack_latency_s"]["p50"] <= st["ack_latency_s"]["max"]
    exp = oracle_ordered(t)
    got = (
        res.sinks["ordered"].read().to_pandas()
        .sort_values([KEY, SEQ], kind="stable").reset_index(drop=True)
    )
    assert res.total_emitted == len(exp)
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )


def test_lease_expiry_redelivers_and_output_stays_exactly_once(
    tmp_path, ray_session
):
    """Crash-shaped path: deliveries happen but the consumer never commits
    (no acks) -> leases expire -> messages are REDELIVERED; a later healthy
    consumer run still produces exactly-once output (same landing names +
    engine dedup)."""
    t, q = _publish_fixture(tmp_path, seed=77)
    land, out = str(tmp_path / "landing"), str(tmp_path / "out")

    # consumer is down: pump leases+delivers, nothing commits, leases expire
    st1 = Pump(q, land, out, max_n=4, lease_s=0.05).step()
    assert st1["delivered"] == 4 and st1["acked_now"] == 0
    time.sleep(0.1)
    st2 = Pump(q, land, out, max_n=0, lease_s=0.05).step()
    assert st2["redelivered"] == 4          # back to available
    assert q.counts()["available"] == 8     # 4 never leased + 4 returned
    # redelivery increments the per-message delivery count
    _, msgs = q.lease(8, lease_s=30.0)
    assert sorted(m["deliveries"] for m in msgs) == [1, 1, 1, 1, 2, 2, 2, 2]
    # put them back for the healthy run
    q.expire(now=time.time() + 1e6)

    stop = threading.Event()
    p = Pump(q, land, out, max_n=8, lease_s=30.0)

    def pumper():
        while not stop.is_set():
            st = p.step()
            if st["available"] == 0 and st["leased"] == 0:
                (tmp_path / "landing" / "_STOP").write_text("")
                return
            time.sleep(0.1)

    th = threading.Thread(target=pumper)
    th.start()
    res = run_stream_continuous(
        land, out, OrderedConfig(), num_partitions=2, files_per_epoch=2,
        poll_interval_s=0.1,
    )
    stop.set()
    th.join()
    assert q.counts() == {"available": 0, "leased": 0, "acked": 8}
    exp = oracle_ordered(t)
    got = (
        res.sinks["ordered"].read().to_pandas()
        .sort_values([KEY, SEQ], kind="stable").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[[KEY, SEQ, "text", "emit_seq"]], exp[[KEY, SEQ, "text", "emit_seq"]]
    )


def test_concurrent_consumers_never_double_lease(tmp_path):
    """The claim is one atomic rename: with many consumers racing on one
    queue, every message is leased by exactly one of them; expire() then
    returns them all and a second racing wave re-leases each exactly once."""
    import pyarrow.parquet as pq
    import pyarrow as pa

    src = tmp_path / "src"
    src.mkdir()
    files = []
    for i in range(40):
        f = src / f"s{i:03d}.parquet"
        pq.write_table(pa.table({"x": [i]}), f)
        files.append(str(f))
    q = FileLeaseQueue(str(tmp_path / "q"))
    q.publish(files)

    def wave():
        got = []
        barrier.wait()
        while True:
            _, msgs = q.lease(3, lease_s=60.0)
            if not msgs:
                return got
            got.extend(m["id"] for m in msgs)

    for expected_deliveries in (1, 2):
        barrier = threading.Barrier(6)
        import concurrent.futures as cf

        with cf.ThreadPoolExecutor(6) as ex:
            claims = [x for fut in [ex.submit(wave) for _ in range(6)]
                      for x in fut.result()]
        assert len(claims) == 40 and len(set(claims)) == 40  # no double-lease
        _, still = q.lease(100, 1.0)
        assert still == [] and q.counts()["leased"] == 40
        returned = q.expire(now=time.time() + 1e6)
        assert len(returned) == 40
    # delivery counts survived both waves
    _, msgs = q.lease(100, 60.0)
    assert sorted({m["deliveries"] for m in msgs}) == [3]


def test_queue_state_machine_invariants(tmp_path):
    """Randomized op sequences (publish / lease / ack-subset / expire /
    crash-shaped partial ops) preserve the queue invariants: every published
    message lives in exactly ONE of available/leased/acked, acked only ever
    grows, and nothing is lost or duplicated."""
    import random

    rng = random.Random(0xC0FFEE)
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = tmp_path / "src"
    src.mkdir()
    blob = src / "blob.parquet"
    pq.write_table(pa.table({"x": [1]}), blob)

    q = FileLeaseQueue(str(tmp_path / "q"))
    published: set[str] = set()
    acked: set[str] = set()
    leased_ids: list[str] = []
    for step in range(400):
        op = rng.choice(("publish", "lease", "ack", "expire", "counts"))
        if op == "publish":
            published.update(q.publish([str(blob)] * rng.randint(1, 3)))
        elif op == "lease":
            _, msgs = q.lease(rng.randint(1, 5),
                              lease_s=rng.choice((0.0, 1e6)))
            ids = [m["id"] for m in msgs]
            assert not set(ids) & acked          # never re-lease an ack
            leased_ids.extend(ids)
        elif op == "ack" and leased_ids:
            take = rng.sample(leased_ids, rng.randint(1, len(leased_ids)))
            n = len(q.ack(take))
            # only currently-leased ones ack; expired ones are skipped
            acked.update(
                mid for mid in take
                if (q.root / "acked" / f"{mid}.json").exists()
            )
            assert n <= len(take)
        elif op == "expire":
            q.expire()
        c = q.counts()
        assert c["available"] + c["leased"] + c["acked"] == len(published)
        assert c["acked"] == len(acked)
        on_disk = {
            p.stem
            for d in ("available", "leased", "acked")
            for p in (q.root / d).glob("msg-*.json")
        }
        assert on_disk == published  # exactly-one-state, nothing lost


def test_pump_retries_ack_after_lease_expiry(tmp_path):
    """Regression: a message whose lease expired just before its epoch
    committed must still get acked. The commit-frontier cursor passes each
    epoch exactly once, so if the ack misses (the message sits in
    available/ and the lease slot is taken by an older message) the Pump
    must retry from its pending set — the old code dropped the ack forever
    and the message bounced available<->leased unacked."""
    import json as _json

    from ray_ordered_stream.sink import ManifestSink
    from ray_ordered_stream.source import FileLeaseQueue, Pump

    src = tmp_path / "src"
    src.mkdir()
    f1, f2 = src / "a.bin", src / "b.bin"
    f1.write_bytes(b"1")
    f2.write_bytes(b"2")
    q = FileLeaseQueue(str(tmp_path / "q"))
    m1, m2 = q.publish([str(f1), str(f2)])
    out, land = tmp_path / "out", tmp_path / "land"
    p = Pump(q, str(land), str(out), max_n=2, lease_s=1e6)
    st = p.step()  # delivers both
    assert st["delivered"] == 2

    # force-expire BOTH leases (deadline rewrite, then expire)
    for mid in (m1, m2):
        rec_p = q.root / "leased" / f"{mid}.json"
        rec = _json.loads(rec_p.read_text())
        rec["deadline"] = 0.0
        rec_p.write_text(_json.dumps(rec))
    assert set(q.expire()) == {m1, m2}

    # the consumer commits epoch 0 covering ONLY m2's delivery
    (out / "epochs").mkdir(parents=True)
    (out / "epochs" / "epoch-00000.json").write_text(
        _json.dumps({"epoch": 0, "files": [str(land / f"{m2}.parquet")]})
    )
    ManifestSink(str(out), "ordered").commit_epoch(0, {0: 1})

    # next step: the single lease slot goes to m1 (older id), so m2's ack
    # MISSES — it must land in the pending set, not be dropped
    p.max_n = 1
    st = p.step()
    assert st["acked_now"] == 0
    # the following step leases m2 and the retried ack lands durably
    st = p.step()
    assert st["acked_now"] == 1
    assert (q.root / "acked" / f"{m2}.json").exists()


def test_pump_resume_retires_historical_acks(tmp_path):
    """A resumed Pump rescans the commit history from epoch 0; ids that
    were already acked before the restart must be RETIRED from its pending
    set (idempotent ack), not retried as doomed renames forever."""
    import json as _json

    from ray_ordered_stream.sink import ManifestSink
    from ray_ordered_stream.source import FileLeaseQueue, Pump

    src = tmp_path / "src"
    src.mkdir()
    f1 = src / "a.bin"
    f1.write_bytes(b"1")
    q = FileLeaseQueue(str(tmp_path / "q"))
    (m1,) = q.publish([str(f1)])
    out, land = tmp_path / "out", tmp_path / "land"
    p = Pump(q, str(land), str(out), max_n=2, lease_s=1e6)
    p.step()
    (out / "epochs").mkdir(parents=True)
    (out / "epochs" / "epoch-00000.json").write_text(
        _json.dumps({"epoch": 0, "files": [str(land / f"{m1}.parquet")]})
    )
    ManifestSink(str(out), "ordered").commit_epoch(0, {0: 1})
    assert p.step()["acked_now"] == 1
    assert (q.root / "acked" / f"{m1}.json").exists()

    # consumer restart: a fresh Pump sweeps the whole history
    p2 = Pump(q, str(land), str(out), max_n=2, lease_s=1e6)
    p2.step()
    assert p2._pending_ack == set()   # historical id retired, not stuck
    c = q.counts()
    assert c == {"available": 0, "leased": 0, "acked": 1}


def test_publish_collision_is_loud_but_retry_is_idempotent(tmp_path):
    """ADVICE r4: a racing publisher that computes the same positional id
    must raise (the message would otherwise be silently lost while
    publish() still returned its id); a producer RETRY of the same
    (id, file) pair stays a benign no-op."""
    import pytest

    a = tmp_path / "a.parquet"
    b = tmp_path / "b.parquet"
    a.write_text("x")
    b.write_text("y")
    q = FileLeaseQueue(str(tmp_path / "q"))
    ids = q.publish([str(a)])

    # same seq + same file pointer == idempotent retry, same id returned
    retry = FileLeaseQueue(str(tmp_path / "q"))
    retry._next_seq = lambda: 0
    assert retry.publish([str(a)]) == ids
    assert q.counts()["available"] == 1

    # same seq + DIFFERENT file == racing publisher; loud error, original
    # message untouched
    racer = FileLeaseQueue(str(tmp_path / "q"))
    racer._next_seq = lambda: 0
    with pytest.raises(RuntimeError, match="collision"):
        racer.publish([str(b)])
    assert q.counts() == {"available": 1, "leased": 0, "acked": 0}


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_landing_watch_keeps_a_landing_from_before_the_wait(tmp_path):
    """A file renamed in after the watch is armed but before ``wait`` is
    called still ends that wait at once: its event waits in the fd."""
    land = tmp_path / "landing"
    with LandingWatch(str(land)) as w:
        assert land.is_dir() and w.kind == "inotify"
        (tmp_path / "f.tmp").write_bytes(b"x")
        os.replace(tmp_path / "f.tmp", land / "f.parquet")
        t0 = time.monotonic()
        w.wait(5.0)
        assert time.monotonic() - t0 < 1.0
        # the wake drained the event: the next wait sleeps out its timeout
        t0 = time.monotonic()
        w.wait(0.2)
        assert time.monotonic() - t0 >= 0.15


def test_landing_watch_ignores_a_file_still_being_written(tmp_path):
    """Creating and writing a file does not end a wait; closing it does."""
    with LandingWatch(str(tmp_path)) as w:
        with open(tmp_path / "f.parquet", "wb") as f:
            f.write(b"x" * 1024)
            f.flush()
            t0 = time.monotonic()
            w.wait(0.3)
            assert time.monotonic() - t0 >= 0.25
        t0 = time.monotonic()
        w.wait(5.0)
        assert time.monotonic() - t0 < 1.0


def test_landing_watch_close_releases_its_fd(tmp_path):
    before = _fd_count()
    w = LandingWatch(str(tmp_path))
    assert w.kind == "inotify" and _fd_count() == before + 1
    w.close()
    assert _fd_count() == before
    w.close()  # idempotent; a closed watch sleeps out its timeout
    t0 = time.monotonic()
    w.wait(0.1)
    assert time.monotonic() - t0 >= 0.05
