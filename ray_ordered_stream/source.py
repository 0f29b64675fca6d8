"""The unbounded source of every continuous stream, and a push-source shim
in front of it (≙ PubsubIO.readProtos and its acked delivery, reference
OrderBookProcessingPipeline.java:103-105 + PubSubConsumer.java flow control).

``LandingSource`` is the one source of every continuous stream (ordered,
dedup, near-dedup, pack): it cuts a landing directory's files into recorded
epoch groups. It is pull-based. A real message bus delivers with LEASES: a
consumer claims messages, must ack before the lease deadline, and unacked
messages are redelivered (at-least-once). This module provides that
contract as a durable file-backed queue plus a pump that bridges it to the
landing dir:

    producer ──publish──▶ FileLeaseQueue ──lease──▶ pump ──hardlink──▶
        landing dir ──▶ run_stream_continuous ──commit──▶ manifests
                                      ▲                        │
                                      └────── ack when the ────┘
                                              manifest frontier covers
                                              the lease's files

- Delivery names are the queue message ids, so a REDELIVERY lands the same
  filename: an already-assigned file is a no-op (epoch records / the
  assigned set dedup by name), and a re-processed duplicate row is dropped
  by the engine's exact dedup — at-least-once delivery, exactly-once output.
- Acks happen only after the epoch's sink manifests commit (the consumer's
  durable frontier), never at lease time — a crash between delivery and
  commit leaves the lease unacked, so the bus redelivers (the reference
  gets the same from Pub/Sub's ack deadline).
- Everything is atomic-rename on one filesystem; a crash mid-lease or
  mid-ack leaves each message in exactly one of available/leased/acked.

At 100-TB scale the queue holds file/shard POINTERS (one small json per
shard), never data; the pump hardlinks (no copy).
"""

from __future__ import annotations

import ctypes
import json
import os
import select
import shutil
import sys
import time
import uuid
from pathlib import Path

from .checkpoint import write_json_atomic

# <sys/inotify.h>: a file was renamed into, or closed after writing in, the
# watched directory. IN_CREATE is left out: a created file may be mid-write.
_IN_CLOSE_WRITE = 0x008
_IN_MOVED_TO = 0x080


class FileLeaseQueue:
    """Durable at-least-once delivery queue of file pointers.

    Layout: <root>/{available,leased,acked}/msg-*.json; each message is a
    single json file moved between the three states by atomic rename.
    """

    def __init__(self, root: str):
        self.root = Path(root)
        for d in ("available", "leased", "acked"):
            (self.root / d).mkdir(parents=True, exist_ok=True)

    # -- producer side ----------------------------------------------------

    def publish(self, files: list[str]) -> list[str]:
        """Enqueue file pointers; returns message ids (also the delivery
        filenames). Ids are content-stable (publish order), so a producer
        retry of the same sequence is idempotent. One logical producer per
        queue (≙ the reference's single ordered simulator publisher); the
        EXCL link below turns an accidental concurrent publish into a loud
        error instead of silently overwriting a message."""
        ids = []
        n0 = self._next_seq()
        for i, f in enumerate(files):
            mid = f"msg-{n0 + i:08d}"
            tmp = self.root / "available" / f".{mid}.tmp"
            tmp.write_text(json.dumps(
                {"id": mid, "file": str(f), "deliveries": 0}
            ))
            try:
                os.link(tmp, self.root / "available" / f"{mid}.json")  # EXCL
            except FileExistsError:
                # Either a producer retry of an id still queued (benign:
                # the existing record carries the SAME file pointer) or two
                # racing publishers that computed the same n0 (the loser's
                # message would otherwise be silently dropped while
                # publish() still returned its id — a lost message). Verify
                # before treating it as a no-op retry.
                existing = None
                for d in ("available", "leased", "acked"):
                    p = self.root / d / f"{mid}.json"
                    try:
                        existing = json.loads(p.read_text())
                        break
                    except (OSError, json.JSONDecodeError):
                        continue
                if existing is None or existing.get("file") != str(f):
                    tmp.unlink()
                    raise RuntimeError(
                        f"concurrent publish collision on {mid}: existing "
                        f"record {existing!r} does not match {str(f)!r} — "
                        "this queue supports one logical producer; the "
                        "colliding message was NOT enqueued"
                    )
            tmp.unlink()
            ids.append(mid)
        return ids

    def _next_seq(self) -> int:
        mx = -1
        for d in ("available", "leased", "acked"):
            for p in (self.root / d).glob("msg-*.json"):
                mx = max(mx, int(p.stem.split("-")[1]))
        return mx + 1

    # -- consumer side ----------------------------------------------------

    def lease(self, max_n: int, lease_s: float) -> tuple[str, list[dict]]:
        """Claim up to max_n oldest available messages until now+lease_s.
        Returns (lease_id, [{"id", "file", "deliveries"}...]).

        The claim is a single atomic rename of the message file into
        leased/ — with concurrent consumers exactly one rename wins and the
        losers see ENOENT, so a message is never double-leased. A crash
        between the rename and the metadata rewrite leaves a leased record
        with the OLD deadline; expire() returns it, which is just an early
        redelivery (at-least-once)."""
        lease_id = uuid.uuid4().hex[:12]
        deadline = time.time() + lease_s
        out = []
        for p in sorted((self.root / "available").glob("msg-*.json")):
            if len(out) >= max_n:
                break
            dst = self.root / "leased" / p.name
            try:
                os.rename(p, dst)  # atomic claim: exactly one winner
            except OSError:
                continue  # another consumer won, or already expired away
            try:
                rec = json.loads(dst.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            rec["lease_id"] = lease_id
            rec["deadline"] = deadline
            rec["deliveries"] = int(rec.get("deliveries", 0)) + 1
            tmp = self.root / "leased" / f".{p.name}.{lease_id}.tmp"
            tmp.write_text(json.dumps(rec))
            os.replace(tmp, dst)
            out.append(rec)
        return lease_id, out

    def ack(self, msg_ids: list[str]) -> list[str]:
        """Durably ack delivered messages (by id). Returns the ids now in
        the acked state — including ALREADY-acked ids (idempotent: a
        resumed Pump rescans the whole commit history and must be able to
        retire historical ids from its pending set, not retry a doomed
        rename forever). A message whose lease expired sits in available/
        and cannot be acked until re-leased, so callers must RETRY those
        misses (see Pump._pending_ack) rather than assume commit implies
        ack."""
        done = []
        for mid in msg_ids:
            try:
                os.rename(self.root / "leased" / f"{mid}.json",
                          self.root / "acked" / f"{mid}.json")
                done.append(mid)
            except OSError:
                # already acked (e.g. before a consumer restart): done.
                # Otherwise it expired back to available: redeliver + retry.
                if (self.root / "acked" / f"{mid}.json").exists():
                    done.append(mid)
        return done

    def expire(self, now: float | None = None) -> list[str]:
        """Return past-deadline leased messages to available (REDELIVERY).
        Called by the pump each poll; ≙ Pub/Sub's ack-deadline timeout."""
        now = time.time() if now is None else now
        back = []
        for p in (self.root / "leased").glob("msg-*.json"):
            try:
                rec = json.loads(p.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if rec.get("deadline", 0) <= now:
                # atomic return: rename wins exactly once even with
                # concurrent expirers (stale lease metadata left in the
                # record is harmless — the next lease() overwrites it)
                try:
                    os.rename(p, self.root / "available" / p.name)
                except OSError:
                    continue  # concurrently acked or already expired
                back.append(rec["id"])
        return back

    def counts(self) -> dict:
        return {
            d: sum(1 for _ in (self.root / d).glob("msg-*.json"))
            for d in ("available", "leased", "acked")
        }

    # -- end-of-topic ------------------------------------------------------

    def close(self) -> None:
        """Producer signals no further publishes; consumers drain and stop
        (a real bus has no such marker — this is the batch-replay affordance
        so a finite job can terminate instead of polling forever)."""
        (self.root / "_CLOSED").write_text("")

    def is_closed(self) -> bool:
        return (self.root / "_CLOSED").exists()

    def is_drained(self) -> bool:
        c = self.counts()
        return self.is_closed() and c["available"] == 0 and c["leased"] == 0


def _inotify_fd(path: str) -> int | None:
    """A non-blocking inotify fd watching directory ``path`` for landed
    files, or None where that is unavailable (not Linux, or the watch
    failed)."""
    if not sys.platform.startswith("linux"):
        return None
    libc = ctypes.CDLL(None)
    init1, add_watch = libc.inotify_init1, libc.inotify_add_watch
    init1.argtypes = [ctypes.c_int]
    init1.restype = ctypes.c_int
    add_watch.argtypes = [ctypes.c_int, ctypes.c_char_p, ctypes.c_uint32]
    add_watch.restype = ctypes.c_int
    fd = init1(os.O_NONBLOCK | os.O_CLOEXEC)
    if fd < 0:
        return None
    if add_watch(fd, os.fsencode(path), _IN_CLOSE_WRITE | _IN_MOVED_TO) < 0:
        os.close(fd)
        return None
    return fd


def _load_epoch_records(records: Path) -> list[list[str]]:
    """The recorded file groups, epoch 0 first. A gap would renumber every
    later group, and a resume would overwrite committed epochs with other
    files' output, so a missing record raises."""
    groups = []
    for f in sorted(records.glob("epoch-*.json")):
        rec = json.loads(f.read_text())
        if rec["epoch"] != len(groups):
            raise ValueError(
                f"epoch records under {records} are not contiguous: the record "
                f"of epoch {len(groups)} is missing (next is {f.name})"
            )
        groups.append(rec["files"])
    return groups


class LandingSource:
    """A landing directory that producers fill by write-then-rename, in name
    order, cut into epochs of ``files_per_epoch`` files.

    Each group is handed out once, and recorded before that
    (``<out_root>/epochs/epoch-NNNNN.json``: ``{"epoch", "files"}``), so a
    resumed run re-forms identical epochs whatever has landed since.
    ``recorded`` holds every group recorded so far: at construction, those
    of earlier runs, which a consumer replays first (``resume=False``
    deletes them). Only full groups are cut while the stream runs; the
    trailing partial group when it exits: once ``<landing_dir>/<stop_file>``
    exists, or ``idle_timeout_s`` after the last new file.

    ``wait`` ends when a file is renamed into the directory or closed after
    writing there (Linux inotify), else after its timeout; an event only
    ends a wait early, the listing decides. The watch is armed before the
    first listing. Without inotify (or for landings it misses: a network
    filesystem) ``wait`` sleeps out the timeout; ``wake`` says which
    (``"inotify"`` or ``"poll"``). Leaving the context closes the fd."""

    def __init__(
        self, landing_dir: str, out_root: str, files_per_epoch: int,
        poll_interval_s: float, idle_timeout_s: float, stop_file: str,
        resume: bool = True,
    ):
        self.dir = Path(landing_dir)
        self._records = Path(out_root) / "epochs"
        self.files_per_epoch = files_per_epoch
        self.poll_interval_s = poll_interval_s
        self.idle_timeout_s = idle_timeout_s
        self.stop_file = stop_file
        if not resume:
            shutil.rmtree(self._records, ignore_errors=True)
        self.recorded = _load_epoch_records(self._records)
        self._assigned = {f for g in self.recorded for f in g}
        self._known = set(self._assigned)  # every file ever listed (idle clock)
        self._last_new: float | None = None
        self.backlog = 0  # landed files in no group, as of the last cut
        self.exiting = False
        self.dir.mkdir(parents=True, exist_ok=True)
        self._fd = _inotify_fd(landing_dir)
        self.wake = "poll" if self._fd is None else "inotify"
        self._poll = select.poll()  # select.select breaks on fds >= FD_SETSIZE
        if self._fd is not None:
            self._poll.register(self._fd, select.POLLIN)

    @property
    def next_epoch(self) -> int:
        return len(self.recorded)

    def listing(self) -> list[str]:
        return [str(f) for f in sorted(self.dir.glob("*.parquet"))]

    def stopped(self) -> bool:
        return (self.dir / self.stop_file).exists()

    def record(self, group: list[str]) -> int:
        """Record ``group`` as the next epoch (an empty group is a flush
        epoch) and return that epoch."""
        epoch = self.next_epoch
        write_json_atomic(self._records / f"epoch-{epoch:05d}.json",
                          {"epoch": epoch, "files": group})
        self.recorded.append(group)
        self._assigned.update(group)
        return epoch

    def poll(self):
        """List the directory once and hand out, each recorded as it goes,
        the groups the listing completes: (epoch, group) pairs. Sets
        ``exiting`` and keeps ``backlog`` current."""
        stop = self.stopped()
        files = self.listing()
        # the idle clock restarts only on files NEWLY LANDED, not on files
        # that merely remain unassigned (a partial trailing group would
        # otherwise restart it every listing and the timeout never fire)
        fresh = [f for f in files if f not in self._known]
        if fresh or self._last_new is None:
            self._known.update(fresh)
            self._last_new = time.monotonic()
        new = [f for f in files if f not in self._assigned]
        self.exiting = stop or time.monotonic() - self._last_new > self.idle_timeout_s
        fpe = self.files_per_epoch
        while len(new) >= fpe or (self.exiting and new):
            group, new = new[:fpe], new[fpe:]
            self.backlog = len(new)
            yield self.record(group), group
        self.backlog = len(new)

    def groups(self):
        """Every epoch's file group once, epoch order: the recorded groups
        first, then each new one as it lands, until the stream exits."""
        yield from list(self.recorded)
        while True:
            for _, group in self.poll():
                yield group
            if self.exiting:
                return
            self.wait(self.poll_interval_s)

    def wait(self, timeout_s: float) -> None:
        """Return once a file lands, or after ``timeout_s``."""
        if self._fd is None:
            time.sleep(timeout_s)
            return
        if self._poll.poll(timeout_s * 1000):
            # drain every queued event, so that the next wait blocks again
            try:
                while os.read(self._fd, 4096):
                    pass
            except BlockingIOError:
                pass

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "LandingSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Pump:
    """Stateful delivery/ack loop body — one instance per consumer run.

    Each ``step()`` expires stale leases, delivers freshly leased files into
    the landing dir (hardlink named by message id — redelivery is
    idempotent), and acks every message whose delivery the consumer's
    committed manifest frontier now covers. A Pump keeps a commit-frontier
    CURSOR: each step probes only ``epoch-(cursor+1)`` manifests, so a poll
    is O(newly committed epochs) — constant work when idle, regardless of
    how many million epochs the stream has run. It also tracks per-message
    delivery->ack latency (≙ the reference simulator's publish-side
    StatsTracker quantiles) over a bounded sample window."""

    def __init__(self, queue: FileLeaseQueue, landing_dir: str,
                 out_root: str, max_n: int = 16, lease_s: float = 30.0,
                 sink_name: str = "ordered"):
        self.queue = queue
        self.land = Path(landing_dir)
        self.land.mkdir(parents=True, exist_ok=True)
        self.out_root = out_root
        self.max_n = max_n
        self.lease_s = lease_s
        self.sink_name = sink_name
        self._cursor = -1          # acked through this committed epoch
        self._pending_ack: set[str] = set()  # committed but not yet acked
        self._delivered_at: dict[str, float] = {}   # in-flight only
        self._lat: list[float] = []                  # bounded sample
        self.totals = {"delivered": 0, "acked": 0, "redelivered": 0}

    def _newly_committed_names(self) -> list[str]:
        """Landing filenames of epochs that committed since the cursor."""
        from .sink import ManifestSink

        sink = ManifestSink(self.out_root, self.sink_name)
        rec_dir = Path(self.out_root) / "epochs"
        names: list[str] = []
        while True:
            e = self._cursor + 1
            if not sink.manifest_path(e).exists():
                return names
            rec = rec_dir / f"epoch-{e:05d}.json"
            try:
                group = json.loads(rec.read_text())["files"]
            except (OSError, json.JSONDecodeError):
                return names  # record not visible yet; retry next poll
            names.extend(Path(f).name for f in group)
            self._cursor = e

    def step(self) -> dict:
        now = time.time()
        redelivered = self.queue.expire(now)
        for mid in redelivered:
            self._delivered_at.pop(mid, None)
        _, msgs = self.queue.lease(self.max_n, self.lease_s)
        for m in msgs:
            _deliver(self.land, m)
            self._delivered_at[m["id"]] = now
        # the commit-frontier cursor passes each epoch exactly once, so a
        # committed message whose ack MISSES (its lease expired moments
        # before the commit and the redelivery hasn't been re-leased yet)
        # must be retried from a pending set — otherwise it bounces
        # available<->leased forever, never acked
        self._pending_ack.update(
            n[: -len(".parquet")] for n in self._newly_committed_names()
            if n.endswith(".parquet")
        )
        acked_ids = self.queue.ack(sorted(self._pending_ack))
        n_acked = len(acked_ids)
        for mid in acked_ids:
            self._pending_ack.discard(mid)
            t0 = self._delivered_at.pop(mid, None)
            if t0 is not None and len(self._lat) < 65536:
                self._lat.append(time.time() - t0)
        self.totals["delivered"] += len(msgs)
        self.totals["acked"] += n_acked
        self.totals["redelivered"] += len(redelivered)
        return {
            "delivered": len(msgs),
            "acked_now": n_acked,
            "redelivered": len(redelivered),
            **self.queue.counts(),
        }

    def all_landed(self, st: dict) -> bool:
        """Whether every unacked message has landed, after a ``step()``
        that returned ``st``: none is available, and each leased one (by
        this pump, or by an earlier consumer whose lease has not expired
        yet) has its file in the landing dir."""
        if st["available"]:
            return False
        leased = (self.queue.root / "leased").glob("msg-*.json")
        return all((self.land / f"{m.stem}.parquet").exists() for m in leased)

    def stats(self) -> dict:
        out = dict(self.totals)
        out["inflight"] = len(self._delivered_at)
        if self._lat:
            import numpy as np

            q = np.quantile(np.array(self._lat), [0.5, 0.9, 1.0])
            out["ack_latency_s"] = {
                "p50": round(float(q[0]), 3),
                "p90": round(float(q[1]), 3),
                "max": round(float(q[2]), 3),
                "n": len(self._lat),
            }
        return out


def _deliver(land: Path, m: dict) -> None:
    """Idempotently land one leased message (hardlink named by message id —
    a redelivery overwrites with identical content)."""
    dst = land / f"{m['id']}.parquet"
    tmp = land / f".{m['id']}.parquet.tmp"
    try:
        if tmp.exists():
            tmp.unlink()
        os.link(m["file"], tmp)
    except OSError:
        # cross-device fallback: copy
        tmp.write_bytes(Path(m["file"]).read_bytes())
    os.replace(tmp, dst)


def run_pump_loop(
    queue_root: str,
    landing_dir: str,
    out_root: str,
    max_n: int = 16,
    lease_s: float = 30.0,
    interval_s: float = 0.5,
    stop=None,
    finish=None,
) -> dict:
    """Blocking delivery loop (run in a thread beside the consumer, or as
    its own process on a real deployment): pump until the queue is closed
    AND fully acked, or until ``stop`` (threading.Event) is set.

    The landing ``_STOP`` marker, which lets a finite replay terminate, is
    written as soon as the queue is closed and nothing is left available:
    every message has landed then, so the consumer can cut its trailing
    partial group at once instead of waiting out its idle timeout (the
    group's messages are acked only after it commits, so waiting for the
    acks first would wait for that timeout). The loop keeps stepping until
    the queue is drained, so the acks still follow the manifest frontier. A
    redelivery after the marker lands a file name the consumer has already
    grouped, so it is not read twice.

    ``finish`` (threading.Event, optional) is the drain-aware shutdown
    signal: once set, the consumer has exited and the committed manifest
    frontier is FINAL — keep stepping (no sleep) only until a step is
    quiescent (delivers nothing, acks nothing, redelivers nothing), then
    return. An unclosed queue therefore no longer costs a fixed grace
    timeout at shutdown: the loop exits as soon as every ackable message
    under the final frontier is acked. Returns cumulative delivery stats."""
    q = FileLeaseQueue(queue_root)
    p = Pump(q, landing_dir, out_root, max_n=max_n, lease_s=lease_s)
    stop_marker = Path(landing_dir) / "_STOP"
    # a leftover _STOP from an earlier drained run (same reused landing
    # dir) would make the consumer exit as soon as currently-landed files
    # are processed, leaving freshly published messages unconsumed — the
    # pump owns the marker in queue mode, so clear any stale one before
    # the first delivery (ADVICE r4); it is re-written below once the
    # queue is closed and every message has landed
    try:
        stop_marker.unlink()
    except OSError:
        pass
    while stop is None or not stop.is_set():
        closed = q.is_closed()  # before the step: no publish comes after it
        st = p.step()
        if closed and not stop_marker.exists() and p.all_landed(st):
            stop_marker.write_text("")
        if q.is_drained():
            break
        if finish is not None and finish.is_set():
            if not any(
                st.get(k, 0)
                for k in ("delivered", "acked_now", "redelivered")
            ):
                break
            continue  # frontier is final: drain fast, no sleep
        time.sleep(interval_s)
    return p.stats()

