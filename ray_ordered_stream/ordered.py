"""Public API: ``ordered_process`` — per-key in-sequence emission on Ray.

≙ the composite ``OrderBookProducer`` transform (reference:
order-book-pipeline/.../OrderBookProducer.java:32-77 = key extraction +
OrderedEventProcessor) returning the pair (output, processingStatuses)
exactly like ``OrderedEventProcessorResult``
(OrderBookProcessingPipeline.java:107-120).

Physical plan (SURVEY.md §7.0):

    input Dataset (arrival order)
      -> map-side split tasks: each block -> P per-partition shards
      -> P OrderedWorker actors (the sharded state store); one actor call
         per (block-group, partition) drains contiguous runs
      -> emitted / status Arrow refs -> ray.data.from_arrow_refs (lazy)

The actors are leased from a pool in the driver process (``_ActorPool``),
so a driver that runs several calls, resumes or rescales pays Ray's worker
boot once. Every lease resets the actor (``OrderedWorker.reset``): state
comes back only through ``restore_from`` the durable checkpoint, never from
an earlier lease. A clean ``OrderedProcessor.shutdown`` returns the actors
(each drops its state first); a broken processor (an injected failure)
kills them and the pool's idle actors. Pooled actors are ordinary actors:
they die with the driver and its Ray session. A processor whose first
call is the batch feed (``feed_epoch``, behind ``ordered_process``) starts
its own actors and never touches the pool.

The exchange is block-ref based: shards travel through the object store
and are fetched by the owning actor (zero-copy on the same node), which is
how a multi-node shuffle moves data; nothing is materialized on the driver.
Each shard is one compact ``pa.RecordBatch`` that carries the input schema
(empty ones too), and the status timestamp reaches the actor as a stdlib
``datetime``: both pickle natively, so a streaming actor never runs Ray's
``pa.Table`` reducer (which imports ``ray.data``) nor unpickles a pandas
object. ``ray.data`` is imported only by the driver-side Dataset helpers.
Ray Data's ``map_batches(cls, concurrency=N)`` is NOT used for the state
store because it does not guarantee key->actor affinity across epochs, which
checkpoint lineage requires (SURVEY.md §7.4.1).
"""

from __future__ import annotations

import ctypes
import mmap
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partitioning import split_table
from .schema import ARRIVAL
from .state import _EPOCH, OrderedConfig, OrderedPartitionState, _empty_status, _ts_us
from .stream_ops import LATE_SINK, Operator, _dict_codes, operator_kinds, take_buffered


def _as_batch(tbl: pa.Table) -> pa.RecordBatch:
    """One exchange shard as a single RecordBatch. It must already be
    compact (split_table's takes): a RecordBatch pickles natively, and a
    sliced one ships its whole parent buffers (ARROW-10739)."""
    batches = tbl.combine_chunks().to_batches()
    return batches[0] if batches else pa.RecordBatch.from_pylist([], schema=tbl.schema)


@ray.remote
def _split_blocks(key: str, P: int, overrides, range_bounds, *tbls: pa.Table) -> list[pa.RecordBatch]:
    """Map side of the exchange: concat a group of input blocks, split into P
    compact per-partition shards. Input blocks are grouped so each output
    shard is large enough to live in plasma (tiny task returns live in the
    owner's in-process store and every fetch becomes a driver RPC — measured
    to serialize the whole exchange at high P)."""
    # Ray Data can emit schema-less empty blocks (e.g. from map_groups on an
    # empty group); route them nowhere.
    real = [t for t in tbls if t.num_rows and key in t.column_names]
    if not real:
        empty = _as_batch(tbls[0].slice(0, 0) if tbls else pa.table({}))
        return [empty] * P
    tbl = pa.concat_tables(real, promote_options="none") if len(real) > 1 else real[0]
    return [_as_batch(t) for t in split_table(tbl, key, P, overrides, range_bounds)]


@ray.remote
def _concat_shards(*tbls: pa.Table) -> pa.RecordBatch:
    """Merge input blocks into a single shard (P == 1 fast path)."""
    real = [t for t in tbls if t.num_rows]
    if not real:
        return _as_batch(tbls[0].slice(0, 0) if tbls else pa.table({}))
    return _as_batch(pa.concat_tables(real, promote_options="none"))


@ray.remote
def _read_and_split_parts(key: str, seq: str, P: int, overrides, range_bounds, paths: list[str]):
    """Fused source + map side of the exchange: decode Parquet file(s),
    check their ``key`` and ``seq`` columns, and split straight into P
    compact shards (returned alone for P == 1, else as a tuple). The whole
    block never enters the object store — only the shards do — which cuts
    the full-data plasma crossings per epoch from 3 (read put, split put,
    concat put) to 1. At 32 cores on one node the
    exchange is store-bandwidth bound, so this is the main scaling lever
    (BASELINE.md round-1 analysis)."""
    import pyarrow.parquet as pq

    # the task worker outlives the task: give back its resident share of the
    # object store, which else grows with every call it serves. First, not
    # last: Ray puts the returned shards into the store after this returns.
    # Only past a threshold: the drop costs ~3 ms whatever it frees, and a
    # small file's task adds a fraction of a MB.
    if _shared_resident_kb() > _TASK_SHARED_KEEP_KB:
        _drop_shared_pages()
    # many split tasks run side by side; arrow's default all-cores pool per
    # task would thrash the node (same reasoning as OrderedWorker.reset)
    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    tbls = [pq.read_table(p) for p in paths]
    for t in tbls:
        _check_names(t.column_names, key, seq)
    tbl = pa.concat_tables(tbls, promote_options="none") if len(tbls) > 1 else tbls[0]
    sel = [_as_batch(t) for t in split_table(tbl, key, P, overrides, range_bounds)]
    return sel[0] if P == 1 else tuple(sel)


class _EpochGate:
    """The order of one partition actor's epoch calls. Ray starts them in
    submission order (``_EPOCH_GROUP``), but on the two threads of the
    actor's epoch group, which reach the gate in either order; so each call
    waits for its turn twice: ``drain(k)`` admits epoch k once epoch k-1
    has drained, and holds the gate's lock for the whole drain, so only one
    call at a time reads or mutates partition state; ``wait_written(k)``
    admits epoch k's checkpoint once epoch k-1's is written, so the delta
    chain stays ordered. A failed call fails every later one, so none waits
    for an epoch that will not come; an earlier one still finishes its
    writes."""

    def __init__(self, epoch: int):
        self.drained = threading.Condition()
        self.written = threading.Condition()
        self.next_drain = self.next_write = epoch
        # the first failed epoch, and why
        self.failed: tuple[int, str] | None = None

    def failed_before(self, epoch: int) -> bool:
        return self.failed is not None and self.failed[0] < epoch

    def _turn(self, cond: threading.Condition, attr: str, epoch: int) -> None:
        """Wait, holding ``cond``, until ``attr`` reaches ``epoch``."""
        cond.wait_for(lambda: self.failed_before(epoch) or getattr(self, attr) >= epoch)
        if getattr(self, attr) < epoch:
            raise RuntimeError(f"epoch {epoch} not run: {self.failed[1]}")
        if getattr(self, attr) != epoch:
            raise ValueError(f"epoch {epoch} arrived after epoch {getattr(self, attr)}")

    def fail(self, epoch: int, why: str) -> None:
        for cond in (self.drained, self.written):
            with cond:
                if self.failed is None or epoch < self.failed[0]:
                    self.failed = (epoch, f"epoch {epoch} failed {why}")
                cond.notify_all()

    @contextmanager
    def drain(self, epoch: int):
        with self.drained:
            self._turn(self.drained, "next_drain", epoch)
            try:
                yield
            except BaseException as e:
                self.fail(epoch, f"in its drain: {e!r}")
                raise
            self.next_drain = epoch + 1
            self.drained.notify_all()

    @contextmanager
    def write(self, epoch: int):
        """Everything a call does after its drain: a failure in it (a part
        write, say) fails the later calls. Its checkpoint goes after
        ``wait_written(epoch)``."""
        try:
            yield
        except BaseException as e:
            self.fail(epoch, f"in its writes: {e!r}")
            raise
        with self.written:
            self.next_write = epoch + 1
            self.written.notify_all()

    def wait_written(self, epoch: int) -> None:
        with self.written:
            self._turn(self.written, "next_write", epoch)


# the epoch calls' concurrency group: while one call writes epoch k's parts
# and checkpoint, the other drains epoch k+1. Two threads, no more: the
# actor keeps Ray's in-order dispatch (allow_out_of_order_execution stays
# False, as max_concurrency is 1), so the lowest waiting epoch always holds
# one of them, and calls past k+1 wait for a thread instead of the gate.
# Were the calls started out of order, k+1 and k+2 could hold both threads
# at the gate while k waits for one: tests/test_write_behind.py pins the
# order with calls whose arguments resolve in reverse.
_EPOCH_GROUP = "epoch"


# num_cpus=0: the actors are long-lived RPC-style stores; reserving CPUs for
# them would starve the stateless read+split tasks. SPREAD: with num_cpus=0
# Ray would otherwise pack every actor onto one node of a cluster; on one
# node it places them the same way.
@ray.remote(num_cpus=0, scheduling_strategy="SPREAD",
            concurrency_groups={_EPOCH_GROUP: 2})
class OrderedWorker:
    """One partition of the sharded state store (≙ Beam keyed state owned by
    one worker, docs/pipeline-design.md:13-17). Every read or mutation of
    partition state is serial: the default group runs one call at a time,
    and the epoch calls (``process_epoch_to_sink``, ``flush_final_to_sink``)
    drain one at a time, in epoch order, under the actor's ``_EpochGate``.
    Their writes run behind: call k writes its parts and its checkpoint
    while call k+1 drains, so per actor it is no longer drain(k) ->
    checkpoint(k) -> drain(k+1); call k still returns only once its files
    are durable. The process outlives a lease: ``reset`` makes it a
    partition, ``release`` hands it back to the driver's pool
    (_ActorPool)."""

    def __init__(self, cfg: OrderedConfig, partition_id: int):
        self._warm = False
        self.reset(cfg, partition_id)

    def reset(self, cfg: OrderedConfig, partition_id: int) -> None:
        """Become partition ``partition_id`` of ``cfg`` with empty state: a
        new actor, and every lease of a pooled one (_ActorPool). Nothing of
        an earlier lease survives; the warm-up runs once per process."""
        # P actors run side by side; pyarrow's default per-process thread
        # pool (= all cores) makes P * cores runnable threads and thrashes
        # the node. Each actor is one partition -> one core's worth of work.
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
        self.cfg = cfg
        self._partition_id = partition_id
        self.state = OrderedPartitionState(cfg)
        self._gate = _EpochGate(0)
        # one operator per kind the config enables (stream_ops.OPERATOR_KINDS);
        # a user state is built here, once per lease
        self.operators = [Operator(k, cfg) for k in operator_kinds(cfg)]
        self._dlq: list[pa.Table] = []
        self._late: list[pa.Table] = []
        # event-time frontier observed by THIS actor since (re)start
        # (observability only — not checkpointed; see completion_summary)
        self._max_ts_us: int | None = None
        if not self._warm:
            self._warm = self._warmup()

    def release(self) -> bool:
        """Back to the pool: drop this partition's state and give back the
        memory it held, the allocator's free pages and this process's
        resident share of the object store (_drop_shared_pages). Returns
        whether the process is still lean (has never loaded ``ray.data`` or
        ``ray.air``, as a batch facade's actor does when it returns tables
        through Ray's ``pa.Table`` reducer): the pool keeps only lean
        actors, so a streaming lease never starts on a heavier process."""
        self.state = None
        self.operators = []
        self._dlq, self._late = [], []
        pa.default_memory_pool().release_unused()
        _drop_shared_pages()
        return "ray.data" not in sys.modules and "ray.air" not in sys.modules

    def _warmup(self) -> bool:
        """A fresh worker process pays page-fault + first-call kernel costs
        on its first realistically-sized drain (measured 2.4s -> 0.1s for an
        identical second run); with P cold actors starting together that
        serializes the first epoch. Pre-fault the allocator arenas and
        exercise the kernels once on a throwaway state with a real-sized
        synthetic batch. Returns whether it ran (``warmup_rows`` > 0)."""
        rows = self.cfg.warmup_rows
        if rows <= 0:
            return False
        cfg = self.cfg
        n_keys = max(1, rows // 64)
        codes = np.arange(rows, dtype=np.int64) % n_keys
        keys = np.char.add("w", codes.astype("U8"))
        seqs = (np.arange(rows, dtype=np.int64) // n_keys).astype(np.int32)
        dummy = pa.table(
            {
                cfg.key: pa.array(keys, pa.string()),
                cfg.seq: pa.array(seqs, pa.int32()),
                cfg.last_col: pa.array(np.full(rows, "x"), pa.string()),
                "text": pa.array(np.char.add("t", codes.astype("U8")), pa.string()),
            }
        )
        scratch = OrderedPartitionState(cfg)
        for _ in range(2):
            scratch.process(dummy, _EPOCH)
        return True

    def process_epoch(self, status_ts: datetime, *parts: pa.RecordBatch):
        """Feed this partition's shards for one epoch (in arrival order);
        returns (emitted, status) Arrow tables. Every shard carries the
        input schema, so empty partitions still emit schema-correct tables.

        Rows with a null key or sequence are quarantined to the partition's
        DLQ (≙ FailedBigQueryInsertProcessor, reference
        FailedBigQueryInsertProcessor.java:28-50) instead of poisoning the
        drain; fetch/flush them via take_dlq / the 'dlq' sink."""
        batches = [b for b in parts if b.num_rows]
        if not batches:
            return (
                self.state._empty_emitted(parts[0].schema.empty_table()),
                _empty_status(),
            )
        batch = pa.Table.from_batches(batches)
        cfg = self.cfg
        if batch[cfg.key].null_count or batch[cfg.seq].null_count:
            bad = pc.or_(pc.is_null(batch[cfg.key]), pc.is_null(batch[cfg.seq]))
            self._dlq.append(batch.filter(bad))
            batch = batch.filter(pc.invert(bad))
        if "ts" in batch.column_names and batch.num_rows:
            mx = pc.max(batch["ts"].cast(pa.int64())).as_py()
            if mx is not None:
                self._max_ts_us = (
                    mx if self._max_ts_us is None else max(self._max_ts_us, mx)
                )
        emitted, status = self.state.process(batch, status_ts)
        if self.operators:
            # one key encode, shared by the operators that take it
            codes_kv = _dict_codes(emitted[cfg.key]) if emitted.num_rows else None
            for op in self.operators:
                op.update(emitted, codes_kv, self._late)
        return emitted, status

    @ray.method(concurrency_group=_EPOCH_GROUP)
    def process_epoch_to_sink(
        self, epoch: int, status_ts: datetime, sink_paths: dict,
        final: bool, ckpt: tuple | None,
        *parts: pa.RecordBatch,
    ) -> dict:
        """Drain epoch ``epoch`` AND write this partition's sink parts
        directly (staged + atomic rename, sink.py protocol) — the scale
        path: emitted rows go straight from the state actor to its
        partition's file and never re-cross the object store. Returns
        {sink_name: rows_written}.

        ``sink_paths`` maps sink name -> this partition's part path for the
        epoch (the sinks epochs._open_sinks opens for the config).
        ``ckpt=(root, full)`` additionally checkpoints this partition's
        state as of the epoch (see epochs._EpochDriver for the resume rule
        this relies on). The drain, the outputs' takes, the TTL eviction and
        the snapshot run under the gate; the part and checkpoint writes run
        after it, beside the next epoch's drain, and the call returns once
        they are durable.
        """
        with self._gate.drain(epoch):
            emitted, status = self.process_epoch(status_ts, *parts)
            tables = {"ordered": emitted, "status": status}
            if self.cfg.stamp_ingest_ts:
                tables["ordered"] = emitted.append_column(
                    "ingest_ts",
                    pa.array(
                        np.full(emitted.num_rows, _ts_us(status_ts), dtype=np.int64),
                        pa.timestamp("us"),
                    ),
                )
            # each operator's output: a table, or None for no part
            tables.update((op.kind.sink, op.take(final)) for op in self.operators)
            for name, buf in (("dlq", self._dlq), (LATE_SINK, self._late)):
                if name in sink_paths:
                    tables[name] = take_buffered(buf)
            if self.cfg.state_ttl_s > 0:
                # deterministic point: after this epoch's outputs are taken and
                # before the checkpoint, so a crash-resume replays the eviction
                self.gc_state()
            if ckpt is not None:
                ckpt = (ckpt[0], self._checkpoint_batch(full=ckpt[1]))
        return self._write(epoch, sink_paths, tables, ckpt)

    def _write(self, epoch: int, sink_paths: dict, tables: dict,
               ckpt: tuple | None) -> dict:
        """The writes of epoch ``epoch``, after its drain: each table of a
        sink in ``sink_paths`` to its part (None: no part, 0 rows), then
        ``ckpt=(root, batch)``'s checkpoint once the epoch before has
        written its own. Returns {sink_name: rows_written}."""
        from .checkpoint import write_checkpoint_batch
        from .sink import write_part_atomic

        with self._gate.write(epoch):
            out = {
                name: 0 if t is None else write_part_atomic(t, sink_paths[name])
                for name, t in tables.items() if name in sink_paths
            }
            self._gate.wait_written(epoch)
            if ckpt is not None:
                write_checkpoint_batch(ckpt[0], self._partition_id, epoch, ckpt[1])
        return out

    def gc_state(self) -> dict:
        """Evict keyed operator state idle past cfg.state_ttl_s of event
        time (each operator measures against its own watermark). Returns
        eviction counts by sink (observability)."""
        ttl_us = int(self.cfg.state_ttl_s * 1_000_000)
        return {op.kind.sink: op.impl.gc(ttl_us)
                for op in self.operators if hasattr(op.impl, "gc")}

    def state_sizes(self, after_epoch: int) -> dict:
        """Keyed-state footprint by sink (for soak tests and backlog
        monitoring), read between two drains once epoch ``after_epoch`` has
        drained."""
        gate = self._gate
        with gate.drained:
            # a failed epoch does not stop the read: the epoch's own call
            # reports the failure
            gate.drained.wait_for(
                lambda: gate.failed_before(after_epoch + 1)
                or gate.next_drain > after_epoch)
            return {op.kind.sink: op.impl.state_size()
                    for op in self.operators if hasattr(op.impl, "state_size")}

    @ray.method(concurrency_group=_EPOCH_GROUP)
    def flush_final_to_sink(self, epoch: int, sink_paths: dict) -> dict:
        """Terminal flush epoch: the operators that can hold output open
        release all of it (final=True) to their sink parts. Every other
        sink gets NO part file for this epoch — its manifest commits with
        zero rows, which keeps every sink's manifest prefix contiguous
        because readers consult manifests and skip rows==0 entries
        (sink.committed_files). Idempotent like any epoch (deterministic
        given the restored state); it writes no checkpoint."""
        with self._gate.drain(epoch):
            tables = {op.kind.sink: op.take(True)
                      for op in self.operators if op.kind.holds_open}
        return self._write(epoch, sink_paths, tables, None)

    def drain(self, status_ts):
        """Drain buffered overflow after a capped round (≙ re-firing of the
        batch timer; used with max_emit_per_round). Returns
        (emitted, status, n_emitted)."""
        if not self.state.buffered_row_count():
            return None, None, 0
        empty = self.state.buffer.slice(0, 0)
        emitted, status = self.state.process(empty, status_ts)
        return emitted, status, emitted.num_rows

    def final_status(self, status_ts):
        return self.state.final_status(status_ts)

    def completion_summary(self) -> dict:
        """O(keys) -> O(1) reduction of this partition's accounting (the
        scale path for the perf-protocol completion poll: at 10^9 keys the
        per-key final-status table cannot concat on the driver)."""
        c = self.state.counters
        return {
            "keys": len(c),
            "received": int(c.received.sum()),
            "results": int(c.results.sum()),
            "duplicates": int(c.duplicates.sum()),
            "buffered": self.state.buffered_row_count(),
            "all_last_event": bool(c.last_event.all()),
            "watermark_us": self._max_ts_us,
        }

    def buffered_rows(self) -> int:
        return self.state.buffered_row_count()

    def take_dlq(self):
        """Quarantined rows since the last take (DLQ side output)."""
        return take_buffered(self._dlq)

    def _operator(self, sink: str):
        return next((op for op in self.operators if op.kind.sink == sink), None)

    def has_output(self, sink: str) -> bool:
        """Whether the operator writing ``sink`` holds untaken output."""
        op = self._operator(sink)
        return op is not None and any(t.num_rows for t in op.output)

    def take_output(self, sink: str):
        """The output of the operator writing ``sink`` since the last take
        (None if the config runs no such operator or it has none)."""
        op = self._operator(sink)
        return None if op is None else op.take(final=False)

    def snapshot(self, dirty_only: bool = False):
        snap = self.state.snapshot(dirty_only=dirty_only)
        snap.update((op.kind.name, op.snapshot()) for op in self.operators)
        return snap

    def restore(self, snap):
        self.state = OrderedPartitionState.restore(self.cfg, snap)
        for op in self.operators:
            if op.kind.name in snap:
                op.restore(snap[op.kind.name])

    def book_depth(self, depth: int | None = None, with_trade: bool = True):
        """Current market depth of this partition's keys (nested table,
        ≙ getCurrentMarketDepth over every live book)."""
        op = self._operator("depth")
        if op is None:
            return None
        return op.impl.depth_table(depth or self.cfg.book_depth, with_trade)

    def checkpoint_to(self, root: str, epoch: int, full: bool = False) -> str:
        """Write this partition's state checkpoint: INCREMENTAL counters
        (keys dirtied since the last checkpoint; restore merges epoch deltas
        last-wins), full buffer + operator state tables — see checkpoint.py.
        ``full=True`` writes all counters and marks the epoch as a compaction
        base, bounding restore cost on long streams."""
        from .checkpoint import write_checkpoint_batch

        return write_checkpoint_batch(
            root, self._partition_id, epoch, self._checkpoint_batch(full)
        )

    def _checkpoint_batch(self, full: bool) -> pa.RecordBatch:
        """The checkpoint of the state as it is now, encoded, and the
        counters marked clean. No later drain changes the batch: the
        snapshot's tables own or share only buffers nothing mutates in
        place."""
        from .checkpoint import encode_checkpoint

        batch = encode_checkpoint(self.snapshot(dirty_only=not full), full=full)
        self.state.mark_clean()
        return batch

    def restore_from(self, root: str, epoch: int) -> bool:
        """Restore the checkpoint cut of ``epoch``; the next epoch call is
        then ``epoch + 1``'s, whether or not this partition had a
        checkpoint to read."""
        from .checkpoint import read_merged_checkpoint

        self._gate = _EpochGate(epoch + 1)
        snap = read_merged_checkpoint(root, self._partition_id, epoch)
        if snap is None:
            return False
        self.restore(snap)
        return True

    def ping(self):
        return True


@dataclass
class OrderedResult:
    """≙ OrderedEventProcessorResult: .ordered ≙ output(),
    .status ≙ processingStatuses(); .user is the user-state result stream
    (≙ produceResult output) when OrderedConfig.state_factory is set."""

    ordered: "ray.data.Dataset"
    status: "ray.data.Dataset"
    user: "ray.data.Dataset | None" = None


def _drop_shared_pages() -> None:
    """Unmap this process's resident pages of the object store's shared
    memory (the ``rw-s`` plasma mappings; Linux only, a no-op elsewhere).
    They are pages of a shared file, so the objects stay in the store and a
    later access faults them back in; what goes is this process's resident
    share, which grew 49 -> 109 MB over 5 calls of a reused actor (on the
    benchmark's ooo_replay shape) and stays at 0 with this."""
    try:
        with open("/proc/self/maps") as f:
            spans = [ln.split()[0] for ln in f if " rw-s " in ln and "plasma" in ln]
    except OSError:
        return
    madvise = ctypes.CDLL(None).madvise
    madvise.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    madvise.restype = ctypes.c_int
    for span in spans:
        lo, hi = (int(x, 16) for x in span.split("-"))
        # a failure only leaves the pages resident, as without this call
        madvise(lo, hi - lo, mmap.MADV_DONTNEED)


# a read task drops its worker's resident share of the store only above this
_TASK_SHARED_KEEP_KB = 16 * 1024


def _shared_resident_kb() -> int:
    """This process's resident shared memory (``RssShmem``, mostly the
    object store's pages), in kB; 0 where ``/proc`` does not say."""
    try:
        with open("/proc/self/status", "rb") as f:
            for ln in f:
                if ln.startswith(b"RssShmem:"):
                    return int(ln.split()[1])
    except OSError:
        pass
    return 0


class _ActorPool:
    """The driver process's idle partition actors, so that the Ray worker
    boot of an ``OrderedWorker`` is paid once per driver instead of once per
    call, resume and rescale. It holds at most the largest P ever returned
    to it. Handles of an earlier Ray session are dropped, never leased."""

    def __init__(self):
        self.session: tuple | None = None
        self.idle: list = []
        self.cap = 0

    def _idle(self) -> list:
        ctx = ray.get_runtime_context()
        session = (ctx.get_job_id(), ctx.get_node_id())
        if session != self.session:
            self.session, self.idle, self.cap = session, [], 0
        return self.idle

    def lease(self, cfg: OrderedConfig, P: int) -> list:
        """P actors for ``cfg``: idle ones reset to their partition, new
        ones for the rest and for any idle actor that died."""
        idle = self._idle()
        # last returned, first leased: back-to-back calls get the same actors
        keep = max(0, len(idle) - P)
        reused, idle[:] = idle[keep:], idle[:keep]
        # new actors start booting while the reused ones reset
        workers = reused + [OrderedWorker.remote(cfg, p) for p in range(len(reused), P)]
        resets = [w.reset.remote(cfg, p) for p, w in enumerate(reused)]
        for p, ref in enumerate(resets):
            try:
                ray.get(ref)
            except ray.exceptions.RayActorError:
                workers[p] = OrderedWorker.remote(cfg, p)
        return workers

    def give_back(self, workers: list) -> None:
        """Return a clean processor's actors; a dead or no longer lean actor
        is not kept. Every epoch call's ref must be resolved first: the
        epoch calls run in their own concurrency group, so ``release`` does
        not wait behind them and would drop the state a call still drains
        or writes."""
        idle = self._idle()
        for w, ref in [(w, w.release.remote()) for w in workers]:
            try:
                lean = ray.get(ref)
            except ray.exceptions.RayActorError:
                continue
            if lean:
                idle.append(w)
            else:
                ray.kill(w)
        self.cap = max(self.cap, len(workers))
        surplus = max(0, len(idle) - self.cap)
        for w in idle[:surplus]:
            ray.kill(w)
        del idle[:surplus]

    def kill_idle(self) -> None:
        for w in self.idle:
            ray.kill(w)
        self.idle.clear()


# one per driver process: it must outlive every OrderedProcessor, and each
# run_stream call, resume and rescale builds its own
_POOL = _ActorPool()


class OrderedProcessor:
    """Engine handle: P state actors leased from the driver's pool, fed
    epoch by epoch. ``ordered_process`` is the one-shot (single-epoch
    batch) facade over ``feed_epoch``."""

    def __init__(self, cfg: OrderedConfig | None = None, num_partitions: int | None = None,
                 overrides: dict[str, int] | None = None,
                 range_bounds: list[str] | None = None):
        self.cfg = cfg or OrderedConfig()
        # read once: ray.cluster_resources() is a ~2 ms round trip, and the
        # exchange sizes its map tasks from it every epoch
        self._cpus = _cpu_count()
        if num_partitions is None:
            num_partitions = self.cfg.partitions or max(2, self._cpus // 2)
        self.P = num_partitions
        self.overrides = overrides
        self.range_bounds = range_bounds
        self._workers: list | None = None
        # set by a failure path: shutdown then kills instead of returning
        self.broken = False
        self._emitted_refs: list[ray.ObjectRef] = []
        self._status_refs: list[ray.ObjectRef] = []

    @property
    def workers(self) -> list:
        """The P partition actors, leased on first use. A driver that
        submits its first exchange before that lets the read tasks take the
        workers Ray has already started while the new actors start their
        own; in the other order Ray started spare workers for the read
        tasks' backlog that nothing used."""
        if self._workers is None:
            self._workers = _POOL.lease(self.cfg, self.P)
        return self._workers

    # -- streaming feed ----------------------------------------------------

    def wait_ready(self, root: str, epoch: int | None) -> None:
        """Block until every state actor is constructed and, when ``epoch``
        is given, restored from the checkpoint cut of that epoch under
        ``root`` — one round trip per actor."""
        ray.get([
            w.ping.remote() if epoch is None else w.restore_from.remote(root, epoch)
            for w in self.workers
        ])

    def exchange(self, ds_or_table) -> list:
        """Submit the exchange: a list of shard-ref groups (each group = P
        refs, one per partition, in arrival order; each shard one compact
        RecordBatch carrying the input schema). Accepts a Parquet file list
        (fused read+split tasks — the scale path: whole blocks never enter
        the object store; the tasks check the columns), a pa.Table, a
        Dataset, or a list of block refs. The tasks have no side effects,
        so a driver may submit an epoch's exchange before it leases its
        actors (``workers``)."""
        key = self.cfg.key
        if (
            isinstance(ds_or_table, list)
            and ds_or_table
            and isinstance(ds_or_table[0], str)
        ):
            files = ds_or_table
            n_map = max(1, min(len(files), max(self.P, self._cpus)))
            groups = [
                list(g)
                for g in np.array_split(np.array(files, dtype=object), n_map)
                if len(g)
            ]
            refs = [
                _read_and_split_parts.options(num_returns=self.P).remote(
                    key, self.cfg.seq, self.P, self.overrides, self.range_bounds, g
                )
                for g in groups
            ]
            # with one return Ray hands back the ref itself, not a list
            return [[r] for r in refs] if self.P == 1 else refs

        _check_columns(ds_or_table, self.cfg)
        block_refs = _to_block_refs(ds_or_table)
        if not block_refs:
            return []
        # group input blocks into ~max(P, cpus) map tasks so every exchange
        # object is large enough for plasma (see _split_blocks docstring)
        n_map = max(1, min(len(block_refs), max(self.P, self._cpus)))
        groups = [
            list(g)
            for g in np.array_split(np.array(block_refs, dtype=object), n_map)
            if len(g)
        ]
        if self.P == 1:
            per_group = [[_concat_shards.remote(*g)] for g in groups]
        else:
            per_group = [
                _split_blocks.options(num_returns=self.P).remote(
                    key, self.P, self.overrides, self.range_bounds, *g
                )
                for g in groups
            ]
        return per_group

    def feed_epoch(self, ds_or_table, status_ts) -> tuple[list, list]:
        """Run one epoch through the state store. Returns (emitted_refs,
        status_refs) — one pair per partition; nothing touches the driver.
        A processor with no actors yet starts its own instead of leasing the
        pool's: these return tables through Ray's pa.Table reducer, which
        loads ray.data, so they could never go back to the pool."""
        per_group = self.exchange(ds_or_table)
        if self._workers is None:
            self._workers = [OrderedWorker.remote(self.cfg, p) for p in range(self.P)]
        if not per_group:
            return [], []
        status_ts = _wire_ts(status_ts)
        emitted_refs, status_refs = [], []
        for p, w in enumerate(self.workers):
            # shard refs go straight to the owning actor (it concats
            # in-process); a _concat_shards fan-in task would add a full
            # extra copy + plasma put of every byte
            shards = [pg[p] for pg in per_group]
            e, s = w.process_epoch.options(num_returns=2).remote(status_ts, *shards)
            emitted_refs.append(e)
            status_refs.append(s)
        if self.cfg.max_emit_per_round:
            emitted_refs, status_refs = self._drain_loop(emitted_refs, status_refs, status_ts)
        self._emitted_refs.extend(emitted_refs)
        self._status_refs.extend(status_refs)
        return emitted_refs, status_refs

    def feed_epoch_to_sinks(
        self, epoch: int, per_group: list, status_ts,
        sink_paths_per_partition: list[dict],
        final: bool = False, ckpt: tuple | None = None,
    ) -> list:
        """Like feed_epoch, but takes the shard-ref groups of an already
        submitted ``exchange()`` and every partition writes its sink parts
        directly from the state actor (no emitted tables through the object
        store); ``ckpt=(root, full)`` checkpoints it too. Returns one
        ObjectRef per partition resolving to {sink_name: rows_written}."""
        if not per_group:
            return []
        status_ts = _wire_ts(status_ts)
        out = []
        for p, w in enumerate(self.workers):
            shards = [pg[p] for pg in per_group]
            out.append(
                w.process_epoch_to_sink.remote(
                    epoch, status_ts, sink_paths_per_partition[p], final, ckpt,
                    *shards,
                )
            )
        return out

    def _drain_loop(self, emitted_refs, status_refs, status_ts):
        # loop-drain capped overflow until every partition's buffer stops
        # yielding (bounded: each round emits >=1 row per non-empty buffer)
        pending = list(range(self.P))
        while pending:
            nxt = []
            calls = [
                self.workers[p].drain.options(num_returns=3).remote(status_ts)
                for p in pending
            ]
            counts = ray.get([c[2] for c in calls])
            for p, (e, s, _), n in zip(pending, calls, counts):
                if n:
                    emitted_refs.append(e)
                    status_refs.append(s)
                    nxt.append(p)
            pending = nxt
        return emitted_refs, status_refs

    # -- results -----------------------------------------------------------

    def datasets(self) -> OrderedResult:
        import ray.data

        emitted = [r for r in self._emitted_refs if r is not None]
        status = [r for r in self._status_refs if r is not None]
        return OrderedResult(
            ordered=ray.data.from_arrow_refs(emitted),
            status=ray.data.from_arrow_refs(status),
            user=(
                self.user_output()
                if self.cfg.state_factory is not None
                else None
            ),
        )

    def user_output(self) -> "ray.data.Dataset":
        """User-state result rows accumulated since the last take, as a
        Dataset over per-partition refs (≙ the produceResult PCollection).
        A cheap bool probe per actor skips empty partitions so only refs —
        never the tables — cross to the driver. (Streaming runs write the
        'user' sink directly from the actors instead; this is the batch
        facade.)"""
        import ray.data

        has = ray.get([w.has_output.remote("user") for w in self.workers])
        refs = [
            w.take_output.remote("user")
            for w, h in zip(self.workers, has) if h
        ]
        if not refs:
            return ray.data.from_items([])
        return ray.data.from_arrow_refs(refs)

    def final_status(self, status_ts) -> "ray.data.Dataset":
        """Current consolidated per-key status (one row per key ever seen) —
        the completion surface used by the perf protocol (run-perf-test.sh
        check_processing_progress ≙ BASELINE.md 'Completion/progress')."""
        import ray.data

        status_ts = _wire_ts(status_ts)
        refs = [w.final_status.remote(status_ts) for w in self.workers]
        return ray.data.from_arrow_refs(refs)

    def final_status_table(self, status_ts) -> pa.Table:
        """Same as final_status but fetched directly (small result: one row
        per key) without spinning a Dataset execution — the low-latency
        completion poll."""
        status_ts = _wire_ts(status_ts)
        tables = ray.get([w.final_status.remote(status_ts) for w in self.workers])
        return pa.concat_tables([t for t in tables if t is not None])

    def buffered_rows(self) -> int:
        return sum(ray.get([w.buffered_rows.remote() for w in self.workers]))

    def completion_summary(self) -> dict:
        """Aggregated perf-protocol completion check (≙ run-perf-test.sh
        check_processing_progress): per-partition O(1) summaries summed on
        the driver — scale-safe at any key count."""
        parts = ray.get([w.completion_summary.remote() for w in self.workers])
        out = {
            k: sum(p[k] for p in parts)
            for k in ("keys", "received", "results", "duplicates", "buffered")
        }
        out["all_last_event"] = all(p["all_last_event"] for p in parts)
        # global event-time watermark = the frontier of the slowest
        # partition (None if any partition has seen no timestamped data
        # since (re)start — the frontier is then unbounded below)
        wms = [p["watermark_us"] for p in parts]
        out["watermark_us"] = None if any(w is None for w in wms) else min(wms)
        return out

    def book_depth_table(self, depth: int | None = None, with_trade: bool = True) -> pa.Table:
        """Consolidated top-k market depth across all partitions (small:
        one nested row per key)."""
        tables = ray.get(
            [w.book_depth.remote(depth, with_trade) for w in self.workers]
        )
        real = [t for t in tables if t is not None]
        if not real:
            raise ValueError("with_book is not enabled on this processor")
        return pa.concat_tables(real)

    def shutdown(self):
        """Give the actors up: back to the driver's pool, or, if the
        processor is ``broken``, killed together with every idle pooled
        actor, so that no partition process outlives the failure. A
        processor that is not broken is shut down only once every epoch
        call's ref has resolved (``_ActorPool.give_back``)."""
        workers, self._workers = self._workers or [], []
        if self.broken:
            for w in workers:
                ray.kill(w)
            _POOL.kill_idle()
        else:
            _POOL.give_back(workers)


def ordered_process(
    ds,
    cfg: OrderedConfig | None = None,
    num_partitions: int | None = None,
    status_ts=None,
    overrides: dict[str, int] | None = None,
) -> OrderedResult:
    """One-shot batch facade: feed the whole Dataset as a single epoch and
    return (ordered, status) Datasets. For multi-epoch streaming with
    checkpoint/resume use ``epochs.run_stream``."""
    proc = OrderedProcessor(cfg, num_partitions, overrides)
    proc.feed_epoch(ds, _EPOCH if status_ts is None else status_ts)
    return proc.datasets()


def _cpu_count() -> int:
    return int(ray.cluster_resources().get("CPU", 2))


def _check_names(names, key: str, seq: str) -> None:
    missing = {key, seq} - set(names)
    if missing:
        raise ValueError(
            f"input is missing ordered-processing columns {sorted(missing)} "
            f"(have: {list(names)}); configure OrderedConfig(key=..., seq=...)"
        )


def _check_columns(ds_or_table, cfg: OrderedConfig) -> None:
    """Fail fast with a clear message instead of a KeyError from a remote
    split task."""
    if isinstance(ds_or_table, pa.Table):
        names = ds_or_table.column_names
    elif hasattr(ds_or_table, "schema"):
        names = ds_or_table.schema().names
    else:
        return
    _check_names(names, cfg.key, cfg.seq)


def _wire_ts(status_ts) -> datetime:
    """The status timestamp as a state actor receives it: a stdlib datetime
    (unpickling a pd.Timestamp would import pandas in the actor).
    Sub-microsecond digits are dropped, as the ``status_ts`` column drops
    them."""
    if isinstance(status_ts, datetime):
        to_py = getattr(status_ts, "to_pydatetime", None)  # pd.Timestamp
        return status_ts if to_py is None else to_py(warn=False)
    return _EPOCH + timedelta(microseconds=_ts_us(status_ts))


def _to_block_refs(ds_or_table) -> list:
    if isinstance(ds_or_table, pa.Table):
        return [ray.put(ds_or_table)]
    if isinstance(ds_or_table, list):  # already refs
        return ds_or_table
    # ray.data.Dataset: execute and hand back the block refs (object store
    # resident; epochs bound the size of what is in flight at once).
    return list(ds_or_table.to_arrow_refs())
