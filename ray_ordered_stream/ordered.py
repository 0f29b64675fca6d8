"""Public API: ``ordered_process`` — per-key in-sequence emission on Ray.

≙ the composite ``OrderBookProducer`` transform (reference:
order-book-pipeline/.../OrderBookProducer.java:32-77 = key extraction +
OrderedEventProcessor) returning the pair (output, processingStatuses)
exactly like ``OrderedEventProcessorResult``
(OrderBookProcessingPipeline.java:107-120).

Physical plan (SURVEY.md §7.0):

    input Dataset (arrival order)
      -> map-side split tasks: each block -> P per-partition shards
      -> P long-lived OrderedWorker actors (the sharded state store);
         one actor call per (block-group, partition) drains contiguous runs
      -> emitted / status Arrow refs -> ray.data.from_arrow_refs (lazy)

The exchange is block-ref based: shards travel through the object store
and are fetched by the owning actor (zero-copy on the same node), which is
how a multi-node shuffle moves data; nothing is materialized on the driver.
Each shard is one compact ``pa.RecordBatch``, the input schema reaches the
actor as a ``pa.Schema`` and the status timestamp as a stdlib ``datetime``:
all three pickle natively, so a streaming actor never runs Ray's
``pa.Table`` reducer (which imports ``ray.data``) nor unpickles a pandas
object. ``ray.data`` is imported only by the driver-side Dataset helpers.
Ray Data's ``map_batches(cls, concurrency=N)`` is NOT used for the state
store because it does not guarantee key->actor affinity across epochs, which
checkpoint lineage requires (SURVEY.md §7.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partitioning import split_table
from .schema import ARRIVAL
from .state import _EPOCH, OrderedConfig, OrderedPartitionState, _ts_us
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
def _read_and_split_parts(
    key: str, P: int, parts: tuple, overrides, range_bounds, paths: list[str]
):
    """Fused source + map side of the exchange: decode Parquet file(s) and
    split straight into compact shards of the partitions in ``parts``
    (returned alone for one part, else as a tuple). The whole block never
    enters the object store — only the shards do — which cuts the
    full-data plasma crossings per epoch from 3 (read put, split put, concat
    put) to 1. At 32 cores on one node the exchange is store-bandwidth
    bound, so this is the main scaling lever (BASELINE.md round-1 analysis).

    The file path exchange asks for every partition, or with P == 1 the one
    shard itself. Locality-aware (OrderedConfig.locality_split), one task
    per node is node-affinity-scheduled onto the node hosting the state
    actors for ``parts`` and materializes ONLY those partitions' shards — so
    exchange shards never cross raylets. The trade is N_nodes redundant
    decodes of each file group against zero cross-node object transfer;
    sound when the input is node-local anyway (shared FS / page cache /
    object storage read per node) and transfer dominates decode."""
    import pyarrow.parquet as pq

    # many split tasks run side by side; arrow's default all-cores pool per
    # task would thrash the node (same reasoning as OrderedWorker.__init__)
    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    tbls = [pq.read_table(p) for p in paths]
    tbl = pa.concat_tables(tbls, promote_options="none") if len(tbls) > 1 else tbls[0]
    sel = split_table(tbl, key, P, overrides, range_bounds, only=list(parts))
    sel = [_as_batch(t) for t in sel]
    return sel[0] if len(sel) == 1 else tuple(sel)


@ray.remote
class OrderedWorker:
    """One partition of the sharded state store (≙ Beam keyed state owned by
    one worker, docs/pipeline-design.md:13-17). Serial execution per actor
    gives per-key serial state access for free within our routing."""

    def __init__(self, cfg: OrderedConfig, partition_id: int):
        # P actors run side by side; pyarrow's default per-process thread
        # pool (= all cores) makes P * cores runnable threads and thrashes
        # the node. Each actor is one partition -> one core's worth of work.
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
        self.cfg = cfg
        self._partition_id = partition_id
        self.state = OrderedPartitionState(cfg)
        # one operator per kind the config enables (stream_ops.OPERATOR_KINDS);
        # a user state is built here, once per actor
        self.operators = [Operator(k, cfg) for k in operator_kinds(cfg)]
        self._dlq: list[pa.Table] = []
        self._late: list[pa.Table] = []
        # event-time frontier observed by THIS actor since (re)start
        # (observability only — not checkpointed; see completion_summary)
        self._max_ts_us: int | None = None
        self._warmup()

    def _warmup(self, rows: int | None = None):
        """A fresh worker process pays page-fault + first-call kernel costs
        on its first realistically-sized drain (measured 2.4s -> 0.1s for an
        identical second run); with P cold actors starting together that
        serializes the first epoch. Pre-fault the allocator arenas and
        exercise the kernels once on a throwaway state with a real-sized
        synthetic batch."""
        if rows is None:
            rows = self.cfg.warmup_rows
        if rows <= 0:
            return
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

    def process_epoch(self, status_ts: datetime, schema: pa.Schema, *parts: pa.RecordBatch):
        """Feed this partition's shards for one epoch (in arrival order);
        returns (emitted, status) Arrow tables. ``schema`` is the input
        schema, so empty partitions still emit schema-correct tables.

        Rows with a null key or sequence are quarantined to the partition's
        DLQ (≙ FailedBigQueryInsertProcessor, reference
        FailedBigQueryInsertProcessor.java:28-50) instead of poisoning the
        drain; fetch/flush them via take_dlq / the 'dlq' sink."""
        batches = [b for b in parts if b.num_rows]
        if not batches:
            return (
                self.state._empty_emitted(schema.empty_table()),
                self.state._status_for([], status_ts),
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

    def process_epoch_to_sink(
        self, status_ts: datetime, schema: pa.Schema, sink_paths: dict,
        final: bool, ckpt: tuple | None,
        *parts: pa.RecordBatch,
    ) -> dict:
        """Drain one epoch AND write this partition's sink parts directly
        (staged + atomic rename, sink.py protocol) — the scale path: emitted
        rows go straight from the state actor to its partition's file and
        never re-cross the object store. Returns {sink_name: rows_written}.

        ``sink_paths`` maps sink name -> this partition's part path for the
        epoch (the sinks epochs._open_sinks opens for the config).
        ``ckpt=(root, epoch)`` additionally checkpoints this partition right
        here, so drain(k) -> checkpoint(k) -> drain(k+1) sequence per
        partition follows from the actor call queue with NO driver barrier
        (the driver trails behind, committing sink manifests in epoch order;
        see epochs._EpochDriver for the resume rule this relies on).
        """
        from .sink import write_part_atomic

        emitted, status = self.process_epoch(status_ts, schema, *parts)
        out = {}
        if "ordered" in sink_paths:
            towrite = emitted
            if self.cfg.stamp_ingest_ts:
                tick_us = _ts_us(status_ts)
                towrite = emitted.append_column(
                    "ingest_ts",
                    pa.array(
                        np.full(emitted.num_rows, tick_us, dtype=np.int64),
                        pa.timestamp("us"),
                    ),
                )
            out["ordered"] = write_part_atomic(towrite, sink_paths["ordered"])
        if "status" in sink_paths:
            out["status"] = write_part_atomic(status, sink_paths["status"])
        out.update(self._write_outputs(sink_paths, final, self.operators))
        for name, buf in (("dlq", self._dlq), (LATE_SINK, self._late)):
            if name in sink_paths:
                t = take_buffered(buf)
                out[name] = write_part_atomic(t, sink_paths[name]) if t is not None else 0
        if self.cfg.state_ttl_s > 0:
            # deterministic point: after this epoch's outputs are taken and
            # before the checkpoint, so a crash-resume replays the eviction
            self.gc_state()
        if ckpt is not None:
            self.checkpoint_to(*ckpt)
        return out

    def gc_state(self) -> dict:
        """Evict keyed operator state idle past cfg.state_ttl_s of event
        time (each operator measures against its own watermark). Returns
        eviction counts by sink (observability)."""
        ttl_us = int(self.cfg.state_ttl_s * 1_000_000)
        return {op.kind.sink: op.impl.gc(ttl_us)
                for op in self.operators if hasattr(op.impl, "gc")}

    def state_sizes(self) -> dict:
        """Current keyed-state footprint by sink (for soak tests and
        backlog monitoring)."""
        return {op.kind.sink: op.impl.state_size()
                for op in self.operators if hasattr(op.impl, "state_size")}

    @staticmethod
    def _write_outputs(sink_paths: dict, final: bool, ops: list) -> dict:
        """Write the epoch's output part of each of ``ops``; returns
        {sink_name: rows_written}."""
        from .sink import write_part_atomic

        out = {}
        for op in ops:
            t = op.take(final)
            sink = op.kind.sink
            out[sink] = write_part_atomic(t, sink_paths[sink]) if t is not None else 0
        return out

    def flush_final_to_sink(self, sink_paths: dict) -> dict:
        """Terminal flush epoch: the operators that can hold output open
        release all of it (final=True) to their sink parts. Every other
        sink gets NO part file for this epoch — its manifest commits with
        zero rows, which keeps every sink's manifest prefix contiguous
        because readers consult manifests and skip rows==0 entries
        (sink.committed_files). Idempotent like any epoch (deterministic
        given the restored state)."""
        holding = [op for op in self.operators if op.kind.holds_open]
        return self._write_outputs(sink_paths, True, holding)

    def drain(self, status_ts):
        """Drain buffered overflow after a capped round (≙ re-firing of the
        batch timer; used with max_emit_per_round). Returns
        (emitted, status, n_emitted)."""
        if not self.state.buffered_row_count():
            return None, None, 0
        self.state._load_buffer()  # buffer may be offloaded to scratch Parquet
        empty = self.state.buffer.slice(0, 0)
        emitted, status = self.state.process(empty, status_ts)
        return emitted, status, emitted.num_rows

    def final_status(self, status_ts):
        return self.state._status_for(sorted(self.state.counters), status_ts)

    def completion_summary(self) -> dict:
        """O(keys) -> O(1) reduction of this partition's accounting (the
        scale path for the perf-protocol completion poll: at 10^9 keys the
        per-key final-status table cannot concat on the driver)."""
        received = results = duplicates = 0
        all_last = True
        for c in self.state.counters.values():
            received += c.received
            results += c.results
            duplicates += c.duplicates
            all_last &= c.last_event
        return {
            "keys": len(self.state.counters),
            "received": received,
            "results": results,
            "duplicates": duplicates,
            "buffered": self.state.buffered_row_count(),
            "all_last_event": all_last,
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
        from .checkpoint import write_partition_checkpoint

        snap = self.snapshot(dirty_only=not full)
        path = write_partition_checkpoint(
            root, self._partition_id, epoch, snap, full=full
        )
        self.state.mark_clean()
        return path

    def restore_from(self, root: str, epoch: int) -> bool:
        from .checkpoint import read_merged_checkpoint

        snap = read_merged_checkpoint(root, self._partition_id, epoch)
        if snap is None:
            return False
        self.restore(snap)
        return True

    def get_node_id(self) -> str:
        return ray.get_runtime_context().get_node_id()

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


class OrderedProcessor:
    """Long-lived engine handle: a fixed pool of P state actors fed epoch by
    epoch. ``ordered_process`` is the one-shot (single-epoch batch) facade."""

    def __init__(self, cfg: OrderedConfig | None = None, num_partitions: int | None = None,
                 overrides: dict[str, int] | None = None,
                 range_bounds: list[str] | None = None):
        self.cfg = cfg or OrderedConfig()
        if num_partitions is None:
            num_partitions = self.cfg.partitions or _default_partitions()
        self.P = num_partitions
        self.overrides = overrides
        self.range_bounds = range_bounds
        opts: dict = {"num_cpus": self.cfg.actor_num_cpus}
        if self.cfg.spread_actors:
            opts["scheduling_strategy"] = "SPREAD"
        self.workers = [
            OrderedWorker.options(**opts).remote(self.cfg, p) for p in range(self.P)
        ]
        self._emitted_refs: list[ray.ObjectRef] = []
        self._status_refs: list[ray.ObjectRef] = []
        self._node_parts_cache: dict[str, list[int]] | None = None

    def _node_parts(self) -> dict[str, list[int]]:
        """node_id -> partition ids whose state actor lives there (cached;
        the pool is fixed for this processor's lifetime)."""
        if self._node_parts_cache is None:
            nodes = ray.get([w.get_node_id.remote() for w in self.workers])
            parts: dict[str, list[int]] = {}
            for p, nd in enumerate(nodes):
                parts.setdefault(nd, []).append(p)
            self._node_parts_cache = parts
        return self._node_parts_cache

    # -- streaming feed ----------------------------------------------------

    def wait_ready(self, root: str, epoch: int | None) -> None:
        """Block until every state actor is constructed and, when ``epoch``
        is given, restored from the checkpoint cut of that epoch under
        ``root`` — one round trip per actor."""
        ray.get([
            w.ping.remote() if epoch is None else w.restore_from.remote(root, epoch)
            for w in self.workers
        ])

    def exchange(self, ds_or_table) -> tuple[list, pa.Schema | None]:
        """Submit the exchange: a list of shard-ref groups (each group = P
        refs, one per partition, in arrival order; each shard one compact
        RecordBatch) plus the input schema. Accepts a Parquet file list
        (fused read+split tasks — the scale path: whole blocks never enter
        the object store), a pa.Table, a Dataset, or a list of block refs.
        The tasks have no side effects, so a driver may submit an epoch's
        exchange before its actors are up."""
        key = self.cfg.key
        if (
            isinstance(ds_or_table, list)
            and ds_or_table
            and isinstance(ds_or_table[0], str)
        ):
            import pyarrow.parquet as pq

            schema = pq.read_schema(ds_or_table[0])
            _check_names(schema.names, self.cfg)
            files = ds_or_table
            n_map = max(1, min(len(files), max(self.P, _cpu_count())))
            groups = [
                list(g)
                for g in np.array_split(np.array(files, dtype=object), n_map)
                if len(g)
            ]
            if self.P == 1:
                per_group = [
                    [_read_and_split_parts.remote(key, 1, (0,), None, None, g)]
                    for g in groups
                ]
            elif self.cfg.locality_split and len(self._node_parts()) > 1:
                from ray.util.scheduling_strategies import (
                    NodeAffinitySchedulingStrategy,
                )

                node_parts = self._node_parts()
                per_group = []
                for g in groups:
                    refs: list = [None] * self.P
                    for nd, parts in node_parts.items():
                        strat = NodeAffinitySchedulingStrategy(
                            node_id=nd, soft=True
                        )
                        r = _read_and_split_parts.options(
                            num_returns=len(parts), scheduling_strategy=strat
                        ).remote(
                            key, self.P, tuple(parts), self.overrides,
                            self.range_bounds, g,
                        )
                        if len(parts) == 1:
                            refs[parts[0]] = r
                        else:
                            for p, rr in zip(parts, r):
                                refs[p] = rr
                    per_group.append(refs)
            else:
                per_group = [
                    _read_and_split_parts.options(num_returns=self.P).remote(
                        key, self.P, tuple(range(self.P)), self.overrides,
                        self.range_bounds, g,
                    )
                    for g in groups
                ]
            return per_group, schema

        _check_columns(ds_or_table, self.cfg)
        block_refs = _to_block_refs(ds_or_table)
        if not block_refs:
            return [], None
        # group input blocks into ~max(P, cpus) map tasks so every exchange
        # object is large enough for plasma (see _split_blocks docstring)
        n_map = max(1, min(len(block_refs), max(self.P, _cpu_count())))
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
        return per_group, _schema_of(ds_or_table)

    def feed_epoch(self, ds_or_table, status_ts) -> tuple[list, list]:
        """Run one epoch through the state store. Returns (emitted_refs,
        status_refs) — one pair per partition; nothing touches the driver."""
        per_group, schema = self.exchange(ds_or_table)
        if not per_group:
            return [], []
        status_ts = _wire_ts(status_ts)
        emitted_refs, status_refs = [], []
        for p, w in enumerate(self.workers):
            # shard refs go straight to the owning actor (it concats
            # in-process); a _concat_shards fan-in task would add a full
            # extra copy + plasma put of every byte
            shards = [pg[p] for pg in per_group]
            e, s = w.process_epoch.options(num_returns=2).remote(
                status_ts, schema, *shards
            )
            emitted_refs.append(e)
            status_refs.append(s)
        if self.cfg.max_emit_per_round:
            emitted_refs, status_refs = self._drain_loop(emitted_refs, status_refs, status_ts)
        self._emitted_refs.extend(emitted_refs)
        self._status_refs.extend(status_refs)
        return emitted_refs, status_refs

    def feed_epoch_to_sinks(
        self, exchange: tuple[list, pa.Schema | None], status_ts,
        sink_paths_per_partition: list[dict],
        final: bool = False, ckpt: tuple | None = None,
    ) -> list:
        """Like feed_epoch, but takes an already submitted ``exchange()`` and
        every partition writes its sink parts directly from the state actor
        (no emitted tables through the object store). Returns one ObjectRef
        per partition resolving to {sink_name: rows_written}."""
        per_group, schema = exchange
        if not per_group:
            return []
        status_ts = _wire_ts(status_ts)
        out = []
        for p, w in enumerate(self.workers):
            shards = [pg[p] for pg in per_group]
            out.append(
                w.process_epoch_to_sink.remote(
                    status_ts, schema, sink_paths_per_partition[p], final,
                    ckpt, *shards,
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
        for w in self.workers:
            ray.kill(w)
        self.workers = []


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


def _default_partitions() -> int:
    return max(2, _cpu_count() // 2)


def _check_names(names, cfg: OrderedConfig) -> None:
    missing = {cfg.key, cfg.seq} - set(names)
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
    _check_names(names, cfg)


def _schema_of(ds_or_table) -> pa.Schema:
    if isinstance(ds_or_table, pa.Table):
        return ds_or_table.schema
    if hasattr(ds_or_table, "schema"):
        s = ds_or_table.schema()
        return pa.schema(list(zip(s.names, s.types)))
    return pa.schema([])


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
