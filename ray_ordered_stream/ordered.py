"""Public API: ``ordered_process`` — per-key in-sequence emission on Ray.

≙ the composite ``OrderBookProducer`` transform (reference:
order-book-pipeline/.../OrderBookProducer.java:32-77 = key extraction +
OrderedEventProcessor) returning the pair (output, processingStatuses)
exactly like ``OrderedEventProcessorResult``
(OrderBookProcessingPipeline.java:107-120).

Physical plan (SURVEY.md §7.0):

    input Dataset (arrival order)
      -> map-side split tasks: each block -> P per-partition sub-tables
      -> P long-lived OrderedWorker actors (the sharded state store);
         one actor call per (block-group, partition) drains contiguous runs
      -> emitted / status Arrow refs -> ray.data.from_arrow_refs (lazy)

The exchange is block-ref based: sub-tables travel through the object store
and are fetched by the owning actor (zero-copy on the same node), which is
how a multi-node shuffle moves data; nothing is materialized on the driver.
Ray Data's ``map_batches(cls, concurrency=N)`` is NOT used for the state
store because it does not guarantee key->actor affinity across epochs, which
checkpoint lineage requires (SURVEY.md §7.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .partitioning import split_table
from .schema import ARRIVAL
from .state import OrderedConfig, OrderedPartitionState


@ray.remote
def _split_blocks(key: str, P: int, overrides, range_bounds, *tbls: pa.Table) -> list[pa.Table]:
    """Map side of the exchange: concat a group of input blocks, split into P
    compact per-partition sub-tables. Input blocks are grouped so each output
    shard is large enough to live in plasma (tiny task returns live in the
    owner's in-process store and every fetch becomes a driver RPC — measured
    to serialize the whole exchange at high P)."""
    # Ray Data can emit schema-less empty blocks (e.g. from map_groups on an
    # empty group); route them nowhere.
    real = [t for t in tbls if t.num_rows and key in t.column_names]
    if not real:
        empty = tbls[0].slice(0, 0) if tbls else pa.table({})
        return [empty] * P
    tbl = pa.concat_tables(real, promote_options="none") if len(real) > 1 else real[0]
    return split_table(tbl, key, P, overrides, range_bounds)


@ray.remote
def _concat_shards(*tbls: pa.Table) -> pa.Table:
    """Merge shards into a single table (P == 1 fast path)."""
    real = [t for t in tbls if t.num_rows]
    if not real:
        return tbls[0].slice(0, 0) if tbls else pa.table({})
    return pa.concat_tables(real, promote_options="none") if len(real) > 1 else real[0]


@ray.remote
def _read_and_split(
    key: str, P: int, overrides, range_bounds, paths: list[str]
) -> list[pa.Table]:
    """Fused source + map side of the exchange: decode Parquet file(s) and
    split straight into P compact per-partition sub-tables. The whole block
    never enters the object store — only the shards do — which cuts the
    full-data plasma crossings per epoch from 3 (read put, split put, concat
    put) to 1. At 32 cores on one node the exchange is store-bandwidth
    bound, so this is the main scaling lever (BASELINE.md round-1 analysis)."""
    import pyarrow.parquet as pq

    # many split tasks run side by side; arrow's default all-cores pool per
    # task would thrash the node (same reasoning as OrderedWorker.__init__)
    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    tbls = [pq.read_table(p) for p in paths]
    tbl = pa.concat_tables(tbls, promote_options="none") if len(tbls) > 1 else tbls[0]
    return split_table(tbl, key, P, overrides, range_bounds)


@ray.remote
def _read_and_split_parts(
    key: str, P: int, parts: tuple, overrides, range_bounds, paths: list[str]
):
    """Locality-aware fused read+split (OrderedConfig.locality_split): this
    task is node-affinity-scheduled onto the node hosting the state actors
    for ``parts``, decodes the file group locally, and materializes ONLY
    those partitions' shards — so exchange shards never cross raylets. The
    trade is N_nodes redundant decodes of each file group against zero
    cross-node object transfer; sound when the input is node-local anyway
    (shared FS / page cache / object storage read per node) and transfer
    dominates decode."""
    import pyarrow.parquet as pq

    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    tbls = [pq.read_table(p) for p in paths]
    tbl = pa.concat_tables(tbls, promote_options="none") if len(tbls) > 1 else tbls[0]
    sel = split_table(tbl, key, P, overrides, range_bounds, only=list(parts))
    return sel[0] if len(sel) == 1 else tuple(sel)


@ray.remote
class OrderedWorker:
    """One partition of the sharded state store (≙ Beam keyed state owned by
    one worker, docs/pipeline-design.md:13-17). Serial execution per actor
    gives per-key serial state access for free within our routing."""

    def __init__(self, cfg: OrderedConfig):
        # P actors run side by side; pyarrow's default per-process thread
        # pool (= all cores) makes P * cores runnable threads and thrashes
        # the node. Each actor is one partition -> one core's worth of work.
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
        self.cfg = cfg
        self.state = OrderedPartitionState(cfg)
        self.windows = None
        self.sessions = None
        self.joiner = None
        self.matcher = None
        self.book = None
        # ≙ the MutableState extension hook (userstate.py): one fresh user
        # state per partition actor, built once here — the actor-pool
        # analogue of Beam creating the state on the initial event
        self.user = cfg.state_factory() if cfg.state_factory is not None else None
        self._join_out: list[pa.Table] = []
        self._match_out: list[pa.Table] = []
        self._user_out: list[pa.Table] = []
        self._dlq: list[pa.Table] = []
        self._late: list[pa.Table] = []
        # event-time frontier observed by THIS actor since (re)start
        # (observability only — not checkpointed; see completion_summary)
        self._max_ts_us: int | None = None
        if cfg.with_book:
            from .book import BookState

            self.book = BookState(key=cfg.key, seq=cfg.seq)
        if cfg.window_size_s > 0:
            from .stream_ops import WindowAccumulator

            self.windows = WindowAccumulator(
                cfg.window_size_s, cfg.key, "ts", cfg.window_lateness_s,
                step_s=cfg.window_step_s or None, late_data=cfg.late_data,
            )
        if cfg.session_gap_s > 0:
            from .stream_ops import SessionAccumulator

            self.sessions = SessionAccumulator(
                cfg.session_gap_s, cfg.key, "ts", cfg.session_lateness_s,
                late_data=cfg.late_data,
            )
        if cfg.stream_join:
            from .stream_ops import StreamJoiner

            self.joiner = StreamJoiner(
                cfg.key, cfg.seq,
                within_us=int(cfg.join_within_s * 1_000_000) or None,
            )
        if cfg.pattern and cfg.absent_role:
            from .cep import AbsenceMatcher

            self.matcher = AbsenceMatcher(
                list(cfg.pattern), cfg.absent_role, cfg.key, cfg.seq,
                within_us=int(cfg.pattern_within_s * 1_000_000) or None,
                absent_within_us=(
                    int(cfg.absent_within_s * 1_000_000) or None
                ),
                lateness_us=int(cfg.pattern_lateness_s * 1_000_000),
                end_role=cfg.last_value if cfg.last_col == "role" else None,
            )
        elif cfg.pattern:
            from .cep import PatternMatcher

            self.matcher = PatternMatcher(
                list(cfg.pattern), cfg.key, cfg.seq,
                within_us=int(cfg.pattern_within_s * 1_000_000) or None,
                end_role=cfg.last_value if cfg.last_col == "role" else None,
            )
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
        import pandas as pd

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
            scratch.process(dummy, pd.Timestamp("1970-01-01"))

    def process_epoch(self, status_ts, empty_like: pa.Table, *parts: pa.Table):
        """Feed this partition's sub-tables for one epoch (in arrival order);
        returns (emitted, status) Arrow tables. ``empty_like`` carries the
        input schema so empty partitions still emit schema-correct tables.

        Rows with a null key or sequence are quarantined to the partition's
        DLQ (≙ FailedBigQueryInsertProcessor, reference
        FailedBigQueryInsertProcessor.java:28-50) instead of poisoning the
        drain; fetch/flush them via take_dlq / the 'dlq' sink."""
        tables = [t for t in parts if t.num_rows]
        if not tables:
            return (
                self.state._empty_emitted(empty_like),
                self.state._status_for([], status_ts),
            )
        batch = (
            pa.concat_tables(tables, promote_options="none")
            if len(tables) > 1
            else tables[0]
        )
        cfg = self.cfg
        if batch[cfg.key].null_count or batch[cfg.seq].null_count:
            import pyarrow.compute as pc

            bad = pc.or_(pc.is_null(batch[cfg.key]), pc.is_null(batch[cfg.seq]))
            self._dlq.append(batch.filter(bad))
            batch = batch.filter(pc.invert(bad))
        if "ts" in batch.column_names and batch.num_rows:
            import pyarrow.compute as pc

            mx = pc.max(batch["ts"].cast(pa.int64())).as_py()
            if mx is not None:
                self._max_ts_us = (
                    mx if self._max_ts_us is None else max(self._max_ts_us, mx)
                )
        emitted, status = self.state.process(batch, status_ts)
        codes_kv = None
        if emitted.num_rows and (
            self.windows is not None
            or self.sessions is not None
            or self.joiner is not None
        ):
            from .stream_ops import _dict_codes

            # one encode shared by windows/sessions/joiner; the CEP matcher
            # re-encodes over carry+batch anyway, so it is not a consumer
            codes_kv = _dict_codes(emitted[cfg.key])
        if self.windows is not None:
            lt = self.windows.update(emitted, codes_kv)
            if lt is not None and lt.num_rows:
                self._late.append(lt)
        if self.sessions is not None:
            lt = self.sessions.update(emitted, codes_kv)
            if lt is not None and lt.num_rows:
                self._late.append(lt)
        if self.joiner is not None:
            j = self.joiner.update(emitted, codes_kv)
            if j.num_rows:
                self._join_out.append(j)
        if self.matcher is not None:
            mt = self.matcher.update(emitted, codes_kv)
            if mt.num_rows:
                self._match_out.append(mt)
        if self.book is not None and emitted.num_rows:
            self.book.update(emitted)
        if self.user is not None and emitted.num_rows:
            u = self.user.update(emitted)
            if u is not None and u.num_rows:
                self._user_out.append(u)
            # ≙ the reference's cleanup-on-isLastEvent
            # (docs/pipeline-design.md:52-56): keys whose last event was
            # just processed release their user state
            from .state import last_event_mask

            m = last_event_mask(emitted, cfg)
            if m is not None and m.any() and hasattr(self.user, "evict"):
                done = pc.unique(
                    emitted[cfg.key].filter(pa.array(m))
                ).to_pylist()
                self.user.evict(done)
        return emitted, status

    def process_epoch_to_sink(
        self, status_ts, empty_like: pa.Table, sink_paths: dict, final: bool,
        ckpt: tuple | None,
        *parts: pa.Table,
    ) -> dict:
        """Drain one epoch AND write this partition's sink parts directly
        (staged + atomic rename, sink.py protocol) — the scale path: emitted
        rows go straight from the state actor to its partition's file and
        never re-cross the object store. Returns {sink_name: rows_written}.

        ``sink_paths`` maps sink name -> this partition's part path for the
        epoch; recognized names: ordered, status, windows, joined.
        ``ckpt=(root, epoch)`` additionally checkpoints this partition right
        here, so drain(k) -> checkpoint(k) -> drain(k+1) sequence per
        partition follows from the actor call queue with NO driver barrier
        (the driver trails behind, committing sink manifests in epoch order;
        see epochs.run_stream for the resume rule this relies on).
        """
        from .sink import write_part_atomic

        emitted, status = self.process_epoch(status_ts, empty_like, *parts)
        out = {}
        if "ordered" in sink_paths:
            towrite = emitted
            if self.cfg.stamp_ingest_ts:
                # status_ts is a pd.Timestamp (.value = ns since epoch)
                tick_us = int(status_ts.value) // 1_000
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
        if "windows" in sink_paths and self.windows is not None:
            w = self.take_window_output(final)
            out["windows"] = write_part_atomic(w, sink_paths["windows"]) if w is not None else 0
        if "sessions" in sink_paths and self.sessions is not None:
            w = self.take_session_output(final)
            out["sessions"] = write_part_atomic(w, sink_paths["sessions"]) if w is not None else 0
        if "joined" in sink_paths and self.joiner is not None:
            j = self.take_join_output()
            out["joined"] = (
                write_part_atomic(j, sink_paths["joined"]) if j is not None else 0
            )
        if "matches" in sink_paths and self.matcher is not None:
            mt = self.take_match_output(final)
            out["matches"] = (
                write_part_atomic(mt, sink_paths["matches"]) if mt is not None else 0
            )
        if "depth" in sink_paths and self.book is not None:
            d = self.book.take_touched_depth(self.cfg.book_depth)
            out["depth"] = write_part_atomic(d, sink_paths["depth"])
        if "user" in sink_paths and self.user is not None:
            u = self.take_user_output()
            out["user"] = (
                write_part_atomic(u, sink_paths["user"]) if u is not None else 0
            )
        if "dlq" in sink_paths:
            d = self.take_dlq()
            out["dlq"] = write_part_atomic(d, sink_paths["dlq"]) if d is not None else 0
        if "late" in sink_paths:
            lt = self.take_late_output()
            out["late"] = (
                write_part_atomic(lt, sink_paths["late"]) if lt is not None else 0
            )
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
        per-operator eviction counts (observability)."""
        ttl_us = int(self.cfg.state_ttl_s * 1_000_000)
        out = {}
        if self.windows is not None:
            out["windows"] = self.windows.gc(ttl_us)
        if self.sessions is not None:
            out["sessions"] = self.sessions.gc(ttl_us)
        if self.joiner is not None:
            out["joined"] = self.joiner.gc(ttl_us)
        if self.matcher is not None:
            out["matches"] = self.matcher.gc(ttl_us)
        return out

    def state_sizes(self) -> dict:
        """Current keyed-state footprint per operator (for soak tests and
        backlog monitoring)."""
        out = {}
        if self.windows is not None:
            out["windows"] = self.windows.state_size()
        if self.sessions is not None:
            out["sessions"] = self.sessions.state_size()
        if self.joiner is not None:
            out["joined"] = self.joiner.state_size()
        if self.matcher is not None:
            out["matches"] = self.matcher.state_size()
        return out

    def flush_final_to_sink(self, sink_paths: dict) -> dict:
        """Terminal flush epoch: release still-open windows (final=True) and
        any pending join output to their sink parts. Data sinks get NO part
        files for this epoch — their manifests commit with zero rows, which
        keeps every sink's manifest prefix contiguous because readers
        consult manifests and skip rows==0 entries (sink.committed_files).
        Idempotent like any epoch (deterministic given the restored
        state)."""
        from .sink import write_part_atomic

        out = {}
        if "windows" in sink_paths and self.windows is not None:
            w = self.take_window_output(final=True)
            out["windows"] = write_part_atomic(w, sink_paths["windows"]) if w is not None else 0
        if "sessions" in sink_paths and self.sessions is not None:
            w = self.take_session_output(final=True)
            out["sessions"] = write_part_atomic(w, sink_paths["sessions"]) if w is not None else 0
        if "joined" in sink_paths and self.joiner is not None:
            j = self.take_join_output()
            out["joined"] = write_part_atomic(j, sink_paths["joined"]) if j is not None else 0
        if "matches" in sink_paths and self.matcher is not None:
            mt = self.take_match_output(final=True)
            out["matches"] = write_part_atomic(mt, sink_paths["matches"]) if mt is not None else 0
        if "user" in sink_paths and self.user is not None:
            u = self.take_user_output()
            out["user"] = write_part_atomic(u, sink_paths["user"]) if u is not None else 0
        return out

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

    def take_window_output(self, final: bool = False):
        """Windows closed by the current watermark (stream_ops)."""
        if self.windows is None:
            return None
        return self.windows.take_closed(final=final)

    def take_session_output(self, final: bool = False):
        """Sessions closed by the current watermark (stream_ops)."""
        if self.sessions is None:
            return None
        return self.sessions.take_closed(final=final)

    @staticmethod
    def _take_buffered(buf: list[pa.Table]):
        """Drain an accumulated side-output buffer in place: None when
        empty, else the concatenated tables since the last take."""
        if not buf:
            return None
        out = pa.concat_tables(buf) if len(buf) > 1 else buf[0]
        buf.clear()
        return out

    def take_dlq(self):
        """Quarantined rows since the last take (DLQ side output)."""
        return self._take_buffered(self._dlq)

    def take_late_output(self):
        """Late rows dropped by the window/session accumulators since the
        last take (late_data="drop" side output)."""
        return self._take_buffered(self._late)

    def take_user_output(self):
        """User-state result rows produced since the last take
        (userstate.UserState.update side output)."""
        return self._take_buffered(self._user_out)

    def has_user_output(self) -> bool:
        return bool(self._user_out)

    def take_join_output(self):
        """Join pairs produced since the last take (stream_ops)."""
        if self.joiner is None:
            return None
        out = self._join_out
        self._join_out = []
        if not out:
            return None
        return pa.concat_tables(out) if len(out) > 1 else out[0]

    def take_match_output(self, final: bool = False):
        """CEP pattern matches produced since the last take (cep). With
        ``final=True`` an AbsenceMatcher also releases its still-pending
        candidates (end-of-stream: nothing can cancel them anymore)."""
        if self.matcher is None:
            return None
        if final and hasattr(self.matcher, "take_final"):
            ft = self.matcher.take_final()
            if ft is not None and ft.num_rows:
                self._match_out.append(ft)
        out = self._match_out
        self._match_out = []
        if not out:
            return None
        return pa.concat_tables(out) if len(out) > 1 else out[0]

    def snapshot(self, dirty_only: bool = False):
        snap = self.state.snapshot(dirty_only=dirty_only)
        if self.windows is not None:
            snap["windows"] = self.windows.snapshot()
        if self.sessions is not None:
            snap["sessions"] = self.sessions.snapshot()
        if self.joiner is not None:
            snap["join"] = self.joiner.snapshot()
        if self.matcher is not None:
            snap["cep"] = self.matcher.snapshot()
        if self.book is not None:
            snap["book"] = self.book.snapshot()
        if self.user is not None:
            snap["user"] = self.user.snapshot()
        return snap

    def restore(self, snap):
        self.state = OrderedPartitionState.restore(self.cfg, snap)
        if self.windows is not None and "windows" in snap:
            self.windows.restore(snap["windows"])
        if self.sessions is not None and "sessions" in snap:
            self.sessions.restore(snap["sessions"])
        if self.joiner is not None and "join" in snap:
            self.joiner.restore(snap["join"])
        if self.matcher is not None and "cep" in snap:
            self.matcher.restore(snap["cep"])
        self._match_out = []
        if self.book is not None and "book" in snap:
            self.book.restore(snap["book"])
        if self.user is not None and "user" in snap:
            self.user.restore(snap["user"])
        self._user_out = []
        self._join_out = []

    def book_depth(self, depth: int | None = None, with_trade: bool = True):
        """Current market depth of this partition's keys (nested table,
        ≙ getCurrentMarketDepth over every live book)."""
        if self.book is None:
            return None
        return self.book.depth_table(depth or self.cfg.book_depth, with_trade)

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

    def set_partition_id(self, p: int):
        self._partition_id = p

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
            OrderedWorker.options(**opts).remote(self.cfg) for _ in range(self.P)
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

    def _shard_refs(self, ds_or_table) -> tuple[list, "ray.ObjectRef | None"]:
        """Produce the exchange: a list of shard-ref groups (each group =
        P refs, one per partition, in arrival order) plus an empty-schema
        ref. Accepts a Parquet file list (fused read+split tasks — the scale
        path: whole blocks never enter the object store), a pa.Table, a
        Dataset, or a list of block refs."""
        key = self.cfg.key
        if (
            isinstance(ds_or_table, list)
            and ds_or_table
            and isinstance(ds_or_table[0], str)
        ):
            import pyarrow.parquet as pq

            schema = pq.read_schema(ds_or_table[0])
            _check_names(schema.names, self.cfg)
            empty_ref = ray.put(schema.empty_table())
            files = ds_or_table
            n_map = max(1, min(len(files), max(self.P, _cpu_count())))
            groups = [
                list(g)
                for g in np.array_split(np.array(files, dtype=object), n_map)
                if len(g)
            ]
            if self.P == 1:
                per_group = [
                    [_read_and_split.remote(key, 1, None, None, g)] for g in groups
                ]
                # num_returns=1 returns the list itself; unwrap via a task
                per_group = [[_unwrap_single.remote(g[0])] for g in per_group]
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
                    _read_and_split.options(num_returns=self.P).remote(
                        key, self.P, self.overrides, self.range_bounds, g
                    )
                    for g in groups
                ]
            return per_group, empty_ref

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
        return per_group, ray.put(_empty_like(ds_or_table))

    def feed_epoch(self, ds_or_table, status_ts) -> tuple[list, list]:
        """Run one epoch through the state store. Returns (emitted_refs,
        status_refs) — one pair per partition; nothing touches the driver."""
        per_group, empty_ref = self._shard_refs(ds_or_table)
        if not per_group:
            return [], []
        emitted_refs, status_refs = [], []
        for p, w in enumerate(self.workers):
            # shard refs go straight to the owning actor (it concats
            # in-process); a _concat_shards fan-in task would add a full
            # extra copy + plasma put of every byte
            shards = [pg[p] for pg in per_group]
            e, s = w.process_epoch.options(num_returns=2).remote(
                status_ts, empty_ref, *shards
            )
            emitted_refs.append(e)
            status_refs.append(s)
        if self.cfg.max_emit_per_round:
            emitted_refs, status_refs = self._drain_loop(emitted_refs, status_refs, status_ts)
        self._emitted_refs.extend(emitted_refs)
        self._status_refs.extend(status_refs)
        return emitted_refs, status_refs

    def feed_epoch_to_sinks(
        self, ds_or_table, status_ts, sink_paths_per_partition: list[dict],
        final: bool = False, ckpt: tuple | None = None,
    ) -> list:
        """Like feed_epoch, but every partition writes its sink parts
        directly from the state actor (no emitted tables through the object
        store). Returns one ObjectRef per partition resolving to
        {sink_name: rows_written}."""
        per_group, empty_ref = self._shard_refs(ds_or_table)
        if not per_group:
            return []
        out = []
        for p, w in enumerate(self.workers):
            shards = [pg[p] for pg in per_group]
            out.append(
                w.process_epoch_to_sink.remote(
                    status_ts, empty_ref, sink_paths_per_partition[p], final,
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
        has = ray.get([w.has_user_output.remote() for w in self.workers])
        refs = [
            w.take_user_output.remote()
            for w, h in zip(self.workers, has) if h
        ]
        if not refs:
            return ray.data.from_items([])
        return ray.data.from_arrow_refs(refs)

    def final_status(self, status_ts) -> "ray.data.Dataset":
        """Current consolidated per-key status (one row per key ever seen) —
        the completion surface used by the perf protocol (run-perf-test.sh
        check_processing_progress ≙ BASELINE.md 'Completion/progress')."""
        refs = [w.final_status.remote(status_ts) for w in self.workers]
        return ray.data.from_arrow_refs(refs)

    def final_status_table(self, status_ts) -> pa.Table:
        """Same as final_status but fetched directly (small result: one row
        per key) without spinning a Dataset execution — the low-latency
        completion poll."""
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
    import pandas as pd

    proc = OrderedProcessor(cfg, num_partitions, overrides)
    proc.feed_epoch(ds, status_ts or pd.Timestamp("1970-01-01"))
    return proc.datasets()


def _cpu_count() -> int:
    return int(ray.cluster_resources().get("CPU", 2))


def _default_partitions() -> int:
    return max(2, _cpu_count() // 2)


@ray.remote
def _unwrap_single(shards: list) -> pa.Table:
    return shards[0]


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


def _empty_like(ds_or_table) -> pa.Table:
    if isinstance(ds_or_table, pa.Table):
        return ds_or_table.slice(0, 0)
    if hasattr(ds_or_table, "schema"):
        s = ds_or_table.schema()
        return pa.table(
            {n: pa.array([], type=t) for n, t in zip(s.names, s.types)}
        )
    return pa.table({})


def _to_block_refs(ds_or_table) -> list:
    if isinstance(ds_or_table, pa.Table):
        return [ray.put(ds_or_table)]
    if isinstance(ds_or_table, list):  # already refs
        return ds_or_table
    # ray.data.Dataset: execute and hand back the block refs (object store
    # resident; epochs bound the size of what is in flight at once).
    return list(ds_or_table.to_arrow_refs())
