"""Per-partition ordered-processing state machine (pure numpy/Arrow, no Ray).

Re-implements, from its documented observable contract, the semantics of
Beam's ``OrderedEventProcessor`` as used by the reference
(dependency at order-book-pipeline/pom.xml:55-58; contract documented at
docs/pipeline-design.md:117-122 and evidenced by
order-book-pipeline/.../OrderBookProcessingPipelineTest.java:92-195):

- an event whose sequence == last_processed + 1 is processed immediately and
  any now-contiguous buffered run is drained;
- an event with a larger sequence is buffered (gap detected);
- an event with sequence <= last_processed, or equal to a buffered sequence,
  is counted as a duplicate and dropped;
- one result row is emitted per processed event, plus a processing-status
  record stream (received/buffered/duplicate counts, last processed sequence,
  earliest/latest buffered bounds).

The drain is vectorized across all keys of the partition: sort the combined
(buffer + new batch) by (key, seq); within each key the post-dedup sequence
values are strictly increasing, so with k = rank within key and
start = next expected seq, the contiguously-emittable prefix is exactly the
rows where ``seq - (start + k) == 0``.

This module is deliberately Ray-free so the state machine is unit-testable
in-process; ``ordered.py`` wraps it in a sharded actor pool.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .schema import ARRIVAL, KEY, SEQ, STATUS_SCHEMA


@dataclass
class OrderedConfig:
    """≙ OrderedProcessingHandler knobs (reference:
    OrderBookOrderedProcessingHandler.java:25-42, OrderBookProducer.java:59-76).
    """

    key: str = KEY
    seq: str = SEQ
    initial_seq: int = 0          # ≙ EventExaminer.isInitialEvent (ours: turn_idx==0)
    last_col: str = "role"        # ≙ EventExaminer.isLastEvent
    last_value: str = "end"       #   (ours: role == "end" sentinel turn)
    # ≙ EventExaminer.isLastEvent as an arbitrary USER predicate
    # (OrderBookEventExaminer.java:46-49): a callable
    # ``(emitted: pa.Table) -> bool array of len(emitted)`` evaluated
    # vectorized over each emitted batch. Overrides last_col/last_value
    # when set. See userstate.py for the full extension recipe.
    last_fn: object = None
    # ≙ the MutableState extension hook (docs/pipeline-design.md:27-40):
    # a zero-arg callable returning a fresh userstate.UserState per
    # partition actor. Its update() sees every emitted row exactly once in
    # per-key sequence order; its output rows flow to the 'user' sink
    # (streaming) / OrderedResult.user (batch); its snapshot()/restore()
    # ride the checkpoint + rescale protocols. The built-ins below
    # (with_digest, with_book) remain as zero-config conveniences.
    state_factory: object = None
    status_every_event: bool = False   # ≙ produceStatusUpdatesOnEveryEvent()
    # ≙ withStatusUpdateFrequency(Duration): emit per-key status rows only
    # every k-th process() call (1 = every call/epoch). At 10^12-turn scale
    # per-epoch-per-key status is itself a large output; thin it here.
    # Counters keep accumulating regardless; final_status is always complete.
    status_every_epochs: int = 1
    # time-based thinning, the reference's actual knob
    # (OrderBookProducer.java:65-68 withStatusUpdateFrequency(Duration)):
    # suppress status until status_ts has advanced >= this many seconds
    # since the last emission (0 = disabled). Composes with
    # status_every_epochs (either knob can suppress).
    status_interval_s: float = 0.0
    max_emit_per_round: int = 0   # ≙ maxOutputElementsPerBundle (0 = unlimited)
    with_digest: bool = False     # demo order-dependent MutableState (≙ OrderBookBuilder)
    # per-key incremental order book over the emitted stream (≙ the real
    # OrderBookBuilder/MarketDepth business logic, book.py); the input must
    # carry type/side/price/qty columns
    with_book: bool = False
    book_depth: int = 10          # top-k levels in depth projections
    # in-actor streaming operators over the ordered emission (stream_ops.py)
    window_size_s: float = 0.0    # > 0 enables watermark-gated fixed windows
    # 0 (or == size) = tumbling; 0 < step < size = sliding hops
    window_step_s: float = 0.0
    window_lateness_s: float = 0.0
    # > 0 enables streaming session windows (gap merge) as a separate
    # 'sessions' side output; independent of the fixed-window operator
    session_gap_s: float = 0.0
    session_lateness_s: float = 0.0
    # late-data policy for the streaming window/session accumulators:
    # "merge" (default) re-opens an already-released window and re-fires a
    # partial row (downstream aggregates); "drop" routes expired
    # contributions to a 'late' side-output sink instead, so each
    # (key, window) fires at most once — Flink's allowedLateness +
    # sideOutputLateData semantics
    late_data: str = "merge"
    stream_join: bool = False     # enables the sequence-driven as-of join
    join_within_s: float = 0.0    # > 0 bounds joined pairs by event time
    # non-empty enables streaming CEP: emit a match whenever these roles
    # occur on consecutive turns of one key (cep.PatternMatcher side output)
    pattern: tuple = ()
    pattern_within_s: float = 0.0  # 0 = no event-time bound on a match
    # non-empty (with pattern) switches the CEP side output to NEGATION
    # (cep.AbsenceMatcher, Flink's notFollowedBy): emit a match only when
    # NO same-key turn with this role follows the pattern within
    # absent_within_s of event time (0 = unbounded "never followed by").
    # Candidates wait until the watermark passes end_ts + absent_within_s
    # + pattern_lateness_s, so firing is exactly-once and cancellable.
    absent_role: str = ""
    absent_within_s: float = 0.0
    pattern_lateness_s: float = 0.0
    # event-time TTL for the keyed operator state above (windows, sessions,
    # join pendings, CEP carry): keys idle for more than this many seconds
    # of event time (vs each operator's watermark) are evicted at every
    # epoch boundary, BEFORE the checkpoint — so eviction is deterministic
    # and crash-resume replays it. 0 = disabled (state grows with the
    # keyspace; fine for bounded runs, not for unbounded streams). The Beam
    # reference gets the same GC from window expiry; the trade-off on
    # eviction is the standard state-TTL one (a returning key restarts its
    # session_id at 0, a pattern straddling an idle gap > TTL is missed).
    state_ttl_s: float = 0.0
    # Stamp an `ingest_ts` column on the 'ordered' sink's rows at part-write
    # time, valued at the committing epoch's status tick — the engine analog
    # of the reference's BigQuery `ingest_ts TIMESTAMP DEFAULT
    # CURRENT_TIMESTAMP()` sink column (terraform/bigquery-schema/
    # market-depth.json; README.md:145-184 latency quantiles). The epoch
    # tick (not wall clock) keeps resumed re-runs byte-identical, so
    # exactly-once still holds under crash-resume.
    stamp_ingest_ts: bool = False
    partitions: int = 0           # 0 = auto (set by ordered.py)
    # State actors are long-lived RPC-style stores whose calls serialize per
    # actor; reserving whole CPUs for them starves the stateless split/read
    # tasks (actors hold resources permanently). 0 lets the OS schedule them
    # while Ray task CPUs stay available — on a real cluster, size the pool
    # so P ≈ total cores and raise this if drains dominate.
    actor_num_cpus: float = 0.0
    # SPREAD the state actors across nodes (multi-node clusters; with
    # num_cpus=0 Ray would otherwise pack them all onto one node).
    spread_actors: bool = False
    # Locality-aware exchange (multi-node): run one fused read+split task
    # per NODE per file group, node-affinity-scheduled next to the state
    # actors it feeds, materializing only that node's partitions — shards
    # never cross raylets. Costs one redundant decode of each file group per
    # node; wins when cross-node object transfer dominates decode (e.g.
    # node-local page cache / per-node object-storage reads). No-op on a
    # single node or when the input is pre-materialized blocks.
    locality_split: bool = False
    # rows of synthetic data each actor drains twice at __init__ to pre-fault
    # allocator arenas / bind kernels (see OrderedWorker._warmup); bench sets
    # 65536, small values keep test-suite actor creation cheap
    warmup_rows: int = 8192
    # Memory-aware buffering (SURVEY.md §7.4.7): when a pathological gap
    # grows the out-of-order buffer past this row count, the buffer is
    # offloaded to scratch Parquet between process() calls instead of
    # pinning actor heap; it is read back (and the file removed) on the next
    # call. 0 = keep in memory.
    buffer_offload_rows: int = 0
    scratch_dir: str = "/tmp/ros_scratch"


@dataclass
class _KeyCounters:
    received: int = 0
    duplicates: int = 0
    results: int = 0
    next_seq: int | None = None   # None until the initial event is processed
    last_event: bool = False
    digest: str = ""


class OrderedPartitionState:
    """State for ONE partition: many keys, each independently sequenced."""

    def __init__(self, cfg: OrderedConfig | None = None):
        self.cfg = cfg or OrderedConfig()
        self.counters: dict[str, _KeyCounters] = {}
        self.buffer: pa.Table | None = None   # out-of-order remainder, sorted by (key, seq)
        self.dirty: set[str] = set()          # keys mutated since last checkpoint
        self._buffer_file: str | None = None  # offloaded buffer (buffer_offload_rows)
        self._bounds_cache: dict | None = None
        self._call_count = 0                  # status_every_epochs thinning phase
        self._last_status_us: int | None = None  # status_interval_s phase

    def _load_buffer(self) -> None:
        """Read back an offloaded buffer before combining (and remove the
        scratch file — it will be rewritten if still too large)."""
        if self._buffer_file is not None:
            import os

            import pyarrow.parquet as pq

            self.buffer = pq.read_table(self._buffer_file)
            os.unlink(self._buffer_file)
            self._buffer_file = None

    def _maybe_offload_buffer(self) -> None:
        cfg = self.cfg
        if (
            cfg.buffer_offload_rows
            and self.buffer is not None
            and self.buffer.num_rows > cfg.buffer_offload_rows
        ):
            import os
            import uuid

            import pyarrow.parquet as pq

            os.makedirs(cfg.scratch_dir, exist_ok=True)
            path = f"{cfg.scratch_dir}/buf-{uuid.uuid4().hex}.parquet"
            self._bounds_cache = self._buffered_bounds()
            pq.write_table(self.buffer, path)
            self._buffer_file = path
            self.buffer = None

    def buffered_row_count(self) -> int:
        if self.buffer is not None:
            return self.buffer.num_rows
        if self._bounds_cache is not None and self._buffer_file is not None:
            return sum(c for c, _lo, _hi in self._bounds_cache.values())
        return 0

    # -- hot path ----------------------------------------------------------

    def process(self, batch: pa.Table, status_ts) -> tuple[pa.Table, pa.Table]:
        """Feed one arrival-ordered batch; return (emitted, status) tables.

        In ``status_every_event`` mode one status row is produced per input
        row (conformance mode, reference default at
        OrderBookProcessingPipeline.java:111); otherwise one status row per
        key touched in this call (epoch mode).
        """
        cfg = self.cfg
        if cfg.status_every_event:
            if batch.num_rows == 0:
                # an empty batch is a drain request (max_emit_per_round
                # overflow); fall through so the buffered run is processed
                return self._process_vec(batch, status_ts)
            if cfg.max_emit_per_round:
                # The per-round output cap applies per *event-call* in this
                # mode (each event may drain at most max_emit rows, overflow
                # carries to the next event's call) — trajectory math can't
                # replay that, so keep the legacy per-row loop for the combo.
                # Conformance-only: O(rows × buffer); never the default path.
                emitted, statuses = [], []
                for i in range(batch.num_rows):
                    e, s = self._process_vec(batch.slice(i, 1), status_ts)
                    emitted.append(e)
                    statuses.append(s)
                return (
                    pa.concat_tables(emitted) if emitted else self._empty_emitted(batch),
                    pa.concat_tables(statuses) if statuses else _empty_status(),
                )
            return self._process_every_event(batch, status_ts)
        return self._process_vec(batch, status_ts)

    def _process_every_event(self, batch: pa.Table, status_ts) -> tuple[pa.Table, pa.Table]:
        """Per-event status mode (≙ produceStatusUpdatesOnEveryEvent(),
        OrderBookProcessingPipeline.java:111) without the per-row loop.

        The state mutation is exactly one vectorized ``_process_vec`` call
        (same emitted rows, buffer, and counters as feeding the rows one at a
        time — the drain is order-deterministic). The per-event status
        *trajectory* is then reconstructed rank-based from the pre-call state:
        for each key, sort the union U of (buffered seqs, join time -1) and
        (valid batch seqs, join time = per-key arrival rank) by seq; with
        ``M = running max of join time over U's contiguous-from-start run``,
        the drained-prefix length after the key's rank-r arrival is
        ``searchsorted(M, r, 'right')`` — every counter and buffered bound
        falls out of that prefix plus cumulative received/duplicate sums.
        One buffer combine + one lexsort total, vs the legacy loop's
        O(rows × buffer) re-sort per event."""
        import heapq

        cfg = self.cfg
        if ARRIVAL in batch.column_names and batch.num_rows > 1:
            arr = batch[ARRIVAL].to_numpy(zero_copy_only=False)
            if (arr[1:] < arr[:-1]).any():
                batch = batch.sort_by(ARRIVAL)
        self._load_buffer()
        pre_buffer = self.buffer  # immutable pa.Table (or None), pre-mutation

        kd = pc.dictionary_encode(
            batch[cfg.key].combine_chunks()
            if isinstance(batch[cfg.key], pa.ChunkedArray)
            else batch[cfg.key]
        )
        if isinstance(kd, pa.ChunkedArray):
            kd = kd.combine_chunks()
        bcodes = np.asarray(kd.indices).astype(np.int64)
        kvals = kd.dictionary.to_pylist()
        bseq = batch[cfg.seq].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch.num_rows

        # pre-call counters per batch key code
        pre = []
        for kv in kvals:
            kc = self.counters.get(kv)
            pre.append(
                (0, 0, 0, None, False)
                if kc is None
                else (kc.received, kc.duplicates, kc.results, kc.next_seq, kc.last_event)
            )

        # pre-call buffered seqs per batch key (buffer is sorted by key, seq)
        buf_seqs: dict[int, np.ndarray] = {}
        if pre_buffer is not None and pre_buffer.num_rows:
            code_of = {kv: c for c, kv in enumerate(kvals)}
            benc = pc.dictionary_encode(pre_buffer[cfg.key]).combine_chunks()
            bkc = benc.indices.to_numpy(zero_copy_only=False)
            bks = pre_buffer[cfg.seq].to_numpy(zero_copy_only=False).astype(np.int64)
            starts = np.flatnonzero(np.r_[True, bkc[1:] != bkc[:-1]])
            ends = np.r_[starts[1:], len(bkc)]
            for kv, s, e in zip(
                benc.dictionary.take(pa.array(bkc[starts])).to_pylist(), starts, ends
            ):
                c = code_of.get(kv)
                if c is not None:
                    buf_seqs[c] = bks[s:e]

        # mutate for real; this method owns call-count/thinning/status
        emitted, _ = self._process_vec(batch, status_ts, _external_status=True)

        # last-event rows of the emitted set, as (code -> emitted seqs)
        le_seqs: dict[int, list[int]] = {}
        if emitted.num_rows:
            le_mask = last_event_mask(emitted, cfg)
            if le_mask is not None and le_mask.any():
                code_of = {kv: c for c, kv in enumerate(kvals)}
                eks = emitted[cfg.key].to_pylist()
                ess = emitted[cfg.seq].to_numpy(zero_copy_only=False)
                for i in np.flatnonzero(le_mask):
                    le_seqs.setdefault(code_of[eks[i]], []).append(int(ess[i]))

        # -- per-key trajectory reconstruction (vectorized within key) ------
        recv_g = np.empty(n, np.int64)
        dup_g = np.empty(n, np.int64)
        res_g = np.empty(n, np.int64)
        buf_g = np.empty(n, np.int64)
        lastp_g = np.zeros(n, np.int64)
        lastp_ok = np.zeros(n, bool)
        earli_g = np.zeros(n, np.int64)
        earli_ok = np.zeros(n, bool)
        late_g = np.zeros(n, np.int64)
        late_ok = np.zeros(n, bool)
        lastev_g = np.zeros(n, bool)

        order_k = np.lexsort((np.arange(n), bcodes))
        ck = bcodes[order_k]
        gstarts = np.flatnonzero(np.r_[True, ck[1:] != ck[:-1]])
        gends = np.r_[gstarts[1:], n]
        for gs, ge in zip(gstarts, gends):
            rows = order_k[gs:ge]  # ascending global idx = arrival order
            c = int(ck[gs])
            m = len(rows)
            seqs = bseq[rows]
            p_recv, p_dup, p_res, p_next, p_last = pre[c]
            start = p_next if p_next is not None else cfg.initial_seq
            bs = buf_seqs.get(c, np.empty(0, np.int64))
            B = len(bs)

            # duplicate-at-arrival flags: already processed, in buffer, or a
            # repeat of an earlier arrival in this batch
            dup = seqs < start
            if B:
                dup |= np.isin(seqs, bs)
            o = np.lexsort((np.arange(m), seqs))
            rep = np.r_[False, seqs[o][1:] == seqs[o][:-1]]
            rep_u = np.empty(m, bool)
            rep_u[o] = rep
            dup |= rep_u
            valid = ~dup

            # union U = buffered ∪ valid arrivals, sorted by (distinct) seq
            vranks = np.flatnonzero(valid)
            useq = np.concatenate([bs, seqs[vranks]])
            utime = np.concatenate([np.full(B, -1, np.int64), vranks])
            uo = np.argsort(useq, kind="stable")
            useq, utime = useq[uo], utime[uo]
            u = len(useq)
            contig = useq == (start + np.arange(u))
            jstar = u if contig.all() else int(np.argmin(contig))
            M = np.maximum.accumulate(utime[:jstar]) if jstar else utime[:0]

            ranks = np.arange(m)
            p = np.searchsorted(M, ranks, side="right")
            joined = B + np.cumsum(valid)

            recv_g[rows] = p_recv + ranks + 1
            dup_g[rows] = p_dup + np.cumsum(dup)
            res_g[rows] = p_res + p
            buf_g[rows] = joined - p
            lastp_g[rows] = start + p - 1
            lastp_ok[rows] = (p > 0) | (p_next is not None)

            # buffered bounds per rank. pos_of maps concat index -> U position
            pos_of = np.empty(u, np.int64)
            pos_of[uo] = np.arange(u)
            ins_pos = np.full(m, -1, np.int64)
            if len(vranks):
                ins_pos[vranks] = pos_of[B:]
            maxbuf = int(pos_of[:B].max()) if B else -1
            runmax = np.maximum(np.maximum.accumulate(ins_pos), maxbuf)
            lv = runmax >= p
            late_ok[rows] = lv
            if u:
                late_g[rows] = useq[np.clip(runmax, 0, u - 1)]
            # earliest = min(first buffered-pre-call pos >= p, heap-swept
            # min over not-yet-drained batch insert positions)
            if B:
                bufpos = np.sort(pos_of[:B])
                eb = np.searchsorted(bufpos, p, side="left")
                first_buf = np.where(eb < B, bufpos[np.clip(eb, 0, B - 1)], u)
            else:
                first_buf = np.full(m, u, np.int64)
            h: list[int] = []
            earliest_pos = np.full(m, u, np.int64)
            for r in range(m):
                if ins_pos[r] >= 0:
                    heapq.heappush(h, int(ins_pos[r]))
                while h and h[0] < p[r]:
                    heapq.heappop(h)
                earliest_pos[r] = min(h[0] if h else u, int(first_buf[r]))
            ev = earliest_pos < u
            earli_ok[rows] = ev
            if u:
                earli_g[rows] = useq[np.clip(earliest_pos, 0, u - 1)]

            # last-event flag flips at the rank whose drain emitted it
            if p_last:
                lastev_g[rows] = True
            elif c in le_seqs:
                drs = []
                for s in le_seqs[c]:
                    j = int(np.searchsorted(useq, s))
                    drs.append(int(np.searchsorted(p, j + 1, side="left")))
                dr = min(drs)
                if dr < m:
                    lastev_g[rows[dr:]] = True

        # -- call-count / thinning accounting (legacy per-row semantics) ----
        cc0 = self._call_count
        self._call_count += n
        emit_flags = np.ones(n, bool)
        if cfg.status_every_epochs > 1:
            emit_flags &= (cc0 + np.arange(1, n + 1)) % cfg.status_every_epochs == 0
        ts_us = _ts_us(status_ts)
        if cfg.status_interval_s > 0:
            if (
                self._last_status_us is not None
                and ts_us - self._last_status_us < cfg.status_interval_s * 1e6
            ):
                emit_flags[:] = False
            else:
                # all rows share status_ts: the first eligible row emits and
                # resets the interval clock; the rest fall inside it
                idx = np.flatnonzero(emit_flags)
                emit_flags[:] = False
                if len(idx):
                    emit_flags[idx[0]] = True
            if emit_flags.any():
                self._last_status_us = ts_us

        sel = np.flatnonzero(emit_flags)
        if not len(sel):
            return emitted, _empty_status()
        keys_arr = pc.take(kd.dictionary, pa.array(bcodes[sel]))
        status = pa.table(
            {
                KEY: keys_arr,
                "status_ts": pa.array([status_ts] * len(sel), pa.timestamp("us")),
                "received_count": pa.array(recv_g[sel], pa.int64()),
                "buffered_count": pa.array(buf_g[sel], pa.int64()),
                "last_processed_sequence": pa.array(
                    lastp_g[sel], pa.int64(), mask=~lastp_ok[sel]
                ),
                "earliest_buffered_sequence": pa.array(
                    earli_g[sel], pa.int64(), mask=~earli_ok[sel]
                ),
                "latest_buffered_sequence": pa.array(
                    late_g[sel], pa.int64(), mask=~late_ok[sel]
                ),
                "duplicate_count": pa.array(dup_g[sel], pa.int64()),
                "result_count": pa.array(res_g[sel], pa.int64()),
                "last_event_received": pa.array(lastev_g[sel], pa.bool_()),
            },
            schema=STATUS_SCHEMA,
        )
        return emitted, status

    def _process_vec(
        self, batch: pa.Table, status_ts, _external_status: bool = False
    ) -> tuple[pa.Table, pa.Table]:
        cfg = self.cfg
        if ARRIVAL in batch.column_names and batch.num_rows > 1:
            arr = batch[ARRIVAL].to_numpy(zero_copy_only=False)
            # the epoch feed delivers shards in arrival order already — skip
            # the sort's full-table copy unless actually out of order
            if (arr[1:] < arr[:-1]).any():
                batch = batch.sort_by(ARRIVAL)
        payload_cols = [c for c in batch.column_names if c != ARRIVAL]
        batch = batch.select(payload_cols)

        touched = set()

        # 1. combine buffer (earlier arrivals) + batch. ONE dictionary encode
        #    of the key over the combined order, then a pure-integer lexsort
        #    (codes, seq, position) — the position tiebreak keeps the
        #    earliest arrival first among duplicate (key, seq) rows
        #    (FIXTURES.md §2 "keep first"). Sorting by integer codes instead
        #    of the string column itself is ~3x faster and also serves as the
        #    received-count hash pass (np.bincount below).
        self._load_buffer()
        buffer_n = 0 if self.buffer is None else self.buffer.num_rows
        if buffer_n:
            combined = pa.concat_tables([self.buffer, batch], promote_options="none")
        else:
            combined = batch
        keys_dict = pc.dictionary_encode(
            combined[cfg.key].combine_chunks()
            if isinstance(combined[cfg.key], pa.ChunkedArray)
            else combined[cfg.key]
        )
        if isinstance(keys_dict, pa.ChunkedArray):
            keys_dict = keys_dict.combine_chunks()
        codes_u = np.asarray(keys_dict.indices).astype(np.int64)
        key_values = keys_dict.dictionary.to_pylist()
        seq_u = combined[cfg.seq].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(seq_u)

        # received counts (per key, from the new batch rows only)
        recv = np.bincount(codes_u[buffer_n:], minlength=len(key_values))
        for c in np.flatnonzero(recv):
            kv = key_values[c]
            self.counters.setdefault(kv, _KeyCounters()).received += int(recv[c])
            touched.add(kv)

        # The table itself is NOT reordered (that would copy every row);
        # only the emitted / buffered subsets are taken through `order`.
        order = np.lexsort((np.arange(n), seq_u, codes_u))
        codes = codes_u[order]
        seq = seq_u[order]

        # next expected seq per present key (None -> initial_seq)
        start_per_code = np.empty(len(key_values), dtype=np.int64)
        for c, kv in enumerate(key_values):
            kc = self.counters.get(kv)
            ns = kc.next_seq if kc is not None and kc.next_seq is not None else cfg.initial_seq
            start_per_code[c] = ns

        # 3. duplicate detection: same (key, seq) as the previous row, or
        #    seq below the key's next expected seq (already processed).
        if n:
            same_as_prev = np.zeros(n, dtype=bool)
            same_as_prev[1:] = (codes[1:] == codes[:-1]) & (seq[1:] == seq[:-1])
            already = seq < start_per_code[codes]
            dup = same_as_prev | already
        else:
            dup = np.zeros(0, dtype=bool)

        if dup.any():
            dup_codes, dup_counts = np.unique(codes[dup], return_counts=True)
            for c, cnt in zip(dup_codes, dup_counts):
                self.counters[key_values[c]].duplicates += int(cnt)

        valid_idx = np.flatnonzero(~dup)
        vcodes = codes[valid_idx]
        vseq = seq[valid_idx]

        # 4. contiguous-prefix drain, vectorized across keys.
        if len(valid_idx):
            group_change = np.empty(len(vcodes), dtype=bool)
            group_change[0] = True
            group_change[1:] = vcodes[1:] != vcodes[:-1]
            group_start = np.maximum.accumulate(
                np.where(group_change, np.arange(len(vcodes)), 0)
            )
            k = np.arange(len(vcodes)) - group_start
            d = vseq - (start_per_code[vcodes] + k)
            emit_mask = d == 0
        else:
            emit_mask = np.zeros(0, dtype=bool)

        emit_rows = valid_idx[emit_mask]
        rest_rows = valid_idx[~emit_mask]

        # optional per-round output cap (≙ maxOutputElementsPerBundle,
        # OrderBookProcessingPipeline.java:85-89): overflow rows stay buffered
        # and drain on the next call. A prefix cut of the (key, seq)-sorted
        # emit set cuts at most one key mid-run and keeps its prefix, so
        # per-key contiguity is preserved.
        if cfg.max_emit_per_round and len(emit_rows) > cfg.max_emit_per_round:
            cut = cfg.max_emit_per_round
            overflow = emit_rows[cut:]
            emit_rows = emit_rows[:cut]
            rest_rows = np.sort(np.concatenate([rest_rows, overflow]))

        emitted = combined.take(pa.array(order[emit_rows]))

        # 5. per-key bookkeeping on the emitted set
        emit_codes = codes[emit_rows]
        emit_seq_col = np.empty(len(emit_rows), dtype=np.int64)
        if len(emit_rows):
            e_change = np.empty(len(emit_codes), dtype=bool)
            e_change[0] = True
            e_change[1:] = emit_codes[1:] != emit_codes[:-1]
            e_start = np.maximum.accumulate(
                np.where(e_change, np.arange(len(emit_codes)), 0)
            )
            e_rank = np.arange(len(emit_codes)) - e_start
            uniq_codes = emit_codes[e_change]
            e_change_idx = np.flatnonzero(e_change)
            group_sizes = np.diff(np.append(e_change_idx, len(emit_codes)))
            first_seq = seq[emit_rows[e_change_idx]]
            base = np.empty(len(uniq_codes), dtype=np.int64)
            for gi, c in enumerate(uniq_codes):
                kv = key_values[c]
                kc = self.counters[kv]
                base[gi] = kc.results
                kc.results += int(group_sizes[gi])
                kc.next_seq = int(first_seq[gi]) + int(group_sizes[gi])
                touched.add(kv)
            emit_seq_col = base[np.cumsum(e_change) - 1] + e_rank + 1
        emitted = emitted.append_column("emit_seq", pa.array(emit_seq_col, pa.int64()))

        # 6. last-event handling (≙ EventExaminer.isLastEvent -> state cleanup,
        #    OrderBookEventExaminer.java:46-49); cfg.last_fn generalizes the
        #    built-in column-equality predicate to arbitrary user logic
        if len(emit_rows):
            is_last = last_event_mask(emitted, cfg)
            if is_last is not None:
                for c in np.unique(emit_codes[is_last]):
                    self.counters[key_values[c]].last_event = True

        # 7. optional demo order-dependent state (≙ OrderBookBuilder running
        #    aggregate, business-model/.../OrderBookBuilder.java:39-87): a
        #    chained per-key digest proving mutate ran in sequence order.
        if cfg.with_digest:
            emitted = self._apply_digest(emitted, emit_codes, key_values)

        # 8. new buffer = non-emittable remainder (stays sorted by key, seq)
        self.buffer = (
            combined.take(pa.array(order[rest_rows])) if len(rest_rows) else None
        )

        # 9. status rows for touched keys (thinned by status_every_epochs)
        self.dirty |= touched
        if _external_status:
            # caller (_process_every_event) owns call-count accounting,
            # thinning, and the per-event status table
            self._maybe_offload_buffer()
            return emitted, _empty_status()
        self._call_count += 1
        suppress = cfg.status_every_epochs > 1 and bool(
            self._call_count % cfg.status_every_epochs
        )
        ts_us = _ts_us(status_ts)
        if (
            not suppress
            and cfg.status_interval_s > 0
            and self._last_status_us is not None
            and ts_us - self._last_status_us < cfg.status_interval_s * 1e6
        ):
            suppress = True
        if suppress:
            status = _empty_status()
        else:
            status = self._status_for(sorted(touched), status_ts)
            self._last_status_us = ts_us
        self._maybe_offload_buffer()
        return emitted, status

    # -- helpers -----------------------------------------------------------

    def _apply_digest(self, emitted: pa.Table, emit_codes: np.ndarray, key_values) -> pa.Table:
        texts = emitted["text"].to_pylist() if "text" in emitted.column_names else [""] * len(emit_codes)
        digests = []
        for c, txt in zip(emit_codes, texts):
            kc = self.counters[key_values[c]]
            kc.digest = hashlib.sha1(f"{kc.digest}|{txt}".encode()).hexdigest()[:16]
            digests.append(kc.digest)
        return emitted.append_column("state_digest", pa.array(digests, pa.string()))

    def _buffered_bounds(self) -> dict[str, tuple[int, int, int]]:
        """key -> (buffered_count, earliest, latest) from the current buffer.
        The buffer is kept sorted by (key, seq), so bounds are group
        boundaries — vectorized, no per-row Python."""
        out: dict[str, tuple[int, int, int]] = {}
        if self.buffer is None and self._buffer_file is not None:
            return dict(self._bounds_cache or {})
        if self.buffer is None or not self.buffer.num_rows:
            return out
        cfg = self.cfg
        enc = pc.dictionary_encode(self.buffer[cfg.key]).combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        seqs = self.buffer[cfg.seq].to_numpy(zero_copy_only=False)
        n = len(codes)
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        ends = np.r_[starts[1:], n] - 1
        for kv, s, e in zip(
            enc.dictionary.take(pa.array(codes[starts])).to_pylist(), starts, ends
        ):
            out[kv] = (int(e - s + 1), int(seqs[s]), int(seqs[e]))
        return out

    def _status_for(self, keys: list[str], status_ts) -> pa.Table:
        bounds = self._buffered_bounds()
        rows = {f.name: [] for f in STATUS_SCHEMA}
        for kv in keys:
            kc = self.counters[kv]
            b = bounds.get(kv)
            rows[KEY].append(kv)
            rows["status_ts"].append(status_ts)
            rows["received_count"].append(kc.received)
            rows["buffered_count"].append(b[0] if b else 0)
            rows["last_processed_sequence"].append(
                None if kc.next_seq is None else kc.next_seq - 1
            )
            rows["earliest_buffered_sequence"].append(b[1] if b else None)
            rows["latest_buffered_sequence"].append(b[2] if b else None)
            rows["duplicate_count"].append(kc.duplicates)
            rows["result_count"].append(kc.results)
            rows["last_event_received"].append(kc.last_event)
        return pa.table(rows, schema=STATUS_SCHEMA)

    def _empty_emitted(self, like: pa.Table) -> pa.Table:
        cols = [c for c in like.column_names if c != ARRIVAL]
        t = like.select(cols).slice(0, 0)
        t = t.append_column("emit_seq", pa.array([], pa.int64()))
        if self.cfg.with_digest:
            t = t.append_column("state_digest", pa.array([], pa.string()))
        return t

    # -- checkpoint --------------------------------------------------------

    def snapshot(self, dirty_only: bool = False) -> dict:
        """Serializable state: counters dict + buffered rows (Arrow).

        ``dirty_only`` restricts counters to keys mutated since the last
        ``mark_clean()`` — the incremental-checkpoint path (a full-counter
        write per epoch is O(total keys) and dominates at millions of keys;
        restore merges epoch deltas last-wins, see checkpoint.py)."""
        self._load_buffer()  # checkpoints always materialize the buffer
        keys = self.dirty if dirty_only else self.counters.keys()
        return {
            "counters": {
                k: (
                    (c := self.counters[k]).received,
                    c.duplicates,
                    c.results,
                    c.next_seq,
                    c.last_event,
                    c.digest,
                )
                for k in keys
            },
            "buffer": self.buffer,
            # thinning phase must survive kill-and-resume so re-run epochs
            # write byte-identical status-sink parts (status_every_epochs /
            # status_interval_s > 0)
            "call_count": self._call_count,
            "last_status_us": self._last_status_us,
        }

    def mark_clean(self) -> None:
        self.dirty.clear()

    @classmethod
    def restore(cls, cfg: OrderedConfig, snap: dict) -> "OrderedPartitionState":
        st = cls(cfg)
        st.counters = {
            k: _KeyCounters(received=v[0], duplicates=v[1], results=v[2],
                            next_seq=v[3], last_event=v[4], digest=v[5])
            for k, v in snap["counters"].items()
        }
        st.buffer = snap["buffer"]
        st._call_count = snap.get("call_count", 0)
        st._last_status_us = snap.get("last_status_us")
        return st


_EPOCH = datetime(1970, 1, 1)
_EPOCH_UTC = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)


def _ts_us(status_ts) -> int:
    """Microseconds since the Unix epoch of a status timestamp: a
    ``pd.Timestamp``, a stdlib ``datetime`` (naive reads as UTC, as pandas
    reads it) or an ``np.datetime64``. Anything else raises ``TypeError``
    rather than silently switching ``status_interval_s`` thinning off."""
    if isinstance(status_ts, np.datetime64):
        return int(status_ts.astype("datetime64[us]").astype(np.int64))
    if isinstance(status_ts, datetime):
        ns = getattr(status_ts, "value", None)  # pd.Timestamp: ns since epoch
        if ns is not None:
            return int(ns) // 1000
        epoch = _EPOCH if status_ts.tzinfo is None else _EPOCH_UTC
        return (status_ts - epoch) // _US
    raise TypeError(
        "status_ts must be a pd.Timestamp, datetime or np.datetime64; got "
        f"{type(status_ts).__name__}"
    )


def last_event_mask(emitted: pa.Table, cfg: OrderedConfig) -> np.ndarray | None:
    """Vectorized EventExaminer.isLastEvent over an emitted batch: the user
    predicate ``cfg.last_fn`` when set, else the built-in
    ``last_col == last_value`` equality. None when neither applies."""
    if cfg.last_fn is not None:
        m = np.asarray(cfg.last_fn(emitted))
        if m.dtype != bool or m.shape != (emitted.num_rows,):
            raise ValueError(
                "last_fn must return a bool array of len(emitted); got "
                f"dtype={m.dtype} shape={m.shape} for {emitted.num_rows} rows"
            )
        return m
    if cfg.last_col in emitted.column_names:
        eq = pc.fill_null(
            pc.equal(emitted[cfg.last_col], cfg.last_value), False
        )
        return eq.to_numpy(zero_copy_only=False).astype(bool)
    return None


def _empty_status() -> pa.Table:
    return pa.table({f.name: [] for f in STATUS_SCHEMA}, schema=STATUS_SCHEMA)
