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
rows where ``seq - (start + k) == 0``. The (key, seq, position) sort is one
sort of a packed int64 key (``_key_seq_order``), and the per-key counters
are columnar (``KeyCounters``): every counter update and status row is a
bincount or a fancy index over key codes, with no per-key Python.

This module is deliberately Ray-free so the state machine is unit-testable
in-process; ``ordered.py`` wraps it in a sharded actor pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .schema import ARRIVAL, COUNTERS_SCHEMA, KEY, SEQ, STATUS_SCHEMA


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
    # ride the checkpoint + rescale protocols. The built-in with_book
    # below remains as a zero-config convenience.
    state_factory: object = None
    # ≙ produceStatusUpdatesOnEveryEvent(): one status row per input row
    # instead of one per touched key and call. Not combinable with
    # max_emit_per_round (see __post_init__).
    status_every_event: bool = False
    # ≙ withStatusUpdateFrequency(Duration), the reference's knob
    # (OrderBookProducer.java:65-68): suppress status until status_ts has
    # advanced >= this many seconds since the last emission (0 = disabled).
    # Counters keep accumulating regardless; final_status is always complete.
    status_interval_s: float = 0.0
    max_emit_per_round: int = 0   # ≙ maxOutputElementsPerBundle (0 = unlimited)
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
    # > 0 bounds joined pairs by event time: an answer that comes too late
    # is no answer (the batch join_user_assistant's within_us)
    join_within_s: float = 0.0
    # non-empty enables streaming CEP: emit a match whenever these roles
    # occur on consecutive turns of one key (cep.PatternMatcher side output)
    pattern: tuple = ()
    # > 0 bounds a match's first-to-last turn by event time (the batch
    # match_pattern's within_us, Flink's within); 0 = no bound
    pattern_within_s: float = 0.0
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
    # rows of synthetic data each actor drains twice at __init__ to pre-fault
    # allocator arenas / bind kernels (see OrderedWorker._warmup); bench sets
    # 65536, small values keep test-suite actor creation cheap
    warmup_rows: int = 8192

    def __post_init__(self):
        if self.status_every_event and self.max_emit_per_round > 0:
            # the cap would apply per event, which the one-drain trajectory
            # reconstruction of _process_every_event cannot replay
            raise ValueError(
                "status_every_event=True cannot be combined with "
                f"max_emit_per_round={self.max_emit_per_round} > 0; set one "
                "of them"
            )

class KeyedArrays:
    """Per-key state as arrays: a key -> code dict (codes in first-seen
    order), the keys as Arrow chunks in code order, and one numpy array per
    field, indexed by code. Every field attribute is a view of length
    ``len(self)`` into a buffer grown by doubling, so interning new keys is
    amortized O(new keys) and an update is one fancy-index assignment."""

    def __init__(self, fields):
        self.fields = tuple(fields)   # (name, dtype) pairs
        self.code: dict[str, int] = {}
        self._names: list[pa.Array] = []   # chunks, in code order
        self._buf = {f: np.zeros(0, dt) for f, dt in self.fields}
        self._bind(0)

    def __len__(self) -> int:
        return len(self.code)

    def _bind(self, n: int) -> None:
        for f, _dt in self.fields:
            setattr(self, f, self._buf[f][:n])

    def intern(self, keys: pa.Array) -> np.ndarray:
        """Codes of the distinct ``keys`` (a dictionary encode's
        dictionary), interning the keys not seen before, in their order,
        with zero fields."""
        code = self.code
        n0 = len(code)
        values = keys.to_numpy(zero_copy_only=False)
        g = np.fromiter(
            map(code.get, values, itertools.repeat(-1)), np.int64, len(values)
        )
        new = np.flatnonzero(g < 0)
        if len(new):
            n = n0 + len(new)
            g[new] = np.arange(n0, n)
            code.update(zip(values[new].tolist(), range(n0, n)))
            self._names.append(keys.take(pa.array(new)).cast(pa.string()))
            cap = len(self._buf[self.fields[0][0]])
            if n > cap:
                cap = max(n, 2 * cap, 64)
                for f, dt in self.fields:
                    grown = np.zeros(cap, dt)
                    grown[:n0] = self._buf[f][:n0]
                    self._buf[f] = grown
            self._bind(n)
        return g

    def names(self) -> pa.Array:
        """The keys in code order."""
        if len(self._names) != 1:
            self._names = [
                pa.concat_arrays(self._names) if self._names else pa.array([], pa.string())
            ]
        return self._names[0]

    def keep(self, idx: np.ndarray) -> None:
        """Keep only the keys of the ascending codes ``idx``; they take the
        codes 0..len(idx)-1 in the same order, so arrays sorted by code stay
        sorted after a ``(np.cumsum(mask) - 1)[codes]`` remap."""
        names = self.names().take(pa.array(idx, pa.int64()))
        self._names = [names]
        self.code = dict(zip(names.to_numpy(zero_copy_only=False).tolist(),
                             range(len(idx))))
        self._buf = {f: self._buf[f][idx] for f, _dt in self.fields}
        self._bind(len(idx))


class KeyCounters(KeyedArrays):
    """The per-key counters of one partition, one ``KeyedArrays`` field per
    counter.

    ``dirty`` marks keys mutated since the last checkpoint; ``buffered``,
    ``buf_lo`` and ``buf_hi`` are each key's out-of-order buffer row count
    and its earliest/latest buffered seq (valid where ``buffered > 0``)."""

    FIELDS = (
        ("received", np.int64),
        ("duplicates", np.int64),
        ("results", np.int64),
        ("next_seq", np.int64),      # valid only where has_next
        ("has_next", np.bool_),      # False until the initial event is processed
        ("last_event", np.bool_),
        ("dirty", np.bool_),
        ("buffered", np.int64),
        ("buf_lo", np.int64),
        ("buf_hi", np.int64),
    )

    def __init__(self):
        super().__init__(self.FIELDS)

    def table(self, codes: np.ndarray | None = None) -> pa.Table:
        """The counters of ``codes`` (default: every key) as a
        ``COUNTERS_SCHEMA`` table in key order."""
        if codes is None:
            codes = np.arange(len(self))
        names = self.names().take(pa.array(codes, pa.int64()))
        o = pc.sort_indices(names).to_numpy()
        codes = codes[o]
        return pa.table(
            [
                names.take(pa.array(o)),
                pa.array(self.received[codes], pa.int64()),
                pa.array(self.duplicates[codes], pa.int64()),
                pa.array(self.results[codes], pa.int64()),
                pa.array(self.next_seq[codes], pa.int64(), mask=~self.has_next[codes]),
                pa.array(self.last_event[codes], pa.bool_()),
            ],
            schema=COUNTERS_SCHEMA,
        )

    @classmethod
    def from_table(cls, t: pa.Table) -> "KeyCounters":
        """Inverse of ``table``; codes follow the table's row order."""
        c = cls()
        c.intern(t["key"].combine_chunks())
        col = {f: t[f].combine_chunks() for f in COUNTERS_SCHEMA.names[1:]}
        for f in ("received", "duplicates", "results"):
            getattr(c, f)[:] = col[f].to_numpy(zero_copy_only=False)
        c.has_next[:] = col["next_seq"].is_valid().to_numpy(zero_copy_only=False)
        c.next_seq[:] = pc.fill_null(col["next_seq"], 0).to_numpy(zero_copy_only=False)
        c.last_event[:] = col["last_event"].to_numpy(zero_copy_only=False)
        return c


class OrderedPartitionState:
    """State for ONE partition: many keys, each independently sequenced."""

    def __init__(self, cfg: OrderedConfig | None = None):
        self.cfg = cfg or OrderedConfig()
        self.counters = KeyCounters()
        self.buffer: pa.Table | None = None   # out-of-order remainder, sorted by (key, seq)
        self._last_status_us: int | None = None  # status_interval_s phase

    def buffered_row_count(self) -> int:
        return 0 if self.buffer is None else self.buffer.num_rows

    def _status_due(self, ts_us: int) -> bool:
        """Whether ``status_interval_s`` lets a status go out at ``ts_us``;
        if it does, the interval restarts there."""
        last, interval = self._last_status_us, self.cfg.status_interval_s
        if interval > 0 and last is not None and ts_us - last < interval * 1e6:
            return False
        self._last_status_us = ts_us
        return True

    # -- hot path ----------------------------------------------------------

    def process(self, batch: pa.Table, status_ts) -> tuple[pa.Table, pa.Table]:
        """Feed one arrival-ordered batch; return (emitted, status) tables.

        In ``status_every_event`` mode one status row is produced per input
        row (conformance mode, reference default at
        OrderBookProcessingPipeline.java:111); otherwise one status row per
        key touched in this call (epoch mode).
        """
        if self.cfg.status_every_event and batch.num_rows:
            return self._process_every_event(batch, status_ts)
        # an empty batch is a drain request (max_emit_per_round overflow)
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
        One buffer combine + one lexsort total, vs an O(rows × buffer)
        re-sort per event when the rows are fed one per call."""
        import heapq

        cfg = self.cfg
        if ARRIVAL in batch.column_names and batch.num_rows > 1:
            arr = batch[ARRIVAL].to_numpy(zero_copy_only=False)
            if (arr[1:] < arr[:-1]).any():
                batch = batch.sort_by(ARRIVAL)
        pre_buffer = self.buffer  # immutable pa.Table (or None), pre-mutation

        kd = pc.dictionary_encode(
            batch[cfg.key].combine_chunks()
            if isinstance(batch[cfg.key], pa.ChunkedArray)
            else batch[cfg.key]
        )
        if isinstance(kd, pa.ChunkedArray):
            kd = kd.combine_chunks()
        bcodes = np.asarray(kd.indices).astype(np.int64)
        n_keys = len(kd.dictionary)
        bseq = batch[cfg.seq].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch.num_rows

        # pre-call counters per batch key code (interning a new key gives it
        # the zero counters it starts from)
        kc = self.counters
        g = kc.intern(kd.dictionary)
        pre_recv, pre_dup, pre_res = kc.received[g], kc.duplicates[g], kc.results[g]
        pre_next, pre_has, pre_last = kc.next_seq[g], kc.has_next[g], kc.last_event[g]

        def by_batch_code(t: pa.Table | None, keep: np.ndarray | None = None):
            """(bounds, seqs): the seqs of ``t``'s rows (those in ``keep``)
            whose key is in the batch, grouped by batch code in row order;
            code k's are ``seqs[bounds[k]:bounds[k + 1]]``."""
            if t is None or not t.num_rows:
                return np.zeros(n_keys + 1, np.int64), np.zeros(0, np.int64)
            k = pc.fill_null(pc.index_in(t[cfg.key], value_set=kd.dictionary), -1)
            k = k.to_numpy(zero_copy_only=False).astype(np.int64)
            if keep is not None:
                k[~keep] = -1
            o = np.argsort(k, kind="stable")
            seqs = t[cfg.seq].to_numpy(zero_copy_only=False).astype(np.int64)[o]
            return np.searchsorted(k[o], np.arange(n_keys + 1)), seqs

        # pre-call buffered seqs per batch key (buffer is sorted by key, seq)
        buf_b, buf_s = by_batch_code(pre_buffer)

        # mutate for real; this method owns the status table
        emitted, _ = self._process_vec(batch, status_ts, _external_status=True)

        # seqs of the emitted last-event rows per batch key
        le_mask = last_event_mask(emitted, cfg) if emitted.num_rows else None
        le_b, le_s = by_batch_code(
            emitted if le_mask is not None and le_mask.any() else None, le_mask
        )

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
            p_recv, p_dup, p_res = int(pre_recv[c]), int(pre_dup[c]), int(pre_res[c])
            p_next = int(pre_next[c]) if pre_has[c] else None
            start = p_next if p_next is not None else cfg.initial_seq
            bs = buf_s[buf_b[c]:buf_b[c + 1]]
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
            if pre_last[c]:
                lastev_g[rows] = True
            elif le_b[c + 1] > le_b[c]:
                drs = []
                for s in le_s[le_b[c]:le_b[c + 1]]:
                    j = int(np.searchsorted(useq, s))
                    drs.append(int(np.searchsorted(p, j + 1, side="left")))
                dr = min(drs)
                if dr < m:
                    lastev_g[rows[dr:]] = True

        sel = np.arange(n)
        if cfg.status_interval_s > 0:
            # all rows share status_ts: the first row emits and restarts the
            # interval, or none does
            sel = sel[:1] if self._status_due(_ts_us(status_ts)) else sel[:0]
        if not len(sel):
            return emitted, _empty_status()
        keys_arr = pc.take(kd.dictionary, pa.array(bcodes[sel]))
        status = pa.table(
            {
                KEY: keys_arr,
                "status_ts": _repeat_ts(status_ts, len(sel)),
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

        # 1. combine buffer (earlier arrivals) + batch. ONE dictionary encode
        #    of the key over the combined order (local codes in first-seen
        #    order; they decide the emitted rows' order), interned once per
        #    distinct key into the partition's key codes (``glob``).
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
        c = self.counters
        glob = c.intern(keys_dict.dictionary)
        n_local = len(glob)
        seq_u = combined[cfg.seq].to_numpy(zero_copy_only=False).astype(np.int64)

        # received counts (per key, from the new batch rows only)
        recv = np.bincount(codes_u[buffer_n:], minlength=n_local)
        c.received[glob] += recv
        touched = recv > 0   # by local code

        # 2. sort by (code, seq, position); the position tiebreak keeps the
        #    earliest arrival first among duplicate (key, seq) rows
        #    (FIXTURES.md §2 "keep first"). The table itself is NOT reordered
        #    (that would copy every row); only the emitted / buffered subsets
        #    are taken through `order`.
        order, codes, seq = _key_seq_order(codes_u, seq_u)
        n = len(seq)

        # next expected seq per local code
        start_per_code = np.where(c.has_next[glob], c.next_seq[glob], cfg.initial_seq)

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
            c.duplicates[glob] += np.bincount(codes[dup], minlength=n_local)

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
            e_change_idx = np.flatnonzero(e_change)
            group_sizes = np.diff(np.append(e_change_idx, len(emit_codes)))
            e_rank = np.arange(len(emit_codes)) - np.repeat(e_change_idx, group_sizes)
            uniq_codes = emit_codes[e_change_idx]
            g = glob[uniq_codes]
            base = c.results[g]
            c.results[g] = base + group_sizes
            c.next_seq[g] = seq[emit_rows[e_change_idx]] + group_sizes
            c.has_next[g] = True
            touched[uniq_codes] = True
            emit_seq_col = np.repeat(base, group_sizes) + e_rank + 1
        emitted = emitted.append_column("emit_seq", pa.array(emit_seq_col, pa.int64()))

        # 6. last-event handling (≙ EventExaminer.isLastEvent -> state cleanup,
        #    OrderBookEventExaminer.java:46-49); cfg.last_fn generalizes the
        #    built-in column-equality predicate to arbitrary user logic
        if len(emit_rows):
            is_last = last_event_mask(emitted, cfg)
            if is_last is not None:
                c.last_event[glob[emit_codes[is_last]]] = True

        # 7. new buffer = non-emittable remainder (stays sorted by key, seq);
        #    every key with buffered rows is in this call, so its bounds are
        #    the remainder's group boundaries
        self.buffer = (
            combined.take(pa.array(order[rest_rows])) if len(rest_rows) else None
        )
        c.buffered[glob] = 0
        if len(rest_rows):
            r_codes = codes[rest_rows]
            r_seq = seq[rest_rows]
            r_start = np.flatnonzero(np.r_[True, r_codes[1:] != r_codes[:-1]])
            r_end = np.r_[r_start[1:], len(r_codes)] - 1
            g = glob[r_codes[r_start]]
            c.buffered[g] = r_end - r_start + 1
            c.buf_lo[g] = r_seq[r_start]
            c.buf_hi[g] = r_seq[r_end]

        # 8. status rows for touched keys (thinned by status_interval_s)
        touched_codes = np.flatnonzero(touched)
        c.dirty[glob[touched_codes]] = True
        if _external_status or not self._status_due(_ts_us(status_ts)):
            # (_process_every_event builds its own per-event status table)
            return emitted, _empty_status()
        status = self._status_rows(
            keys_dict.dictionary.take(pa.array(touched_codes)),
            glob[touched_codes],
            status_ts,
        )
        return emitted, status

    # -- helpers -----------------------------------------------------------

    def _status_rows(self, names: pa.Array, codes: np.ndarray, status_ts) -> pa.Table:
        """One status row per key of ``names`` (whose key codes are
        ``codes``), in key order. Arrow orders strings by UTF-8 bytes, which
        is Python's ``str`` order."""
        o = pc.sort_indices(names).to_numpy()
        codes = codes[o]
        c = self.counters
        buffered = c.buffered[codes]
        none_buffered = buffered == 0
        return pa.table(
            [
                names.take(pa.array(o)).cast(pa.string()),
                _repeat_ts(status_ts, len(codes)),
                pa.array(c.received[codes], pa.int64()),
                pa.array(buffered, pa.int64()),
                pa.array(c.next_seq[codes] - 1, pa.int64(), mask=~c.has_next[codes]),
                pa.array(c.buf_lo[codes], pa.int64(), mask=none_buffered),
                pa.array(c.buf_hi[codes], pa.int64(), mask=none_buffered),
                pa.array(c.duplicates[codes], pa.int64()),
                pa.array(c.results[codes], pa.int64()),
                pa.array(c.last_event[codes], pa.bool_()),
            ],
            schema=STATUS_SCHEMA,
        )

    def final_status(self, status_ts) -> pa.Table:
        """Status rows of every key this partition has seen, in key order."""
        return self._status_rows(
            self.counters.names(), np.arange(len(self.counters)), status_ts
        )

    def _empty_emitted(self, like: pa.Table) -> pa.Table:
        cols = [c for c in like.column_names if c != ARRIVAL]
        t = like.select(cols).slice(0, 0)
        return t.append_column("emit_seq", pa.array([], pa.int64()))

    # -- checkpoint --------------------------------------------------------

    def snapshot(self, dirty_only: bool = False) -> dict:
        """Serializable state: the counters (a ``COUNTERS_SCHEMA`` table in
        key order) + buffered rows (Arrow).

        ``dirty_only`` restricts counters to keys mutated since the last
        ``mark_clean()`` — the incremental-checkpoint path (a full-counter
        write per epoch is O(total keys) and dominates at millions of keys;
        restore merges epoch deltas last-wins, see checkpoint.py)."""
        c = self.counters
        return {
            "counters": c.table(np.flatnonzero(c.dirty) if dirty_only else None),
            "buffer": self.buffer,
            # the status_interval_s phase must survive kill-and-resume so
            # re-run epochs write byte-identical status-sink parts
            "last_status_us": self._last_status_us,
        }

    def mark_clean(self) -> None:
        self.counters.dirty[:] = False

    @classmethod
    def restore(cls, cfg: OrderedConfig, snap: dict) -> "OrderedPartitionState":
        st = cls(cfg)
        c = st.counters = KeyCounters.from_table(snap["counters"])
        st.buffer = snap["buffer"]
        if st.buffer is not None and st.buffer.num_rows:
            enc = pc.dictionary_encode(st.buffer[cfg.key].combine_chunks())
            g = c.intern(enc.dictionary)[
                enc.indices.to_numpy(zero_copy_only=False)
            ]
            bseq = st.buffer[cfg.seq].to_numpy(zero_copy_only=False).astype(np.int64)
            c.buffered[:] = np.bincount(g, minlength=len(c))
            c.buf_lo[:] = np.iinfo(np.int64).max
            c.buf_hi[:] = np.iinfo(np.int64).min
            np.minimum.at(c.buf_lo, g, bseq)
            np.maximum.at(c.buf_hi, g, bseq)
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


def _repeat_ts(status_ts, n: int) -> pa.Array:
    """``status_ts`` as an ``n``-row ``timestamp[us]`` column (one Python
    conversion, then a take)."""
    one = pa.array([status_ts], pa.timestamp("us"))
    return one.take(pa.array(np.zeros(n, np.int64)))


def _key_seq_order(codes: np.ndarray, seq: np.ndarray):
    """``(order, codes[order], seq[order])`` for the rows sorted by (code,
    seq, position). Packs the three into one int64 ``code << (bs + bp) |
    (seq - min) << bp | position`` and sorts it, which is several times
    faster than the three-key ``lexsort`` and gives the same order: the
    packed values are distinct, and the position field keeps the earliest
    arrival first among equal (code, seq). The sorted values unpack back
    into all three. Inputs whose bit widths pass 63 take the ``lexsort``."""
    n = len(seq)
    if n == 0:
        return np.zeros(0, np.int64), codes[:0], seq[:0]
    lo = int(seq.min())
    bs = (int(seq.max()) - lo).bit_length()
    bp = (n - 1).bit_length()
    if int(codes.max()).bit_length() + bs + bp > 63:
        order = np.lexsort((np.arange(n), seq, codes))
        return order, codes[order], seq[order]
    packed = (codes << (bs + bp)) | ((seq - lo) << bp) | np.arange(n, dtype=np.int64)
    packed.sort()
    return (
        packed & ((1 << bp) - 1),
        packed >> (bs + bp),
        ((packed >> bp) & ((1 << bs) - 1)) + lo,
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
