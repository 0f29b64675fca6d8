"""In-actor streaming operators fed by the ordered emission stream.

These are the streaming counterparts of windows.py / join.py, co-located
with the ordered state in the same partition actor (same key => no extra
shuffle, SURVEY.md §7.3):

- ``WindowAccumulator``: per (key, window) tumbling OR sliding counts
  (``step_s`` < ``size_s`` gives overlapping hops; each row explodes into its
  covering windows, vectorized); window rows are released when the
  event-time watermark (max ts seen - allowed lateness) passes window_end —
  the role Beam's watermark machinery plays in the reference's tests
  (OrderBookProcessingPipelineTest.java:204-217).
- ``SessionAccumulator``: per-key gap-merged sessions (the streaming
  counterpart of windows.session_windows); open sessions are columnar
  intervals merged per batch with a vectorized chain-merge, and a session
  closes once the watermark passes ``session_end + gap`` (no in-flight event
  can extend it).
- ``StreamJoiner``: forward as-of join of two role streams. Because the
  ordered processor emits strictly in sequence per key, the join is
  sequence-driven and needs no watermark: a left (user) turn pairs with the
  key's next right (assistant) turn.

Both sit in the state actor's hot path, so ``update`` is vectorized like the
ordered drain (group-boundary detection over lexsorted key codes + reduceat
/ searchsorted). No Ray imports.

Windows and sessions share one base, ``_OpenIntervals``: per-key state in
a ``state.KeyedArrays`` (the container of the drain's counters), open
intervals as code-sorted arrays, and one prologue, ``gc``, ``snapshot`` and
``restore``; each keeps only its own interval math.

Checkpoint form (shared with cep.py): ``snapshot()`` returns a flat dict of
JSON scalars (``watermark``) and Arrow tables that carry the operator's
string key column; checkpoint.py packs each table as one ``list<struct>``
column of the partition-epoch's ``state.arrow``, and rescale.py routes each
table's rows by that column. A table named ``keys`` is an intern table: one
row per key in code order, open state as list columns.

``OPERATOR_KINDS``, at the end, is the one table of what a partition actor
runs over its emission: these three, CEP (cep.py), the order book (book.py)
and a user state (``UserStateOperator``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .schema import KEY, SEQ
from .state import KeyedArrays, last_event_mask

_US = 1_000_000


def _dict_codes(col) -> tuple[np.ndarray, pa.Array]:
    """A dictionary encode of ``col``: (the rows' codes as int64, the
    distinct values in first-seen order)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = pc.dictionary_encode(col)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    return np.asarray(enc.indices).astype(np.int64), enc.dictionary


def _i64(col) -> np.ndarray:
    """A writable int64 copy of an Arrow column (restored state is mutated
    in place, and Arrow-backed numpy views are read-only)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return np.array(col.to_numpy(zero_copy_only=False), dtype=np.int64)


class _OpenIntervals:
    """What the window and session accumulators share: keyed open
    intervals released by an event-time watermark.

    Per-key state is a ``state.KeyedArrays`` (``keys``) with one int64
    field per ``PER_KEY`` name, ``last`` (the key's last event time) among
    them. A key's code is the order of its first emission this operator
    saw, and the release order follows it. The open intervals are parallel
    int64 arrays, ``_kc`` (the key code) and one per ``ITEMS`` name, sorted
    by (code, start). A subclass adds the interval math: ``_merge`` (one
    batch into the open intervals), ``_closed`` (what a horizon releases)
    and ``_rows`` (the released intervals' ``COLUMNS``).

    ``snapshot()`` is the watermark and one ``keys`` table: one row per key
    in code order (the code order decides the sinks' byte order, so it
    must survive a resume, also for keys with nothing open), its
    ``PER_KEY`` fields, and its open intervals as list columns."""

    NAME: str       # the operator, as the late side output names it
    PER_KEY: tuple  # per-key int64 fields, in snapshot column order
    ITEMS: tuple    # per-interval int64 arrays besides _kc, likewise
    COLUMNS: tuple  # the output's (name, type) pairs after the key

    def __init__(self, key: str, ts: str, allowed_lateness_s: float,
                 late_data: str):
        if late_data not in ("merge", "drop"):
            raise ValueError("late_data must be 'merge' or 'drop'")
        self.key = key
        self.ts = ts
        self.lateness = int(allowed_lateness_s * _US)
        self.late_data = late_data
        self.watermark: int | None = None
        self.keys = KeyedArrays((f, np.int64) for f in self.PER_KEY)
        self._set_open([np.zeros(0, np.int64)] * (1 + len(self.ITEMS)))

    def _open(self) -> list[np.ndarray]:
        return [self._kc, *(getattr(self, "_" + f) for f in self.ITEMS)]

    def _set_open(self, arrays) -> None:
        for f, a in zip(("kc", *self.ITEMS), arrays):
            setattr(self, "_" + f, a)

    def update(self, emitted: pa.Table, codes_kv=None) -> pa.Table | None:
        """Merge a batch of in-sequence emitted rows; with
        ``late_data="drop"`` returns the late side-output rows (or None)."""
        if emitted.num_rows == 0 or self.ts not in emitted.column_names:
            return None
        tsi = emitted[self.ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
        # callers co-located with the drain can pass the key encode through
        codes, dictionary = codes_kv or _dict_codes(emitted[self.key])
        kc = self.keys.intern(dictionary)[codes]
        np.maximum.at(self.keys.last, kc, tsi)
        if "role" in emitted.column_names:
            is_user = np.asarray(pc.equal(emitted["role"], "user"))
            is_asst = np.asarray(pc.equal(emitted["role"], "assistant"))
        else:
            is_user = is_asst = np.zeros(len(codes), dtype=bool)
        late = self._merge(emitted, tsi, kc, is_user, is_asst)
        mx = int(tsi.max())
        self.watermark = mx if self.watermark is None else max(self.watermark, mx)
        return late

    def _late(self, emitted: pa.Table, dropped: np.ndarray) -> pa.Table:
        """Side-output rows for late data: the input rows with ``dropped``
        > 0, the operator that dropped them and how many of their window
        assignments expired."""
        rows = pa.array(np.flatnonzero(dropped))
        ts_col = emitted[self.ts].cast(pa.timestamp("us"))
        return pa.table({
            self.key: emitted[self.key].take(rows).combine_chunks(),
            "ts": ts_col.take(rows).combine_chunks(),
            "operator": pa.array([self.NAME] * len(rows), pa.string()),
            "dropped_windows": pa.array(dropped[dropped > 0], pa.int64()),
        })

    def take_closed(self, final: bool = False) -> pa.Table:
        """Release the intervals the watermark closed (or everything on
        final flush), in (key code, start) order."""
        if self.watermark is None or not len(self._kc):
            return self._empty()
        closed = (
            np.ones(len(self._kc), dtype=bool)
            if final
            else self._closed(self.watermark - self.lateness)
        )
        if not closed.any():
            return self._empty()
        open_ = self._open()
        self._set_open([a[~closed] for a in open_])
        kc, *items = (a[closed] for a in open_)
        return pa.table(
            [self.keys.names().take(pa.array(kc)), *self._rows(kc, *items)],
            schema=self._schema(),
        )

    def gc(self, ttl_us: int) -> int:
        """Evict keys idle past the event-time TTL and with no open interval
        (≙ Beam/Flink keyed-state GC on window expiry — without it the keyed
        state grows with every key ever seen on an unbounded keyspace).
        Codes compact monotonically, so the open intervals stay sorted.
        Deterministic given (state, watermark): called at epoch boundaries
        before the checkpoint, a crash-resume replays the same evictions.
        Returns the number of evicted keys."""
        if self.watermark is None or not len(self.keys):
            return 0
        keep = self.keys.last >= self.watermark - ttl_us
        keep[self._kc] = True  # open intervals pin their key
        if keep.all():
            return 0
        self._kc = (np.cumsum(keep) - 1)[self._kc]
        idx = np.flatnonzero(keep)
        self.keys.keep(idx)
        return int(len(keep) - len(idx))

    def state_size(self) -> dict:
        return {"keys": len(self.keys), "open": int(len(self._kc))}

    def _schema(self) -> pa.Schema:
        return pa.schema([(self.key, pa.string()), *self.COLUMNS])

    def _empty(self) -> pa.Table:
        return self._schema().empty_table()

    def snapshot(self) -> dict:
        kc, *items = self._open()
        offsets = pa.array(np.searchsorted(kc, np.arange(len(self.keys) + 1)), pa.int32())
        cols = {self.key: self.keys.names()}
        # copies: the per-key fields are views that the next update mutates
        # in place (np.maximum.at on ``last``, the session ids), and a
        # snapshot may be written while the next epoch drains. The open
        # intervals are only ever replaced, never mutated, so they are shared.
        cols.update((f, pa.array(getattr(self.keys, f).copy(), pa.int64()))
                    for f in self.PER_KEY)
        cols.update(
            (f, pa.ListArray.from_arrays(offsets, pa.array(v, pa.int64())))
            for f, v in zip(self.ITEMS, items)
        )
        return {"watermark": self.watermark, "keys": pa.table(cols)}

    def restore(self, snap: dict) -> None:
        t = snap["keys"]
        self.watermark = snap["watermark"]
        self.keys = KeyedArrays(self.keys.fields)
        self.keys.intern(t[self.key].combine_chunks())
        for f in self.PER_KEY:
            getattr(self.keys, f)[:] = t[f].to_numpy()
        lists = [t[f].combine_chunks() for f in self.ITEMS]
        lengths = _i64(pc.list_value_length(lists[0]))
        kc = np.repeat(np.arange(len(t), dtype=np.int64), lengths)
        self._set_open([kc, *(_i64(v.flatten()) for v in lists)])


class WindowAccumulator(_OpenIntervals):
    """Tumbling/sliding event-time windows with watermark-gated emission.

    ``step_s`` defaults to the window size (tumbling); a smaller step gives
    sliding windows: each row is exploded (vectorized) into the
    ceil(size/step) hops containing it, after which the state machinery is
    identical.

    Open-window state is COLUMNAR: parallel numpy arrays sorted by
    (key_code, window_start), merged with each batch's per-group partial
    aggregates by one lexsort + reduceat. Per-row / per-group Python is
    avoided entirely (worst case — every turn its own window — degenerates
    to a vectorized array merge, not a million dict operations)."""

    NAME = "windows"
    PER_KEY = ("last",)
    ITEMS = ("ws", "cnt", "nu", "na")
    COLUMNS = (("window_start", pa.timestamp("us")), ("window_end", pa.timestamp("us")),
               ("turn_count", pa.int64()), ("n_user", pa.int64()),
               ("n_assistant", pa.int64()))

    def __init__(self, size_s: float, key: str = KEY, ts: str = "ts",
                 allowed_lateness_s: float = 0.0, step_s: float | None = None,
                 late_data: str = "merge"):
        self.size = int(size_s * _US)
        self.step = int(step_s * _US) if step_s else self.size
        if not (0 < self.step <= self.size):
            raise ValueError("window step must be in (0, size]")
        # "merge": a contribution to an already-released window re-opens it
        #   and re-fires a partial row (downstream must aggregate; today's
        #   default). "drop": expired (row, window) contributions are routed
        #   to a late side output instead — Flink's allowedLateness +
        #   sideOutputLateData semantics; each (key, window) fires at most
        #   once.
        super().__init__(key, ts, allowed_lateness_s, late_data)

    def _merge(self, emitted, tsi, kc, is_user, is_asst) -> pa.Table | None:
        if self.step == self.size:  # tumbling: one window per row
            ws = (tsi // self.size) * self.size
            rep = None  # (row, window) pairs are exactly the rows
        else:
            # sliding: explode each row into its covering hops (same
            # construction as windows.sliding_counts, kept vectorized)
            n_w = -(-self.size // self.step)
            last_ws = (tsi // self.step) * self.step
            offs = (np.arange(n_w, dtype=np.int64) * self.step)[None, :]
            wm = last_ws[:, None] - offs                  # (rows, n_w)
            valid = ((wm + self.size) > tsi[:, None]) & (wm >= 0)
            flat = valid.ravel()
            ws = wm.ravel()[flat]
            rep = np.repeat(np.arange(len(kc)), n_w)[flat]
            kc, is_user, is_asst = kc[rep], is_user[rep], is_asst[rep]

        # late-data drop: a (row, window) contribution whose window already
        # released (take_closed's criterion, against the watermark BEFORE
        # this batch) is diverted to the side output instead of re-opening
        # the window (≙ Flink allowedLateness + sideOutputLateData)
        late = None
        if self.late_data == "drop" and self.watermark is not None:
            lp = ws + self.size <= self.watermark - self.lateness
            if lp.any():
                late = self._late(emitted, lp.astype(np.int64) if rep is None
                                  else np.bincount(rep[lp], minlength=len(tsi)))
                keep = ~lp
                ws, kc = ws[keep], kc[keep]
                is_user, is_asst = is_user[keep], is_asst[keep]
                if not len(ws):
                    return late

        # per-(key, window) partial aggregates: lexsort + boundary + reduceat
        order = np.lexsort((ws, kc))
        c_s, w_s = kc[order], ws[order]
        boundary = np.empty(len(c_s), dtype=bool)
        boundary[0] = True
        boundary[1:] = (c_s[1:] != c_s[:-1]) | (w_s[1:] != w_s[:-1])
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.append(starts, len(c_s)))
        nu = np.add.reduceat(is_user[order], starts)
        na = np.add.reduceat(is_asst[order], starts)

        # merge into the open-window arrays (both sides sorted): concat,
        # lexsort, collapse duplicate (kc, ws) pairs by reduceat
        kc, wv, cnt, nuv, nav = (
            np.concatenate(p)
            for p in zip(self._open(), (c_s[starts], w_s[starts], counts, nu, na))
        )
        m = np.lexsort((wv, kc))
        kc, wv, cnt, nuv, nav = kc[m], wv[m], cnt[m], nuv[m], nav[m]
        b2 = np.empty(len(kc), dtype=bool)
        b2[0] = True
        b2[1:] = (kc[1:] != kc[:-1]) | (wv[1:] != wv[:-1])
        s2 = np.flatnonzero(b2)
        self._set_open([kc[s2], wv[s2], *(np.add.reduceat(v, s2) for v in (cnt, nuv, nav))])
        return late

    def _closed(self, horizon: int) -> np.ndarray:
        return self._ws + self.size <= horizon

    def _rows(self, kc, ws, cnt, nu, na) -> list:
        return [ws, ws + self.size, cnt, nu, na]


class SessionAccumulator(_OpenIntervals):
    """Streaming session windows: per-key gap merge with watermark-gated
    release (the in-actor counterpart of ``windows.session_windows``).

    Open sessions are COLUMNAR intervals — parallel arrays sorted by
    (key_code, session_start) — merged with each batch's per-key
    mini-sessions by a vectorized chain-merge (lexsort + boundary flags +
    reduceat; containment chains converge in a couple of passes). A session
    is released once ``watermark - lateness > session_end + gap``: no event
    still in flight (within the lateness bound) can extend it. Per-key
    ``session_id`` assignment matches the batch operator (index in
    session_start order), valid because sessions of a key close in start
    order. Caveat (standard streaming-session semantics): an event later
    than the allowed lateness opens a NEW session even if its ts precedes an
    already-released one, so its session_id reflects release order, not
    global start order — size ``allowed_lateness_s`` to the source's real
    disorder when batch/stream equality matters. A key evicted by ``gc``
    takes its ``next_sid`` with it: if it returns after the TTL its
    session_id restarts at 0 (the standard keyed-state-TTL trade-off; Flink
    state TTL behaves the same)."""

    NAME = "sessions"
    PER_KEY = ("next_sid", "last")  # next_sid: the next session_id to emit
    ITEMS = ("start", "end", "cnt", "nu", "na")
    COLUMNS = (("session_id", pa.int64()), ("session_start", pa.timestamp("us")),
               ("session_end", pa.timestamp("us")), ("turn_count", pa.int64()),
               ("n_user", pa.int64()), ("n_assistant", pa.int64()))

    def __init__(self, gap_s: float, key: str = KEY, ts: str = "ts",
                 allowed_lateness_s: float = 0.0, late_data: str = "merge"):
        self.gap = int(gap_s * _US)
        # "drop": an event whose singleton session [ts, ts] would already be
        # releasable (ts + gap behind the watermark horizon) goes to the
        # late side output instead of opening a new out-of-order session —
        # Flink's session-window lateness rule (the element's initial
        # window is late => drop), which also removes the session_id
        # release-order caveat above for late events.
        super().__init__(key, ts, allowed_lateness_s, late_data)

    def _merge(self, emitted, tsi, gc, is_user, is_asst) -> pa.Table | None:
        # late-data drop (Flink session-lateness rule): assign the event its
        # singleton window [ts, ts+gap); if it MERGES with a still-open
        # session of its key the merged window is live and the event is
        # kept; only an event whose merged window is still the releasable
        # singleton (take_closed's criterion against the watermark BEFORE
        # this batch) is diverted to the side output. Candidates are checked
        # against PRE-batch open sessions (deterministic batch semantics:
        # a late event cannot bridge through other rows of the same batch).
        late = None
        if self.late_data == "drop" and self.watermark is not None:
            lp = tsi + self.gap < self.watermark - self.lateness
            if lp.any() and len(self._kc):
                cand = np.flatnonzero(lp)
                lp[cand[self._merges_open(gc[cand], tsi[cand])]] = False
            if lp.any():
                late = self._late(emitted, lp.astype(np.int64))
                keep = ~lp
                tsi, gc = tsi[keep], gc[keep]
                is_user, is_asst = is_user[keep], is_asst[keep]
                if not len(tsi):
                    return late

        # batch mini-sessions: lexsort by (ts within key) + gap boundaries
        order = np.lexsort((tsi, gc))
        c_s, t_s = gc[order], tsi[order]
        new_sess = np.empty(len(c_s), dtype=bool)
        new_sess[0] = True
        new_sess[1:] = (c_s[1:] != c_s[:-1]) | ((t_s[1:] - t_s[:-1]) > self.gap)
        starts = np.flatnonzero(new_sess)
        ends_idx = np.append(starts[1:], len(c_s)) - 1
        kc, sv, ev, cnt, nu, na = (
            np.concatenate(p)
            for p in zip(self._open(), (
                c_s[starts], t_s[starts], t_s[ends_idx],
                np.diff(np.append(starts, len(c_s))),
                np.add.reduceat(is_user[order], starts),
                np.add.reduceat(is_asst[order], starts),
            ))
        )

        # merge open + batch sessions per key: textbook single-pass interval
        # merge — sorted by (key, start), a session chains onto the group iff
        # its start is within gap of the RUNNING max end of the group so far
        # (per-key cummax via pandas' cython grouped cummax; comparing only
        # against the previous element's end would need one pass per nested
        # session and silently mis-merge under a pass cap)
        import pandas as pd

        m = np.lexsort((sv, kc))
        kc, sv, ev = kc[m], sv[m], ev[m]
        cnt, nu, na = cnt[m], nu[m], na[m]
        cmax = pd.Series(ev).groupby(pd.Series(kc)).cummax().to_numpy()
        b = np.empty(len(kc), dtype=bool)
        b[0] = True
        b[1:] = (kc[1:] != kc[:-1]) | ((sv[1:] - cmax[:-1]) > self.gap)
        if not b.all():
            s2 = np.flatnonzero(b)
            kc, sv = kc[s2], sv[s2]
            ev = np.maximum.reduceat(ev, s2)
            cnt = np.add.reduceat(cnt, s2)
            nu = np.add.reduceat(nu, s2)
            na = np.add.reduceat(na, s2)
        self._set_open([kc, sv, ev, cnt, nu, na])
        return late

    def _merges_open(self, codes: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Whether an event (key code, ts) merges with an open session of
        its key: one overlaps [ts - gap, ts + gap]. Open sessions are
        gap-separated within a key, so only the key's last session with
        start <= ts + gap can. One searchsorted finds it for every event at
        once, over (code, start) as one int64: the code times the number of
        distinct starts, plus the start's rank among them."""
        q = ts + self.gap
        vals = np.unique(np.concatenate([self._start, q]))
        n = len(vals)
        j = np.searchsorted(self._kc * n + np.searchsorted(vals, self._start),
                            codes * n + np.searchsorted(vals, q), side="right") - 1
        jj = np.maximum(j, 0)
        return (j >= 0) & (self._kc[jj] == codes) & (self._end[jj] + self.gap >= ts)

    def _closed(self, horizon: int) -> np.ndarray:
        return self._end + self.gap < horizon

    def _rows(self, kc, sv, ev, cnt, nu, na) -> list:
        # per-key session ids continue from the last released session; the
        # closed subset is (kc, start)-sorted, so rank-within-key + offset
        b = np.empty(len(kc), dtype=bool)
        b[0] = True
        b[1:] = kc[1:] != kc[:-1]
        firsts = np.flatnonzero(b)
        sizes = np.diff(np.append(firsts, len(kc)))
        rank = np.arange(len(kc)) - np.repeat(firsts, sizes)
        sid = self.keys.next_sid[kc] + rank
        self.keys.next_sid[kc[firsts]] += sizes
        return [sid, sv, ev, cnt, nu, na]


class StreamJoiner:
    """Sequence-driven forward as-of join of role streams on the ordered
    emission (left=user pairs with the key's next right=assistant turn).

    The ordered processor guarantees per-key sequences are emitted strictly
    increasing ACROSS calls, so every pending left (carried between calls)
    precedes every sequence of the current batch for its key; within a batch
    a left's match is the first right-row after it in (key, seq) order."""

    def __init__(self, key: str = KEY, seq: str = SEQ,
                 left_role: str = "user", right_role: str = "assistant",
                 within_us: int | None = None):
        self.key = key
        self.seq = seq
        self.left_role = left_role
        self.right_role = right_role
        # event-time bound (parity with join_user_assistant's within_us):
        # a pair whose lag exceeds it is DROPPED, not kept pending — the
        # match is defined as the next right turn, bounded afterwards
        self.within_us = within_us
        # pending (unmatched) left turns, one row each; a key's rows stay in
        # arrival order
        self._pending = self._pending_schema().empty_table()
        self.watermark: int | None = None  # max event time seen (for gc)

    def _pending_schema(self) -> pa.Schema:
        return pa.schema([(self.key, pa.string()), ("turn_idx", pa.int64()),
                          ("text", pa.string()), ("ts", pa.int64())])

    def update(self, emitted: pa.Table, codes_kv=None) -> pa.Table:
        """Feed in-sequence emitted rows; returns newly-joined pairs."""
        cols = emitted.column_names
        if emitted.num_rows == 0 or "role" not in cols:
            return self._empty()
        codes, dictionary = codes_kv or _dict_codes(emitted[self.key])
        seqs = emitted[self.seq].to_numpy(zero_copy_only=False).astype(np.int64)
        has_text = "text" in cols
        has_ts = "ts" in cols
        tsi = (
            emitted["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            if has_ts
            else np.zeros(len(codes), dtype=np.int64)
        )
        if has_ts and len(tsi):
            mx = int(tsi.max())
            self.watermark = (
                mx if self.watermark is None else max(self.watermark, mx)
            )
        # emission is (key, seq)-grouped in epoch mode; re-sort defensively
        # (cheap integer lexsort) so group logic holds in every mode
        order = np.lexsort((seqs, codes))
        c = codes[order]
        s = seqs[order]
        isL = np.asarray(pc.equal(emitted["role"], self.left_role)).astype(bool)[order]
        isR = np.asarray(pc.equal(emitted["role"], self.right_role)).astype(bool)[order]

        ridx = np.flatnonzero(isR)
        lidx = np.flatnonzero(isL)
        # first right-row strictly after each left-row (positions are unique,
        # so searchsorted lands past the left itself); match only within key
        j = np.searchsorted(ridx, lidx)
        matched = np.zeros(len(lidx), dtype=bool)
        inb = j < len(ridx)
        matched[inb] = c[ridx[j[inb]]] == c[lidx[inb]]
        m_l = lidx[matched]
        m_r = ridx[j[matched]]

        o_l = order[m_l]
        o_r = order[m_r]
        key_col = (
            emitted[self.key].combine_chunks()
            if isinstance(emitted[self.key], pa.ChunkedArray)
            else emitted[self.key]
        )
        text_col = emitted["text"] if has_text else None

        def texts(rows: np.ndarray) -> pa.Array:
            if not has_text:
                return pa.array([""] * len(rows), pa.string())
            return text_col.take(pa.array(rows)).cast(pa.string())

        parts = []
        if len(m_l):
            parts.append(
                pa.table(
                    {
                        self.key: key_col.take(pa.array(o_l)),
                        "user_turn_idx": pa.array(s[m_l], pa.int32()),
                        "assistant_turn_idx": pa.array(s[m_r], pa.int32()),
                        "user_text": texts(o_l),
                        "assistant_text": texts(o_r),
                        "lag_us": pa.array(tsi[o_r] - tsi[o_l], pa.int64()),
                    },
                    schema=self._schema(),
                )
            )

        # carried-over pending lefts: every one precedes this batch's
        # sequences, so each pairs with its key's FIRST right in the batch;
        # pairs come out in batch key-code order, a key's lefts in arrival
        # order
        pend = self._pending
        if pend.num_rows and len(ridx):
            r_first_mask = np.empty(len(ridx), dtype=bool)
            r_first_mask[0] = True
            r_first_mask[1:] = c[ridx[1:]] != c[ridx[:-1]]
            first_r = ridx[r_first_mask]
            first_of = np.full(len(dictionary), -1, dtype=np.int64)
            first_of[c[first_r]] = first_r
            pcode = _i64(
                pc.index_in(pend[self.key], value_set=dictionary).fill_null(-1)
            )
            rp = np.where(pcode >= 0, first_of[pcode], -1)
            hit = rp >= 0
            if hit.any():
                hi = np.flatnonzero(hit)
                o = hi[np.argsort(pcode[hi], kind="stable")]
                r_orig = order[rp[o]]
                take = pa.array(o)
                parts.append(
                    pa.table(
                        {
                            self.key: pend[self.key].take(take),
                            "user_turn_idx": pa.array(
                                _i64(pend["turn_idx"])[o], pa.int32()
                            ),
                            "assistant_turn_idx": pa.array(
                                s[rp[o]], pa.int32()
                            ),
                            "user_text": pend["text"].take(take),
                            "assistant_text": texts(r_orig),
                            "lag_us": pa.array(
                                tsi[r_orig] - _i64(pend["ts"])[o], pa.int64()
                            ),
                        },
                        schema=self._schema(),
                    )
                )
                pend = pend.filter(pa.array(~hit))

        # unmatched lefts (no right after them in this batch) wait
        un = lidx[~matched]
        if len(un):
            o_un = order[un]
            new = pa.table(
                {
                    self.key: key_col.take(pa.array(o_un)).cast(pa.string()),
                    "turn_idx": pa.array(s[un], pa.int64()),
                    "text": texts(o_un),
                    "ts": pa.array(tsi[o_un], pa.int64()),
                },
                schema=self._pending_schema(),
            )
            pend = pa.concat_tables([pend, new])
        self._pending = pend.combine_chunks()

        if not parts:
            return self._empty()
        out = pa.concat_tables(parts) if len(parts) > 1 else parts[0]
        if self.within_us is not None and out.num_rows:
            out = out.filter(pc.less_equal(out["lag_us"], self.within_us))
        return out

    def _schema(self) -> pa.Schema:
        return pa.schema(
            [
                (self.key, pa.string()),
                ("user_turn_idx", pa.int32()),
                ("assistant_turn_idx", pa.int32()),
                ("user_text", pa.string()),
                ("assistant_text", pa.string()),
                ("lag_us", pa.int64()),
            ]
        )

    def _empty(self) -> pa.Table:
        return self._schema().empty_table()

    def gc(self, ttl_us: int) -> int:
        """Drop pending (unmatched) lefts older than the event-time TTL —
        they never join (the same outcome join_within_s would force once a
        right arrived), so the pending rows are bounded by the TTL horizon's
        live keyspace. Returns the number of evicted pending rows."""
        if self.watermark is None or not self._pending.num_rows:
            return 0
        keep = _i64(self._pending["ts"]) >= self.watermark - ttl_us
        evicted = int((~keep).sum())
        if evicted:
            self._pending = self._pending.filter(pa.array(keep))
        return evicted

    def state_size(self) -> dict:
        return {
            "keys": pc.count_distinct(self._pending[self.key]).as_py(),
            "pending": self._pending.num_rows,
        }

    def snapshot(self) -> dict:
        return {"watermark": self.watermark, "pending": self._pending}

    def restore(self, snap: dict) -> None:
        self._pending = snap["pending"].cast(self._pending_schema()).combine_chunks()
        self.watermark = snap["watermark"]



# ---------------------------------------------------------------------------
# the operator table: every kind the partition actor runs over its emission
# ---------------------------------------------------------------------------

# the sink shared by every kind with feeds_late; opened with late_data="drop"
LATE_SINK = "late"


@dataclass(frozen=True)
class OperatorKind:
    """One kind of operator over the ordered emission: its snapshot entry,
    its sink, and the config fields (besides key and seq) it is built from,
    recorded beside its snapshot. ``holds_open``: output can wait for a
    flush epoch. ``feeds_late``: ``update`` returns late rows, not output."""

    name: str
    sink: str
    enabled: Callable
    fields: tuple
    build: Callable
    holds_open: bool = False
    feeds_late: bool = False


def _matcher(cfg):
    from .cep import AbsenceMatcher, PatternMatcher

    kw = dict(within_us=int(cfg.pattern_within_s * _US) or None,
              end_role=cfg.last_value if cfg.last_col == "role" else None)
    if not cfg.absent_role:
        return PatternMatcher(list(cfg.pattern), cfg.key, cfg.seq, **kw)
    return AbsenceMatcher(list(cfg.pattern), cfg.absent_role, cfg.key, cfg.seq,
                          absent_within_us=int(cfg.absent_within_s * _US) or None,
                          lateness_us=int(cfg.pattern_lateness_s * _US), **kw)


def _book(cfg):
    from .book import BookOperator

    return BookOperator(cfg)


class UserStateOperator:
    """The one wrapper around a user state (userstate.py contract): one
    state per partition actor, fed each non-empty emitted batch, its keys
    evicted on their last event, its map checkpointed as the per-key
    ``state`` part."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.state = cfg.state_factory()

    def update(self, emitted: pa.Table, codes_kv=None) -> pa.Table | None:
        if not emitted.num_rows:
            return None
        out = self.state.update(emitted)
        # ≙ the reference's cleanup-on-isLastEvent (docs/pipeline-design.md:52-56)
        m = last_event_mask(emitted, self.cfg)
        if m is not None and m.any() and hasattr(self.state, "evict"):
            done = emitted[self.cfg.key].filter(pa.array(m))
            self.state.evict(pc.unique(done).to_pylist())
        return out

    def snapshot(self) -> dict:
        return {"state": self.state.snapshot()}

    def restore(self, snap: dict) -> None:
        self.state.restore(snap["state"])


OPERATOR_KINDS = (
    OperatorKind(
        "windows", "windows", lambda c: c.window_size_s > 0,
        ("window_size_s", "window_step_s", "window_lateness_s", "late_data"),
        lambda c: WindowAccumulator(c.window_size_s, c.key, "ts", c.window_lateness_s,
                                    step_s=c.window_step_s or None, late_data=c.late_data),
        holds_open=True, feeds_late=True),
    OperatorKind(
        "sessions", "sessions", lambda c: c.session_gap_s > 0,
        ("session_gap_s", "session_lateness_s", "late_data"),
        lambda c: SessionAccumulator(c.session_gap_s, c.key, "ts", c.session_lateness_s,
                                     late_data=c.late_data),
        holds_open=True, feeds_late=True),
    OperatorKind(
        "join", "joined", lambda c: c.stream_join, ("join_within_s",),
        lambda c: StreamJoiner(c.key, c.seq, within_us=int(c.join_within_s * _US) or None),
        holds_open=True),
    OperatorKind(
        "cep", "matches", lambda c: bool(c.pattern),
        ("pattern", "pattern_within_s", "absent_role", "absent_within_s", "pattern_lateness_s"),
        _matcher, holds_open=True),
    OperatorKind("book", "depth", lambda c: c.with_book, ("book_depth",), _book),
    OperatorKind("user", "user", lambda c: c.state_factory is not None, (), UserStateOperator),
)


def operator_kinds(cfg) -> list[OperatorKind]:
    """The kinds ``cfg`` enables, in table order."""
    return [k for k in OPERATOR_KINDS if k.enabled(cfg)]


def operator_sinks(cfg) -> list[str]:
    """The sinks the operators of ``cfg`` write, the late sink last."""
    kinds = operator_kinds(cfg)
    late = cfg.late_data == "drop" and any(k.feeds_late for k in kinds)
    return [k.sink for k in kinds] + [LATE_SINK] * late


def take_buffered(buf: list[pa.Table]) -> pa.Table | None:
    """Drain an output buffer in place: its rows as one table, or None."""
    tables = [t for t in buf if t.num_rows]
    buf.clear()
    if not tables:
        return None
    return pa.concat_tables(tables) if len(tables) > 1 else tables[0]


class Operator:
    """One operator as the partition actor runs it: the object its kind
    builds, the config values it was built with, and the ``update`` output
    no epoch has taken yet. The object has the built-ins' protocol:
    ``update(emitted, codes_kv)``, ``snapshot()``, ``restore(snap)``, and
    optionally ``take_closed(final)`` (output released at an epoch end),
    ``take_final()`` (output only the stream's end releases) and
    ``gc(ttl_us)`` / ``state_size()`` (keyed state under state_ttl_s)."""

    def __init__(self, kind: OperatorKind, cfg):
        self.kind = kind
        self.impl = kind.build(cfg)
        # as a checkpoint's JSON reads back (a tuple becomes a list)
        self.config = json.loads(json.dumps({f: getattr(cfg, f) for f in kind.fields}))
        self.output: list[pa.Table] = []

    def update(self, emitted: pa.Table, codes_kv, late: list[pa.Table]) -> None:
        got = self.impl.update(emitted, codes_kv)
        if got is not None:
            (late if self.kind.feeds_late else self.output).append(got)

    def take(self, final: bool) -> pa.Table | None:
        """This epoch's output (``final``: all still held); None: no part."""
        take_closed = getattr(self.impl, "take_closed", None)
        if take_closed is not None:
            return take_closed(final=final)
        if final and hasattr(self.impl, "take_final"):
            self.output.append(self.impl.take_final())
        return take_buffered(self.output)

    def snapshot(self) -> dict:
        return {**self.impl.snapshot(), **self.config}

    def restore(self, snap: dict) -> None:
        for f, value in self.config.items():
            if snap.get(f) != value:
                raise ValueError(
                    f"the checkpoint's {self.kind.name} operator was built with "
                    f"{f}={snap.get(f)!r}, this run has {f}={value!r}. Resume "
                    "with the checkpoint's value, or pass resume=False to restart."
                )
        self.impl.restore(snap)
        self.output.clear()
