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

Checkpoint form (shared with cep.py): ``snapshot()`` returns a flat dict of
JSON scalars (``watermark``) and Arrow tables that carry the operator's
string key column; checkpoint.py writes each table as Parquet and rescale.py
routes each table's rows by that column. A table named ``keys`` is an
intern table: one row per key in code order, open state as list columns.

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
from .state import last_event_mask

_US = 1_000_000


def _late_table(emitted: pa.Table, key: str, ts: str, operator: str,
                rows_idx: np.ndarray, dropped: np.ndarray) -> pa.Table:
    """Side-output rows for late data: the offending input rows with which
    operator dropped them and how many window assignments expired."""
    key_col = emitted[key]
    if isinstance(key_col, pa.ChunkedArray):
        key_col = key_col.combine_chunks()
    ts_col = emitted[ts].cast(pa.timestamp("us"))
    if isinstance(ts_col, pa.ChunkedArray):
        ts_col = ts_col.combine_chunks()
    idx = pa.array(rows_idx)
    return pa.table(
        {
            key: key_col.take(idx),
            "ts": ts_col.take(idx),
            "operator": pa.array([operator] * len(rows_idx), pa.string()),
            "dropped_windows": pa.array(dropped, pa.int64()),
        }
    )


def _dict_codes(col) -> tuple[np.ndarray, list]:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = pc.dictionary_encode(col)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    # to_numpy + tolist: an order of magnitude faster than to_pylist
    return (
        np.asarray(enc.indices).astype(np.int64),
        enc.dictionary.to_numpy(zero_copy_only=False).tolist(),
    )


def _i64(col) -> np.ndarray:
    """A writable int64 copy of an Arrow column (restored state is mutated
    in place, and Arrow-backed numpy views are read-only)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return np.array(col.to_numpy(zero_copy_only=False), dtype=np.int64)


def _keys_table(key: str, names: list[str], per_key: dict, kc: np.ndarray,
                per_item: dict) -> pa.Table:
    """Intern table of a code-sorted operator state: one row per key in code
    order (the intern order decides the sinks' byte order, so it must
    survive a resume), its per-key arrays, and its open items as list
    columns sliced by the sorted codes."""
    offsets = pa.array(np.searchsorted(kc, np.arange(len(names) + 1)), pa.int32())
    cols = {key: pa.array(names, pa.string())}
    cols.update({c: pa.array(v, pa.int64()) for c, v in per_key.items()})
    cols.update({
        c: pa.ListArray.from_arrays(offsets, pa.array(v, pa.int64()))
        for c, v in per_item.items()
    })
    return pa.table(cols)


def _from_keys_table(t: pa.Table, key: str, per_key: tuple, per_item: tuple):
    """Inverse of ``_keys_table``: (names, per-key arrays, item codes,
    per-item arrays); codes follow row order."""
    names = t[key].to_pylist()
    lists = {c: t[c].combine_chunks() for c in per_item}
    lengths = _i64(pc.list_value_length(lists[per_item[0]]))
    kc = np.repeat(np.arange(len(names), dtype=np.int64), lengths)
    return (
        names,
        {c: _i64(t[c]) for c in per_key},
        kc,
        {c: _i64(v.flatten()) for c, v in lists.items()},
    )


class WindowAccumulator:
    """Tumbling/sliding event-time windows with watermark-gated emission.

    ``step_s`` defaults to the window size (tumbling); a smaller step gives
    sliding windows: each row is exploded (vectorized) into the
    ceil(size/step) hops containing it, after which the state machinery is
    identical.

    Open-window state is COLUMNAR: parallel numpy arrays sorted by
    (key_code, window_start), merged with each batch's per-group partial
    aggregates by one lexsort + reduceat. Per-row / per-group Python is
    avoided entirely (worst case — every turn its own window — degenerates
    to a vectorized array merge, not a million dict operations); Python
    touches only newly-seen KEYS (string interning)."""

    def __init__(self, size_s: float, key: str = KEY, ts: str = "ts",
                 allowed_lateness_s: float = 0.0, step_s: float | None = None,
                 late_data: str = "merge"):
        self.size = int(size_s * _US)
        self.step = int(step_s * _US) if step_s else self.size
        if not (0 < self.step <= self.size):
            raise ValueError("window step must be in (0, size]")
        if late_data not in ("merge", "drop"):
            raise ValueError("late_data must be 'merge' or 'drop'")
        self.key = key
        self.ts = ts
        self.lateness = int(allowed_lateness_s * _US)
        # "merge": a contribution to an already-released window re-opens it
        #   and re-fires a partial row (downstream must aggregate; today's
        #   default). "drop": expired (row, window) contributions are routed
        #   to a late side output instead — Flink's allowedLateness +
        #   sideOutputLateData semantics; each (key, window) fires at most
        #   once.
        self.late_data = late_data
        self.watermark: int | None = None
        self._intern: dict[str, int] = {}   # key -> global code
        self._names: list[str] = []         # global code -> key
        z = np.zeros(0, dtype=np.int64)
        # sorted by (kc, ws)
        self._kc, self._ws = z, z.copy()
        self._cnt, self._nu, self._na = z.copy(), z.copy(), z.copy()
        self._key_last = z.copy()           # per code: last activity (event time)

    def update(self, emitted: pa.Table, codes_kv=None) -> pa.Table | None:
        """Merge a batch of in-sequence emitted rows; with
        ``late_data="drop"`` returns the late side-output rows (or None)."""
        if emitted.num_rows == 0 or self.ts not in emitted.column_names:
            return None
        tsi = emitted[self.ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
        # callers co-located with the drain can pass the key encode through
        codes, key_values = codes_kv or _dict_codes(emitted[self.key])
        if "role" in emitted.column_names:
            is_user = np.asarray(pc.equal(emitted["role"], "user"))
            is_asst = np.asarray(pc.equal(emitted["role"], "assistant"))
        else:
            is_user = is_asst = np.zeros(len(codes), dtype=bool)

        # local dictionary codes -> stable global codes (intern new keys)
        intern, names = self._intern, self._names
        glob = np.empty(len(key_values), dtype=np.int64)
        for i, kv in enumerate(key_values):
            g = intern.get(kv)
            if g is None:
                g = len(names)
                intern[kv] = g
                names.append(kv)
            glob[i] = g
        if len(names) > len(self._key_last):
            grown = np.zeros(len(names), dtype=np.int64)
            grown[: len(self._key_last)] = self._key_last
            self._key_last = grown
        gc = glob[codes]
        np.maximum.at(self._key_last, gc, tsi)

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
            rep = np.repeat(np.arange(len(gc)), n_w)[flat]
            gc, is_user, is_asst = gc[rep], is_user[rep], is_asst[rep]

        # late-data drop: a (row, window) contribution whose window already
        # released (take_closed's criterion, against the watermark BEFORE
        # this batch) is diverted to the side output instead of re-opening
        # the window (≙ Flink allowedLateness + sideOutputLateData)
        late = None
        if self.late_data == "drop" and self.watermark is not None:
            lp = ws + self.size <= self.watermark - self.lateness
            if lp.any():
                dropped = (
                    lp.astype(np.int64)
                    if rep is None
                    else np.bincount(rep[lp], minlength=len(tsi))
                )
                rl = np.flatnonzero(dropped)
                late = _late_table(
                    emitted, self.key, self.ts, "windows", rl, dropped[rl]
                )
                keep = ~lp
                ws, gc = ws[keep], gc[keep]
                is_user, is_asst = is_user[keep], is_asst[keep]
                if not len(ws):
                    self.watermark = max(self.watermark, int(tsi.max()))
                    return late

        # per-(key, window) partial aggregates: lexsort + boundary + reduceat
        order = np.lexsort((ws, gc))
        c_s, w_s = gc[order], ws[order]
        boundary = np.empty(len(c_s), dtype=bool)
        boundary[0] = True
        boundary[1:] = (c_s[1:] != c_s[:-1]) | (w_s[1:] != w_s[:-1])
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.append(starts, len(c_s)))
        nu = np.add.reduceat(is_user[order], starts)
        na = np.add.reduceat(is_asst[order], starts)

        # merge into the open-window arrays (both sides sorted): concat,
        # lexsort, collapse duplicate (kc, ws) pairs by reduceat
        kc = np.concatenate([self._kc, c_s[starts]])
        wv = np.concatenate([self._ws, w_s[starts]])
        cnt = np.concatenate([self._cnt, counts])
        nuv = np.concatenate([self._nu, nu])
        nav = np.concatenate([self._na, na])
        m = np.lexsort((wv, kc))
        kc, wv, cnt, nuv, nav = kc[m], wv[m], cnt[m], nuv[m], nav[m]
        if len(kc):
            b2 = np.empty(len(kc), dtype=bool)
            b2[0] = True
            b2[1:] = (kc[1:] != kc[:-1]) | (wv[1:] != wv[:-1])
            s2 = np.flatnonzero(b2)
            self._kc, self._ws = kc[s2], wv[s2]
            self._cnt = np.add.reduceat(cnt, s2)
            self._nu = np.add.reduceat(nuv, s2)
            self._na = np.add.reduceat(nav, s2)
        mx = int(tsi.max())
        self.watermark = mx if self.watermark is None else max(self.watermark, mx)
        return late

    def take_closed(self, final: bool = False) -> pa.Table:
        """Release windows whose end precedes the watermark (or everything on
        final flush)."""
        if self.watermark is None or not len(self._kc):
            return self._empty()
        horizon = self.watermark - self.lateness
        closed = (
            np.ones(len(self._kc), dtype=bool)
            if final
            else self._ws + self.size <= horizon
        )
        if not closed.any():
            return self._empty()
        keep = ~closed
        kc, ws_arr = self._kc[closed], self._ws[closed]
        out = pa.table(
            {
                self.key: pc.take(
                    pa.array(self._names, pa.string()), pa.array(kc)
                ),
                "window_start": pa.array(ws_arr, pa.int64()).cast(pa.timestamp("us")),
                "window_end": pa.array(ws_arr + self.size, pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "turn_count": pa.array(self._cnt[closed], pa.int64()),
                "n_user": pa.array(self._nu[closed], pa.int64()),
                "n_assistant": pa.array(self._na[closed], pa.int64()),
            }
        )
        self._kc, self._ws = self._kc[keep], self._ws[keep]
        self._cnt, self._nu, self._na = (
            self._cnt[keep], self._nu[keep], self._na[keep],
        )
        return out

    def gc(self, ttl_us: int) -> int:
        """Evict keys idle past the event-time TTL and with no open window
        (≙ Beam/Flink keyed-state GC on window expiry — without it the
        intern table grows with every key ever seen on an unbounded
        keyspace). Codes compact monotonically, so the open-window arrays
        stay sorted. Deterministic given (state, watermark): called at
        epoch boundaries before the checkpoint, a crash-resume replays the
        same evictions. Returns the number of evicted keys."""
        if self.watermark is None or not len(self._names):
            return 0
        horizon = self.watermark - ttl_us
        keep_mask = self._key_last >= horizon
        keep_mask[self._kc] = True  # open windows pin their key
        if keep_mask.all():
            return 0
        new_codes = np.cumsum(keep_mask) - 1
        keep_idx = np.flatnonzero(keep_mask)
        self._names = [self._names[i] for i in keep_idx]
        self._intern = {k: i for i, k in enumerate(self._names)}
        self._key_last = self._key_last[keep_idx]
        self._kc = new_codes[self._kc]
        return int(len(keep_mask) - len(keep_idx))

    def state_size(self) -> dict:
        return {"keys": len(self._names), "open": int(len(self._kc))}

    def _empty(self) -> pa.Table:
        return pa.table(
            {
                self.key: pa.array([], pa.string()),
                "window_start": pa.array([], pa.timestamp("us")),
                "window_end": pa.array([], pa.timestamp("us")),
                "turn_count": pa.array([], pa.int64()),
                "n_user": pa.array([], pa.int64()),
                "n_assistant": pa.array([], pa.int64()),
            }
        )

    def snapshot(self) -> dict:
        # the FULL intern table rides along: emission order in take_closed
        # follows key codes, so codes must survive resume even for keys
        # whose windows all closed before the checkpoint — else a re-run
        # epoch's part file is not byte-identical to the committed one
        return {
            "watermark": self.watermark,
            "keys": _keys_table(
                self.key, self._names, {"last": self._key_last}, self._kc,
                {"ws": self._ws, "cnt": self._cnt, "nu": self._nu,
                 "na": self._na},
            ),
        }

    def restore(self, snap: dict) -> None:
        self.watermark = snap["watermark"]
        names, per_key, kc, items = _from_keys_table(
            snap["keys"], self.key, ("last",), ("ws", "cnt", "nu", "na")
        )
        self._names = names
        self._intern = dict(zip(names, range(len(names))))
        self._key_last = per_key["last"]
        self._kc, self._ws = kc, items["ws"]
        self._cnt, self._nu, self._na = items["cnt"], items["nu"], items["na"]


class SessionAccumulator:
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
    disorder when batch/stream equality matters."""

    def __init__(self, gap_s: float, key: str = KEY, ts: str = "ts",
                 allowed_lateness_s: float = 0.0, late_data: str = "merge"):
        self.gap = int(gap_s * _US)
        self.key = key
        self.ts = ts
        self.lateness = int(allowed_lateness_s * _US)
        if late_data not in ("merge", "drop"):
            raise ValueError("late_data must be 'merge' or 'drop'")
        # "drop": an event whose singleton session [ts, ts] would already be
        # releasable (ts + gap behind the watermark horizon) goes to the
        # late side output instead of opening a new out-of-order session —
        # Flink's session-window lateness rule (the element's initial
        # window is late => drop), which also removes the session_id
        # release-order caveat below for late events.
        self.late_data = late_data
        self.watermark: int | None = None
        self._intern: dict[str, int] = {}
        self._names: list[str] = []
        z = np.zeros(0, dtype=np.int64)
        # open sessions, sorted by (kc, start)
        self._kc, self._start, self._end = z, z.copy(), z.copy()
        self._cnt, self._nu, self._na = z.copy(), z.copy(), z.copy()
        self._next_sid = z.copy()   # per key code: next session_id to emit
        self._key_last = z.copy()   # per code: last activity (event time)

    def update(self, emitted: pa.Table, codes_kv=None) -> pa.Table | None:
        """Merge a batch of in-sequence emitted rows; with
        ``late_data="drop"`` returns the late side-output rows (or None)."""
        if emitted.num_rows == 0 or self.ts not in emitted.column_names:
            return None
        tsi = emitted[self.ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
        codes, key_values = codes_kv or _dict_codes(emitted[self.key])
        if "role" in emitted.column_names:
            is_user = np.asarray(pc.equal(emitted["role"], "user"))
            is_asst = np.asarray(pc.equal(emitted["role"], "assistant"))
        else:
            is_user = is_asst = np.zeros(len(codes), dtype=bool)

        intern, names = self._intern, self._names
        glob = np.empty(len(key_values), dtype=np.int64)
        for i, kv in enumerate(key_values):
            g = intern.get(kv)
            if g is None:
                g = len(names)
                intern[kv] = g
                names.append(kv)
            glob[i] = g
        if len(names) > len(self._next_sid):
            grown = np.zeros(len(names), dtype=np.int64)
            grown[: len(self._next_sid)] = self._next_sid
            self._next_sid = grown
        if len(names) > len(self._key_last):
            grown = np.zeros(len(names), dtype=np.int64)
            grown[: len(self._key_last)] = self._key_last
            self._key_last = grown
        gc = glob[codes]
        np.maximum.at(self._key_last, gc, tsi)

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
                # a candidate merges iff an open session of its key overlaps
                # [ts-gap, ts+gap]; open sessions are gap-separated within a
                # key, so only the last session with start <= ts+gap can
                # (per-unique-key loop: late keys are the exceptional few)
                cand = np.flatnonzero(lp)
                cg, ct = gc[cand], tsi[cand]
                merge_ok = np.zeros(len(cand), dtype=bool)
                for g in np.unique(cg):
                    lo = np.searchsorted(self._kc, g, side="left")
                    hi = np.searchsorted(self._kc, g, side="right")
                    if lo == hi:
                        continue
                    m = cg == g
                    t = ct[m]
                    j = lo + np.searchsorted(
                        self._start[lo:hi], t + self.gap, side="right"
                    ) - 1
                    ok = j >= lo
                    jj = np.where(ok, j, lo)
                    ok &= self._end[jj] + self.gap >= t
                    merge_ok[m] = ok
                lp[cand[merge_ok]] = False
            if lp.any():
                rl = np.flatnonzero(lp)
                late = _late_table(
                    emitted, self.key, self.ts, "sessions", rl,
                    np.ones(len(rl), dtype=np.int64),
                )
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
        kc = np.concatenate([self._kc, c_s[starts]])
        sv = np.concatenate([self._start, t_s[starts]])
        ev = np.concatenate([self._end, t_s[ends_idx]])
        cnt = np.concatenate([self._cnt, np.diff(np.append(starts, len(c_s)))])
        nu = np.concatenate([self._nu, np.add.reduceat(is_user[order], starts)])
        na = np.concatenate([self._na, np.add.reduceat(is_asst[order], starts)])

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
        self._kc, self._start, self._end = kc, sv, ev
        self._cnt, self._nu, self._na = cnt, nu, na
        mx = int(tsi.max())
        self.watermark = mx if self.watermark is None else max(self.watermark, mx)
        return late

    def take_closed(self, final: bool = False) -> pa.Table:
        if self.watermark is None or not len(self._kc):
            return self._empty()
        horizon = self.watermark - self.lateness
        closed = (
            np.ones(len(self._kc), dtype=bool)
            if final
            else self._end + self.gap < horizon
        )
        if not closed.any():
            return self._empty()
        keep = ~closed
        kc, sv, ev = self._kc[closed], self._start[closed], self._end[closed]
        cnt, nu, na = self._cnt[closed], self._nu[closed], self._na[closed]
        # per-key session ids continue from the last released session; the
        # closed subset is (kc, start)-sorted, so rank-within-key + offset
        b = np.empty(len(kc), dtype=bool)
        b[0] = True
        b[1:] = kc[1:] != kc[:-1]
        firsts = np.flatnonzero(b)
        key_first = np.repeat(firsts, np.diff(np.append(firsts, len(kc))))
        rank = np.arange(len(kc)) - key_first
        sid = self._next_sid[kc] + rank
        self._next_sid[kc[firsts]] += np.diff(np.append(firsts, len(kc)))
        out = pa.table(
            {
                self.key: pc.take(pa.array(self._names, pa.string()), pa.array(kc)),
                "session_id": pa.array(sid, pa.int64()),
                "session_start": pa.array(sv, pa.int64()).cast(pa.timestamp("us")),
                "session_end": pa.array(ev, pa.int64()).cast(pa.timestamp("us")),
                "turn_count": pa.array(cnt, pa.int64()),
                "n_user": pa.array(nu, pa.int64()),
                "n_assistant": pa.array(na, pa.int64()),
            }
        )
        self._kc, self._start, self._end = self._kc[keep], self._start[keep], self._end[keep]
        self._cnt, self._nu, self._na = self._cnt[keep], self._nu[keep], self._na[keep]
        return out

    def gc(self, ttl_us: int) -> int:
        """Evict keys idle past the event-time TTL and with no open
        session. An evicted key's ``next_sid`` is dropped with it — if the
        key returns after the TTL its session_id restarts at 0 (the
        standard keyed-state-TTL trade-off; Flink state TTL behaves the
        same). Deterministic given (state, watermark) — see
        WindowAccumulator.gc. Returns the number of evicted keys."""
        if self.watermark is None or not len(self._names):
            return 0
        horizon = self.watermark - ttl_us
        keep_mask = self._key_last >= horizon
        keep_mask[self._kc] = True  # open sessions pin their key
        if keep_mask.all():
            return 0
        new_codes = np.cumsum(keep_mask) - 1
        keep_idx = np.flatnonzero(keep_mask)
        self._names = [self._names[i] for i in keep_idx]
        self._intern = {k: i for i, k in enumerate(self._names)}
        self._key_last = self._key_last[keep_idx]
        self._next_sid = self._next_sid[keep_idx]
        self._kc = new_codes[self._kc]
        return int(len(keep_mask) - len(keep_idx))

    def state_size(self) -> dict:
        return {"keys": len(self._names), "open": int(len(self._kc))}

    def _empty(self) -> pa.Table:
        return pa.table(
            {
                self.key: pa.array([], pa.string()),
                "session_id": pa.array([], pa.int64()),
                "session_start": pa.array([], pa.timestamp("us")),
                "session_end": pa.array([], pa.timestamp("us")),
                "turn_count": pa.array([], pa.int64()),
                "n_user": pa.array([], pa.int64()),
                "n_assistant": pa.array([], pa.int64()),
            }
        )

    def snapshot(self) -> dict:
        return {
            "watermark": self.watermark,
            "keys": _keys_table(
                self.key, self._names,
                {"next_sid": self._next_sid, "last": self._key_last},
                self._kc,
                {"start": self._start, "end": self._end, "cnt": self._cnt,
                 "nu": self._nu, "na": self._na},
            ),
        }

    def restore(self, snap: dict) -> None:
        self.watermark = snap["watermark"]
        names, per_key, kc, items = _from_keys_table(
            snap["keys"], self.key, ("next_sid", "last"),
            ("start", "end", "cnt", "nu", "na"),
        )
        self._names = names
        self._intern = dict(zip(names, range(len(names))))
        self._next_sid, self._key_last = per_key["next_sid"], per_key["last"]
        self._kc, self._start, self._end = kc, items["start"], items["end"]
        self._cnt, self._nu, self._na = items["cnt"], items["nu"], items["na"]


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
        codes, key_values = codes_kv or _dict_codes(emitted[self.key])
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
            first_of = np.full(len(key_values), -1, dtype=np.int64)
            first_of[c[first_r]] = first_r
            pcode = _i64(
                pc.index_in(
                    pend[self.key], value_set=pa.array(key_values, pa.string())
                ).fill_null(-1)
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
