"""CEP sequence-pattern detection over ordered turn streams.

Owned by our engine design (the north rule frames the engine as a
structured-streaming / CEP engine; the reference itself has no pattern
operator — its ordered guarantee is exactly what makes one possible):
detect occurrences of a fixed role/event-type sequence on CONSECUTIVE turns
of one conversation, optionally bounded by event time
(``ts[last] - ts[first] <= within_us``).

Because per-key sequences are dense post-dedup (turn_idx is a per-key
row_number), a match is fully characterized by two vectorized conditions on
the (key, seq)-lexsorted stream: every offset j carries pattern[j]'s role,
and ``seq[i+L-1] - seq[i] == L-1`` with ``key[i+L-1] == key[i]`` (strictly
increasing seqs within a key make intermediate rows both same-key and
consecutive automatically). No per-row Python, no NFA needed for
fixed-length patterns.

Two surfaces:
- ``match_pattern(ds, pattern)``: batch operator — one hash exchange on the
  key, per-partition vectorized scan.
- ``PatternMatcher``: the streaming counterpart riding the ordered emission
  inside the state actors (stream_ops-style); it carries the last L-1 turns
  per key between calls so matches spanning epoch boundaries are found
  exactly once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .schema import KEY, SEQ

MATCH_COLUMNS = ["start_seq", "end_seq", "start_ts", "end_ts"]


def _find_matches(
    key_col: pa.Array,
    sq: np.ndarray,
    role_col: pa.Array,
    tsi: np.ndarray | None,
    pattern: list[str],
    within_us: int | None,
) -> np.ndarray:
    """Start indices of pattern matches in a (key, seq)-lexsorted stream.
    ``key_col``/``role_col`` are Arrow (string compares stay in C)."""
    L = len(pattern)
    n = len(sq)
    if n < L:
        return np.zeros(0, dtype=np.int64)
    m = n - L + 1
    base = np.ones(m, dtype=bool)
    for j, want in enumerate(pattern):
        base &= np.asarray(pc.equal(role_col, want)).astype(bool)[j : m + j]
    base &= (sq[L - 1 :] - sq[:m]) == (L - 1)
    base &= np.asarray(
        pc.equal(key_col.slice(L - 1, m), key_col.slice(0, m))
    ).astype(bool)
    if within_us is not None and tsi is not None:
        base &= (tsi[L - 1 :] - tsi[:m]) <= within_us
    return np.flatnonzero(base)


def _matches_table(
    key_col, sq, tsi, starts: np.ndarray, L: int, key_name: str
) -> pa.Table:
    ends = starts + L - 1
    return pa.table(
        {
            key_name: key_col.take(pa.array(starts)),
            "start_seq": pa.array(sq[starts].astype(np.int64), pa.int64()),
            "end_seq": pa.array(sq[ends].astype(np.int64), pa.int64()),
            "start_ts": pa.array(tsi[starts], pa.int64()).cast(pa.timestamp("us")),
            "end_ts": pa.array(tsi[ends], pa.int64()).cast(pa.timestamp("us")),
        }
    )


def _empty_matches(key_name: str) -> pa.Table:
    return pa.table(
        {
            key_name: pa.array([], pa.string()),
            "start_seq": pa.array([], pa.int64()),
            "end_seq": pa.array([], pa.int64()),
            "start_ts": pa.array([], pa.timestamp("us")),
            "end_ts": pa.array([], pa.timestamp("us")),
        }
    )


def match_pattern(
    ds,
    pattern: list[str],
    key: str = KEY,
    seq: str = SEQ,
    role: str = "role",
    ts: str = "ts",
    within_us: int | None = None,
    num_partitions: int | None = None,
):
    """Batch CEP: all occurrences of ``pattern`` on consecutive turns per
    key. Returns a Dataset of (key, start_seq, end_seq, start_ts, end_ts).

    Scale shape: project to the four needed columns BEFORE the exchange,
    one hash shuffle on the key, vectorized per-partition scan."""
    import ray
    import ray.data

    from .exchange import shard_refs

    pattern = list(pattern)
    L = len(pattern)
    if L < 1:
        raise ValueError("pattern must be non-empty")

    @ray.remote
    def scan(*shards: pa.Table) -> pa.Table:
        real = [t for t in shards if t.num_rows]
        if not real:
            return _empty_matches(key)
        tbl = (
            pa.concat_tables(real, promote_options="none")
            if len(real) > 1
            else real[0]
        )
        kc_enc = pc.dictionary_encode(
            tbl[key].combine_chunks()
            if isinstance(tbl[key], pa.ChunkedArray)
            else tbl[key]
        )
        if isinstance(kc_enc, pa.ChunkedArray):
            kc_enc = kc_enc.combine_chunks()
        codes = np.asarray(kc_enc.indices).astype(np.int64)
        sq = tbl[seq].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((sq, codes))
        tbl = tbl.take(pa.array(order))
        key_col = (
            tbl[key].combine_chunks()
            if isinstance(tbl[key], pa.ChunkedArray)
            else tbl[key]
        )
        role_col = (
            tbl[role].combine_chunks()
            if isinstance(tbl[role], pa.ChunkedArray)
            else tbl[role]
        )
        sq = sq[order]
        tsi = tbl[ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
        starts = _find_matches(key_col, sq, role_col, tsi, pattern, within_us)
        if not len(starts):
            return _empty_matches(key)
        return _matches_table(key_col, sq, tsi, starts, L, key)

    from .exchange import default_partitions

    P = num_partitions or default_partitions()
    proj = ds.select_columns([key, seq, role, ts])
    groups = shard_refs(list(proj.to_arrow_refs()), key, P)
    out = [scan.remote(*[g[p] for g in groups]) for p in range(P)]
    return ray.data.from_arrow_refs(out)


def _absent_suffix_min(
    codes: np.ndarray, tsi: np.ndarray, absent_mask: np.ndarray
) -> np.ndarray:
    """Per-key suffix minimum of ``tsi`` over absent-role rows in a
    (key, seq)-lexsorted stream: out[i] = min ts of any absent row j >= i
    with codes[j] == codes[i] (int64 max when none). Vectorized via a
    reversed grouped cummin (pandas' cummin is C, no per-row Python)."""
    import pandas as pd

    arr = np.where(absent_mask, tsi, np.iinfo(np.int64).max)
    rev = pd.Series(arr[::-1])
    out = rev.groupby(codes[::-1], sort=False).cummin().to_numpy()[::-1]
    return out


def _surviving_negation(
    codes: np.ndarray,
    tsi: np.ndarray,
    absent_mask: np.ndarray,
    ends: np.ndarray,
    absent_within_us: int | None,
) -> np.ndarray:
    """Boolean per match end index: True when NO same-key absent-role row
    exists strictly after the end row with ts <= end_ts + absent_within_us
    (any later ts when the bound is None)."""
    n = len(codes)
    if n == 0 or not len(ends):
        return np.ones(len(ends), dtype=bool)
    suffmin = _absent_suffix_min(codes, tsi, absent_mask)
    nxt = ends + 1
    has_next = nxt < n
    nxt_clip = np.minimum(nxt, n - 1)
    same_key = has_next & (codes[nxt_clip] == codes[ends])
    bound = (
        np.full(len(ends), np.iinfo(np.int64).max)
        if absent_within_us is None
        else tsi[ends] + absent_within_us
    )
    # int64.max is the "no absent row in this suffix" sentinel — never a
    # real violation even against an unbounded window
    violated = (
        same_key
        & (suffmin[nxt_clip] != np.iinfo(np.int64).max)
        & (suffmin[nxt_clip] <= bound)
    )
    return ~violated


def match_absence(
    ds,
    pattern: list[str],
    absent_role: str,
    key: str = KEY,
    seq: str = SEQ,
    role: str = "role",
    ts: str = "ts",
    within_us: int | None = None,
    absent_within_us: int | None = None,
    num_partitions: int | None = None,
):
    """Batch CEP negation (Flink's ``notFollowedBy`` with a time bound):
    occurrences of ``pattern`` on consecutive turns per key that are NOT
    followed — at any later turn of the same key — by a turn with role
    ``absent_role`` whose ts <= end_ts + absent_within_us (unbounded when
    None). The canonical "abandoned cart": view->click with no purchase
    within the window.

    Scale shape mirrors match_pattern: 4-column projection, ONE hash
    exchange on the key, per-partition vectorized scan; the negation check
    is a per-key suffix-min over absent rows (no per-row Python, exact
    regardless of ts/seq monotonicity)."""
    import ray
    import ray.data

    from .exchange import default_partitions, shard_refs

    pattern = list(pattern)
    L = len(pattern)
    if L < 1:
        raise ValueError("pattern must be non-empty")
    if not absent_role:
        raise ValueError("absent_role must be non-empty")

    @ray.remote
    def scan(*shards: pa.Table) -> pa.Table:
        real = [t for t in shards if t.num_rows]
        if not real:
            return _empty_matches(key)
        tbl = (
            pa.concat_tables(real, promote_options="none")
            if len(real) > 1
            else real[0]
        )
        kc_enc = pc.dictionary_encode(
            tbl[key].combine_chunks()
            if isinstance(tbl[key], pa.ChunkedArray)
            else tbl[key]
        )
        if isinstance(kc_enc, pa.ChunkedArray):
            kc_enc = kc_enc.combine_chunks()
        codes = np.asarray(kc_enc.indices).astype(np.int64)
        sq = tbl[seq].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((sq, codes))
        tbl = tbl.take(pa.array(order))
        codes = codes[order]
        sq = sq[order]
        key_col = (
            tbl[key].combine_chunks()
            if isinstance(tbl[key], pa.ChunkedArray)
            else tbl[key]
        )
        role_col = (
            tbl[role].combine_chunks()
            if isinstance(tbl[role], pa.ChunkedArray)
            else tbl[role]
        )
        tsi = tbl[ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
        starts = _find_matches(key_col, sq, role_col, tsi, pattern, within_us)
        if not len(starts):
            return _empty_matches(key)
        absent_mask = np.asarray(pc.equal(role_col, absent_role)).astype(bool)
        keep = _surviving_negation(
            codes, tsi, absent_mask, starts + L - 1, absent_within_us
        )
        starts = starts[keep]
        if not len(starts):
            return _empty_matches(key)
        return _matches_table(key_col, sq, tsi, starts, L, key)

    P = num_partitions or default_partitions()
    proj = ds.select_columns([key, seq, role, ts])
    groups = shard_refs(list(proj.to_arrow_refs()), key, P)
    out = [scan.remote(*[g[p] for g in groups]) for p in range(P)]
    return ray.data.from_arrow_refs(out)


class PatternMatcher:
    """Streaming CEP riding the in-sequence emission (stream_ops-style;
    lives inside the ordered state actors, same key partitioning => no extra
    shuffle). Carries the trailing L-1 turns of every key between calls as a
    small columnar table; a match is emitted exactly once, in the call whose
    batch contains its LAST row."""

    def __init__(self, pattern: list[str], key: str = KEY, seq: str = SEQ,
                 role: str = "role", ts: str = "ts",
                 within_us: int | None = None, end_role: str | None = None):
        self.pattern = list(pattern)
        if not self.pattern:
            raise ValueError("pattern must be non-empty")
        self.key = key
        self.seq = seq
        self.role = role
        self.ts = ts
        self.within_us = within_us
        # carry cleanup (≙ EventExaminer.isLastEvent): once a key's terminal
        # turn passes, no further turns can arrive, so its carried tail is
        # dropped — without this the carry grows with every key ever seen
        self.end_role = end_role
        self._carry: pa.Table | None = None  # (key, seq, role, ts) per-key tail
        self.watermark: int | None = None    # max event time seen (for gc)

    def _carry_schema(self) -> pa.Schema:
        return pa.schema([(self.key, pa.string()), (self.seq, pa.int64()),
                          (self.role, pa.string()),
                          (self.ts, pa.timestamp("us"))])

    def _project(self, t: pa.Table) -> pa.Table:
        # normalized dtypes so carry/batch concat and restore round-trip
        return t.select(self._carry_schema().names).cast(self._carry_schema())

    def update(self, emitted: pa.Table, codes_kv=None) -> pa.Table:
        if emitted.num_rows == 0 or not {self.role, self.ts} <= set(
            emitted.column_names
        ):
            return _empty_matches(self.key)
        L = len(self.pattern)
        new = self._project(emitted)
        n_carry = self._carry.num_rows if self._carry is not None else 0
        comb = (
            pa.concat_tables([self._carry, new], promote_options="none")
            if n_carry
            else new
        )
        is_new = np.zeros(comb.num_rows, dtype=bool)
        is_new[n_carry:] = True

        kc_enc = pc.dictionary_encode(comb[self.key].combine_chunks()
                                      if isinstance(comb[self.key], pa.ChunkedArray)
                                      else comb[self.key])
        if isinstance(kc_enc, pa.ChunkedArray):
            kc_enc = kc_enc.combine_chunks()
        codes = np.asarray(kc_enc.indices).astype(np.int64)
        sq = comb[self.seq].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((sq, codes))
        comb = comb.take(pa.array(order))
        codes, sq, is_new = codes[order], sq[order], is_new[order]
        key_col = (comb[self.key].combine_chunks()
                   if isinstance(comb[self.key], pa.ChunkedArray)
                   else comb[self.key])
        role_col = (comb[self.role].combine_chunks()
                    if isinstance(comb[self.role], pa.ChunkedArray)
                    else comb[self.role])
        tsi = comb[self.ts].cast(pa.int64()).to_numpy(zero_copy_only=False)

        starts = _find_matches(key_col, sq, role_col, tsi, self.pattern,
                               self.within_us)
        # exactly-once across calls: only matches ENDING in a new row
        starts = starts[is_new[starts + L - 1]]
        out = (
            _matches_table(key_col, sq, tsi, starts, L, self.key)
            if len(starts)
            else _empty_matches(self.key)
        )

        # trailing L-1 rows per key become the next carry
        if L > 1 and len(codes):
            b = np.empty(len(codes), dtype=bool)
            b[:-1] = codes[1:] != codes[:-1]
            b[-1] = True
            lasts = np.flatnonzero(b)
            firsts = np.concatenate([[0], lasts[:-1] + 1])
            reps = lasts - firsts + 1
            last_of_key = np.repeat(lasts, reps)
            keep = (last_of_key - np.arange(len(codes))) < (L - 1)
            if self.end_role is not None:
                ended = np.asarray(
                    pc.equal(role_col.take(pa.array(lasts)), self.end_role)
                ).astype(bool)
                keep &= ~np.repeat(ended, reps)
            self._carry = comb.take(pa.array(np.flatnonzero(keep)))
        else:
            self._carry = None
        if len(tsi):
            mx = int(tsi.max())
            self.watermark = (
                mx if self.watermark is None else max(self.watermark, mx)
            )
        return out

    def gc(self, ttl_us: int) -> int:
        """Evict the carried tails of keys idle past the event-time TTL
        (their last carried turn is older than watermark - ttl). Without
        an end sentinel the carry otherwise keeps L-1 turns of every key
        ever seen. Trade-off (same as Flink state TTL): a pattern whose
        rows straddle an idle gap longer than the TTL is missed — size the
        TTL to pattern_within_s or the source's real inter-turn gap.
        Returns the number of evicted carry rows."""
        if (
            self._carry is None
            or self._carry.num_rows == 0
            or self.watermark is None
        ):
            return 0
        horizon = self.watermark - ttl_us
        tsc = self._carry[self.ts].cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        key_col = self._carry[self.key]
        if isinstance(key_col, pa.ChunkedArray):
            key_col = key_col.combine_chunks()
        enc = pc.dictionary_encode(key_col)
        codes = np.asarray(enc.indices).astype(np.int64)
        n_keys = len(enc.dictionary)
        key_max = np.full(n_keys, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(key_max, codes, tsc)
        keep = key_max[codes] >= horizon
        if keep.all():
            return 0
        evicted = int((~keep).sum())
        self._carry = self._carry.take(pa.array(np.flatnonzero(keep)))
        if self._carry.num_rows == 0:
            self._carry = None
        return evicted

    def state_size(self) -> dict:
        return {
            "carry_rows": 0 if self._carry is None else self._carry.num_rows
        }

    def snapshot(self) -> dict:
        """The carried tails as one table (the stream_ops checkpoint form)."""
        carry = self._carry
        if carry is None:
            carry = self._carry_schema().empty_table()
        return {"watermark": self.watermark, "carry": carry}

    def restore(self, snap: dict) -> None:
        self.watermark = snap["watermark"]
        c = snap["carry"]
        self._carry = (
            c.cast(self._carry_schema()).combine_chunks() if c.num_rows else None
        )


_PENDING_COLS = ["start_seq", "end_seq", "start_ts_us", "end_ts_us", "deadline_us"]


class AbsenceMatcher:
    """Streaming CEP negation (match_absence's streaming counterpart,
    Flink's ``notFollowedBy`` + time bound). Rides the ordered in-sequence
    emission like PatternMatcher; composition:

    - a PatternMatcher generates candidate matches exactly once;
    - candidates wait in a small pending table until the partition's
      event-time watermark passes deadline = end_ts + absent_within_us
      (+ lateness);
    - an emitted turn with role == absent_role CANCELS same-key pending
      candidates whose window it falls into (seq > end_seq and
      ts <= deadline);
    - survivors fire exactly once; take_final() releases the rest at
      end-of-stream (no further event can cancel them).

    Watermark caveat (same one the window accumulators document): the
    watermark is partition-level, so a key whose stream lags far behind
    the partition frontier could have a candidate fire before its
    cancelling event arrives. ``lateness_us`` is the standard margin; the
    oracled gate sets it past the stream span so firing happens only at
    the final flush and content is exact."""

    def __init__(self, pattern: list[str], absent_role: str, key: str = KEY,
                 seq: str = SEQ, role: str = "role", ts: str = "ts",
                 within_us: int | None = None,
                 absent_within_us: int | None = None,
                 lateness_us: int = 0, end_role: str | None = None):
        if not absent_role:
            raise ValueError("absent_role must be non-empty")
        self._pm = PatternMatcher(pattern, key, seq, role, ts,
                                  within_us=within_us, end_role=end_role)
        self.absent_role = absent_role
        self.absent_within_us = absent_within_us
        self.lateness_us = int(lateness_us)
        self.key = key
        self.seq = seq
        self.role = role
        self.ts = ts
        # columnar pending state: parallel numpy arrays + an Arrow key array
        self._pend_keys = pa.array([], pa.string())
        self._pend: dict[str, np.ndarray] = {
            c: np.zeros(0, dtype=np.int64) for c in _PENDING_COLS
        }

    @property
    def watermark(self):
        return self._pm.watermark

    def _emit_table(self, idx: np.ndarray) -> pa.Table:
        p = self._pend
        return pa.table(
            {
                self.key: self._pend_keys.take(pa.array(idx)),
                "start_seq": pa.array(p["start_seq"][idx], pa.int64()),
                "end_seq": pa.array(p["end_seq"][idx], pa.int64()),
                "start_ts": pa.array(p["start_ts_us"][idx], pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "end_ts": pa.array(p["end_ts_us"][idx], pa.int64()).cast(
                    pa.timestamp("us")
                ),
            }
        )

    def _drop(self, drop_mask: np.ndarray) -> None:
        keep = np.flatnonzero(~drop_mask)
        self._pend_keys = self._pend_keys.take(pa.array(keep))
        for c in _PENDING_COLS:
            self._pend[c] = self._pend[c][keep]

    def update(self, emitted: pa.Table, codes_kv=None) -> pa.Table:
        cands = self._pm.update(emitted, codes_kv)
        if cands.num_rows:
            iinfo = np.iinfo(np.int64)
            ets = cands["end_ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            if self.absent_within_us is None:
                dl = np.full(len(ets), iinfo.max)
            else:
                dl = ets + self.absent_within_us
            self._pend_keys = pa.concat_arrays(
                [self._pend_keys, *cands[self.key].cast(pa.string()).chunks]
            )
            add = {
                "start_seq": cands["start_seq"].to_numpy(zero_copy_only=False),
                "end_seq": cands["end_seq"].to_numpy(zero_copy_only=False),
                "start_ts_us": cands["start_ts"].cast(pa.int64()).to_numpy(
                    zero_copy_only=False
                ),
                "end_ts_us": ets,
                "deadline_us": dl,
            }
            for c in _PENDING_COLS:
                self._pend[c] = np.concatenate(
                    [self._pend[c], add[c].astype(np.int64)]
                )

        n_pend = len(self._pend_keys)
        if n_pend and emitted.num_rows and self.role in emitted.column_names:
            # cancellation: same-key absent rows with seq > end_seq landing
            # inside the window. Joint factorize + composite (code<<32)|seq
            # searchsorted + per-key suffix-min of absent ts — vectorized.
            import pandas as pd

            role_col = emitted[self.role]
            if isinstance(role_col, pa.ChunkedArray):
                role_col = role_col.combine_chunks()
            amask = np.asarray(pc.equal(role_col, self.absent_role)).astype(bool)
            if amask.any():
                sel = np.flatnonzero(amask)
                a_keys = np.asarray(
                    emitted[self.key].take(pa.array(sel)).to_pylist(), dtype=object
                )
                a_seq = (
                    emitted[self.seq]
                    .take(pa.array(sel))
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)
                )
                a_ts = (
                    emitted[self.ts]
                    .cast(pa.int64())
                    .take(pa.array(sel))
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)
                )
                p_keys = self._pend_keys.to_numpy(zero_copy_only=False)
                codes, _ = pd.factorize(np.concatenate([a_keys, p_keys]))
                a_code, p_code = codes[: len(a_keys)], codes[len(a_keys):]
                order = np.lexsort((a_seq, a_code))
                a_code, a_seq, a_ts = a_code[order], a_seq[order], a_ts[order]
                suffmin = _absent_suffix_min(
                    a_code, a_ts, np.ones(len(a_code), dtype=bool)
                )
                # full-width two-key searchsorted via a merged lexsort (a
                # packed (code<<32)|seq composite would silently wrap for
                # seq >= 2^32 and corrupt the order on long-lived keys):
                # sort a-entries and queries together on (code, seq) with
                # queries FIRST on exact ties, then the number of a-entries
                # preceding each query equals searchsorted(..., 'left')
                m_a = len(a_code)
                q_seq = self._pend["end_seq"] + 1
                code_all = np.concatenate([a_code, p_code])
                seq_all = np.concatenate([a_seq, q_seq])
                tie = np.concatenate(
                    [np.ones(m_a, np.int8), np.zeros(len(p_code), np.int8)]
                )
                order2 = np.lexsort((tie, seq_all, code_all))
                ranks = np.empty(len(order2), np.int64)
                ranks[order2] = np.arange(len(order2))
                a_before = np.concatenate(
                    [[0], np.cumsum((order2 < m_a).astype(np.int64))]
                )
                pos = a_before[ranks[m_a:]]
                has = pos < m_a
                posc = np.minimum(pos, max(m_a - 1, 0))
                cancelled = (
                    has
                    & (a_code[posc] == p_code)
                    & (suffmin[posc] <= self._pend["deadline_us"])
                )
                if cancelled.any():
                    self._drop(cancelled)

        # fire survivors the watermark has passed
        wm = self._pm.watermark
        if wm is not None and len(self._pend_keys):
            # python-int RHS avoids int64 overflow when deadline is the
            # unbounded sentinel (int64.max) and lateness > 0
            ready = self._pend["deadline_us"] < (wm - self.lateness_us)
            if ready.any():
                out = self._emit_table(np.flatnonzero(ready))
                self._drop(ready)
                return out
        return _empty_matches(self.key)

    def take_final(self) -> pa.Table:
        """End-of-stream flush: every still-pending candidate survives (no
        later event exists to cancel it). Exactly once — pending empties."""
        if not len(self._pend_keys):
            return _empty_matches(self.key)
        out = self._emit_table(np.arange(len(self._pend_keys)))
        self._pend_keys = pa.array([], pa.string())
        for c in _PENDING_COLS:
            self._pend[c] = np.zeros(0, dtype=np.int64)
        return out

    def gc(self, ttl_us: int) -> int:
        """With a bounded ``absent_within_us`` pending is deadline-bounded
        (fires/cancels on its own) and only the inner pattern carry needs
        the idle-key TTL. With ``absent_within_us=None`` ("never followed
        by") pending would otherwise grow forever on an unbounded stream —
        candidates older than the TTL horizon (end_ts vs the watermark)
        are DROPPED, the same bounded-horizon semantics as the window/
        dedup TTLs (a drop is a missed would-be match, exactly like an
        evicted window key; the alternative — firing them early — would
        emit matches a later cancelling event could still contradict)."""
        n = self._pm.gc(ttl_us)
        wm = self._pm.watermark
        if (
            self.absent_within_us is None
            and wm is not None
            and len(self._pend_keys)
        ):
            stale = self._pend["end_ts_us"] < int(wm) - int(ttl_us)
            if stale.any():
                n += int(stale.sum())
                self._drop(stale)
        return n

    def state_size(self) -> dict:
        s = self._pm.state_size()
        s["pending_rows"] = len(self._pend_keys)
        return s

    def snapshot(self) -> dict:
        """The inner matcher's carry plus the pending candidates, one row
        each in firing order (the stream_ops checkpoint form)."""
        return {
            **self._pm.snapshot(),
            "pending": pa.table({
                self.key: self._pend_keys,
                **{c: pa.array(self._pend[c], pa.int64()) for c in _PENDING_COLS},
            }),
        }

    def restore(self, snap: dict) -> None:
        self._pm.restore(snap)
        p = snap["pending"]
        self._pend_keys = p[self.key].cast(pa.string()).combine_chunks()
        self._pend = {
            c: np.array(p[c].to_numpy(), dtype=np.int64) for c in _PENDING_COLS
        }
