"""User-pluggable order-dependent state for the ordered actor pool.

This is the engine's version of the reference's documented extension recipe
(docs/pipeline-design.md:27-56): a user supplies

- a **MutableState** analogue — a :class:`UserState` whose ``update`` is
  called with every newly *emitted* (in-sequence, deduplicated) row, exactly
  once per row, in per-key sequence order, and may produce result rows
  (≙ ``MutableState.mutate`` + ``produceResult``,
  reference OrderBookMutableState.java:27-72); and
- an **EventExaminer** analogue — ``OrderedConfig.initial_seq`` for
  ``isInitialEvent`` (the vectorized drain needs a numeric start, so the
  predicate is narrowed to a constant; the reference's own examiner is
  ``sequenceNumber == 1``, OrderBookEventExaminer.java:36-39) and
  ``OrderedConfig.last_fn`` — an arbitrary vectorized predicate over the
  emitted batch — for ``isLastEvent`` (OrderBookEventExaminer.java:46-49).

Differences from Beam, by design (Ray-Data-first, not a port):

- ``update`` receives an **Arrow batch** of emitted rows, not one event at a
  time — a vectorizable state updates whole key-groups with numpy/Arrow
  kernels; an inherently sequential one (a chained digest, an order book)
  iterates rows *inside* the batch. Either way the contract holds: rows
  arrive in per-key sequence order with duplicates already dropped, so
  "mutate ran in order, exactly once" is guaranteed by the engine.
- There are no user coders (the reference needs three,
  docs/pipeline-design.md:58-69): events are Arrow both in flight and in the
  out-of-order buffer, and the user state checkpoints itself through
  ``snapshot()``/``restore()`` as a JSON-safe per-key mapping.

The contract a UserState must honor:

- ``update(emitted) -> pa.Table | None`` — result rows routed to the
  ``user`` side-output sink (streaming: one Parquet part per partition per
  epoch under the same commit-manifest exactly-once protocol as every other
  sink; batch: ``OrderedResult.user``). Return None/empty for no output.
- ``snapshot() -> dict[str, Any]`` — the *complete* current state as a
  JSON-serializable mapping **keyed by the ordering-key value**. The
  per-key shape is opaque to the engine, but the top level must be
  per-key: checkpoint rescaling (rescale.py) re-routes each key's entry to
  its new partition with the engine's hash, exactly like the ordered
  counters. Called once per epoch (after the epoch's outputs are taken).
- ``restore(snap)`` — replace state from a snapshot (crash-resume and
  rescale both call it; a restored run must produce byte-identical output
  for re-fed epochs, so keep ``update`` deterministic).
- ``evict(keys)`` (optional) — drop the listed keys' state. Called with
  keys whose *last event* was just processed (the reference's
  "cleanup when isLastEvent" semantics, docs/pipeline-design.md:52-56).

The engine adapts a user state with one wrapper,
``stream_ops.UserStateOperator``, the ``user`` row of the partition actor's
operator table: it calls ``update`` on each non-empty emitted batch (the
rows it returns wait for the epoch's ``user`` part), ``evict`` on the keys
whose last event the batch held, and checkpoints ``snapshot()`` as a
per-key map part, which rescaling routes by key.

Factories are plain callables (``OrderedConfig(state_factory=MyState)`` or
a closure/``functools.partial`` for configured instances); the job CLI
accepts ``--user-state pkg.module:factory`` via :func:`resolve_factory`.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


class UserState:
    """Base class (duck-typed — subclassing is optional) for per-partition
    order-dependent user state. See the module docstring for the contract."""

    def update(self, emitted: pa.Table) -> pa.Table | None:
        raise NotImplementedError

    def snapshot(self) -> dict:
        raise NotImplementedError

    def restore(self, snap: dict) -> None:
        raise NotImplementedError

    def evict(self, keys: list[str]) -> None:  # optional hook
        pass


def _key_groups(emitted: pa.Table, key: str):
    """(codes, key_values, group_starts) over an emitted batch. Emitted rows
    are already grouped contiguously by key (the drain emits per-key runs),
    so group boundaries are adjacent-change points — no sort."""
    import pyarrow.compute as pc

    col = emitted[key]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = pc.dictionary_encode(col)
    codes = np.asarray(enc.indices).astype(np.int64)
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    return codes, enc.dictionary.to_pylist(), starts


class ChainedDigestState(UserState):
    """Demo inherently-sequential state: per-key chained md5 over the
    emitted text, ``d_k = md5(d_{k-1} + '|' + text_k)`` with ``d_-1 = ''``.

    Any out-of-order, dropped-duplicate, or re-processed row changes every
    later digest of its key, so equality of the final column against a
    sequential oracle proves "mutate ran once per event, in order" — the
    same role OrderBookBuilder's state plays in the reference's tests
    (OrderBookProcessingPipelineTest.java:92-195). md5 (not sha1) so a SQL
    oracle can replay the chain with DuckDB's md5()."""

    def __init__(self, key: str = "conv_id", seq: str = "turn_idx",
                 text_col: str = "text"):
        self.key, self.seq, self.text_col = key, seq, text_col
        self._digest: dict[str, str] = {}

    def update(self, emitted: pa.Table) -> pa.Table | None:
        n = emitted.num_rows
        if not n:
            return None
        codes, key_values, _ = _key_groups(emitted, self.key)
        texts = emitted[self.text_col].to_pylist()
        out = [""] * n
        dg = self._digest
        # the chain itself is sequential by definition; everything around it
        # (grouping, column building) stays vectorized
        for i in range(n):
            kv = key_values[codes[i]]
            d = hashlib.md5(
                f"{dg.get(kv, '')}|{texts[i]}".encode()
            ).hexdigest()
            dg[kv] = d
            out[i] = d
        return pa.table({
            self.key: emitted[self.key],
            self.seq: emitted[self.seq],
            "digest": pa.array(out, pa.string()),
        })

    def snapshot(self) -> dict:
        return dict(self._digest)

    def restore(self, snap: dict) -> None:
        self._digest = dict(snap)

    def evict(self, keys: list[str]) -> None:
        for k in keys:
            self._digest.pop(k, None)


class RunningStatsState(UserState):
    """Demo vectorizable state: per-key running (count, sum, max) over a
    numeric column of the emitted stream, one output row per emitted row
    carrying the running values *as of that row* (≙ produceResult following
    every mutate). Updates are numpy group-reductions — the pattern a real
    user state should follow when its math allows."""

    def __init__(self, key: str = "conv_id", seq: str = "turn_idx",
                 value_col: str = "turn_idx"):
        self.key, self.seq, self.value_col = key, seq, value_col
        self._st: dict[str, list] = {}  # key -> [count, sum, max]

    def update(self, emitted: pa.Table) -> pa.Table | None:
        n = emitted.num_rows
        if not n:
            return None
        codes, key_values, starts = _key_groups(emitted, self.key)
        vals = emitted[self.value_col].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        # per-row running values: within-group cumulatives rebased by the
        # carried-in state of each key
        ends = np.r_[starts[1:], n]
        csum = np.cumsum(vals)
        cmax = np.maximum.accumulate(vals)
        base_cnt = np.empty(n, dtype=np.int64)
        base_sum = np.empty(n, dtype=np.float64)
        run_max = np.empty(n, dtype=np.float64)
        rank = np.arange(n, dtype=np.int64)
        for s, e in zip(starts, ends):
            kv = key_values[codes[s]]
            c0, s0, m0 = self._st.get(kv, (0, 0.0, -np.inf))
            base_cnt[s:e] = c0 - s
            base_sum[s:e] = s0 - (csum[s] - vals[s])
            # group-local running max (accumulate rebased at group start)
            gm = np.maximum.accumulate(vals[s:e])
            run_max[s:e] = np.maximum(gm, m0)
            self._st[kv] = [
                int(c0 + (e - s)),
                float(s0 + csum[e - 1] - (csum[s] - vals[s])),
                float(run_max[e - 1]),
            ]
        return pa.table({
            self.key: emitted[self.key],
            self.seq: emitted[self.seq],
            "run_count": pa.array(base_cnt + rank + 1, pa.int64()),
            "run_sum": pa.array(base_sum + csum, pa.float64()),
            "run_max": pa.array(run_max, pa.float64()),
        })

    def snapshot(self) -> dict:
        return {k: list(v) for k, v in self._st.items()}

    def restore(self, snap: dict) -> None:
        self._st = {k: list(v) for k, v in snap.items()}

    def evict(self, keys: list[str]) -> None:
        for k in keys:
            self._st.pop(k, None)


def resolve_factory(spec):
    """``"pkg.module:attr"`` -> the callable it names (job CLI surface for
    ``--user-state``; a factory given in code is passed through unchanged)."""
    if callable(spec):
        return spec
    mod, _, attr = str(spec).partition(":")
    if not attr:
        raise ValueError(
            f"--user-state expects 'package.module:factory', got {spec!r}"
        )
    import importlib

    obj = importlib.import_module(mod)
    for part in attr.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ValueError(f"{spec!r} resolved to non-callable {obj!r}")
    return obj
