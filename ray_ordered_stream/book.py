"""Per-key incremental order-book state with top-k depth projection.

Re-implements, from observed behavior, the reference's demo business logic
(business-model/.../OrderBookBuilder.java:28-141):

- per key, a sorted map signed_price -> quantity; BUY levels are stored as
  negative prices so one ordered map yields bids (keys < 0, ascending =
  best/highest bid first) and offers (keys > 0, ascending = best/lowest ask
  first) (OrderBookBuilder.java:75-79, 96-118);
- event types mutate quantity: NEW adds quantity_remaining, EXECUTED
  subtracts quantity_filled, DELETED subtracts quantity_remaining; a level
  reaching zero is removed (OrderBookBuilder.java:47-87);
- depth projection = top-k bids + top-k offers as a repeated
  (price, quantity) struct plus last-event metadata, optionally the last
  trade (marketdata.proto:86-95, OrderBookBuilder.java:92-135).

Two layers:

``OrderBookBuilder``  — row-at-a-time API mirroring the reference class
                        (unit-level parity, OrderBookBuilderTest.simpleTest).
``BookState``         — the scale path: one vectorized update per BATCH of
                        in-sequence events (numpy lexsort + reduceat over
                        (key, signed_price) level deltas; Python only per
                        touched LEVEL, not per event). Lives in the ordered
                        state actor so mutations ride the ordered emission
                        with no extra shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

NEW = "NEW"
EXECUTED = "EXECUTED"
DELETED = "DELETED"


def signed_delta(ev_type: str, side_buy: bool, price: int, qty: int) -> tuple[int, int]:
    """(signed_price, qty_delta) for one event (OrderBookBuilder.java:47-79)."""
    if ev_type == NEW:
        d = qty
    elif ev_type in (EXECUTED, DELETED):
        d = -qty
    else:
        d = 0
    return (-price if side_buy else price), d


class OrderBookBuilder:
    """Row-at-a-time builder, API-parity with the reference class."""

    def __init__(self, prices: dict[int, int] | None = None, last_event: dict | None = None):
        self.prices: dict[int, int] = dict(prices or {})
        self.last_event: dict | None = last_event
        self.received_last_contract_message = False

    def process_event(self, ev: dict) -> None:
        """ev: {type, side ('BUY'/'SELL'), price, qty, seq_id,
        contract_seq_id, contract_id, timestamp_ms, last_contract_message?}"""
        self.last_event = ev
        sp, d = signed_delta(ev["type"], ev["side"] == "BUY", ev["price"], ev["qty"])
        if d == 0:
            return
        q = self.prices.get(sp, 0) + d
        if q:
            self.prices[sp] = q
        else:
            self.prices.pop(sp, None)
        # NOT a latch, by reference parity: a zero-delta event skips this
        # assignment (early return above) and any later event overwrites it —
        # exactly OrderBookBuilder.java:66-68 (return on qty==0) and :87
        # (unconditional assignment after the level update)
        self.received_last_contract_message = bool(ev.get("last_contract_message", False))

    def get_current_market_depth(self, depth: int, with_trade: bool) -> dict:
        bids = [
            {"price": -p, "quantity": self.prices[p]}
            for p in sorted(k for k in self.prices if k < 0)[:depth]
        ]
        offers = [
            {"price": p, "quantity": self.prices[p]}
            for p in sorted(k for k in self.prices if k > 0)[:depth]
        ]
        out = {
            "timestamp_ms": self.last_event["timestamp_ms"],
            "contract_id": self.last_event["contract_id"],
            "seq_id": self.last_event["seq_id"],
            "contract_seq_id": self.last_event["contract_seq_id"],
            "bids": bids,
            "offers": offers,
            "last_trade": None,
        }
        if with_trade and self.last_event["type"] == EXECUTED:
            out["last_trade"] = {
                "price": self.last_event["price"],
                "quantity": self.last_event["qty"],
            }
        return out


_DEPTH_STRUCT = pa.struct([("price", pa.int64()), ("quantity", pa.int64())])

DEPTH_SCHEMA = pa.schema(
    [
        ("key", pa.string()),
        ("seq_id", pa.int64()),
        ("ts", pa.timestamp("us")),
        ("bids", pa.list_(_DEPTH_STRUCT)),
        ("offers", pa.list_(_DEPTH_STRUCT)),
        ("last_trade_price", pa.int64()),
        ("last_trade_qty", pa.int64()),
    ]
)


class BookState:
    """Many keys, one vectorized level-update per batch of IN-SEQUENCE
    events. Feed from the ordered drain's emitted rows (which are per-key
    in sequence) — level sums are order-independent, the last-event
    metadata / last-trade is sequence-dependent and relies on it."""

    # expected payload columns in an update batch (besides key/seq)
    COLS = ("type", "side", "price", "qty", "ts")

    def __init__(self, key: str = "key", seq: str = "seq"):
        self.key = key
        self.seq = seq
        self.books: dict[str, dict[int, int]] = {}
        # key -> (seq, ts_us, type, price, qty)
        self.last: dict[str, tuple] = {}
        # keys mutated since the last take_touched_depth (the streaming
        # market-depth output: per epoch, only touched keys emit a snapshot
        # — the micro-batch analogue of the reference's per-event
        # market_depth stream, OrderBookProcessingPipeline.java:107-120)
        self._touched: set[str] = set()

    def update(self, tbl: pa.Table) -> None:
        if tbl.num_rows == 0:
            return
        keys = tbl[self.key]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        enc = pc.dictionary_encode(keys)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = np.asarray(enc.indices).astype(np.int64)
        key_values = enc.dictionary.to_pylist()
        self._touched.update(key_values)
        price = tbl["price"].to_numpy(zero_copy_only=False).astype(np.int64)
        qty = tbl["qty"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_buy = np.asarray(pc.equal(tbl["side"], "BUY"))
        is_new = np.asarray(pc.equal(tbl["type"], NEW))
        is_exec = np.asarray(pc.equal(tbl["type"], EXECUTED))
        is_del = np.asarray(pc.equal(tbl["type"], DELETED))
        sp = np.where(is_buy, -price, price)
        delta = np.where(is_new, qty, np.where(is_exec | is_del, -qty, 0))

        # per-(key, level) sums: lexsort + reduceat; Python per touched level
        order = np.lexsort((sp, codes))
        c_s, p_s = codes[order], sp[order]
        b = np.empty(len(c_s), dtype=bool)
        b[0] = True
        b[1:] = (c_s[1:] != c_s[:-1]) | (p_s[1:] != p_s[:-1])
        starts = np.flatnonzero(b)
        sums = np.add.reduceat(delta[order], starts)
        books = self.books
        for i, st in enumerate(starts):
            d = int(sums[i])
            if d == 0:
                continue
            book = books.setdefault(key_values[c_s[st]], {})
            lvl = int(p_s[st])
            q = book.get(lvl, 0) + d
            if q:
                book[lvl] = q
            else:
                book.pop(lvl, None)

        # last event per key = max seq (batch is in-sequence per key, so the
        # last occurrence; take it vectorized via argmax-of-seq per group)
        seq = tbl[self.seq].to_numpy(zero_copy_only=False).astype(np.int64)
        tsv = (
            tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            if "ts" in tbl.column_names
            else np.zeros(len(seq), dtype=np.int64)
        )
        order2 = np.lexsort((seq, codes))
        c2 = codes[order2]
        lastmask = np.empty(len(c2), dtype=bool)
        lastmask[-1] = True
        lastmask[:-1] = c2[1:] != c2[:-1]
        last_pos = np.flatnonzero(lastmask)
        last_rows = order2[last_pos]
        # convert ONLY the per-key last rows (not the whole type column)
        type_col = tbl["type"]
        if isinstance(type_col, pa.ChunkedArray):
            type_col = type_col.combine_chunks()
        last_types = type_col.take(pa.array(last_rows)).to_pylist()
        for pos, r, ty in zip(last_pos, last_rows, last_types):
            self.last[key_values[c2[pos]]] = (
                int(seq[r]), int(tsv[r]), ty, int(price[r]), int(qty[r]),
            )

    def take_touched_depth(self, depth: int, with_trade: bool = True) -> pa.Table:
        """Depth snapshots of the keys mutated since the last take (and
        clear the touched set) — one streaming 'depth' sink part per epoch."""
        touched = sorted(self._touched)
        self._touched = set()
        return self.depth_table(depth, with_trade, keys=touched)

    def depth_table(
        self, depth: int, with_trade: bool = True, keys: list[str] | None = None
    ) -> pa.Table:
        """Current top-k depth of every key (or the given subset) as one
        nested Arrow table (bids/offers are list<struct<price, quantity>>).
        Projection path, not the per-event hot path: Python per key+level,
        vectorized assembly via Arrow offsets."""
        if keys is None:
            keys = sorted(self.books.keys() | self.last.keys())
        bid_off, off_off = [0], [0]
        bid_p, bid_q, off_p, off_q = [], [], [], []
        lt_p, lt_q = [], []
        seq_ids, tss = [], []
        for k in keys:
            book = self.books.get(k, {})
            bids = sorted(p for p in book if p < 0)[:depth]
            offers = sorted(p for p in book if p > 0)[:depth]
            bid_p.extend(-p for p in bids)
            bid_q.extend(book[p] for p in bids)
            off_p.extend(offers)
            off_q.extend(book[p] for p in offers)
            bid_off.append(len(bid_p))
            off_off.append(len(off_p))
            last = self.last.get(k)
            seq_ids.append(last[0] if last else None)
            tss.append(last[1] if last else None)
            if with_trade and last and last[2] == EXECUTED:
                lt_p.append(last[3])
                lt_q.append(last[4])
            else:
                lt_p.append(None)
                lt_q.append(None)
        bids_arr = pa.ListArray.from_arrays(
            pa.array(bid_off, pa.int32()),
            pa.StructArray.from_arrays(
                [pa.array(bid_p, pa.int64()), pa.array(bid_q, pa.int64())],
                fields=list(_DEPTH_STRUCT),
            ),
        )
        offers_arr = pa.ListArray.from_arrays(
            pa.array(off_off, pa.int32()),
            pa.StructArray.from_arrays(
                [pa.array(off_p, pa.int64()), pa.array(off_q, pa.int64())],
                fields=list(_DEPTH_STRUCT),
            ),
        )
        return pa.table(
            {
                "key": pa.array(keys, pa.string()),
                "seq_id": pa.array(seq_ids, pa.int64()),
                "ts": pa.array(tss, pa.int64()).cast(pa.timestamp("us")),
                "bids": bids_arr,
                "offers": offers_arr,
                "last_trade_price": pa.array(lt_p, pa.int64()),
                "last_trade_qty": pa.array(lt_q, pa.int64()),
            },
            schema=DEPTH_SCHEMA,
        )

    # -- checkpoint ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "books": {k: dict(v) for k, v in self.books.items()},
            "last": dict(self.last),
        }

    def restore(self, snap: dict) -> None:
        self.books = {k: {int(p): q for p, q in v.items()} for k, v in snap["books"].items()}
        self.last = {k: tuple(v) for k, v in snap["last"].items()}


class BookOperator(BookState):
    """BookState as a partition actor's operator (stream_ops.OPERATOR_KINDS):
    each epoch releases the depth of the keys it touched."""

    def __init__(self, cfg):
        super().__init__(key=cfg.key, seq=cfg.seq)
        self.depth = cfg.book_depth

    def update(self, tbl: pa.Table, codes_kv=None) -> None:
        super().update(tbl)

    def take_closed(self, final: bool = False) -> pa.Table:
        return self.take_touched_depth(self.depth)


def flatten_depth(depth_tbl: pa.Table) -> pa.Table:
    """Depth rows -> flat (key, side, level, price, quantity) rows — the
    SQL-comparable projection (QUALIFY/ROW_NUMBER oracle)."""
    out_k, out_side, out_lvl, out_p, out_q = [], [], [], [], []
    keys = depth_tbl["key"].to_pylist()
    for side in ("BUY", "SELL"):
        col = depth_tbl["bids" if side == "BUY" else "offers"].to_pylist()
        for k, levels in zip(keys, col):
            for i, pqd in enumerate(levels):
                out_k.append(k)
                out_side.append(side)
                out_lvl.append(i + 1)
                out_p.append(pqd["price"])
                out_q.append(pqd["quantity"])
    return pa.table(
        {
            "conv_id": pa.array(out_k, pa.string()),
            "side": pa.array(out_side, pa.string()),
            "level": pa.array(out_lvl, pa.int64()),
            "price": pa.array(out_p, pa.int64()),
            "quantity": pa.array(out_q, pa.int64()),
        }
    )
