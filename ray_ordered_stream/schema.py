"""Arrow schemas for the ordered-stream engine.

Re-expresses the reference data model (see SURVEY.md §1.4):

- input turn  ≙ ``OrderBookEvent``  (reference: business-model/src/main/proto/marketdata.proto:21-73)
- ordered out ≙ ``MarketDepth``     (marketdata.proto:75-96 — one result per processed event)
- status      ≙ ``OrderedProcessingStatus``
  (reference: order-book-pipeline/.../ProcessingStatusToTableRowConverter.java:33-41,
   terraform/bigquery-schema/processing-status.json)
"""

from __future__ import annotations

import pyarrow as pa

KEY = "conv_id"
SEQ = "turn_idx"
ARRIVAL = "arrival_seq"

#: Input transcript turn (BASELINE.json input_hint shape).
TRANSCRIPT_SCHEMA = pa.schema(
    [
        pa.field(KEY, pa.string(), nullable=False),
        pa.field(SEQ, pa.int32(), nullable=False),
        pa.field("role", pa.string(), nullable=False),
        pa.field("text", pa.string(), nullable=False),
        pa.field("tool", pa.string(), nullable=False),
        pa.field("ts", pa.timestamp("us"), nullable=False),
    ]
)

#: Ordered output: input columns + emission metadata (FIXTURES.md §2).
ORDERED_OUTPUT_SCHEMA = pa.schema(
    list(TRANSCRIPT_SCHEMA)
    + [
        pa.field("emit_seq", pa.int64(), nullable=False),
    ]
)

#: Processing-status side output (FIXTURES.md §3).
STATUS_SCHEMA = pa.schema(
    [
        pa.field(KEY, pa.string(), nullable=False),
        pa.field("status_ts", pa.timestamp("us"), nullable=False),
        pa.field("received_count", pa.int64(), nullable=False),
        pa.field("buffered_count", pa.int64(), nullable=False),
        pa.field("last_processed_sequence", pa.int64(), nullable=True),
        pa.field("earliest_buffered_sequence", pa.int64(), nullable=True),
        pa.field("latest_buffered_sequence", pa.int64(), nullable=True),
        pa.field("duplicate_count", pa.int64(), nullable=False),
        pa.field("result_count", pa.int64(), nullable=False),
        pa.field("last_event_received", pa.bool_(), nullable=False),
    ]
)


#: Per-key counters of the ordered core, one row per key in key order: a
#: partition snapshot's ``counters`` entry and the checkpoint's
#: ``counters`` column. ``next_seq`` is null until the key's initial event
#: is processed.
COUNTERS_SCHEMA = pa.schema(
    [
        pa.field("key", pa.string()),
        pa.field("received", pa.int64()),
        pa.field("duplicates", pa.int64()),
        pa.field("results", pa.int64()),
        pa.field("next_seq", pa.int64()),
        pa.field("last_event", pa.bool_()),
    ]
)


def validate_transcript(table: pa.Table) -> None:
    """Cheap structural validation of an input batch (no full scan)."""
    names = set(table.column_names)
    missing = {KEY, SEQ} - names
    if missing:
        raise ValueError(f"transcript batch missing required columns: {sorted(missing)}")
    if table[KEY].null_count:
        raise ValueError(f"{KEY} contains nulls")
    if table[SEQ].null_count:
        raise ValueError(f"{SEQ} contains nulls")
