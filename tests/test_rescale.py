"""Checkpoint rescaling (rescale.py): migrate keyed state P_old -> P_new at
a consistent cut and resume with the new partition count; sink CONTENT must
equal an uninterrupted run (part-file layout differs by design)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ray_ordered_stream.epochs import run_stream
from ray_ordered_stream.fixtures import gen_transcripts
from ray_ordered_stream.rescale import rescale_checkpoint
from ray_ordered_stream.schema import KEY, SEQ
from ray_ordered_stream.state import OrderedConfig
from ray_ordered_stream.userstate import ChainedDigestState


def _book_stream(seed=23):
    t = gen_transcripts(n_convs=10, min_turns=10, max_turns=40, lateness=20,
                        dup_rate=0.02, seed=seed)
    ev = np.arange(t.num_rows, dtype=np.int64)
    return (
        t.append_column("type", pa.array(
            np.where(ev % 5 == 0, "EXECUTED", "NEW"), pa.string()))
        .append_column("side", pa.array(
            np.where(ev % 2 == 0, "BUY", "SELL"), pa.string()))
        .append_column("price", pa.array(ev % 15 + 1, pa.int64()))
        .append_column("qty", pa.array(ev % 6 + 1, pa.int64()))
    )


CFG = dict(window_size_s=60.0, stream_join=True, session_gap_s=0.4,
           pattern=("user", "tool", "user"), with_book=True, book_depth=4,
           warmup_rows=0)


def _files(t, d, nf):
    d.mkdir()
    files = []
    step = -(-t.num_rows // nf)
    for i in range(nf):
        f = d / f"part-{i:05d}.parquet"
        pq.write_table(t.slice(i * step, step), f)
        files.append(str(f))
    return files


def _content(res, sink, agg_windows=False):
    df = res.sinks[sink].read().to_pandas()
    # sink bookkeeping, not data: which epoch/partition released a row can
    # legitimately shift at the rescale cut (merged watermarks, new routing)
    df = df.drop(columns=[c for c in ("epoch", "partition") if c in df.columns])
    for c in df.columns:
        if df[c].dtype == object and len(df) and isinstance(df[c].iloc[0], (list, np.ndarray)):
            df[c] = df[c].map(lambda v: str(v))
    if agg_windows and sink == "windows":
        # release timing can split a window's rows across epochs when keys
        # move to a partition with a farther watermark; totals must agree
        df = (
            df.groupby([KEY, "window_start"], as_index=False)
            [["turn_count", "n_user", "n_assistant"]].sum()
        )
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, kind="stable").reset_index(drop=True)


@pytest.mark.parametrize("extra", [
    {},
    # the absence matcher's pending table and the user map go through the
    # same migrate path as every other operator part
    dict(absent_role="assistant", absent_within_s=3.0, pattern_lateness_s=60.0,
         state_factory=ChainedDigestState),
], ids=["built_ins", "absence_and_user"])
def test_rescale_checkpoint_resume_content_equality(tmp_path, ray_session, extra):
    t = _book_stream()
    files = _files(t, tmp_path / "landing", 8)
    cfg = OrderedConfig(**CFG, **extra)

    res_full = run_stream(files, str(tmp_path / "full"), cfg,
                          num_partitions=3, files_per_epoch=2)

    out = str(tmp_path / "rescaled")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_stream(files, out, cfg, num_partitions=3, files_per_epoch=2,
                   fail_after_epoch=1)
    rescale_checkpoint(out, epoch=1, old_P=3, new_P=4, key=KEY)
    res = run_stream(files, out, cfg, num_partitions=4, files_per_epoch=2)
    assert res.epochs_skipped == 2  # resumed from the rescaled cut

    sinks = ["ordered", "status", "joined", "sessions", "matches", "depth",
             "windows"] + ["user"] * bool(extra)
    for sink in sinks:
        a = _content(res_full, sink, agg_windows=True)
        b = _content(res, sink, agg_windows=True)
        assert len(a), sink
        pd.testing.assert_frame_equal(a, b, obj=sink)

    # completion accounting identical
    assert res.summary["results"] == res_full.summary["results"]
    assert res.summary["keys"] == res_full.summary["keys"]
    assert res.summary["buffered"] == 0


def test_rescale_requires_consistent_cut(tmp_path, ray_session):
    t = _book_stream(seed=31)
    files = _files(t, tmp_path / "landing", 4)
    out = str(tmp_path / "out")
    run_stream(files, out, OrderedConfig(warmup_rows=0), num_partitions=2,
               files_per_epoch=2)
    with pytest.raises(ValueError, match="consistent cut"):
        rescale_checkpoint(out, epoch=99, old_P=2, new_P=3, key=KEY)


def test_rescale_shrink(tmp_path, ray_session):
    """P can also shrink (4 -> 2); stale partition dirs are removed."""
    from pathlib import Path

    t = _book_stream(seed=7)
    files = _files(t, tmp_path / "landing", 8)
    cfg = OrderedConfig(warmup_rows=0)
    res_full = run_stream(files, str(tmp_path / "full"), cfg,
                          num_partitions=4, files_per_epoch=2)
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError):
        run_stream(files, out, cfg, num_partitions=4, files_per_epoch=2,
                   fail_after_epoch=1)
    rescale_checkpoint(out, epoch=1, old_P=4, new_P=2, key=KEY)
    assert not (Path(out) / "ckpt" / "p=00002").exists()
    res = run_stream(files, out, cfg, num_partitions=2, files_per_epoch=2)
    assert res.epochs_skipped == 2
    a = _content(res_full, "ordered")
    b = _content(res, "ordered")
    pd.testing.assert_frame_equal(a, b)


def test_rescale_crash_between_stage_and_swap(tmp_path, ray_session,
                                              monkeypatch):
    """Crash-safety of the two-phase protocol: kill the rescale after the
    stage is complete but before the swap touches the live lineage. Resume
    must refuse (migration in flight); re-running the SAME rescale completes
    from the stage; sink content equals an uninterrupted run."""
    import ray_ordered_stream.rescale as rescale_mod

    t = _book_stream(seed=5)
    files = _files(t, tmp_path / "landing", 8)
    cfg = OrderedConfig(**CFG)
    res_full = run_stream(files, str(tmp_path / "full"), cfg,
                          num_partitions=3, files_per_epoch=2)

    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_stream(files, out, cfg, num_partitions=3, files_per_epoch=2,
                   fail_after_epoch=1)

    def boom(*a, **k):
        raise RuntimeError("crash before swap")

    monkeypatch.setattr(rescale_mod, "_swap_stage", boom)
    with pytest.raises(RuntimeError, match="crash before swap"):
        rescale_checkpoint(out, epoch=1, old_P=3, new_P=4, key=KEY)
    monkeypatch.undo()

    # migration in flight: resume at EITHER P refuses rather than reading a
    # mixed lineage
    with pytest.raises(ValueError, match="interrupted rescale"):
        run_stream(files, out, cfg, num_partitions=4, files_per_epoch=2)
    with pytest.raises(ValueError, match="interrupted rescale"):
        run_stream(files, out, cfg, num_partitions=3, files_per_epoch=2)
    # a different target P is also refused mid-migration
    with pytest.raises(ValueError, match="finish it"):
        rescale_checkpoint(out, epoch=1, old_P=3, new_P=5, key=KEY)

    # re-running the same rescale completes from the stage (idempotent swap)
    rescale_checkpoint(out, epoch=1, old_P=3, new_P=4, key=KEY)
    res = run_stream(files, out, cfg, num_partitions=4, files_per_epoch=2)
    assert res.epochs_skipped == 2
    for sink in ("ordered", "status", "joined", "sessions", "matches",
                 "depth", "windows"):
        pd.testing.assert_frame_equal(
            _content(res_full, sink, agg_windows=True),
            _content(res, sink, agg_windows=True), obj=sink)
    assert res.summary["results"] == res_full.summary["results"]


def test_rescale_rejects_wrong_old_P(tmp_path, ray_session):
    """An understated old_P would leave un-migrated partitions behind as
    silent mixed-lineage corruption; the lineage meta makes it an error."""
    t = _book_stream(seed=11)
    files = _files(t, tmp_path / "landing", 4)
    out = str(tmp_path / "out")
    run_stream(files, out, OrderedConfig(warmup_rows=0), num_partitions=4,
               files_per_epoch=2)
    with pytest.raises(ValueError, match="4 partitions"):
        rescale_checkpoint(out, epoch=1, old_P=3, new_P=4, key=KEY)
