"""User-pluggable MutableState/EventExaminer hook (userstate.py — the
reference's documented extension recipe, docs/pipeline-design.md:27-56):
arrival-invariance of user-state output, a user state defined OUTSIDE the
engine, custom isLastEvent predicates, crash-resume equality of the 'user'
sink, and checkpoint rescaling of user state."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ray_ordered_stream.epochs import run_stream
from ray_ordered_stream.fixtures import gen_transcripts, oracle_ordered
from ray_ordered_stream.ordered import ordered_process
from ray_ordered_stream.schema import KEY, SEQ
from ray_ordered_stream.state import OrderedConfig
from ray_ordered_stream.userstate import (
    ChainedDigestState,
    RunningStatsState,
    resolve_factory,
)


def _expected_digests(t: pa.Table) -> pd.DataFrame:
    """Sequential single-threaded oracle of the chained md5 over the
    deduplicated in-order stream."""
    df = oracle_ordered(t)
    out = []
    dg: dict[str, str] = {}
    for kv, txt in zip(df[KEY], df["text"]):
        d = hashlib.md5(f"{dg.get(kv, '')}|{txt}".encode()).hexdigest()
        dg[kv] = d
        out.append(d)
    df = df[[KEY, SEQ]].copy()
    df["digest"] = out
    return df


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    # sink bookkeeping (epoch/partition provenance columns), not data
    df = df.drop(columns=[c for c in ("epoch", "partition") if c in df.columns])
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, kind="stable").reset_index(drop=True)


def test_chained_digest_arrival_invariant(ray_session):
    """Out-of-order + duplicated arrivals produce the same user-state output
    as the in-order deduplicated stream — mutate ran exactly once per event,
    in sequence order (the reference's core MutableState guarantee)."""
    t = gen_transcripts(
        n_convs=15, min_turns=8, max_turns=40, lateness=50, dup_rate=0.08,
        seed=31,
    )
    cfg = OrderedConfig(state_factory=ChainedDigestState, warmup_rows=0)
    res = ordered_process(t, cfg, num_partitions=3)
    assert res.user is not None
    got = _sorted(res.user.to_pandas())
    exp = _sorted(_expected_digests(t))
    pd.testing.assert_frame_equal(got, exp)


def test_user_state_defined_outside_engine(ray_session):
    """A user state written entirely in user code (this test) runs through
    the actor pool with no engine edits — the pluggability the reference
    documents at docs/pipeline-design.md:27-40."""

    class LastTextState:
        """Tracks each key's most recent text; emits one row per key when
        its LAST event is processed (produceResult-on-cleanup shape)."""

        def __init__(self):
            self.last: dict[str, str] = {}
            self.done: list[tuple[str, str]] = []

        def update(self, emitted: pa.Table):
            keys = emitted[KEY].to_pylist()
            texts = emitted["text"].to_pylist()
            roles = emitted["role"].to_pylist()
            for k, txt, r in zip(keys, texts, roles):
                self.last[k] = txt
                if r == "end":
                    self.done.append((k, txt))
            if not self.done:
                return None
            out = pa.table({
                KEY: pa.array([d[0] for d in self.done], pa.string()),
                "final_text": pa.array([d[1] for d in self.done], pa.string()),
            })
            self.done = []
            return out

        def snapshot(self):
            return dict(self.last)

        def restore(self, snap):
            self.last = dict(snap)

        def evict(self, keys):
            for k in keys:
                self.last.pop(k, None)

    t = gen_transcripts(n_convs=10, lateness=25, dup_rate=0.05, seed=5)
    cfg = OrderedConfig(state_factory=LastTextState, warmup_rows=0)
    res = ordered_process(t, cfg, num_partitions=2)
    got = _sorted(res.user.to_pandas())

    exp_df = oracle_ordered(t)
    exp = exp_df[exp_df["role"] == "end"][[KEY, "text"]].rename(
        columns={"text": "final_text"}
    )
    pd.testing.assert_frame_equal(got, _sorted(exp))


def test_custom_last_fn_predicate(ray_session):
    """cfg.last_fn (vectorized isLastEvent) drives both the status
    last_event flag and user-state eviction."""
    import pyarrow.compute as pc

    from ray_ordered_stream.ordered import OrderedProcessor

    t = gen_transcripts(n_convs=6, lateness=10, seed=9)

    def last_pred(emitted: pa.Table) -> np.ndarray:
        return (
            pc.equal(emitted["role"], "end")
            .to_numpy(zero_copy_only=False)
            .astype(bool)
        )

    class CountingState(ChainedDigestState):
        pass

    cfg = OrderedConfig(
        last_col="nonexistent_col", last_fn=last_pred,
        state_factory=CountingState, warmup_rows=0,
    )
    proc = OrderedProcessor(cfg, num_partitions=2)
    proc.feed_epoch(t, pd.Timestamp("1970-01-01"))
    fin = proc.final_status_table(pd.Timestamp("1970-01-01")).to_pandas()
    assert fin["last_event_received"].all()
    # every key ended -> evict ran for all keys -> snapshots are empty
    import ray

    snaps = ray.get([w.snapshot.remote() for w in proc.workers])
    assert all(not s["user"]["state"] for s in snaps)
    proc.shutdown()


def test_running_stats_state_matches_pandas(ray_session):
    t = gen_transcripts(n_convs=12, lateness=30, dup_rate=0.04, seed=17)
    cfg = OrderedConfig(
        state_factory=lambda: RunningStatsState(value_col=SEQ),
        warmup_rows=0,
    )
    res = ordered_process(t, cfg, num_partitions=3)
    got = _sorted(res.user.to_pandas())

    df = oracle_ordered(t)
    g = df.groupby(KEY)[SEQ]
    exp = df[[KEY, SEQ]].copy()
    exp["run_count"] = g.cumcount() + 1
    exp["run_sum"] = g.cumsum().astype(float)
    exp["run_max"] = g.cummax().astype(float)
    pd.testing.assert_frame_equal(got, _sorted(exp))


@pytest.fixture(scope="module")
def user_stream_files(tmp_path_factory, ray_session):
    t = gen_transcripts(
        n_convs=12, min_turns=10, max_turns=50, lateness=60, dup_rate=0.04,
        seed=23,
    )
    d = tmp_path_factory.mktemp("user_landing")
    files = []
    n, nf = t.num_rows, 8
    step = -(-n // nf)
    for i in range(nf):
        f = d / f"part-{i:05d}.parquet"
        pq.write_table(t.slice(i * step, step), f)
        files.append(str(f))
    return t, files


def test_user_sink_crash_resume_equality(user_stream_files, tmp_path):
    """The 'user' sink rides the exactly-once protocol: kill-and-resume
    output content-equals an uninterrupted run, and equals the sequential
    oracle (user state restored from checkpoint mid-chain)."""
    t, files = user_stream_files
    cfg = OrderedConfig(state_factory=ChainedDigestState, warmup_rows=0)

    res_full = run_stream(files, str(tmp_path / "full"), cfg,
                          num_partitions=3, files_per_epoch=2)
    out = str(tmp_path / "crash")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_stream(files, out, cfg, num_partitions=3, files_per_epoch=2,
                   fail_after_epoch=1)
    res = run_stream(files, out, cfg, num_partitions=3, files_per_epoch=2)
    assert res.epochs_skipped == 2

    a = _sorted(res_full.sinks["user"].read().to_pandas())
    b = _sorted(res.sinks["user"].read().to_pandas())
    pd.testing.assert_frame_equal(a, b)
    pd.testing.assert_frame_equal(a, _sorted(_expected_digests(t)))


def test_user_state_rescale(user_stream_files, tmp_path):
    """Checkpoint rescale migrates the per-key user map: digests after a
    3->5 rescale mid-stream equal the uninterrupted run's."""
    from ray_ordered_stream.rescale import rescale_checkpoint

    t, files = user_stream_files
    cfg = OrderedConfig(state_factory=ChainedDigestState, warmup_rows=0)

    out = str(tmp_path / "rescaled")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_stream(files, out, cfg, num_partitions=3, files_per_epoch=2,
                   fail_after_epoch=1)
    rescale_checkpoint(out, epoch=1, old_P=3, new_P=5, key=KEY)
    res = run_stream(files, out, cfg, num_partitions=5, files_per_epoch=2)
    assert res.epochs_skipped == 2

    got = _sorted(res.sinks["user"].read().to_pandas())
    pd.testing.assert_frame_equal(got, _sorted(_expected_digests(t)))


def test_resolve_factory():
    f = resolve_factory("ray_ordered_stream.userstate:ChainedDigestState")
    assert f is ChainedDigestState
    assert resolve_factory(ChainedDigestState) is ChainedDigestState
    with pytest.raises(ValueError):
        resolve_factory("ray_ordered_stream.userstate")
