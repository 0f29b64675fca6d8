"""Open-loop load generator for the paced_landing workload.

Lands pre-written Parquet files into a landing directory on a fixed
due-time schedule, one thread, never slowing down when the consumer does.
Each file is written under a temporary name and then renamed, the landing
protocol ``run_stream_continuous`` requires. The schedule starts once the
``--ready`` file exists (the consumer writes its checkpoint lineage after
its partition actors are up). After the last file it writes the stop
marker, and at exit it writes a JSON log of every file's due and landed
wall-clock times.

    python3 perfbench/publisher.py --src DIR --dst DIR --interval S \
        --ready FILE --log FILE
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

LEAD_S = 0.2            # gap between the consumer being ready and the first due time
READY_TIMEOUT_S = 90.0  # give up if the consumer is not ready by then


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--dst", required=True)
    ap.add_argument("--interval", type=float, required=True)
    ap.add_argument("--ready", required=True)
    ap.add_argument("--log", required=True)
    a = ap.parse_args()

    src = sorted(Path(a.src).glob("part-*.parquet"))
    dst = Path(a.dst)
    dst.mkdir(parents=True, exist_ok=True)
    ready = Path(a.ready)
    give_up = time.monotonic() + READY_TIMEOUT_S
    while not ready.exists():
        if time.monotonic() > give_up:
            print(f"publisher: {ready} never appeared", file=sys.stderr)
            return 1
        time.sleep(0.01)

    t0 = time.time() + LEAD_S
    log = []
    for i, f in enumerate(src):
        due = t0 + i * a.interval
        wait = due - time.time()
        if wait > 0:
            time.sleep(wait)
        tmp = dst / (f.name + ".tmp")
        shutil.copyfile(f, tmp)
        os.replace(tmp, dst / f.name)
        log.append({"file": str(dst / f.name), "due": due, "landed": time.time()})
    stop = dst / "_STOP"
    (dst / "_STOP.tmp").write_text("stop")
    os.replace(dst / "_STOP.tmp", stop)
    Path(a.log).write_text(json.dumps({"files": log}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
