"""Split the freshness of a continuous stream into its two parts.

Usage: python scripts/freshness_breakdown.py OUT_ROOT [--landed LOG]

Reads only the durable outputs of a ``run_stream_continuous`` output root.
For every file of every committed epoch it measures:

- poll wait: the file landed -> its epoch was recorded (mtime of
  ``OUT_ROOT/epochs/epoch-N.json``);
- work + commit: the epoch was recorded -> its ordered manifest committed
  (mtime of ``OUT_ROOT/ordered/_manifests/epoch-N.json``).

A file's landing time is its ``landed`` entry in LOG (the JSON that
``perfbench/publisher.py --log`` writes: ``{"files": [{"file", "landed",
...}]}``) if given, else the mtime of the landed file itself. Prints the
p50 and p90 of each part and of their sum, in seconds. Exits 2 if no
committed epoch holds a file whose landing time is known.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np


def breakdown(out_root: Path, landed: dict[str, float]) -> dict[str, list[float]]:
    """Per landed file of every committed epoch: (poll wait, work + commit)
    in seconds, as two lists in the same order."""
    parts: dict[str, list[float]] = {"poll_wait": [], "work_commit": []}
    manifests = out_root / "ordered" / "_manifests"
    for rec in sorted((out_root / "epochs").glob("epoch-*.json")):
        manifest = manifests / rec.name
        if not manifest.exists():
            continue
        recorded = rec.stat().st_mtime
        committed = manifest.stat().st_mtime
        for f in json.loads(rec.read_text())["files"]:
            t = landed.get(f)
            if t is None and os.path.exists(f):
                t = os.stat(f).st_mtime
            if t is None:
                continue
            parts["poll_wait"].append(recorded - t)
            parts["work_commit"].append(committed - recorded)
    return parts


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("out_root", type=Path)
    ap.add_argument("--landed", type=Path, help="publisher log with landing times")
    a = ap.parse_args(argv)
    landed = {}
    if a.landed is not None:
        landed = {r["file"]: r["landed"] for r in json.loads(a.landed.read_text())["files"]}
    parts = breakdown(a.out_root, landed)
    if not parts["poll_wait"]:
        print(f"no committed epoch with a known landing time under {a.out_root}",
              file=sys.stderr)
        return 2
    parts["landed_to_commit"] = [w + c for w, c in zip(parts["poll_wait"], parts["work_commit"])]
    print(f"{'part':<18}{'files':>7}{'p50_s':>10}{'p90_s':>10}")
    for name, v in parts.items():
        p50, p90 = np.percentile(np.asarray(v), [50, 90])
        print(f"{name:<18}{len(v):>7}{p50:>10.4f}{p90:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
