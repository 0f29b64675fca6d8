"""Compare the committed sink parts of two stream output roots.

Usage: python scripts/sink_diff.py ROOT_A ROOT_B

Every committed part (``sink/epoch/partition`` of every manifest under the
root) is reduced to its row count and the sha256 of its file, with
perfbench's ``sink_digests``. Prints each part whose row count or sha256
differs, or that only one root committed, and exits 1 if there is any;
otherwise prints how many parts are identical and exits 0. A root without
any committed part exits 2.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from harness import sink_digests  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a, b = (sink_digests(Path(r)) for r in argv)
    for root, digests in zip(argv, (a, b)):
        if not digests:
            print(f"no committed sink part under {root}", file=sys.stderr)
            return 2
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for k in differ:
        print(f"{k}: {a.get(k, 'missing')} != {b.get(k, 'missing')}")
    if differ:
        print(f"{len(differ)} of {len(a.keys() | b.keys())} parts differ")
        return 1
    print(f"{len(a)} parts identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
