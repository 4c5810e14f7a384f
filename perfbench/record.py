"""Record the fingerprint of every pool entry of every workload.

Run once, at a commit whose outputs are known good, from the repository
root::

    python3 perfbench/record.py [WORKLOAD ...]

It rewrites ``perfbench/fingerprints.json`` for the named workloads (all
by default).  A change that legitimately alters a program output must
re-record in its own commit and say why; the benchmark otherwise counts
every mismatching pass as failed.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import fingerprint  # noqa: E402
from perfbench.workloads import POOL, WORKLOADS  # noqa: E402


def record(name: str) -> list[dict]:
    workload = WORKLOADS[name]()
    try:
        workload.setup()
        rows = []
        for entry in range(POOL):
            summary = workload.summarize(entry, workload.run(entry))
            workload.cleanup()
            rows.append({"entry": entry, **summary})
            print(f"{name} {entry}: {summary}", flush=True)
        return rows
    finally:
        workload.close()


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    table = fingerprint.load() if fingerprint.RECORDED.exists() else {}
    for name in names:
        table[name] = record(name)
    fingerprint.save(table)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
