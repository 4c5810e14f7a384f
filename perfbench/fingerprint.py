"""Content fingerprints of pass outputs, and the table recorded for them.

Every pass of every workload is checked against a digest recorded once,
from the same inputs, by ``perfbench/record.py``.  A digest covers every
field of the output (floats by their exact ``repr``), so one flipped die,
one changed fault counter or one last-bit energy difference trips it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

RECORDED = Path(__file__).with_name("fingerprints.json")


def digest(obj) -> str:
    """SHA-256 (hex, 32 chars) of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def mc_digest(results) -> str:
    """Digest of Monte Carlo results: every die of every design."""
    return digest([[asdict(run) for run in result.runs] for result in results])


def fault_digest(result) -> str:
    """Digest of a fault campaign: every ``FaultPointResult`` field."""
    return digest([asdict(point) for point in result.points])


def grid_digest(result) -> str:
    """Digest of a ``GridResult``: grid cells and every metric value."""
    return digest(
        {
            "parameters": result.parameters,
            "points": result.points,
            "metrics": result.metrics,
        }
    )


def load(path: Path = RECORDED) -> dict[str, list[dict]]:
    """The recorded table: workload name -> one record per pool entry."""
    return json.loads(path.read_text())


def save(table: dict[str, list[dict]], path: Path = RECORDED) -> None:
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
