"""Where the perf benchmarks write their ``BENCH_*.json`` results.

A run writes under the untracked ``bench-out/`` directory at the
repository root, so running the suite never rewrites the committed
baselines beside it.  ``make bench-baseline`` copies a run's results over
the committed files; ``scripts/bench_compare.py`` gates a fresh
``bench-out/`` result against its committed baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench-out"


def write_result(name: str, payload: dict) -> Path:
    """Write one benchmark's result to ``bench-out/<name>``."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
