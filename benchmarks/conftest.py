"""Shared helpers for the per-figure benchmark harnesses.

Every benchmark regenerates one table or figure of the paper and writes the
rows it produced to ``benchmarks/results/<name>.txt`` so the numbers can be
compared against the paper after a run (see EXPERIMENTS.md).  Those tables
are committed and hold only deterministic cells, so a diff in them means
behaviour changed.  Wall-clock cells (the ``compile_s`` column and whole
timing-derived tables such as ``fig14_speedup``) go to the git-ignored
``benchmarks/results/timing/`` instead.

Set ``ATOMIQUE_FULL=1`` to run the full paper-scale workloads; the default
is a scaled-down grid that preserves every qualitative shape while keeping
the whole suite to a few minutes.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import format_table

RESULTS_DIR = Path(__file__).parent / "results"
TIMING_DIR = RESULTS_DIR / "timing"
#: wall-clock columns, kept out of the committed tables
TIMING_COLUMNS = ("compile_s",)


def full_scale() -> bool:
    """True when the paper-scale configuration was requested."""
    return os.environ.get("ATOMIQUE_FULL", "0") == "1"


@pytest.fixture
def record_rows():
    """Write a list of row-dicts as an aligned table and echo it.

    The committed table drops :data:`TIMING_COLUMNS`; the full table goes
    to :data:`TIMING_DIR` when it has any.  ``timing=True`` marks a table
    whose every cell is timing-derived: it is written to
    :data:`TIMING_DIR` only.
    """

    def _record(
        name: str, rows: list[dict[str, object]], timing: bool = False
    ) -> str:
        table = format_table(rows)
        print(f"\n=== {name} ===\n{table}")
        if timing or any(c in row for row in rows for c in TIMING_COLUMNS):
            TIMING_DIR.mkdir(parents=True, exist_ok=True)
            (TIMING_DIR / f"{name}.txt").write_text(table + "\n")
        if not timing:
            RESULTS_DIR.mkdir(exist_ok=True)
            kept = [
                {k: v for k, v in row.items() if k not in TIMING_COLUMNS}
                for row in rows
            ]
            (RESULTS_DIR / f"{name}.txt").write_text(format_table(kept) + "\n")
        return table

    return _record
