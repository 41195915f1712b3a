"""Tests for the analysis/metrics utilities."""

import math
import random

import pytest

from repro.analysis import (
    CompiledMetrics,
    format_table,
    geometric_mean,
    improvement_ratio,
)
from repro.noise import FidelityReport


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([8]) == pytest.approx(8.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_zero_floored(self):
        val = geometric_mean([0.0, 1.0], floor=1e-12)
        assert val == pytest.approx(math.sqrt(1e-12))

    def test_order_invariant(self):
        assert geometric_mean([2, 3, 4]) == pytest.approx(geometric_mean([4, 2, 3]))

    def test_permuted_input_gives_identical_float(self):
        # Gate counts and fidelities as a service run appends them, in
        # whatever order its jobs finish: the float must not move.
        rng = random.Random(43)
        values = [rng.choice([rng.randint(20, 900), rng.random()]) for _ in range(60)]
        want = geometric_mean(values)
        for _ in range(20):
            rng.shuffle(values)
            assert geometric_mean(values) == want


class TestImprovementRatio:
    def test_basic(self):
        assert improvement_ratio(10.0, 2.0) == pytest.approx(5.0)

    def test_zero_guarded(self):
        assert improvement_ratio(1.0, 0.0) > 1e6


class TestCompiledMetrics:
    def _metrics(self):
        return CompiledMetrics(
            benchmark="bv-5",
            architecture="Atomique",
            num_qubits=5,
            num_2q_gates=10,
            num_1q_gates=20,
            depth=7,
            fidelity=FidelityReport(f_2q=0.9),
            additional_cnots=3,
            compile_seconds=0.5,
            execution_seconds=0.001,
        )

    def test_total_fidelity(self):
        assert self._metrics().total_fidelity == pytest.approx(0.9)

    def test_row_keys(self):
        row = self._metrics().row()
        assert row["benchmark"] == "bv-5"
        assert row["2q"] == 10
        assert row["fidelity"] == 0.9

    def test_extras_default_empty(self):
        assert self._metrics().extras == {}


class TestFormatTable:
    def test_alignment(self):
        rows = [
            {"a": 1, "bee": "xx"},
            {"a": 100, "bee": "y"},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1
        assert lines[0].startswith("a")

    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_missing_cells_blank(self):
        rows = [{"a": 1, "b": 2}, {"a": 3}]
        text = format_table(rows)
        assert "3" in text
