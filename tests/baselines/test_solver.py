"""Tests for the Tan-Solver / Tan-IterP proxies."""

import itertools

import numpy as np
import pytest

from repro.baselines import (
    SolverTimeout,
    exact_bipartition,
    solver_architecture,
    tan_iterp_compile,
    tan_solver_compile,
)
from repro.generators import qaoa_regular, vqe_ansatz


def brute_force_best_cut(weights, cap_a, cap_b):
    n = weights.shape[0]
    best = -1.0
    for bits in itertools.product([0, 1], repeat=n):
        if bits[0] == 1:
            continue  # symmetry: vertex 0 in A
        size_b = sum(bits)
        if size_b > cap_b or n - size_b > cap_a:
            continue
        cut = sum(
            weights[i, j]
            for i in range(n)
            for j in range(i + 1, n)
            if bits[i] != bits[j]
        )
        best = max(best, cut)
    return best


class TestExactBipartition:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        w = rng.random((n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0)
        assignment, _ = exact_bipartition(w, n, n)
        cut = sum(
            w[i, j]
            for i in range(n)
            for j in range(i + 1, n)
            if assignment[i] != assignment[j]
        )
        assert cut == pytest.approx(brute_force_best_cut(w, n, n))

    def test_respects_capacity(self):
        n = 6
        w = np.ones((n, n)) - np.eye(n)
        assignment, _ = exact_bipartition(w, 4, 2)
        assert assignment.count(1) <= 2
        assert assignment.count(0) <= 4

    def test_evaluation_count_exponential(self):
        w = np.zeros((10, 10))
        _, evals = exact_bipartition(w, 10, 10)
        assert evals == 2**9

    def test_too_large_guarded(self):
        with pytest.raises(SolverTimeout):
            exact_bipartition(np.zeros((31, 31)), 31, 31)


class TestSolverCompilers:
    def test_solver_timeout_enforced(self):
        big = qaoa_regular(30, 3, seed=0)
        with pytest.raises(SolverTimeout):
            tan_solver_compile(big, timeout_qubits=20)

    def test_solver_and_iterp_similar_fidelity(self):
        c = vqe_ansatz(10)
        solver = tan_solver_compile(c)
        iterp = tan_iterp_compile(c)
        assert solver.total_fidelity == pytest.approx(
            iterp.total_fidelity, abs=0.05
        )

    def test_solver_slower_than_iterp_at_scale(self):
        # Min of interleaved repeats: one wall-clock sample of the ~5 ms
        # IterP compile can absorb a scheduler stall on a loaded host.
        c = qaoa_regular(14, 3, seed=1)
        solver_s, iterp_s = [], []
        for _ in range(5):
            solver_s.append(tan_solver_compile(c).compile_seconds)
            iterp_s.append(tan_iterp_compile(c).compile_seconds)
        assert min(solver_s) > min(iterp_s)

    def test_architecture_single_aod(self):
        arch = solver_architecture()
        assert arch.num_aods == 1
        assert arch.slm_shape.capacity == 256

    def test_labels(self):
        c = vqe_ansatz(6)
        assert tan_solver_compile(c).architecture == "Tan-Solver"
        assert tan_iterp_compile(c).architecture == "Tan-IterP"
