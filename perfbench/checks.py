"""Correctness checks run on every benchmark op, outside the timed region.

Each check returns a list of problems; an empty list is a pass.  The
statevector check replays the stage program through
``repro.sim.replay.program_to_circuit`` and the ``repro.sim`` statevector
simulator, which share no code with the compiler's passes.
"""

from __future__ import annotations

import math

#: Largest register the statevector comparison simulates.
STATEVECTOR_MAX_QUBITS = 12


def quality(metrics) -> tuple:
    """The deterministic fields of a ``CompiledMetrics`` (timings excluded)."""
    return (
        metrics.num_2q_gates,
        metrics.num_1q_gates,
        metrics.depth,
        metrics.total_fidelity,
        metrics.additional_cnots,
        metrics.execution_seconds,
    )


def check_metrics(metrics, circuit, baseline: bool) -> list[str]:
    """Finite, in-range metrics; a baseline adds 2Q gates, never drops them."""
    problems = []
    values = (metrics.depth, metrics.num_2q_gates, metrics.total_fidelity)
    if not all(math.isfinite(v) for v in values):
        problems.append(f"non-finite metrics {values}")
    if not 0.0 <= metrics.total_fidelity <= 1.0:
        problems.append(f"fidelity {metrics.total_fidelity} outside [0, 1]")
    if metrics.depth <= 0 and circuit.num_2q_gates > 0:
        problems.append(f"depth {metrics.depth} for a circuit with 2Q gates")
    if baseline and metrics.num_2q_gates < circuit.num_2q_gates:
        problems.append(
            f"{metrics.num_2q_gates} 2Q gates < input's {circuit.num_2q_gates}"
        )
    return problems


def check_program(program, circuit, transpiled, final_layout) -> list[str]:
    """Stage gates on disjoint qubits; replay matches the transpiled circuit.

    For registers of at most :data:`STATEVECTOR_MAX_QUBITS` qubits the
    replayed program must also act like *circuit* once the final SWAP
    permutation is undone.
    """
    from repro.sim.replay import program_to_circuit
    from repro.sim.statevector import equivalent_up_to_permutation

    problems = []
    off, qa, qb = program.off_gate, program.gate_a, program.gate_b
    for stage in range(program.num_stages):
        used: set[int] = set()
        for i in range(off[stage], off[stage + 1]):
            if qa[i] in used or qb[i] in used or qa[i] == qb[i]:
                problems.append(f"stage {stage} reuses a qubit")
                break
            used.add(qa[i])
            used.add(qb[i])
    replayed = program_to_circuit(program)
    if replayed.num_2q_gates != transpiled.num_2q_gates:
        problems.append(
            f"replayed {replayed.num_2q_gates} 2Q gates, transpiled has "
            f"{transpiled.num_2q_gates}"
        )
    if circuit.num_qubits <= STATEVECTOR_MAX_QUBITS and not (
        equivalent_up_to_permutation(
            circuit.without_directives(), replayed, final_layout
        )
    ):
        problems.append("replayed program is not equivalent to the input")
    return problems


def program_fingerprint(program) -> int:
    """Hash of the program's gate and pulse columns (timings excluded)."""
    return hash(
        (
            tuple(program.off_gate),
            tuple(program.gate_a),
            tuple(program.gate_b),
            tuple(program.gate_name),
            tuple(program.off_raman),
            tuple(program.raman_qubit),
            tuple(program.raman_name),
        )
    )
