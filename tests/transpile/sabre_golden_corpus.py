"""Golden corpus for the SABRE swap engine.

Defines a small fixed set of (circuit, coupling, seed) routing cases and a
fingerprint function capturing everything the incremental-SABRE rewrite must
preserve bit-for-bit: the exact inserted-SWAP sequence, the full routed gate
stream (hashed), and the initial/final layouts.

``golden_sabre.json`` next to this file was generated from the pre-rewrite
(naive rescoring) implementation by running::

    PYTHONPATH=src python tests/transpile/sabre_golden_corpus.py

The device cases (heavy-hex, FAA-Triangular, long-range FAA from a dense
layout, and a 100-qubit multipartite graph) were added later, generated from
the incremental scorer with its per-ext-pair extended-set loop, before that
loop became one broadcast; the entries before them were left byte-identical.

Regenerating it with a behaviour-changing SABRE is exactly the failure the
golden test exists to catch — only regenerate after an *intentional*
algorithm change, and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_sabre.json")


def _grid_random(num_qubits, gates_per_qubit, degree, seed):
    from repro.circuits import random_circuit

    return random_circuit(num_qubits, gates_per_qubit, degree, seed=seed)


def _lowered_qaoa(num_qubits, seed):
    from repro.circuits.decompose import lower_to_two_qubit
    from repro.generators import qaoa_random

    return lower_to_two_qubit(qaoa_random(num_qubits, seed=seed).without_directives())


def _multipartite_case():
    """SABRE on the RAA complete multipartite graph (Atomique's SWAP pass)."""
    from repro.hardware import RAAArchitecture

    circ = _lowered_qaoa(10, 10)
    arch = RAAArchitecture.default(side=4, num_aods=2)
    assignment = [i % 3 for i in range(10)]
    return circ, arch.multipartite_coupling(assignment)


def _heavy_hex(num_qubits):
    """The superconducting baseline's heavy-hex device (127+ qubits)."""
    from repro.hardware.superconducting import SuperconductingArchitecture

    return SuperconductingArchitecture.for_circuit(num_qubits).coupling_map()


def _faa(num_qubits, topology):
    from repro.hardware.faa import FAAArchitecture

    return FAAArchitecture.for_circuit(num_qubits, topology=topology).coupling_map()


def _multipartite100():
    """QAOA-rand-100-sized complete multipartite graph over three arrays."""
    from repro.hardware import RAAArchitecture

    arch = RAAArchitecture.default(side=10, num_aods=2)
    return arch.multipartite_coupling([i % 3 for i in range(100)])


#: Device cases beyond the small grids: the Fig. 13 baselines' maps and an
#: Atomique-sized multipartite graph.  ``name -> (circuit, coupling)``.
_DEVICE_CASES = {
    "heavyhex-qaoa20": (lambda: _lowered_qaoa(20, 20), lambda: _heavy_hex(20)),
    "faatri-rand16": (
        lambda: _grid_random(16, 6.0, 4.0, 16),
        lambda: _faa(16, "triangular"),
    ),
    "faalr-qaoa20": (lambda: _lowered_qaoa(20, 21), lambda: _faa(20, "long_range")),
    "mp-qaoa100": (lambda: _lowered_qaoa(100, 100), _multipartite100),
}


def _trivial(num_logical, coupling):
    from repro.transpile import Layout

    return Layout.trivial(num_logical)


def _dense(num_logical, coupling):
    from repro.transpile import dense_layout

    return dense_layout(num_logical, coupling)


def route_cases():
    """``name -> (circuit_factory, coupling_factory, route_seed,
    initial_layout_factory)``; the layout factory takes
    ``(num_logical, coupling)``."""
    from repro.circuits import QuantumCircuit
    from repro.hardware import CouplingMap, grid_coupling

    cases = {
        "line3-cx02": (
            lambda: QuantumCircuit(3).cx(0, 2),
            lambda: CouplingMap(3, [(0, 1), (1, 2)]),
            0,
            _trivial,
        ),
        "mp-qaoa10": (
            lambda: _multipartite_case()[0],
            lambda: _multipartite_case()[1],
            7,
            _trivial,
        ),
    }
    for seed in (0, 1, 2):
        cases[f"grid43-rand12-s{seed}"] = (
            lambda seed=seed: _grid_random(12, 6.0, 4.0, seed),
            lambda: grid_coupling(4, 3),
            seed,
            _trivial,
        )
    for name, (circ_f, cm_f) in _DEVICE_CASES.items():
        # The long-range FAA baseline routes from a dense static layout.
        lay_f = _dense if name.startswith("faalr") else _trivial
        cases[name] = (circ_f, cm_f, 7, lay_f)
    return cases


def layout_cases():
    """``name -> (circuit_factory, coupling_factory, num_iterations, seed)``."""
    from repro.hardware import grid_coupling

    return {
        "layout-grid43-s1": (
            lambda: _grid_random(10, 5.0, 3.0, 1),
            lambda: grid_coupling(4, 3),
            2,
            1,
        ),
        "layout-grid44-s9": (
            lambda: _grid_random(16, 10.0, 4.0, 2),
            lambda: grid_coupling(4, 4),
            3,
            9,
        ),
    } | {
        f"layout-{name}": (circ_f, cm_f, 2, 7)
        for name, (circ_f, cm_f) in _DEVICE_CASES.items()
    }


def full_cases():
    """``name -> (circuit_factory, coupling_factory, layout_iterations, seed)``
    for the full ``route_with_sabre`` pipeline."""
    from repro.hardware import grid_coupling

    return {
        "full-grid44-s3": (
            lambda: _grid_random(14, 8.0, 4.0, 3),
            lambda: grid_coupling(4, 4),
            2,
            3,
        ),
    } | {
        f"full-{name}": (circ_f, cm_f, 2, 7)
        for name, (circ_f, cm_f) in _DEVICE_CASES.items()
    }


def gate_stream_digest(circuit) -> str:
    """SHA-256 over the exact routed gate stream (name, qubits, params)."""
    h = hashlib.sha256()
    for g in circuit.gates:
        h.update(
            f"{g.name}|{tuple(int(q) for q in g.qubits)}|"
            f"{tuple(float(p) for p in g.params)};".encode()
        )
    return h.hexdigest()


def route_fingerprint(result) -> dict:
    """Everything the rewrite must reproduce exactly for one routing run."""
    swaps = [
        [int(q) for q in result.circuit.gates[i].qubits]
        for i in result.swap_gate_indices
    ]
    return {
        "num_swaps": int(result.num_swaps),
        "swap_sequence": swaps,
        "gate_stream_sha256": gate_stream_digest(result.circuit),
        "num_gates": len(result.circuit.gates),
        "initial_layout": {
            str(q): int(p) for q, p in sorted(result.initial_layout.as_dict().items())
        },
        "final_layout": {
            str(q): int(p) for q, p in sorted(result.final_layout.as_dict().items())
        },
    }


def layout_fingerprint(layout) -> dict:
    return {str(q): int(p) for q, p in sorted(layout.as_dict().items())}


def capture_all() -> dict:
    from repro.transpile import route_with_sabre, sabre_layout, sabre_route

    out: dict = {"route": {}, "layout": {}, "full": {}}
    for name, (circ_f, cm_f, seed, lay_f) in sorted(route_cases().items()):
        circ, cm = circ_f(), cm_f()
        res = sabre_route(circ, cm, lay_f(circ.num_qubits, cm), seed=seed)
        out["route"][name] = route_fingerprint(res)
    for name, (circ_f, cm_f, iters, seed) in sorted(layout_cases().items()):
        lay = sabre_layout(circ_f(), cm_f(), num_iterations=iters, seed=seed)
        out["layout"][name] = layout_fingerprint(lay)
    for name, (circ_f, cm_f, iters, seed) in sorted(full_cases().items()):
        res = route_with_sabre(circ_f(), cm_f(), layout_iterations=iters, seed=seed)
        out["full"][name] = route_fingerprint(res)
    return out


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture_all(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
