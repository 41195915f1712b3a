"""A compile worker's import graph stays free of scipy, networkx and numpy.ma.

A spawn-started shard worker imports ``repro.service.server`` before its
first job, so every module that import pulls in is paid on each worker
boot.  Neither scipy nor networkx is needed to compile or score a job:
the loss term's erf is a bit-exact port, and networkx only serves the
circuit generators.  ``numpy.ma`` is what numpy's ``unique`` and
``union1d`` import on first use; SABRE dedupes without them, so the
first compile does not pay for it.  The check runs in a fresh
interpreter, since this test process has long since imported all three.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

PROBE = """
import sys
import repro.experiments.batch
import repro.service.server
from repro.baselines.atomique_adapter import metrics_from_result
from repro.baselines.registry import CompileOptions, atomique_result
from repro.circuits.circuit import QuantumCircuit

circuit = QuantumCircuit(24, "probe")
for q in range(24):
    circuit.h(q)
for a in range(24):
    for b in range(a + 1, 24, 3):
        circuit.rzz(0.5, a, b)
result = atomique_result(circuit, CompileOptions())
assert result.num_swaps > 0  # SABRE's scorer ran
metrics = metrics_from_result(result, circuit.name, "Atomique")
assert 0.0 < metrics.fidelity.total <= 1.0
print(",".join(m for m in ("scipy", "networkx", "numpy.ma") if m in sys.modules))
"""


def test_compile_and_score_load_no_scipy_networkx_or_numpy_ma():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
