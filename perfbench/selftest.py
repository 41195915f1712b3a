"""Fast self-test of the benchmark: tiny inputs, every metric, no failures.

    python3 -m pytest perfbench/selftest.py      # or
    python3 perfbench/selftest.py

Each workload runs once untraced and once traced on ``--tiny`` inputs
(registers of at most 8 qubits, so the statevector check runs on every
Atomique op).  The file is not named ``test_*.py``, so the repository's
tier-1 ``pytest`` run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(workload: str, trace: int) -> dict:
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stdout
    assert result["attempted"] >= 1
    return result


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], float), m["name"]


def test_end_to_end_metrics():
    for workload in SPEC["workloads"]:
        result = result_of(workload["name"], 0)
        assert_metrics(result, SPEC["end_to_end"])
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


#: a layer each workload must have seen, per traced run
LAYERS_SEEN = {
    "atomique-large": ["pass.router.s", "sabre.route.s", "codec.encode.s",
                       "codec.decode.s", "score.s"],
    "arch-grid": ["sabre.layout.s", "coupling.distance_matrix.s",
                  "pass.router.s", "score.s"],
    "service-small": ["client.submit.s", "client.result.s",
                      "client.program.s", "codec.decode.s",
                      "setup.daemon_ready.s"],
}


def test_per_layer_metrics():
    for workload in SPEC["workloads"]:
        result = result_of(workload["name"], 1)
        assert_metrics(result, SPEC["per_layer"])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        for name in LAYERS_SEEN[workload["name"]]:
            assert values[name] > 0, (workload["name"], name)
        assert values["setup.import.s"] > 0
        assert values["setup.import_server.s"] > 0


def test_default_seed_builds_the_table_ii_circuits():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads
    from repro.bench import bench_suite
    from repro.generators.suite import main_suite

    suite = {spec.name: spec.build() for spec in main_suite()}
    large = ["QAOA-rand-100", "QAOA-regu6-200", "QSim-rand-100"]
    for spec in bench_suite():
        if spec.name in large:
            suite[spec.name] = spec.factory()
    names = (
        workloads.ArchGrid.CIRCUITS + workloads.SERVICE_CIRCUITS
        + ["BV-70"] + large
    )
    for name in names:
        ours = workloads.build(name, seed=0)
        assert [(g.name, g.qubits, g.params) for g in ours.gates] == [
            (g.name, g.qubits, g.params) for g in suite[name].gates
        ], name
    assert workloads.SERVICE_CIRCUITS == [
        spec.name for spec in main_suite() if suite[spec.name].num_qubits <= 40
    ]


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run("arch-grid", 0, cwd=bare)
        assert out.returncode != 0
        assert out.stdout == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
