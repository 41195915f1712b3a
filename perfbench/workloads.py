"""The benchmark's three workloads: inputs from a seed, ops, and checks.

Seed semantics: instance ``i`` of a seeded family (QAOA, QSim) uses
generator seed ``table_seed + SEED_STRIDE * seed + i``, where
``table_seed`` is the seed ``repro.generators.suite`` (Table II) uses.  So
seed 0, instance 0 is exactly the Table II circuit.  Fixed circuits (BV,
HHL, LiH, ...) ignore the seed.  The compile seed stays at 7.
"""

from __future__ import annotations

import os
import random
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.baselines import atomique_adapter, registry
from repro.baselines.registry import CompileOptions
from repro.core import binformat
from repro.experiments import compile_on, raa_for
from repro.experiments.batch import CompileJob
from repro.generators import algorithms, qaoa, qsim
from repro.service.client import ServiceClient

from checks import (
    check_metrics,
    check_program,
    program_fingerprint,
    quality,
)

SEED_STRIDE = 1000


_FACTORIES = {
    "HHL-7": lambda s: algorithms.hhl_like(7),
    "Mermin-Bell-10": lambda s: algorithms.mermin_bell(10),
    "QV-32": lambda s: algorithms.quantum_volume(32),
    "BV-8": lambda s: algorithms.bernstein_vazirani(8),
    "BV-70": lambda s: algorithms.bernstein_vazirani(70),
    "H2-4": lambda s: qsim.h2_circuit(),
    "LiH-8": lambda s: qsim.lih_circuit(),
    "QSim-rand-6": lambda s: qsim.qsim_random(6, seed=6 + s),
    "QSim-rand-20": lambda s: qsim.qsim_random(20, seed=20 + s),
    "QSim-rand-40": lambda s: qsim.qsim_random(40, seed=40 + s),
    "QSim-rand-100": lambda s: qsim.qsim_random(100, seed=100 + s),
    "QSim-rand-20-p0.3": lambda s: qsim.qsim_random(
        20, non_identity_prob=0.3, seed=203 + s
    ),
    "QSim-rand-40-p0.3": lambda s: qsim.qsim_random(
        40, non_identity_prob=0.3, seed=403 + s
    ),
    "QAOA-rand-8": lambda s: qaoa.qaoa_random(8, seed=8 + s),
    "QAOA-rand-10": lambda s: qaoa.qaoa_random(10, seed=10 + s),
    "QAOA-rand-20": lambda s: qaoa.qaoa_random(20, seed=20 + s),
    "QAOA-rand-30": lambda s: qaoa.qaoa_random(30, seed=30 + s),
    "QAOA-rand-100": lambda s: qaoa.qaoa_random(100, seed=100 + s),
    "QAOA-regu5-40": lambda s: qaoa.qaoa_regular(40, 5, seed=40 + s),
    "QAOA-regu6-200": lambda s: qaoa.qaoa_regular(200, 6, seed=200 + s),
}


#: Families whose instances follow the seed; the others are fixed circuits.
SEEDED = {name for name in _FACTORIES if name.startswith(("QSim-", "QAOA-"))}


def build(name: str, seed: int, instance: int = 0):
    """Circuit *name* for workload *seed*; seed 0 gives the Table II one."""
    circuit = _FACTORIES[name](SEED_STRIDE * seed + instance)
    circuit.name = name
    return circuit


@dataclass
class Op:
    """One benchmark op: compile *circuit* on *arch*."""

    label: str
    circuit: object
    arch: str = "Atomique"
    #: deterministic outputs of the first run of each variant, for repeats
    first: dict = field(default_factory=dict)
    #: the first program fetched from the service, for the program checks
    store: object = None


@dataclass
class Row:
    """One timed op: its latency and what the checks found."""

    op: Op
    latency_s: float
    problems: list[str] = field(default_factory=list)
    metrics: object = None
    keep_program: bool = False
    output: object = None


class Workload:
    """Sequential closed loop, one thread, in process.

    Set-up builds ``SETS`` input sets; pass ``p`` runs set ``p % SETS``.
    Quality metrics cover the first ``SETS`` passes, so a run makes at
    least that many.  The cold op is fixed per workload (it does not
    follow the seed), so ``cold_op_s`` compares like with like.
    """

    name = ""
    SETS = 1
    #: per-circuit trace labels name the architecture too
    arch_in_label = False

    def __init__(self, seed: int, tiny: bool, rundir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.rundir = rundir
        self.sets: list[list[Op]] = []
        self.cold: Op | None = None
        self.setup_parts: dict[str, float] = {}
        self._ops: dict[tuple, Op] = {}

    def op(self, name: str, instance: int = 0, arch: str = "Atomique",
           seed: int | None = None) -> Op:
        """The (shared) op for circuit *name*; fixed circuits ignore
        *instance*, so every set reuses one op for them."""
        seed = self.seed if seed is None else seed
        if name not in SEEDED:
            instance = seed = 0
        key = (name, instance, arch, seed)
        if key not in self._ops:
            circuit = build(name, seed, instance)
            label = f"{arch}/{name}" if self.arch_in_label else name
            self._ops[key] = Op(label, circuit, arch)
        return self._ops[key]

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> tuple[list[str], object]:
        """``(problems, metrics)`` for one op's output."""
        raise NotImplementedError

    def run_one(self, op: Op, tracer=None) -> Row:
        """Run *op* (inside a trace span when traced), then check it."""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = self.execute(op)
            else:
                with tracer.op(op.label):
                    output = self.execute(op)
        except Exception as exc:  # a raising op is a failed op
            return Row(op, time.perf_counter() - t0, [repr(exc)])
        latency = time.perf_counter() - t0
        problems, metrics = self.check(op, output)
        return Row(op, latency, problems, metrics)

    def run_cold(self) -> Row:
        return self.run_one(self.cold)

    def run_pass(self, index: int, tracer=None) -> tuple[list[Row], float]:
        """Every op of set ``index % SETS`` once; ``(rows, timed s)``."""
        ops = self.sets[index % len(self.sets)]
        rows = [self.run_one(op, tracer) for op in ops]
        return rows, sum(r.latency_s for r in rows)

    def finish(self, rows: list[Row]) -> None:
        """Checks that need the whole run (the service defers to here)."""

    def service_overhead_s(self, rows: list[Row]) -> float | None:
        """Latency of *rows* beyond compiling their jobs in process; only
        the service workload has any."""
        return None

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


def _options(op: Op) -> CompileOptions:
    """Compile options built per compile, as the figure harnesses do: the
    RAA memoizes coupling maps, so one shared across passes would turn
    every repeat of an op into a warm compile."""
    raa = raa_for(op.circuit) if op.arch == "Atomique" else None
    return CompileOptions(raa=raa)


def _repeat_problems(op: Op, key: tuple) -> list[str]:
    """A repeat of an op must reproduce its first run exactly."""
    first = op.first.setdefault(None, key)
    return [] if first == key else [f"output differs from first run: {key}"]


class AtomiqueLarge(Workload):
    """Compile, score and v3-round-trip large circuits on Atomique.

    A set is BV-70, QSim-rand-100, QAOA-regu6-200, QAOA-rand-100 and a
    second QSim-rand-100 instance.  Two QSim instances put the median op
    inside one circuit's latency cluster instead of between two.  The cold
    op is the Table II QAOA-rand-100.
    """

    name = "atomique-large"
    SETS = 16

    def setup(self) -> None:
        if self.tiny:
            names, cold = ["BV-8", "QSim-rand-6", "QAOA-rand-8"], "QAOA-rand-8"
        else:
            names = ["BV-70", "QSim-rand-100", "QAOA-regu6-200",
                     "QAOA-rand-100", "QSim-rand-100"]
            cold = "QAOA-rand-100"
        for i in range(self.SETS):
            self.sets.append([
                self.op(name, 2 * i + (k == 4))
                for k, name in enumerate(names)
            ])
        self.cold = self.op(cold, seed=0)

    def execute(self, op: Op):
        result = registry.atomique_result(op.circuit, _options(op))
        metrics = atomique_adapter.metrics_from_result(result, op.circuit.name)
        data = binformat.encode_program(result.program)
        return result, metrics, data, binformat.decode_program(data)

    def check(self, op: Op, output) -> tuple[list[str], object]:
        result, metrics, data, store = output
        problems = check_metrics(metrics, op.circuit, baseline=False)
        problems += check_program(
            store, op.circuit, result.transpiled, result.final_layout
        )
        if binformat.encode_program(store) != data:
            problems.append("v3 round trip is not byte-identical")
        problems += _repeat_problems(op, quality(metrics))
        return problems, metrics


class ArchGrid(Workload):
    """One ``compile_on(arch, circuit)`` per cell of the Fig. 13 grid.

    The circuits are the Table II instances for every seed: a seeded
    QAOA-rand-20 alone moves a Superconducting cell between 0.7 and 1.5 s,
    which is where ``op_p90_ms`` sits.  The seed shuffles the cell order.
    The cold op is Superconducting on QAOA-rand-20 (about 1 s; a 0.1 s
    cold op read 19% apart between runs).
    """

    name = "arch-grid"
    arch_in_label = True
    CIRCUITS = [
        "HHL-7", "BV-70", "QSim-rand-40-p0.3", "LiH-8", "QAOA-rand-20",
        "QAOA-regu5-40",
    ]
    ARCHS = [
        "Superconducting", "Baker-Long-Range", "FAA-Rectangular",
        "FAA-Triangular", "Atomique",
    ]

    def setup(self) -> None:
        if self.tiny:
            names, cold = ["QAOA-rand-8", "QSim-rand-6"], "QSim-rand-6"
        else:
            names, cold = self.CIRCUITS, "QAOA-rand-20"
        cells = [
            self.op(name, arch=arch, seed=0)
            for name in names for arch in self.ARCHS
        ]
        random.Random(self.seed).shuffle(cells)
        self.sets = [cells]
        self.cold = self.op(cold, arch="Superconducting", seed=0)

    def execute(self, op: Op):
        return compile_on(op.arch, op.circuit, raa=_options(op).raa)

    def check(self, op: Op, metrics) -> tuple[list[str], object]:
        problems = check_metrics(
            metrics, op.circuit, baseline=op.arch != "Atomique"
        )
        if not op.first and op.arch == "Atomique":
            problems += _check_against_reference(op, metrics, _reference(op))
        problems += _repeat_problems(op, quality(metrics))
        return problems, metrics


def _reference(op: Op):
    """The in-process compile a service worker does for *op*: compile and
    score; ``(result, metrics, seconds)``."""
    t0 = time.perf_counter()
    result = registry.atomique_result(op.circuit, _options(op))
    metrics = atomique_adapter.metrics_from_result(result, op.circuit.name)
    return result, metrics, time.perf_counter() - t0


def _check_against_reference(
    op: Op, metrics, reference, store=None
) -> list[str]:
    """Metrics equal the in-process *reference* compile of the same job,
    and its program (or the fetched *store*) passes the program checks."""
    result, expected, _seconds = reference
    problems = []
    if quality(metrics) != quality(expected):
        problems.append(
            f"metrics {quality(metrics)} != in-process {quality(expected)}"
        )
    program = result.program
    if store is not None:
        if program_fingerprint(store) != program_fingerprint(program):
            problems.append("fetched program differs from in-process compile")
        program = store
    problems += check_program(
        program, op.circuit, result.transpiled, result.final_layout
    )
    return problems


SERVICE_CIRCUITS = [
    "HHL-7", "Mermin-Bell-10", "QV-32", "QSim-rand-20", "QSim-rand-40",
    "QSim-rand-20-p0.3", "QSim-rand-40-p0.3", "H2-4", "LiH-8",
    "QAOA-rand-10", "QAOA-rand-20", "QAOA-rand-30", "QAOA-regu5-40",
]


class ServiceSmall(Workload):
    """A real ``repro serve --shards 1`` daemon, two closed-loop clients.

    Every pass submits its set in a fresh seeded order, so the pairing of
    concurrent jobs varies; every second job in that order sets
    ``keep_program`` and fetches the program.  The cold op is HHL-7, the
    first job the cold worker sees.
    """

    name = "service-small"
    SETS = 4
    CLIENTS = 2

    def setup(self) -> None:
        names = ["HHL-7", "QAOA-rand-8", "QSim-rand-6"] if self.tiny else (
            SERVICE_CIRCUITS
        )
        self.sets = [[self.op(name, i) for name in names]
                     for i in range(self.SETS)]
        self.cold = self.op("HHL-7")
        self.order = random.Random(self.seed)
        t0 = time.perf_counter()
        self.daemon, address = _spawn_daemon(self.rundir)
        host, port = address.rsplit(":", 1)
        self.clients = [
            ServiceClient(host=host, port=int(port), timeout=120.0)
            for _ in range(self.CLIENTS)
        ]
        self.clients[0].wait_ready(timeout=60.0)
        self.setup_parts["daemon_ready"] = time.perf_counter() - t0

    def execute(self, op: Op, client, keep_program: bool):
        job = CompileJob("Atomique", op.circuit, _options(op))
        job_id = client.submit(job, keep_program=keep_program)
        metrics = client.result(job_id, wait=True)
        store = client.program(job_id) if keep_program else None
        return metrics, store

    def run_one(self, op: Op, tracer=None, client=None,
                keep_program: bool = False) -> Row:
        """Run *op*; its checks wait for :meth:`finish`, after the run."""
        client = client or self.clients[0]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                metrics, store = self.execute(op, client, keep_program)
            else:
                with tracer.op(op.label):
                    metrics, store = self.execute(op, client, keep_program)
        except Exception as exc:  # a raising op is a failed op
            return Row(op, time.perf_counter() - t0, [repr(exc)])
        row = Row(op, time.perf_counter() - t0, [], metrics, keep_program)
        # Only the first fetched store is kept, for the full program check;
        # repeats are compared by fingerprint.
        row.output = program_fingerprint(store) if store is not None else None
        op.first.setdefault(keep_program, (quality(metrics), row.output))
        if store is not None and op.store is None:
            op.store = store
        return row

    def run_pass(self, index: int, tracer=None) -> tuple[list[Row], float]:
        ops = list(self.sets[index % len(self.sets)])
        self.order.shuffle(ops)
        pending = iter([(op, i % 2 == 1) for i, op in enumerate(ops)])
        rows: list[Row] = []
        lock = threading.Lock()

        def loop(client) -> None:
            while True:
                with lock:
                    job = next(pending, None)
                if job is None:
                    return
                row = self.run_one(job[0], tracer, client, job[1])
                with lock:
                    rows.append(row)

        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=loop, args=(client,))
            for client in self.clients
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return rows, time.perf_counter() - t0

    def finish(self, rows: list[Row]) -> None:
        """Stop the daemon, then check every op against an in-process
        compile of its job; the compile and v3 encode are timed for
        ``service.overhead.s``."""
        self.close()
        self.reference_s: dict[int, tuple[float, float]] = {}
        verdict: dict[int, list[str]] = {}
        for op in {id(r.op): r.op for r in rows}.values():
            reference = _reference(op)
            t0 = time.perf_counter()
            binformat.encode_program(reference[0].program)
            self.reference_s[id(op)] = (
                reference[2], time.perf_counter() - t0
            )
            good = [r for r in rows if r.op is op and not r.problems]
            if good:
                verdict[id(op)] = _check_against_reference(
                    op, good[0].metrics, reference, op.store
                )
        for row in rows:
            if row.problems:
                continue
            row.problems = list(verdict[id(row.op)])
            key = (quality(row.metrics), row.output)
            if key != row.op.first[row.keep_program]:
                row.problems.append(f"output differs from first run: {key}")
            row.output = None

    def service_overhead_s(self, rows: list[Row]) -> float:
        """Sum over *rows* of latency minus the in-process cost of the
        row's job: compile, score, and the v3 encode when the job keeps
        its program."""
        total = 0.0
        for row in rows:
            compile_s, encode_s = self.reference_s[id(row.op)]
            total += row.latency_s - compile_s - encode_s * row.keep_program
        return total

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon's compile worker (``VmHWM``)."""
        peaks = [
            _vm_hwm_kb(pid)
            for pid in _children(self.daemon.pid)
            if b"spawn_main" in _cmdline(pid)
        ]
        if not peaks:
            raise RuntimeError("no compile worker found under the daemon")
        return max(peaks) / 1024.0

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is None:
            return
        self.daemon = None
        if daemon.poll() is None:
            try:
                self.clients[0].drain(timeout=60.0)
                daemon.wait(timeout=30.0)
            except Exception:  # any failure to drain: stop it the hard way
                daemon.kill()
                daemon.wait(timeout=30.0)
        daemon.stdout.close()


def _spawn_daemon(rundir: Path) -> tuple[subprocess.Popen, str]:
    """Start ``repro serve`` on a free TCP port; return it and host:port."""
    spool = rundir / f"spool-{os.getpid()}"
    with open(rundir / f"daemon-{os.getpid()}.log", "wb") as log:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--shards", "1",
             "--spool", str(spool), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=log,
        )
    ready, _, _ = select.select([daemon.stdout], [], [], 60.0)
    line = daemon.stdout.readline().decode() if ready else ""
    prefix = "repro-serve: listening on tcp:"
    if not line.startswith(prefix):
        daemon.kill()
        daemon.wait(timeout=30.0)
        daemon.stdout.close()
        raise RuntimeError(f"daemon did not start: {line!r}")
    return daemon, line[len(prefix):].strip()


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


def _cmdline(pid: int) -> bytes:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return b""


def _vm_hwm_kb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


WORKLOADS = {w.name: w for w in (AtomiqueLarge, ArchGrid, ServiceSmall)}
