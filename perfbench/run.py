"""End-to-end compile benchmark of the Atomique reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload atomique-large --seed 0 \\
        --seconds 18 --trace 0

Workloads: ``atomique-large``, ``arch-grid`` and ``service-small`` (see
``perfbench/README.md``).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; lines
before it starting with ``#`` are a human-readable summary.

Besides the measured process, each run starts ``PROBES`` short processes
that only set up and run the cold op.  ``setup_s`` and ``cold_op_s`` are
the medians over all of them.  Every end-to-end timing is scaled to a
reference host speed measured in the process that timed it
(``hostspeed.py``); the ``#`` lines give the main process's factor and
the unscaled wall times.  Everything the run writes goes under
``.perfbench_run/`` in the checkout and is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("atomique-large", "arch-grid", "service-small")
PROBES = 2
#: every process this run starts must be done by then (the limit is 180 s)
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cold_op_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "depth_gmean": "count",
    "two_q_gmean": "count",
    "fidelity_gmean": "fraction",
}

PER_LAYER = {
    "pass.lower.s": "s",
    "pass.array_mapper.s": "s",
    "pass.sabre_swap.s": "s",
    "pass.atom_mapper.s": "s",
    "pass.router.s": "s",
    "sabre.layout.s": "s",
    "sabre.route.s": "s",
    "sabre.calls": "count",
    "sabre.swaps": "count",
    "coupling.distance_matrix.s": "s",
    "coupling.distance_matrix.calls": "count",
    "coupling.distance_matrix.distinct": "count",
    "score.s": "s",
    "codec.encode.s": "s",
    "codec.decode.s": "s",
    "codec.bytes": "bytes",
    "client.submit.s": "s",
    "client.result.s": "s",
    "client.program.s": "s",
    "service.overhead.s": "s",
    "setup.import.s": "s",
    "setup.import_server.s": "s",
    "setup.daemon_ready.s": "s",
    "residual.s": "s",
    "trace.overhead_frac": "fraction",
}

IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); __import__(sys.argv[1]); "
    "print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    pass


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the *q* quantile.

    A Beta-weighted average of all order statistics.  The op latencies
    form clusters (one per circuit, or per grid cell), and a plain sample
    quantile that falls between two clusters jumps from one to the other
    with noise; this estimate moves smoothly instead.
    """
    from scipy.stats import beta

    xs = sorted(values)
    n = len(xs)
    cdf = beta.cdf([i / n for i in range(n + 1)], q * (n + 1), (1 - q) * (n + 1))
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs)))


class Runner:
    def __init__(self, args, rundir: Path) -> None:
        self.args = args
        self.rundir = rundir
        self.deadline = time.monotonic() + DEADLINE_S
        # One BLAS thread: the load is one thread per process.  With the
        # default OpenBLAS pool, the small float32 products in
        # CouplingMap.distance_matrix ran 3x slower, and the pool's
        # spinning threads took CPU from the compile beside them.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **dict.fromkeys(BLAS_THREAD_VARS, "1"))

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def child(self, probe: bool) -> tuple[float, dict]:
        """Run one child; return (parent-clocked set-up seconds, result)."""
        a = self.args
        cmd = [sys.executable, str(CHILD), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds),
               "--rundir", str(self.rundir)]
        cmd += ["--trace"] * (a.trace == 1) + ["--tiny"] * a.tiny
        cmd += ["--probe"] * probe
        t0 = time.perf_counter()
        # Unbuffered, so select() never misses a line already read ahead;
        # a session of its own, so a kill also reaches a daemon it started.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env,
                                cwd=ROOT, bufsize=0, start_new_session=True)
        setup_s = result = None
        try:
            while True:
                ready, _, _ = select.select([proc.stdout], [], [],
                                            self.remaining())
                line = proc.stdout.readline() if ready else b""
                if not line:
                    break
                if not line.startswith(b"@perfbench "):
                    continue
                message = json.loads(line[len(b"@perfbench "):])
                if message["event"] == "ready":
                    setup_s = time.perf_counter() - t0
                elif message["event"] == "result":
                    result = message
            code = proc.wait(timeout=self.remaining())
        finally:
            try:  # the child if it overran, and anything it left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            proc.stdout.close()
        if code != 0 or setup_s is None or result is None:
            raise BenchError(f"child exited with {code}: {' '.join(cmd)}")
        return setup_s, result

    def import_seconds(self, module: str, samples: int = 3) -> float:
        """Median in-interpreter import time of *module*, fresh each time."""
        times = []
        for _ in range(samples):
            out = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE, module],
                env=self.env, cwd=ROOT, capture_output=True, check=True,
                timeout=self.remaining(),
            )
            times.append(float(out.stdout))
        return statistics.median(times)


def measure(runner: Runner) -> tuple[dict, dict, list[str]]:
    """(metrics, main child's result, problems) for one run."""
    args = runner.args
    # Half the probes run before the measured process and half after, so
    # their medians span the run rather than one moment of the host.
    count = 1 if args.tiny else PROBES
    probes = [runner.child(probe=True) for _ in range(count // 2)]
    setup_s, main = runner.child(probe=False)
    probes += [runner.child(probe=True) for _ in range(count - count // 2)]
    samples = probes + [(setup_s, main)]
    attempted = main["attempted"] + sum(r["attempted"] for _, r in probes)
    failed = main["failed"] + sum(r["failed"] for _, r in probes)
    problems = main["problems"] + [p for _, r in probes for p in r["problems"]]
    if args.trace:
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(
            (k, v) for k, v in main["layers"].items() if k in PER_LAYER
        )
        layers["setup.import.s"] = runner.import_seconds("repro.experiments")
        layers["setup.import_server.s"] = runner.import_seconds(
            "repro.service.server"
        )
        if args.workload == "service-small":
            layers["setup.daemon_ready.s"] = statistics.median(
                r["setup_parts"]["daemon_ready"] for _, r in samples
            )
        metrics = {k: (layers[k], PER_LAYER[k]) for k in PER_LAYER}
    else:
        op_s = main["op_s"]
        # Each process's timings are scaled by its own host factor: the
        # probes run at other moments of the host than the main process.
        factors = [hostspeed.factor(r["speed_s"]) for _, r in samples]
        main["host_factor"] = factors[-1]
        main["raw_timings"] = raw = {
            "setup_s": statistics.median(s for s, _ in samples),
            "run_s": statistics.median(main["pass_s"]),
            "op_p50_ms": hd_quantile(op_s, 0.5) * 1e3,
            "op_p90_ms": hd_quantile(op_s, 0.9) * 1e3,
            "cold_op_s": statistics.median(r["cold_op_s"] for _, r in samples),
        }
        values = {
            "setup_s": statistics.median(
                s * f for (s, _), f in zip(samples, factors)
            ),
            "run_s": raw["run_s"] * main["host_factor"],
            "op_p50_ms": raw["op_p50_ms"] * main["host_factor"],
            "op_p90_ms": raw["op_p90_ms"] * main["host_factor"],
            "cold_op_s": statistics.median(
                r["cold_op_s"] * f for (_, r), f in zip(samples, factors)
            ),
            "peak_rss_mb": main["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
            "depth_gmean": main["depth_gmean"],
            "two_q_gmean": main["two_q_gmean"],
            "fidelity_gmean": main["fidelity_gmean"],
        }
        metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
    main["attempted"], main["failed"] = attempted, failed
    return metrics, main, problems


def summary(args, metrics: dict, main: dict, problems: list[str]) -> None:
    """The human-readable ``#`` lines printed before the JSON result."""
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(main['op_s'])} passes={len(main['pass_s'])} "
          f"attempted={main['attempted']} failed={main['failed']} "
          f"failed_frac={main['failed'] / main['attempted']:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:36s} {value:14.6g} {unit}")
    if "host_factor" in main:
        print(f"# timings above are scaled to the reference host speed "
              f"(main process: host_factor={main['host_factor']:.4f}); "
              f"unscaled wall times:")
        for name, value in main["raw_timings"].items():
            print(f"#   {name:36s} {value:14.6g} {END_TO_END[name]}")
    for problem in problems:
        print(f"# FAILED {problem}")
    if args.trace:
        print("# per-circuit self time per op (s) and counters per op:")
        for label, row in main["per_circuit"].items():
            print(f"#   {label}: {json.dumps(row, sort_keys=True)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run it "
              "from a full checkout", file=sys.stderr)
        return 2
    rundir = ROOT / ".perfbench_run" / str(os.getpid())
    rundir.mkdir(parents=True)
    try:
        metrics, main_result, problems = measure(Runner(args, rundir))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    summary(args, metrics, main_result, problems)
    print(json.dumps({
        "correct": main_result["failed"] == 0,
        "attempted": main_result["attempted"],
        "failed": main_result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
