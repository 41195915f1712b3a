"""One benchmark process: set up a workload, time it, check it, report.

Started by ``run.py`` in a fresh interpreter, so its set-up is what a user
pays.  It prints ``@perfbench {"event": "ready"}`` just before the first
timed op (the parent clocks set-up up to that line) and one
``@perfbench {"event": "result", ...}`` line at the end.  With
``--probe`` it stops after the cold op: those runs give ``run.py`` more
set-up and cold-op samples.  Every process also times the host-speed
kernel (``hostspeed.py``) after its cold op and after each pass, outside
the timed region.
"""

import argparse
import json
import sys
import time
from pathlib import Path

#: Fig. 13 floors fidelities at 1e-6 before taking the geometric mean.
FIDELITY_FLOOR = 1e-6
COUNTERS = (
    "sabre.calls",
    "sabre.swaps",
    "coupling.distance_matrix.calls",
    "coupling.distance_matrix.distinct",
    "codec.bytes",
)
#: host-speed kernel runs after the cold op, in every process
PROBE_SPEED_SAMPLES = 16


def emit(event: str, **payload) -> None:
    print("@perfbench " + json.dumps({"event": event, **payload}), flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--rundir", required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import hostspeed
    import workloads
    from repro.analysis.metrics import geometric_mean
    from tracer import Tracer, tracing

    parts = {"import": time.perf_counter() - t0}
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.tiny, Path(args.rundir)
    )
    try:
        t0 = time.perf_counter()
        workload.setup()
        parts["inputs"] = time.perf_counter() - t0
        parts.update(workload.setup_parts)
        emit("ready")
        cold = workload.run_cold()
        rows = [cold]
        speed_s = hostspeed.sample(PROBE_SPEED_SAMPLES)
        if args.probe:
            workload.finish(rows)
            emit("result", setup_parts=parts, cold_op_s=cold.latency_s,
                 attempted=1, failed=int(bool(cold.problems)),
                 problems=cold.problems[:5], speed_s=speed_s)
            return 0

        tracer = Tracer() if args.trace else None
        sets = workload.SETS
        untraced_s: list[float] = []
        traced_s: list[float] = []
        traced_rows = []
        quality_rows = []
        n = 0
        while True:
            if not args.trace:
                pass_rows, wall = workload.run_pass(n)
                untraced_s.append(wall)
                if n < sets:
                    quality_rows += pass_rows
            elif n == 0:  # warm-up, left out of trace.overhead_frac
                pass_rows, wall = workload.run_pass(0)
                untraced_s.append(wall)
            else:
                # Pairs of passes on one input set, traced first and
                # untraced first in turn, so neither side always runs warm.
                k, second = divmod(n - 1, 2)
                if second == k % 2:
                    tracer.new_pass()
                    with tracing(tracer):
                        pass_rows, wall = workload.run_pass(k, tracer)
                    traced_s.append(wall)
                    traced_rows += pass_rows
                else:
                    pass_rows, wall = workload.run_pass(k)
                    untraced_s.append(wall)
            rows += pass_rows
            speed_s += hostspeed.after_pass(wall)
            n += 1
            # Whole passes until --seconds of timed work, and at least one
            # pass per input set (untraced) or one traced pair (traced).
            if sum(untraced_s) + sum(traced_s) >= args.seconds and (
                n >= 3 and n % 2 == 1 if args.trace else n >= sets
            ):
                break
        peak_rss_mb = workload.peak_rss_mb()
        workload.finish(rows)
    finally:
        workload.close()

    traced_ids = {id(r) for r in traced_rows}
    op_s = [r.latency_s for r in rows[1:] if id(r) not in traced_ids]
    failed = [r for r in rows if r.problems]
    metrics = [r.metrics for r in quality_rows if r.metrics is not None]
    result = {
        "setup_parts": parts,
        "cold_op_s": cold.latency_s,
        "speed_s": speed_s,
        "pass_s": untraced_s,
        "op_s": op_s,
        "attempted": len(rows),
        "failed": len(failed),
        "problems": [f"{r.op.label}: {r.problems}" for r in failed[:5]],
        "peak_rss_mb": peak_rss_mb,
        "depth_gmean": geometric_mean([m.depth for m in metrics]),
        "two_q_gmean": geometric_mean([m.num_2q_gates for m in metrics]),
        "fidelity_gmean": geometric_mean(
            [m.total_fidelity for m in metrics], floor=FIDELITY_FLOOR
        ),
    }
    if args.trace:
        result.update(layer_report(tracer, workload, traced_s, untraced_s,
                                   traced_rows))
    emit("result", **result)
    return 0


def _metric_name(span: str) -> str:
    if span == "op":
        return "residual.s"
    return span if span in COUNTERS else f"{span}.s"


def layer_report(tracer, workload, traced_s, untraced_s, traced_rows) -> dict:
    """Per-layer self time and counters, per traced pass and per op label."""
    passes = len(traced_s)
    layers = {
        f"{name}.s": total / passes
        for name, total in tracer.self_s.items()
        if name != "op"
    }
    layers["residual.s"] = tracer.self_s["op"] / passes
    for name in COUNTERS:
        layers[name] = tracer.counts[name] / passes
    layers["trace.overhead_frac"] = sum(traced_s) / sum(untraced_s[1:]) - 1.0
    overhead = workload.service_overhead_s(traced_rows)
    if overhead is not None:
        layers["service.overhead.s"] = overhead / passes
    per_circuit = {
        label: {
            _metric_name(name): round(total / tracer.op_count[label], 6)
            for name, total in sorted(totals.items())
        }
        for label, totals in sorted(tracer.by_label.items())
    }
    return {
        "layers": layers,
        "per_circuit": per_circuit,
        "traced_pass_s": traced_s,
    }


if __name__ == "__main__":
    sys.exit(main())
