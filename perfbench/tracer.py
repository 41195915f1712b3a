"""Outside-in span recorder: times each layer by wrapping its public calls.

Nothing in ``src/`` is instrumented.  :class:`Tracer` swaps module and
class attributes for timing wrappers while it is installed and restores
them afterwards, so untraced passes run the program exactly as shipped.

Every span records *self time*: its wall time minus the wall time of the
spans opened inside it.  Spans nest per thread, so two client threads of
the service workload never charge each other.  A call whose innermost
open span is the same layer (or a layer listed in ``absorb``) opens no
span of its own: the inner ``sabre_route`` calls of a layout search are
layout time, and a recursive call is the caller's time.  Counters
(``sabre.swaps``, ``codec.bytes``, ...) are updated by per-site hooks,
which run in the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Per-layer self-time and counter accumulator, optionally per label."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.by_label: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.op_count: dict[str, int] = defaultdict(int)
        self.new_pass()

    def new_pass(self) -> None:
        """Start a pass: ``coupling.distance_matrix.distinct`` is per pass."""
        self._distinct: set[tuple] = set()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _label(self) -> str:
        return getattr(self._local, "label", "")

    def _close(self, frame: list, end: float) -> float:
        name, start, child = frame
        wall = end - start
        stack = self._stack()
        if stack:
            stack[-1][2] += wall
        with self._lock:
            self.self_s[name] += wall - child
            self.by_label[self._label()][name] += wall - child
        return wall

    @contextmanager
    def op(self, label: str):
        """Root span of one benchmark op; its self time is the residual."""
        self._local.label = label
        with self._lock:
            self.op_count[label] += 1
        frame = ["op", time.perf_counter(), 0.0]
        self._stack().append(frame)
        try:
            yield
        finally:
            self._stack().pop()
            self._close(frame, time.perf_counter())

    def wrap(self, fn, name: str, absorb: tuple[str, ...] = (), hook=None):
        """*fn* timed as span *name*; *hook(tracer, result)* counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if not stack:  # outside an op: checks and set-up stay untimed
                return fn(*args, **kwargs)
            if stack[-1][0] == name or stack[-1][0] in absorb:
                result = fn(*args, **kwargs)
            else:
                frame = [name, time.perf_counter(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    self._close(frame, time.perf_counter())
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount
            self.by_label[self._label()][name] += amount

    # -- patching ----------------------------------------------------------

    def patch(self, target, attr: str, name: str, **kw) -> None:
        """Replace ``target.attr`` (a module path or object) by a wrapper."""
        if isinstance(target, str):
            target = importlib.import_module(target)
        original = getattr(target, attr)
        self._patches.append((target, attr, original))
        setattr(target, attr, self.wrap(original, name, **kw))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    @contextmanager
    def installed(self, sites):
        """Install every ``(target, attr, name, kwargs)`` site for the block."""
        for target, attr, name, kw in sites:
            self.patch(target, attr, name, **kw)
        try:
            yield self
        finally:
            self.uninstall()


# -- counter hooks -------------------------------------------------------------


def _count_sabre(tracer: Tracer, result) -> None:
    tracer.count("sabre.calls")
    tracer.count("sabre.swaps", result.num_swaps)


def _count_distance_matrix(tracer: Tracer, dist) -> None:
    tracer.count("coupling.distance_matrix.calls")
    # Two graphs are the same exactly when their distance matrices are.
    key = (dist.shape, hash(dist.tobytes()))
    if key not in tracer._distinct:
        tracer._distinct.add(key)
        tracer.count("coupling.distance_matrix.distinct")


def _count_bytes(tracer: Tracer, result) -> None:
    tracer.count("codec.bytes", len(result))


def _traced_default_passes(tracer: Tracer, original):
    def default_passes():
        passes = original()
        for p in passes:
            p.run = tracer.wrap(p.run, f"pass.{p.name}")
        return passes

    return default_passes


def layer_sites() -> list[tuple]:
    """Every call site the benchmark wraps, as ``Tracer.installed`` input.

    The passes are wrapped per instance instead, by :func:`tracing`.
    """
    from repro.hardware.coupling import CouplingMap
    from repro.service.client import ServiceClient

    sabre = {"hook": _count_sabre}
    sites = [
        ("repro.transpile.sabre", "sabre_route", "sabre.route",
         {"absorb": ("sabre.layout",), **sabre}),
        ("repro.transpile.sabre", "sabre_layout", "sabre.layout", {}),
        ("repro.core.pipeline", "sabre_route", "sabre.route", sabre),
        ("repro.baselines.faa_compiler", "sabre_route", "sabre.route", sabre),
        ("repro.baselines.faa_compiler", "route_with_sabre", "sabre.route", {}),
        ("repro.baselines.superconducting", "route_with_sabre", "sabre.route",
         {}),
        (CouplingMap, "distance_matrix", "coupling.distance_matrix",
         {"hook": _count_distance_matrix}),
        ("repro.baselines.atomique_adapter", "metrics_from_result", "score", {}),
        ("repro.baselines.faa_compiler", "estimate_circuit_fidelity", "score",
         {}),
        ("repro.baselines.faa_compiler", "asap_schedule", "score", {}),
        ("repro.baselines.superconducting", "estimate_circuit_fidelity",
         "score", {}),
        ("repro.baselines.superconducting", "asap_schedule", "score", {}),
        ("repro.core.binformat", "encode_program", "codec.encode",
         {"hook": _count_bytes}),
        ("repro.core.binformat", "decode_program", "codec.decode", {}),
    ]
    return sites + [
        (ServiceClient, op, f"client.{op}", {})
        for op in ("submit", "result", "program")
    ]


@contextmanager
def tracing(tracer: Tracer):
    """Install every layer wrapper (passes included) for the block."""
    from repro.core import pipeline

    original = pipeline.default_passes
    pipeline.default_passes = _traced_default_passes(tracer, original)
    try:
        with tracer.installed(layer_sites()):
            yield tracer
    finally:
        pipeline.default_passes = original
