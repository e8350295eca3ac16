"""Outside-in per-layer tracing for the end-to-end benchmark.

:class:`LayerTracer` times calls into each layer of the swarm stack
without touching ``src/``: :meth:`LayerTracer.install` replaces the
layer's public entry points (class attributes, and the module-level
``build_swarm_scenario`` name the session looks up) with timing
wrappers, and :meth:`LayerTracer.uninstall` puts the originals back.

Spans nest on one stack, because the simulator is single-threaded and
every generator resume happens inside the ``EventQueue.step`` that
woke it.  A span's *self time* is its duration minus the time covered
by its child spans, so self times add up to the traced wall time with
nothing counted twice.

Two cases are not one span per call:

* **Generators.**  A wrapped generator function returns a proxy
  whose ``send``/``throw`` open one span per resume, so a pull that
  waits on 40 transfers is 41 short spans, never one span across
  simulated waiting.
* **The engine solve.**  ``EngineProfile.recompute_ns_total`` (the
  engine's own wall-clock timer around each fair-share recompute) is
  read at span entry and exit; whatever grew inside a span and not
  inside any of its children is charged as a virtual
  ``transfers.solve`` child of that span.

Spans opened under a ``pull``/``pull_process`` call carry that pull's
id.  All spans stay in memory until :meth:`LayerTracer.chrome_trace`
renders them.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Pseudo-layer the virtual engine-solve children are charged to.
SOLVE = "transfers.solve"

#: Pseudo-layer of the root span around ``SimulationSession.run``; its
#: self time is the run wall no named layer accounts for.
ROOT = "session.run"

# Frame fields of an open span (a list, mutated as children close).
_NAME, _START, _CHILD_NS, _SOLVE0, _CHILD_SOLVE, _PULL = range(6)


class LayerTracer:
    """A span stack with per-layer call counts and self times.

    ``clock`` returns integer nanoseconds; ``solve_source`` is any
    object with a cumulative ``recompute_ns_total`` (the session's
    ``EngineProfile``), or None when the run has no transfer engine.
    Both are injectable so the arithmetic is testable without a
    simulation.
    """

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        self.clock = clock
        self.solve_source: Any = None
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        #: Closed spans: (name, start_ns, duration_ns, pull id, solve_ns).
        self.spans: List[Tuple[str, int, int, Optional[int], int]] = []
        #: ``PeerSwarm.verify_holder`` calls that confirmed the holder.
        self.verify_ok = 0
        self._stack: List[list] = []
        self._next_pull = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- the span stack --------------------------------------------------
    def _solve_now(self) -> int:
        source = self.solve_source
        return source.recompute_ns_total if source is not None else 0

    def new_pull(self) -> int:
        pull = self._next_pull
        self._next_pull += 1
        return pull

    def enter(self, name: str, pull: Optional[int] = None) -> None:
        stack = self._stack
        if pull is None and stack:
            pull = stack[-1][_PULL]
        stack.append([name, self.clock(), 0, self._solve_now(), 0, pull])

    def exit(self) -> None:
        end = self.clock()
        frame = self._stack.pop()
        name = frame[_NAME]
        duration = end - frame[_START]
        solve = self._solve_now() - frame[_SOLVE0]
        own_solve = solve - frame[_CHILD_SOLVE]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = (
            self.self_ns.get(name, 0) + duration - frame[_CHILD_NS] - own_solve
        )
        if own_solve:
            self.self_ns[SOLVE] = self.self_ns.get(SOLVE, 0) + own_solve
        if self._stack:
            parent = self._stack[-1]
            parent[_CHILD_NS] += duration
            parent[_CHILD_SOLVE] += solve
        self.spans.append(
            (name, frame[_START], duration, frame[_PULL], own_solve)
        )

    # -- wrappers ---------------------------------------------------------
    def wrap_call(
        self, name: str, fn: Callable, *, pull: bool = False
    ) -> Callable:
        """``fn`` timed as one span per call (a new pull id if ``pull``)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name, tracer.new_pull() if pull else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def wrap_generator(
        self, name: str, fn: Callable, *, pull: bool = False
    ) -> Callable:
        """``fn`` (a generator function) timed as one span per resume."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pull_id = tracer.new_pull() if pull else None
            return _ResumeProxy(tracer, name, fn(*args, **kwargs), pull_id)

        return traced

    def _wrap_verify(self, fn: Callable) -> Callable:
        tracer = self
        timed = self.wrap_call("p2p.verify", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            ok = timed(*args, **kwargs)
            if ok:
                tracer.verify_ok += 1
            return ok

        return counted

    # -- installing and restoring -----------------------------------------
    def install(self) -> None:
        """Wrap every traced layer entry point (see :func:`layer_targets`)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, kind in layer_targets():
            fn = owner.__dict__[attr]
            if kind == "verify":
                wrapper = self._wrap_verify(fn)
            elif kind in ("generator", "pull-generator"):
                wrapper = self.wrap_generator(
                    name, fn, pull=kind == "pull-generator"
                )
            else:
                wrapper = self.wrap_call(name, fn, pull=kind == "pull-call")
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def named_self_s(self) -> float:
        """Self time of every named layer (root excluded), in seconds."""
        return sum(
            ns for name, ns in self.self_ns.items() if name != ROOT
        ) / 1e9

    def chrome_trace(self, process_name: str) -> Dict[str, Any]:
        """The spans as a Chrome trace-event document (opens in Perfetto).

        Spans are complete ("X") events on one track, so nesting shows
        as a flame chart.  A span's virtual solve child is carried in
        its ``args`` (``solve_us``), because the engine reports only
        how long its recomputes took, not when inside the span they ran.
        """
        origin = min((span[1] for span in self.spans), default=0)
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                "args": {"name": process_name},
            }
        ]
        for name, start, duration, pull, solve in sorted(
            self.spans, key=lambda span: (span[1], -span[2])
        ):
            args: Dict[str, Any] = {}
            if pull is not None:
                args["pull"] = pull
            if solve:
                args["solve_us"] = solve / 1e3
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": 1, "tid": 1,
                "ts": (start - origin) / 1e3, "dur": duration / 1e3,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _ResumeProxy:
    """Iterator proxy that times each resume of a wrapped generator.

    Works under ``yield from`` and as a ``Simulator.process`` body: it
    forwards ``send``/``throw``/``close`` and lets ``StopIteration``
    (carrying the generator's return value) pass through untouched.
    """

    __slots__ = ("_tracer", "_name", "_gen", "_pull")

    def __init__(self, tracer: LayerTracer, name: str, gen, pull) -> None:
        self._tracer = tracer
        self._name = name
        self._gen = gen
        self._pull = pull

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        tracer.enter(self._name, self._pull)
        try:
            return self._gen.send(value)
        finally:
            tracer.exit()

    def throw(self, *args):
        tracer = self._tracer
        tracer.enter(self._name, self._pull)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.exit()

    def close(self):
        self._gen.close()


def layer_targets() -> List[Tuple[Any, str, str, str]]:
    """``(owner, attribute, layer name, kind)`` for every traced entry.

    ``kind`` is ``call``, ``pull-call`` (a call that starts a pull and
    gets a fresh pull id), ``generator``, ``pull-generator`` or
    ``verify`` (a call whose True results are counted).
    ``ChunkSwarmPlanner._next_chunk`` is the rarest-first selection the
    chunk workers actually run; the public ``rarest_first`` is a
    test-only ordering helper that a simulation never calls.
    """
    from repro.registry.cache import ImageCache
    from repro.registry.chunks import ChunkSwarmPlanner
    from repro.registry.discovery import GossipDiscovery
    from repro.registry.p2p import (
        AdaptiveReplicator,
        P2PRegistry,
        PeerSwarm,
        PullPlanner,
    )
    from repro.scenarios import session
    from repro.sim.events import EventQueue
    from repro.sim.transfers import TransferEngine

    return [
        (session, "build_swarm_scenario", "scenarios.build", "call"),
        (session.SimulationSession, "__init__", "scenarios.assemble", "call"),
        (EventQueue, "step", "sim.dispatch", "call"),
        (TransferEngine, "start", "transfers.start", "call"),
        (TransferEngine, "cancel", "transfers.cancel", "call"),
        (TransferEngine, "cancel_many", "transfers.cancel", "call"),
        (TransferEngine, "cancel_uploads_from", "transfers.cancel", "call"),
        (P2PRegistry, "pull_process", "p2p.pull_process", "pull-generator"),
        (P2PRegistry, "pull", "p2p.pull", "pull-call"),
        (PullPlanner, "resolve_layer", "p2p.resolve_layer", "call"),
        (PeerSwarm, "best_peer", "p2p.best_peer", "call"),
        (PeerSwarm, "verify_holder", "p2p.verify", "verify"),
        (AdaptiveReplicator, "run_cycle", "p2p.replicator", "call"),
        (ChunkSwarmPlanner, "_next_chunk", "chunks.rarest_first", "call"),
        (ChunkSwarmPlanner, "fetch_layer", "chunks.fetch_layer", "generator"),
        (GossipDiscovery, "run_round", "discovery.round", "call"),
        (ImageCache, "add", "cache", "call"),
        (ImageCache, "reserve", "cache", "call"),
        (ImageCache, "commit", "cache", "call"),
        (ImageCache, "release", "cache", "call"),
    ]


def unrestored_targets() -> List[str]:
    """Traced entry points still holding a wrapper (empty when clean).

    A wrapper is recognised by the ``__wrapped__`` attribute
    :func:`functools.wraps` leaves on it; none of the original entry
    points carries one.
    """
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _kind in layer_targets()
        if hasattr(owner.__dict__[attr], "__wrapped__")
    ]
