"""Spans around the calls into each layer, recorded from outside the program.

``Recorder.installed()`` replaces the public names where ``beaconkx.sim``
and ``beaconkx.protocol`` look them up with wrappers that record one span
per call, and puts the originals back on exit. Spans stay in memory as
``(name, start, end, parent)`` tuples; a layer's self time is its spans'
durations minus the time their direct children cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self, sim, protocol):
        """Wrap every layer entry point that the program still has; a name
        it no longer defines simply reports no calls."""
        counts = self.counts

        def counting(deliver):
            def deliver_counted(positions, *args, **kwargs):
                outcomes = deliver(positions, *args, **kwargs)
                counts["radio_scanned"] += len(positions)
                counts["radio_candidates"] += len(outcomes)
                return outcomes
            return deliver_counted

        targets = [
            (sim, "deliver_in_range", "sim.deliver"),
            (sim, "encode_packet", "codec.encode"),
            (sim, "decode_packet", "codec.decode"),
            (sim, "mobility_update", "sim.mobility"),
            (sim, "compute_metrics", "metrics.replay"),
            (sim, "generate_dh_params", "dh.param_gen"),
            (protocol, "generate_dh_params", "dh.param_gen"),
            (protocol, "generate_keypair", "dh.keypair"),
            (protocol, "compute_shared_secret", "dh.secret"),
            (protocol.NodeState, "on_receive_beacon", "protocol.beacon_rx"),
            (protocol.NodeState, "on_receive_ack", "protocol.ack_rx"),
            (protocol.NodeState, "on_timer_beacon", "protocol.timer"),
            (protocol.NodeState, "expire_neighbors", "protocol.expire"),
            (sim.Simulation, "_alive_positions", "sim.alive_positions"),
        ]
        present = [(owner, attr, name) for owner, attr, name in targets if attr in vars(owner)]
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in present]
        try:
            for owner, attr, name in present:
                fn = vars(owner)[attr]
                setattr(owner, attr, self._wrap(name, counting(fn) if name == "sim.deliver" else fn))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def layers(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        result: dict[str, list] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            entry = result.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[index]
        return {name: tuple(v) for name, v in result.items()}
