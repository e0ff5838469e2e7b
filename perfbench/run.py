"""Host-time benchmark of the beaconkx simulator.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload's scene is generated from
``--seed`` (``scenes.py``); then whole rounds repeat until ``--seconds``
have passed, and at least ``MIN_ROUNDS`` times. One round goes through the
public API the way ``beaconkx run`` does and then replays the result:

    parse_config_text -> Simulation(config) -> run()
    -> Trace.to_jsonl / Metrics.to_json written to files
    -> Trace.from_jsonl of the file + compute_metrics

and checks every output (``checks.py``). Each check is one operation;
``failed`` counts the checks that found a problem.

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the rounds. With ``--trace 1`` untraced and traced rounds alternate
and the metrics are per layer (``tracing.py``), plus fixed-input
microbenchmarks of ``dh`` and ``codec``. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import micro
import scenes
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_ROUNDS = 3
REPEATS = 5  # write and replay are short: each round times them this often
PACKET_EVENTS = frozenset({"beacon_tx", "beacon_rx", "ack_tx", "ack_rx"})

# Two faults of the program, each probed on a fixed scene that does not
# depend on --seed, so the probe fails in every round of every run.
# The halted node stays in the metrics' ground truth, so recall never
# returns to 1.0 after every live node has expired it.
HALTED = 4
HALT_PROBE = scenes.base_values(
    4, 12.0, 1, **{"sim.placements": "100,100; 200,100; 100,200; 200,200",
                   "sim.halts": f"{HALTED}:2.5", "sim.loss_rate": 0, "sim.dh_bits": 64})
# One key slot per neighbour: the exchanges in the sender's group and in
# the receiver's group overwrite it by turns, so a lost ACK leaves the two
# ends of a pair holding different keys.
KEY_SLOT_PROBE = scenes.base_values(
    6, 10.0, 1, **{"sim.placements": "100,100; 200,100; 300,100; 100,200; 200,200; 300,200",
                   "sim.dh_mode": "per_node", "sim.loss_rate": 0.3, "sim.dh_bits": 64})
KNOWN_FAULTS = {"dense": "halted_node_recall", "pernode": "final_keys_agree"}


def import_program():
    """Import beaconkx from this checkout's ``src/`` and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import beaconkx
        from beaconkx import cli, codec, config, dh, metrics, protocol, sim, trace
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import beaconkx from {SRC}: {exc}")
    if Path(beaconkx.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: beaconkx came from {beaconkx.__file__}, not {SRC}")
    return argparse.Namespace(cli=cli, codec=codec, config=config, dh=dh, metrics=metrics,
                              protocol=protocol, sim=sim, trace=trace)


@dataclass
class Round:
    setup_s: float
    run_s: float
    write_s: list[float]
    replay_s: list[float]
    packet_events: int
    problems: dict[str, list[str]]
    groups: list[checks.Group]
    layers: dict | None = None
    radio: dict = field(default_factory=dict)
    keys_per_pair: float = 0.0
    samples: int = 0


class Bench:
    def __init__(self, prog, workload: str, seed: int, workdir: Path) -> None:
        self.prog = prog
        self.workload = workload
        self.scene = scenes.SCENES[workload](seed)
        self.workdir = workdir
        self.pow_cache: dict = {}
        self.first_digest: str | None = None

    def play(self, recorder: tracing.Recorder | None = None) -> Round:
        """One round: set up, run, write, replay; then check the outputs."""
        prog, clock = self.prog, time.perf_counter
        call = recorder.call if recorder else (lambda _name, fn, *args: fn(*args))
        trace_path = self.workdir / "trace.jsonl"
        metrics_path = self.workdir / "metrics.json"
        installed = (recorder.installed(prog.sim, prog.protocol) if recorder
                     else contextlib.nullcontext())
        with installed:
            config = prog.config.parse_config_text(self.scene.text)
            gc.collect()
            t0 = clock()
            simulation = call("setup", prog.sim.Simulation, config)
            setup_s = clock() - t0
            gc.collect()
            t0 = clock()
            trace, metrics = call("run", simulation.run)
            run_s = clock() - t0
            write_s, replay_s = [], []
            for _ in range(REPEATS):
                text = None  # free the previous copy before making the next
                gc.collect()
                t0 = clock()
                text = call("trace.to_jsonl", trace.to_jsonl)
                metrics_json = metrics.to_json()
                with open(trace_path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                with open(metrics_path, "w", encoding="utf-8") as handle:
                    handle.write(metrics_json)
                write_s.append(clock() - t0)
                gc.collect()
                t0 = clock()
                with open(trace_path, "r", encoding="utf-8") as handle:
                    replayed = call("trace.from_jsonl", prog.trace.Trace.from_jsonl,
                                    handle.read())
                replayed_json = prog.metrics.compute_metrics(
                    replayed, radio_range=config.radio_range,
                    duration=config.duration).to_json()
                replay_s.append(clock() - t0)
                del replayed
        records = trace.records
        keys = key_material(simulation)
        result = Round(
            setup_s=setup_s, run_s=run_s, write_s=write_s, replay_s=replay_s,
            packet_events=sum(1 for r in records if r.ev in PACKET_EVENTS),
            problems=self.check(config, keys, records, metrics.to_dict(),
                                metrics_json, replayed_json, text),
            groups=sorted({k.own.group for k in keys.values()}, key=lambda g: g.p),
        )
        if recorder is not None:
            result.layers = recorder.layers()
            result.radio = dict(recorder.counts)
            keyed = [(r.node, r.peer) for r in records if r.ev == "key_established"]
            result.keys_per_pair = len(keyed) / max(1, len(set(keyed)))
            result.samples = len(metrics.table_samples)
        return result

    def check(self, config, keys: dict[int, checks.NodeKeys], records, metrics: dict,
              metrics_json: str, replayed_json: str, text: str) -> dict[str, list[str]]:
        """Every check but ``primality``, which runs once the timing is over."""
        scene = self.scene
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        problems = {
            "key_agreement": checks.key_agreement(records, keys, self.pow_cache),
            "packet_lengths": checks.packet_lengths(records, keys, scene.per_node),
            "counters": checks.counters(records, metrics),
            "reception_range": checks.reception_range(
                records, config.radio_range, config.prop_delay,
                scene.speed_max * scenes.MOBILITY_TICK),
            "replay": checks.same_metrics(metrics_json, replayed_json),
            "determinism": checks.same_text("trace digest", self.first_digest, digest),
        }
        if self.workload == "dense":
            halts = dict(config.halts)
            problems["dense_receivers"] = checks.dense_receivers(
                records, config.radio_range, config.prop_delay, config.duration, halts)
            start, end = dense_exact_window(records, config, halts)
            problems["tables_exact"] = checks.tables_exact(
                metrics["table_samples"], start, end)
            problems["halted_node_recall"] = self.halt_probe()
        elif self.workload == "pernode":
            problems["final_keys_agree"] = self.key_slot_probe()
        return problems

    def _probe(self, values: dict) -> tuple[list, dict]:
        """Run a fixed scene through ``beaconkx run``; read its two files."""
        cfg = self.workdir / "probe.cfg"
        cfg.write_text(scenes.config_text(values), encoding="utf-8")
        trace_path, metrics_path = self.workdir / "probe.jsonl", self.workdir / "probe.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.prog.cli.main(["run", "--config", str(cfg), "--trace", str(trace_path),
                                       "--metrics", str(metrics_path)])
        if code != 0:
            raise RuntimeError(f"beaconkx run exited {code} on a probe scene")
        records = self.prog.trace.Trace.from_jsonl(trace_path.read_text(encoding="utf-8")).records
        return records, json.loads(metrics_path.read_text(encoding="utf-8"))

    def halt_probe(self) -> list[str]:
        records, metrics = self._probe(HALT_PROBE)
        last_beacon = max(r.t for r in records if r.ev == "beacon_tx" and r.node == HALTED)
        deadline = (last_beacon + scenes.PROP_DELAY
                    + (scenes.EXPIRY_MULTIPLIER + 1) * scenes.BEACON_INTERVAL)
        return checks.recall_after_expiry(metrics["table_samples"], deadline)

    def key_slot_probe(self) -> list[str]:
        records, _ = self._probe(KEY_SLOT_PROBE)
        return checks.final_keys_agree(records)


def key_material(simulation) -> dict[int, checks.NodeKeys]:
    """The nodes' key pairs, copied out of the finished simulation."""
    def pair(params, keypair):
        return checks.KeyPair(checks.Group(params.p, params.w),
                              keypair.private_exponent, keypair.public_value)

    return {
        node_id: checks.NodeKeys(
            own=pair(state.dh_params, state.keypair),
            responder={peer: pair(params, keypair)
                       for peer, (params, keypair)
                       in getattr(state, "_responder_keys", {}).items()})
        for node_id, state in simulation.nodes.items()
    }


def dense_exact_window(records, config, halts: dict[int, float]) -> tuple[float, float]:
    """From the instant every node's first beacon has landed until the
    first instant any node may expire the halted one."""
    first, last = {}, {}
    for r in records:
        if r.ev == "beacon_tx":
            first.setdefault(r.node, r.t)
            last[r.node] = r.t
    start = max(first.values()) + config.prop_delay
    timeout = config.node_config.expiry_multiplier * config.node_config.beacon_interval
    end = min(last[node] for node in halts) + config.prop_delay + timeout
    return start, end


def end_to_end(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    median = statistics.median
    return {
        "setup_s": (median(r.setup_s for r in rounds), "s"),
        "run_s": (median(r.run_s for r in rounds), "s"),
        "packet_events_per_s": (median(r.packet_events / r.run_s for r in rounds), "1/s"),
        "write_s": (median(t for r in rounds for t in r.write_s), "s"),
        "replay_s": (median(t for r in rounds for t in r.replay_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(plain: list[Round], traced: list[Round],
              microbench: dict[str, tuple[float, str]]) -> dict[str, tuple[float, str]]:
    last = traced[-1]
    out: dict[str, tuple[float, str]] = {}

    def layer(name: str) -> None:
        """Calls in one traced round; self time, median over the traced rounds."""
        out[f"{name}_calls"] = (last.layers.get(name, (0,))[0], "count")
        out[f"{name}_s"] = (statistics.median(
            r.layers.get(name, (0, 0.0, 0.0))[2] for r in traced), "s")

    for name in ("dh.param_gen", "dh.keypair", "dh.secret", "codec.encode", "codec.decode",
                 "protocol.beacon_rx", "protocol.ack_rx", "protocol.timer",
                 "protocol.expire"):
        layer(name)
    out["protocol.keys_per_pair"] = (last.keys_per_pair, "ratio")
    layer("sim.deliver")
    scanned, candidates = last.radio.get("radio_scanned", 0), last.radio.get("radio_candidates", 0)
    out["sim.radio_scanned"] = (scanned, "count")
    out["sim.radio_candidates"] = (candidates, "count")
    out["sim.radio_hit_ratio"] = (candidates / scanned if scanned else 0.0, "ratio")
    layer("sim.alive_positions")
    layer("sim.mobility")
    out["sim.engine_self_s"] = (statistics.median(r.layers["run"][2] for r in traced), "s")
    out["metrics.replay_s"] = (statistics.median(
        r.layers.get("metrics.replay", (0, 0.0))[1] for r in traced), "s")
    out["metrics.samples"] = (last.samples, "count")
    for name in ("trace.to_jsonl", "trace.from_jsonl"):   # per call: REPEATS calls a round
        out[f"{name}_s"] = (statistics.median(
            r.layers[name][1] / r.layers[name][0] for r in traced), "s")
    # The first round of a process also grows the heap; leave it out.
    out["tracing.overhead_s"] = (statistics.median(r.run_s for r in traced)
                                 - statistics.median(r.run_s for r in plain[1:]), "s")
    out.update(microbench)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenes.SCENES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prog = import_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        bench = Bench(prog, args.workload, args.seed, workdir)
        start = time.perf_counter()
        microbench = micro.run(prog) if args.trace else {}
        plain: list[Round] = []
        traced: list[Round] = []
        while (len(plain) < MIN_ROUNDS or time.perf_counter() - start < args.seconds
               or (args.trace and len(traced) < len(plain))):
            if args.trace and len(traced) < len(plain):
                recorder = tracing.Recorder()
                traced.append(bench.play(recorder))
            else:
                plain.append(bench.play())
        if args.trace:
            metrics = per_layer(plain, traced, microbench)
            spans = {name: {"calls": calls, "total_s": total, "self_s": own}
                     for name, (calls, total, own) in sorted(traced[-1].layers.items())}
            (OUT / f"{args.workload}-layers.json").write_text(
                json.dumps({"seed": args.seed, "spans": spans}, indent=2) + "\n",
                encoding="utf-8")
        else:
            metrics = end_to_end(plain)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    # sympy only now: importing it earlier would count in peak_rss_mb.
    import sympy
    for r in rounds:
        r.problems["primality"] = checks.primality(r.groups, bench.scene.dh_bits, sympy.isprime)

    known = KNOWN_FAULTS.get(args.workload)
    attempted = sum(len(r.problems) for r in rounds)
    failed = sum(1 for r in rounds for found in r.problems.values() if found)
    unexpected = {name: found for r in rounds for name, found in r.problems.items()
                  if found and name != known}
    for name, found in unexpected.items():
        print(f"perfbench: check {name} failed: {found}", file=sys.stderr)
    if known:
        sample = next((r.problems[known] for r in rounds if r.problems[known]), [])
        print(f"perfbench: known fault {known}: {sample[:2]}", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
