"""Round benchmark: drives ``harness.run_simulation`` and times every round.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0

Each round is timed at the harness's per-round call (``run_round``) and
its outputs are checked against an independent computation
(``checker.py``).  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics.  With ``--trace 1`` every
simulation runs twice, untraced and then with every layer's public
functions wrapped in spans; the run prints the per-layer metrics and
writes the spans to ``perfbench/out/spans-<workload>.json``.

A run is a closed loop with one caller: a sequence of simulations of a
fixed number of rounds each, every one with its own ``setup``, until the
time is up.  Simulation k of seed s uses harness seed s * 100000 + k, so
the same seed gives the same keys, inputs and dropout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "vsecagg" / "__init__.py").is_file():
    sys.exit(f"run.py: no program source under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from vsecagg import codec, field, harness, prf, roles, sharing, tags, wire  # noqa: E402

from checker import RoundView, check_round  # noqa: E402
from spans import NO_ROUND, ROUND_SPAN, Tracer  # noqa: E402

if not Path(harness.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"run.py: imported vsecagg from {harness.__file__}, not from {SRC}")

SIMS_PER_SEED = 100_000
DELTA_EXP = 40
SPAN_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    users: int
    dim: int
    dropout: float
    rounds_per_sim: int  # bounds server state, which grows every round today


WORKLOADS = {
    "wide": Workload(users=10, dim=100_000, dropout=0.0, rounds_per_sim=5),
    "paper": Workload(users=10, dim=20_000, dropout=0.0, rounds_per_sim=20),
    "crowd": Workload(users=100, dim=1_000, dropout=0.2, rounds_per_sim=10),
}


class _Deadline(Exception):
    """The run's time is up; no further round starts."""


class _RoundFailed(Exception):
    """``run_round`` raised; the round counts as failed."""


def held_bytes(obj) -> int:
    """Array bytes plus 8 per integer reachable from ``obj``."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, int):
        return 8
    if isinstance(obj, dict):
        return sum(held_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(held_bytes(v) for v in obj)
    if hasattr(obj, "__dict__"):
        return held_bytes(vars(obj))
    return 0


class Recorder:
    """Times each round at ``harness.run_round``, checks it, reads the ledger."""

    def __init__(self, workload: Workload, deadline_ns: int,
                 tracer: Optional[Tracer] = None):
        self.workload = workload
        self.deadline_ns = deadline_ns
        self.tracer = tracer
        self.round_ns: List[int] = []
        self.coords: List[int] = []
        self.upload_bytes: List[int] = []
        self.wire_bytes: List[int] = []
        self.setup_ns: List[int] = []
        self.state_bytes: List[int] = [0]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: List[str] = []
        self._servers = None

    def expired(self) -> bool:
        return time.perf_counter_ns() >= self.deadline_ns

    def simulate(self, cfg) -> None:
        """One ``run_simulation`` with this recorder at the harness's calls."""
        self._run_round, self._setup = harness.run_round, harness.setup
        harness.run_round, harness.setup = self.run_round, self.setup
        try:
            harness.run_simulation(cfg)
        except _Deadline:
            pass
        except _RoundFailed:
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
        finally:
            harness.run_round, harness.setup = self._run_round, self._setup
        if self._servers is not None:
            cs, vs = self._servers
            self.state_bytes.append(held_bytes(getattr(cs, "rounds", {}))
                                    + held_bytes(getattr(vs, "rounds", {})))
            self._servers = None

    def setup(self, *args, **kwargs):
        start = time.perf_counter_ns()
        result = self._setup(*args, **kwargs)
        self.setup_ns.append(time.perf_counter_ns() - start)
        return result

    def run_round(self, users_online, all_users, cs, vs, net, round_index,
                  updates, *args, **kwargs):
        if self.attempted and self.expired():
            raise _Deadline
        self._servers = (cs, vs)
        tracer = self.tracer
        if tracer is not None:
            tracer.current_round = self.attempted
            tracer.open(ROUND_SPAN)
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            outcome = self._run_round(users_online, all_users, cs, vs, net,
                                      round_index, updates, *args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise _RoundFailed(f"round {round_index} raised {exc!r}") from exc
        finally:
            elapsed = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.close()
                tracer.current_round = NO_ROUND

        dim = self.workload.dim
        ledger = net.ledger
        uploads = {uid: (ledger.payload_bytes(f"user{uid}->cs", round_index),
                         ledger.payload_bytes(f"user{uid}->vs", round_index))
                   for uid in outcome.results}
        view = RoundView(
            round_index=round_index, dim=dim, delta_exp=DELTA_EXP,
            online=tuple(u.uid for u in users_online), updates=updates,
            models={uid: res.model for uid, res in outcome.results.items()},
            verified={uid: res.verified for uid, res in outcome.results.items()},
            mismatches=outcome.mismatch_errors, upload_bytes=uploads)
        problems = check_round(view)
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems.extend(problems)
        self.round_ns.append(elapsed)
        self.coords.append(len(outcome.results) * dim)
        self.upload_bytes.extend(cs_bytes + vs_bytes for cs_bytes, vs_bytes in uploads.values())
        self.wire_bytes.append(sum(entry.total_bytes for (_, r), entry in ledger.entries.items()
                                   if r == round_index))
        return outcome


def run_phase(workload: Workload, seed: int, seconds: float,
              tracer: Optional[Tracer] = None) -> Tuple[Recorder, Optional[Recorder]]:
    """Run simulations back to back for ``seconds``; at least one round.

    With a tracer, each simulation runs twice on the same seed, untraced
    and then traced, so the two recorders see the same inputs and the
    same drift in machine speed.  Returns (untraced, traced or None).
    """
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    plain = Recorder(workload, deadline)
    traced = Recorder(workload, deadline, tracer) if tracer is not None else None
    sim = 0
    while sim == 0 or not plain.expired():
        cfg = harness.RunConfig(
            users=workload.users, dim=workload.dim, dropout=workload.dropout,
            rounds=workload.rounds_per_sim, delta_exp=DELTA_EXP,
            seed=seed * SIMS_PER_SEED + sim)
        plain.simulate(cfg)
        if traced is not None:
            with tracing(tracer):
                traced.simulate(cfg)
        sim += 1
    return plain, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rec: Recorder) -> Tuple[Dict[str, tuple], Dict[str, tuple]]:
    """(metrics that BENCHMARK.json bounds, metrics that are only printed).

    Round time is bounded at its 10th percentile: on a shared 2-core
    host the run-to-run spread of the median and of the mean exceeds
    any usable bound, while the fast end of the distribution holds.
    """
    round_ms = np.array(rec.round_ns) / 1e6
    bounded = {
        "setup_s": (statistics.median(rec.setup_ns) / 1e9, "s"),
        "round_ms_p10": (float(np.percentile(round_ms, 10)), "ms"),
        "upload_bytes_per_user": (statistics.median(rec.upload_bytes), "bytes"),
        "wire_bytes_per_round": (statistics.median(rec.wire_bytes), "bytes"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    printed = {
        "round_ms": (float(np.median(round_ms)), "ms"),
        "agg_coords_per_s": (sum(rec.coords) / (sum(rec.round_ns) / 1e9), "coords/s"),
    }
    # A tail percentile needs at least ten samples beyond it.
    if len(round_ms) >= 100:
        printed["round_ms_p90"] = (float(np.percentile(round_ms, 90)), "ms")
    return bounded, printed


TRACED_MODULES = (field, prf, codec, sharing, tags, wire, roles, harness)
TRACED_CLASSES = {
    roles.UserState: "roles.user",
    roles.CsState: "roles.cs",
    roles.VsState: "roles.vs",
    wire.MemoryLink: "wire.link",
    wire.TrafficLedger: "wire.ledger",
}


@contextmanager
def tracing(tracer: Tracer):
    """Spans around every public function of the program while inside."""

    def note_expand(args, result):
        tracer.count("prf.expand.elems", len(result))

    def note_serialize(args, result):
        tracer.count("wire.payload_bytes", len(args[0].payload))
        tracer.count("wire.frame_bytes", len(result))

    tracer.install(TRACED_MODULES, TRACED_CLASSES,
                   notes={"prf.expand": note_expand, "wire.serialize": note_serialize},
                   skip=(ROUND_SPAN,))
    tracer.count_keystream(prf)
    try:
        yield
    finally:
        tracer.uninstall()


def per_layer(tracer: Tracer, rounds: Dict[int, Dict[str, float]],
              plain: Recorder, traced: Recorder) -> Dict[str, tuple]:
    rows = [rounds[r] for r in sorted(rounds)]
    cs_ns = tracer.outermost_incl_ns("roles.cs")
    vs_ns = tracer.outermost_incl_ns("roles.vs")

    def med(fn):
        return statistics.median(fn(row) for row in rows)

    def calls(name):
        return med(lambda row: row.get(name + ".calls", 0.0)), "count"

    def ms(name, kind="self"):
        return med(lambda row: row.get(f"{name}.{kind}_ns", 0.0) / 1e6), "ms"

    def per_call_ms(name):
        return statistics.median(tracer.durations_ns(name)) / 1e6, "ms"

    return {
        "prf.expand.calls": calls("prf.expand"),
        "prf.expand.ms": ms("prf.expand"),
        "prf.expand.elems": (med(lambda row: row["prf.expand.elems"]), "count"),
        "prf.accept_ratio": (med(lambda row: row["prf.expand.elems"]
                                 / (row["prf.keystream_bytes"] / 8)), "ratio"),
        "tags.gen_tag.calls": calls("tags.gen_tag"),
        "tags.gen_tag.ms": ms("tags.gen_tag"),
        "tags.derive_tag_key.calls": calls("tags.derive_tag_key"),
        "field.vec_add.ms": ms("field.vec_add"),
        "field.vec_sub.ms": ms("field.vec_sub"),
        "field.vec_sum.ms": ms("field.vec_sum"),
        "codec.encode.ms": ms("codec.encode"),
        "codec.decode.ms": ms("codec.decode"),
        "sharing.share_with_prf.ms": ms("sharing.share_with_prf", "incl"),
        "wire.frames": calls("wire.serialize"),
        "wire.serialize.ms": ms("wire.serialize"),
        "wire.deserialize.ms": ms("wire.deserialize"),
        "wire.payload_ratio": (med(lambda row: row["wire.payload_bytes"]
                                   / row["wire.frame_bytes"]), "ratio"),
        "roles.user.share_round.ms": per_call_ms("roles.user.share_round"),
        "roles.user.reconstruct_round.ms": per_call_ms("roles.user.reconstruct_round"),
        "roles.cs.ms": (statistics.median(cs_ns[r] for r in sorted(rounds)) / 1e6, "ms"),
        "roles.vs.ms": (statistics.median(vs_ns[r] for r in sorted(rounds)) / 1e6, "ms"),
        "roles.vs.model_aggregate.ms": ms("roles.vs.model_aggregate", "incl"),
        "roles.state_mb": (max(traced.state_bytes) / 2 ** 20, "MB"),
        "harness.run_round.self_ms": ms(ROUND_SPAN),
        "trace.overhead_ratio": (statistics.median(traced.round_ns)
                                 / statistics.median(plain.round_ns), "ratio"),
    }


def print_metrics(metrics: Dict[str, tuple]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def print_counts(label: str, rec: Recorder) -> None:
    print(f"{label}: rounds attempted={rec.attempted} failed={rec.failed} "
          f"simulations={len(rec.setup_ns)}")
    for problem in rec.problems[:10]:
        print(f"  CHECK FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 40:
        parser.error("--seed must lie in [0, 2^40)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    print(f"workload={args.workload} users={workload.users} dim={workload.dim} "
          f"dropout={workload.dropout} rounds_per_sim={workload.rounds_per_sim} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}")

    tracer = Tracer() if args.trace else None
    plain, traced = run_phase(workload, args.seed, args.seconds, tracer)
    recs = [plain] if traced is None else [plain, traced]
    for label, rec in zip(("untraced", "traced"), recs):
        print_counts(label, rec)
    if not all(rec.round_ns for rec in recs):
        sys.exit("run.py: no round completed, so there is nothing to measure")

    if traced is None:
        metrics, printed = end_to_end(plain)
        print_metrics(metrics)
        print(f"printed only, over {len(plain.round_ns)} rounds:")
        print_metrics(printed)
        print("printed_only " + json.dumps({name: {"value": value, "unit": unit}
                                           for name, (value, unit) in printed.items()}))
    else:
        tracer.finish()
        rounds = tracer.per_round()
        print(f"  {'span':36s} {'calls/round':>12s} {'self ms':>10s} {'incl ms':>10s}")
        for name, n_calls, self_ms, incl_ms in tracer.summary(rounds):
            print(f"  {name:36s} {n_calls:12g} {self_ms:10.4f} {incl_ms:10.4f}")
        metrics = per_layer(tracer, rounds, plain, traced)
        print_metrics(metrics)
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{args.workload}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed})
        print(f"spans written to {path.relative_to(ROOT)}")

    result = {
        "correct": all(rec.wrong == 0 for rec in recs),
        "attempted": sum(rec.attempted for rec in recs),
        "failed": sum(rec.failed for rec in recs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
