"""Smoke test of the round benchmark against the current library.

``perfbench/run.py`` imports ``vsecagg`` modules, patches
``harness.run_round``, ``harness.setup`` and ``prf._keystream``, reads
each round's outcome (``results``, ``mismatch_errors``) and the servers'
``rounds``, and traces named spans such as ``sharing.share_with_prf``.
A short run of each mode, untraced as ``BENCHMARK.json`` runs it and
traced, catches a change that breaks any of those seams.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from vsecagg.harness import RunConfig, default_params
from vsecagg.roles import setup

ROOT = Path(__file__).resolve().parents[1]


def run_crowd(trace: int) -> dict:
    """The last line of a 0.5 s ``crowd`` run, parsed; the run must be correct."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crowd", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


def test_traced_crowd_run_is_correct_and_reports_spans():
    metrics = {name: m["value"] for name, m in run_crowd(trace=1)["metrics"].items()}
    assert metrics["sharing.share_with_prf.ms"] > 0
    assert metrics["tags.gen_tag.calls"] > 0
    # The VS's answer to the CS's online list is traced as its own span.
    assert metrics["roles.vs.model_aggregate.ms"] > 0
    # Servers hold no round once it is published: the state left after
    # each simulation, read through perfbench's held_bytes, is empty.
    assert metrics["roles.state_mb"] == 0
    # No expansion draws a keystream word past its output.  The keystream
    # count also holds expand_one's one-word draws (3m + 1 a round, against
    # 4m + 1 expansions), so what lies beyond the expanded elements must
    # stay below one word per expansion.
    keystream_words = metrics["prf.expand.elems"] / metrics["prf.accept_ratio"]
    assert keystream_words - metrics["prf.expand.elems"] < metrics["prf.expand.calls"]


def test_untraced_crowd_run_reports_every_end_to_end_metric():
    result = run_crowd(trace=0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


def test_servers_hold_the_open_round_under_the_name_perfbench_reads():
    # perfbench reads ``getattr(server, "rounds", {})``, so a renamed book
    # would let ``roles.state_mb == 0`` above pass with nothing measured.
    params = default_params(RunConfig(users=3, dim=5))
    users, cs, vs = setup(3, params, rng=random.Random(4))
    for server in (cs, vs):
        server.start_round(1)
    for u in users:
        to_cs, to_vs = u.share_round(np.zeros(5), 1)
        cs.receive_share(to_cs)
        vs.receive_share(to_vs)
    for server in (cs, vs):
        assert list(server.rounds) == [1]
        assert sorted(server.rounds[1].shares) == [0, 1, 2]
    assert sum(share.nbytes for share in cs.rounds[1].shares.values()) == 3 * 8 * params.words
    _, w_t = vs.model_aggregate(cs.online_list(1))
    _, b_t = cs.tag_aggregate(vs.online_list(1))
    cs.finalize(w_t)
    vs.finalize(b_t)
    assert cs.rounds == vs.rounds == {}
