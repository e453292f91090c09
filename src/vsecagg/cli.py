"""Command-line driver: simulate, calibrate, oracle."""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

import numpy as np

from .harness import (AdversarySpec, ConfigError, RunConfig, default_params, draw_round,
                      forgery_calibration, plaintext_oracle, run_simulation,
                      supported_adversaries)
from .roles import setup


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--users", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime-bits", type=int, default=60,
                   help="modulus size: the largest prime in (2^bits, 2^(bits+1))")
    p.add_argument("--delta-exp", type=int, default=40)
    p.add_argument("--mode", choices=("memory", "socket"), default="memory")
    p.add_argument("--adversary", type=str, default=None,
                   help="target:action:round[:magnitude], e.g. cs:tamper_aggregate:1; "
                        "target:action is one of " + supported_adversaries())
    p.add_argument("--weights-file", type=str, default=None,
                   help="one decimal weight per line, matched to user ids ascending")
    p.add_argument("--report-out", type=str, default=None)


def _load_weights(path: Optional[str]):
    if path is None:
        return None
    try:
        with open(path) as fh:
            return tuple(float(line) for line in fh if line.strip())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"weights file {path}: {exc}") from None


def _config(args) -> RunConfig:
    return RunConfig(
        users=args.users, dim=args.dim, rounds=args.rounds,
        dropout=args.dropout, seed=args.seed, prime_bits=args.prime_bits,
        delta_exp=args.delta_exp, mode=args.mode,
        adversary=AdversarySpec.parse(args.adversary) if args.adversary else None,
        weights=_load_weights(args.weights_file),
    )


def _emit(text: str, report_out: Optional[str]) -> None:
    sys.stdout.write(text)
    if report_out:
        with open(report_out, "w") as fh:
            fh.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vsecagg",
        description="Dual-server verifiable secure aggregation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run aggregation rounds; report stage times, alarms")
    _add_run_flags(sim)

    cal = sub.add_parser("calibrate", help="Monte Carlo forgery pass-rate calibration")
    cal.add_argument("--modulus", type=int, default=11)
    cal.add_argument("--trials", type=int, default=100_000)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--dim", type=int, default=4)
    cal.add_argument("--report-out", type=str, default=None)

    ora = sub.add_parser("oracle", help="print the plaintext-pipeline mean of round 1")
    _add_run_flags(ora)

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        # A configuration the run cannot start from is a usage error.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    if args.command == "simulate":
        report = run_simulation(_config(args))
        _emit(report.to_text(), args.report_out)
        return 0 if report.exit_ok else 1

    if args.command == "calibrate":
        result = forgery_calibration(args.modulus, args.trials,
                                     seed=args.seed, dim=args.dim)
        text = (f"modulus={result.r_b}\ntrials={result.trials}\n"
                f"tamper_rate={result.tamper_rate:.6f}\n"
                f"guess_rate={result.guess_rate:.6f}\n"
                f"bound={result.bound:.6f}\nstderr={result.stderr:.6f}\n")
        _emit(text, args.report_out)
        return 0

    # oracle: replay the draws of a simulation's first round (setup takes
    # its keys from the same generator) and print the exact plaintext mean
    # of that round's participants.
    cfg = _config(args)
    params = default_params(cfg)
    rng = random.Random(cfg.seed)
    users, _, _ = setup(cfg.users, params, rng=rng)
    _, updates = draw_round(cfg, users, rng, np.random.default_rng(cfg.seed))
    weights = dict(enumerate(cfg.weights)) if cfg.weights is not None else None
    mean = plaintext_oracle(updates, sorted(updates), params.codec, weights=weights)
    text = "\n".join(f"{coord}={float(value)!r}" for coord, value in enumerate(mean)) + "\n"
    _emit(text, args.report_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
