"""Command-line driver: simulate, calibrate, oracle."""

from __future__ import annotations

import argparse
import contextlib
import random
import sys
from typing import List, Optional, TextIO

import numpy as np

from .harness import (AdversarySpec, ConfigError, RunConfig, default_params, draw_round,
                      forgery_calibration, plaintext_oracle, run_simulation,
                      supported_adversaries)
from .roles import setup


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--users", type=int, default=RunConfig.users)
    p.add_argument("--dim", type=int, default=RunConfig.dim)
    p.add_argument("--dropout", type=float, default=RunConfig.dropout)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--prime-bits", type=int, default=RunConfig.prime_bits,
                   help="modulus size: the largest prime in (2^bits, 2^(bits+1))")
    p.add_argument("--delta-exp", type=int, default=RunConfig.delta_exp)
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


def _report_file(path: Optional[str]):
    """The report file, opened before the job runs: an unwritable path is a usage error."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"report file {path}: {exc}") from None


def _emit(text: str, report_out: Optional[TextIO]) -> None:
    sys.stdout.write(text)
    if report_out is not None:
        report_out.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vsecagg",
        description="Dual-server verifiable secure aggregation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run aggregation rounds; report stage times, alarms")
    _add_run_flags(sim)
    sim.add_argument("--rounds", type=int, default=RunConfig.rounds)
    sim.add_argument("--mode", choices=("memory", "socket"), default=RunConfig.mode)
    sim.add_argument("--adversary", type=str, default=None,
                     help="target:action:round[:magnitude], e.g. cs:tamper_aggregate:1; "
                          "target:action is one of " + supported_adversaries())

    cal = sub.add_parser("calibrate", help="Monte Carlo forgery pass-rate calibration")
    cal.add_argument("--modulus", type=int, default=11)
    cal.add_argument("--trials", type=int, default=100_000)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--dim", type=int, default=4)
    cal.add_argument("--report-out", type=str, default=None)

    ora = sub.add_parser("oracle", help="print the plaintext mean of round 1 as simulate draws it")
    _add_run_flags(ora)
    ora.set_defaults(rounds=RunConfig.rounds, mode=RunConfig.mode, adversary=None)

    args = parser.parse_args(argv)
    try:
        with _report_file(args.report_out) as report_out:
            return _run(args, report_out)
    except ConfigError as exc:
        # A configuration the run cannot start from is a usage error.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _run(args, report_out: Optional[TextIO]) -> int:
    if args.command == "simulate":
        report = run_simulation(_config(args))
        _emit(report.to_text(), report_out)
        return 0 if report.exit_ok else 1

    if args.command == "calibrate":
        result = forgery_calibration(args.modulus, args.trials,
                                     seed=args.seed, dim=args.dim)
        text = (f"modulus={result.r_b}\ntrials={result.trials}\n"
                f"tamper_rate={result.tamper_rate:.6f}\n"
                f"guess_rate={result.guess_rate:.6f}\n"
                f"bound={result.bound:.6f}\nstderr={result.stderr:.6f}\n")
        _emit(text, report_out)
        return 0

    # oracle: replay the draws of a simulation's first round (setup takes
    # its keys from the same generator) and print the exact plaintext mean
    # of that round's participants.
    cfg = _config(args)
    params = default_params(cfg)
    rng = random.Random(cfg.seed)
    users, _, _ = setup(cfg.users, params, rng=rng)
    _, updates = draw_round(cfg, users, rng, np.random.default_rng(cfg.seed))
    mean = plaintext_oracle(updates, sorted(updates), params.codec, weights=cfg.weights)
    text = "\n".join(f"{coord}={float(value)!r}" for coord, value in enumerate(mean)) + "\n"
    _emit(text, report_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
