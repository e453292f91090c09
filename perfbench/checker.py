"""Checks one aggregation round's outputs against a computation made apart
from the program.

Nothing here imports vsecagg.  The expected mean is derived from the raw
float64 inputs with NumPy alone, so a fault in the program's codec,
field, sharing or tag code cannot cancel out of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

# Largest integer below which every int64 converts to float64 exactly.
_EXACT_FLOAT_INT = 1 << 53


@dataclass
class RoundView:
    """What one round took in and gave out, as seen at its timing boundary."""

    round_index: int
    dim: int
    delta_exp: int
    online: Tuple[int, ...]                  # users that shared this round
    updates: Dict[int, np.ndarray]           # their float64 inputs
    models: Dict[int, Optional[np.ndarray]]  # decoded mean per participant
    verified: Dict[int, bool]                # tag check result per participant
    mismatches: int                          # participant-count mismatches raised
    upload_bytes: Dict[int, Tuple[int, int]]  # payload on (user->cs, user->vs)


def quantize(x: np.ndarray, delta_exp: int) -> np.ndarray:
    """Round x * 2^delta_exp to the nearest integer, ties away from zero.

    Scaling by a power of two and splitting off the truncated part are
    both exact in float64, so the result is the exact rounded integer.
    """
    scaled = np.ldexp(np.asarray(x, dtype=np.float64), delta_exp)
    whole = np.trunc(scaled)
    if np.abs(whole).max(initial=0.0) >= _EXACT_FLOAT_INT:
        raise ValueError("input too large to quantize exactly in float64")
    up = np.abs(scaled - whole) >= 0.5
    step = np.where(scaled < 0, -1, 1).astype(np.int64)
    return whole.astype(np.int64) + np.where(up, step, 0)


def expected_mean(view: RoundView) -> np.ndarray:
    """Correctly rounded quotient of the exact integer sum by m * 2^delta_exp."""
    total = np.zeros(view.dim, dtype=np.int64)
    for uid in view.online:
        total += quantize(view.updates[uid], view.delta_exp)
    m = len(view.online)
    if np.abs(total).max(initial=0) >= _EXACT_FLOAT_INT or m >= _EXACT_FLOAT_INT:
        raise ValueError("integer sum too large for an exact float64 quotient")
    # Both operands are exact in float64 and IEEE division rounds
    # correctly, so this is the correctly rounded rational quotient.
    return total.astype(np.float64) / float(m << view.delta_exp)


def check_round(view: RoundView) -> List[str]:
    """Every way the round's outputs differ from the expected ones; empty if none."""
    problems = []
    r = view.round_index
    online = set(view.online)
    participants = set(view.models)
    if participants != online:
        problems.append(
            f"round {r}: participants {sorted(participants)} differ from "
            f"online users {sorted(online)}")
    if view.mismatches:
        problems.append(f"round {r}: {view.mismatches} participant-count mismatches")
    unverified = sorted(uid for uid in participants if not view.verified.get(uid))
    if unverified:
        problems.append(f"round {r}: users {unverified} raised an alarm")

    if online:
        exact = expected_mean(view)
        inputs = np.stack([np.asarray(view.updates[uid], dtype=np.float64)
                           for uid in sorted(online)])
        float_mean = inputs.mean(axis=0)
        # Half a quantum of encoding error, plus float64 rounding in the
        # mean of m inputs and in the program's decode.
        eps = np.finfo(np.float64).eps
        tolerance = (2.0 ** -(view.delta_exp + 1)
                     + (len(online) + 2) * eps * max(1.0, float(np.abs(inputs).max())))
        for uid in sorted(participants):
            model = view.models[uid]
            if model is None:
                problems.append(f"round {r}: user {uid} decoded no model")
                continue
            model = np.asarray(model)
            if model.dtype != np.float64 or model.shape != (view.dim,):
                problems.append(f"round {r}: user {uid} model has dtype {model.dtype} "
                                f"and shape {model.shape}, expected float64 ({view.dim},)")
                continue
            wrong = np.nonzero(model.view(np.uint64) != exact.view(np.uint64))[0]
            if wrong.size:
                j = int(wrong[0])
                problems.append(
                    f"round {r}: user {uid} mean differs from the exact fixed-point "
                    f"mean in {wrong.size} coordinates, first {j}: "
                    f"{model[j]!r} != {exact[j]!r}")
            worst = float(np.abs(model - float_mean).max())
            if worst > tolerance:
                problems.append(f"round {r}: user {uid} mean is {worst:.3e} from the "
                                f"float64 mean, above {tolerance:.3e}")

    want = (8 * view.dim, 8)
    for uid in sorted(participants):
        got = view.upload_bytes.get(uid, (0, 0))
        if tuple(got) != want:
            problems.append(f"round {r}: user {uid} uploaded {got[0]} + {got[1]} "
                            f"payload bytes to (CS, VS), expected {want[0]} + {want[1]}")
    return problems
