"""Fixed-point conversion between real update vectors and field vectors.

Encoding multiplies by a power-of-two scaling factor and rounds to the
nearest integer (ties away from zero, so independent implementations
agree bit for bit), then embeds the signed integer into Z_{R_w}.  The
capacity check guarantees that summing the worst-case encodings of all
participants never wraps the modulus, which is what lets downstream tag
verification reason over the integers.

``encode`` rounds by adding +-0.5 and casting to int64, since the cast
truncates toward zero, and embeds the result in place in the cast's own
words.  It needs no range check after the cast: the input bound check
and the capacity check keep every rounded value within +-(R_w - 1)/2.
``decode`` divides once, by delta * m, where m is the participant count
or, in a weighted round, the weight sum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import field

# Shifting an int64 word's bits right by 63 leaves its sign bit.
_SIGN_SHIFT = np.uint64(63)


class CodecError(ValueError):
    """Out-of-bounds value or unusable parameters."""


@dataclass(frozen=True)
class CodecParams:
    """Scaling factor, working modulus, and admissible value range.

    ``n_max`` is the largest participant count the parameters must
    support.  ``roles`` enforces it at enrolment: no more than ``n_max``
    users register, so no round sums more than ``n_max`` encodings.
    """

    delta: int
    r_w: int
    n_max: int
    x_min: float = -10.0
    x_max: float = 10.0

    def __post_init__(self) -> None:
        if self.delta < 1 or self.delta & (self.delta - 1):
            raise CodecError(f"scaling factor {self.delta} must be a positive power of two")
        if self.x_min >= self.x_max:
            raise CodecError("x_min must be below x_max")
        if self.n_max < 1:
            raise CodecError("n_max must be at least 1")
        if not check_capacity(self, self.n_max):
            raise CodecError(
                f"capacity violated: {self.n_max} participants in "
                f"[{self.x_min}, {self.x_max}] at delta={self.delta} can wrap mod {self.r_w}"
            )

    # encode's operands, built on its first call rather than on each one.
    @functools.cached_property
    def _delta_f64(self) -> float:
        return float(self.delta)

    @functools.cached_property
    def _r_w_u64(self) -> np.uint64:
        return np.uint64(self.r_w)


def check_capacity(params: CodecParams, m: int) -> bool:
    """True iff m participants' worst-case encoded sum cannot wrap mod R_w."""
    half = (params.r_w - 1) // 2
    return (
        m * params.x_max * params.delta < half
        and m * params.x_min * params.delta > -half
    )


def encode(values, params: CodecParams) -> np.ndarray:
    """Scale, round to nearest (ties away from zero), embed into Z_{R_w}."""
    v = np.asarray(values, dtype=np.float64)
    # NaN propagates through min/max and fails both comparisons, and an
    # infinity lies outside the finite bounds, so one pair checks it all.
    if v.size and not (params.x_min <= np.minimum.reduce(v)
                       and np.maximum.reduce(v) <= params.x_max):
        bad = np.nonzero((v < params.x_min) | (v > params.x_max) | ~np.isfinite(v))[0]
        raise CodecError(
            f"value {v[bad[0]]!r} at index {int(bad[0])} outside "
            f"[{params.x_min}, {params.x_max}]"
        )
    scaled = v * params._delta_f64
    # Adding +-0.5 and truncating equals sign(s) * floor(|s| + 0.5): IEEE
    # rounding is symmetric in sign, so s - 0.5 is exactly -(|s| + 0.5).
    scaled += np.copysign(0.5, scaled)
    out = scaled.astype(np.int64).view(np.uint64)
    # A negative q reads as 2^64 + q, and adding r wraps it to q + r.  The
    # words of ``scaled``, no longer needed, hold r where q is negative.
    sign = np.right_shift(out, _SIGN_SHIFT, out=scaled.view(np.uint64))
    sign *= params._r_w_u64
    out += sign
    return out


def decode(vec: np.ndarray, params: CodecParams, m: float) -> np.ndarray:
    """Signed lift, unscale, and divide by m: the participant count, or a weight sum."""
    if not m > 0:
        raise CodecError(f"divisor must be positive, got {m}")
    # delta * m is exact in float64 and dividing by the power of two delta
    # is exact, so one division rounds as dividing by delta, then m, did.
    return field.vec_to_signed(vec, params.r_w) / float(params.delta * m)
