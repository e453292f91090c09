"""Constant-size linear verification tags over Z_{R_b}.

A tag is the dot product of a model vector with a secret pseudo-random
key vector whose entries are units mod R_b.  Tags are additive in the
model vector, so the sum of per-user tags verifies the aggregate with a
single 8-byte field element.

When the working modulus R_w differs from R_b, model residues are
lifted to their signed integer representatives before reduction mod
R_b; the aggregation capacity check guarantees the honest sum never
wraps, so the lift is the integer the residue denotes.  With R_w = R_b
the lift is the identity on residues.  Both moduli are below 2^61, so
the signed lift and its reduction fit in ``int64``.

The product itself is ``field.dot``: three 21-bit limbs per operand,
exact ``uint64`` limb-pair sums over blocks of fewer than 2^22
elements, and one reduction mod R_b at the end.
"""

from __future__ import annotations

import struct

import numpy as np

from . import field
from .prf import KeyMaterial, expand_unit

TAG_BYTES = 8


def derive_tag_key(k_v: KeyMaterial, round_index: int, dim: int, r_b: int) -> np.ndarray:
    """Round verification key vector over Z*_{r_b}; identical for all holders of k_v."""
    return expand_unit(k_v, round_index, dim, r_b)


def _lift(w: np.ndarray, r_w: int, r_b: int) -> np.ndarray:
    if r_w == r_b:
        return w
    return (field.vec_to_signed(w, r_w) % np.int64(r_b)).astype(np.uint64)


def gen_tag(w: np.ndarray, key_vec: np.ndarray, r_w: int, r_b: int) -> int:
    """Tag of ``w`` under the round key vector: sum_j lift(w_j) * k_j mod r_b."""
    return field.dot(_lift(w, r_w, r_b), key_vec, r_b)


def verify(w: np.ndarray, tag: int, key_vec: np.ndarray, r_w: int, r_b: int) -> bool:
    """True iff ``w`` recomputes to ``tag``; False is a detection signal."""
    return gen_tag(w, key_vec, r_w, r_b) == tag % r_b


def tag_to_bytes(tag: int) -> bytes:
    return struct.pack("<Q", tag)


def tag_from_bytes(data: bytes) -> int:
    if len(data) != TAG_BYTES:
        raise field.FieldError(f"tag must be {TAG_BYTES} bytes, got {len(data)}")
    return struct.unpack("<Q", data)[0]
