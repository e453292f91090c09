"""Constant-size linear verification tags over Z_{R_b}.

A tag is the dot product of a model vector with a secret pseudo-random
key vector whose entries are units mod R_b.  Tags are additive in the
model vector, so the sum of per-user tags verifies the aggregate with a
single 8-byte field element.

The protocol runs models and tags over one prime, R_w = R_b, and then
the lift below is the identity on residues.  ``gen_tag`` and ``verify``
still take both moduli for the forgery calibration, which shrinks R_b
alone: there, model residues are lifted to their signed integer
representatives before reduction mod R_b.  Both moduli are below 2^61,
so the signed lift and its reduction fit in ``int64``.

The product itself is ``field.dot``: four 16-bit limbs per operand,
read through a ``uint16`` view, whose limb-pair sums are float64 BLAS
matrix products, exact below 2^53, turned into Python integers once per
2^21 elements and reduced mod R_b once at the end.
"""

from __future__ import annotations

import struct

import numpy as np

from . import field
from .prf import KeyMaterial, expand

TAG_BYTES = 8


def derive_tag_key(k_v: KeyMaterial, round_index: int, dim: int, r_b: int) -> np.ndarray:
    """Round verification key vector over Z*_{r_b}; identical for all holders of k_v.

    Expands over Z_{r_b - 1} and shifts by one, so no entry is zero.
    """
    key_vec = expand(k_v, round_index, dim, r_b - 1)
    key_vec += np.uint64(1)
    return key_vec


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
