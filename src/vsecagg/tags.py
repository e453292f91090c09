"""Constant-size linear verification tags over Z_R.

A tag is the dot product of a model vector with a secret pseudo-random
key vector whose entries are units mod R.  Tags are additive in the
model vector, so the sum of per-user tags verifies the aggregate with a
single 8-byte field element.

The product itself is ``field.dot``: four 16-bit limbs per operand,
read through a ``uint16`` view, whose limb-pair sums are float64 BLAS
matrix products, exact below 2^53, turned into Python integers once per
2^21 elements and reduced mod R once at the end.
"""

from __future__ import annotations

import struct

import numpy as np

from . import field
from .prf import KeyMaterial, expand

TAG_BYTES = 8


def derive_tag_key(k_v: KeyMaterial, round_index: int, dim: int, r: int) -> np.ndarray:
    """Round verification key vector over Z*_r; identical for all holders of k_v.

    Expands over Z_{r - 1} and shifts by one, so no entry is zero.
    """
    key_vec = expand(k_v, round_index, dim, r - 1)
    key_vec += np.uint64(1)
    return key_vec


def gen_tag(w: np.ndarray, key_vec: np.ndarray, r: int) -> int:
    """Tag of ``w`` under the round key vector: sum_j w_j * k_j mod r."""
    return field.dot(w, key_vec, r)


def tag_to_bytes(tag: int) -> bytes:
    return struct.pack("<Q", tag)


def tag_from_bytes(data: bytes) -> int:
    if len(data) != TAG_BYTES:
        raise field.FieldError(f"tag must be {TAG_BYTES} bytes, got {len(data)}")
    return struct.unpack("<Q", data)[0]
