"""Prime-field arithmetic over moduli up to 61 bits.

Residues are kept canonical (non-negative, below the modulus) at every API
boundary.  Vectors are numpy ``uint64`` arrays, and every vector kernel is
exact in fixed-width words:

- Sums: a canonical residue is below 2^61, so up to seven of them add
  without wrapping (7 * (2^61 - 1) < 2^64).  ``vec_sum`` reduces once per
  seven terms instead of after every addition.
- Products: two residues multiply to as much as 122 bits, so ``dot``
  splits each operand into three 21-bit limbs.  A limb product is below
  2^42, and a block of fewer than 2^22 such products sums below 2^64, so
  each of the nine limb-pair dot products of a block is exact in
  ``uint64``.  Only the per-block partial sums become Python integers.

Scalar operations use Python integers throughout.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

MAX_MODULUS_BITS = 61

# Witness set sufficient for deterministic Miller-Rabin on every 64-bit
# integer (Sorenson & Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldError(ValueError):
    """Invalid modulus, residue, or vector operand."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2^64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldModulus(int):
    """A validated prime modulus in (2, 2^61).

    Subclasses ``int`` so it participates in arithmetic directly; the
    upper bound leaves three spare high bits in a 64-bit word.
    """

    def __new__(cls, value: int) -> "FieldModulus":
        value = int(value)
        if not 2 < value < (1 << MAX_MODULUS_BITS):
            raise FieldError(f"modulus {value} outside (2, 2^{MAX_MODULUS_BITS})")
        if not is_prime(value):
            raise FieldError(f"modulus {value} is not prime")
        return super().__new__(cls, value)


def find_prime_above(lower_bound: int) -> FieldModulus:
    """Smallest prime strictly greater than ``lower_bound``."""
    if lower_bound < 2:
        raise FieldError("lower bound must be at least 2")
    limit = 1 << MAX_MODULUS_BITS
    if lower_bound >= limit - (1 << 32):
        raise FieldError("no 61-bit prime can be guaranteed above this bound")
    n = lower_bound + 1
    if n % 2 == 0 and n > 2:
        n += 1
    while n < limit:
        if is_prime(n):
            return FieldModulus(n)
        n += 2
    raise FieldError("prime search exceeded the 61-bit modulus limit")


# -- scalar operations -------------------------------------------------------

def fe_add(a: int, b: int, r: int) -> int:
    return (a + b) % r


def fe_neg(a: int, r: int) -> int:
    return (-a) % r


def fe_sub(a: int, b: int, r: int) -> int:
    return (a - b) % r


def fe_mul(a: int, b: int, r: int) -> int:
    # Python ints are arbitrary precision; the 122-bit intermediate is safe.
    return a * b % r


def to_signed(a: int, r: int) -> int:
    """Absolute-minimum-remainder view: result in [-(r-1)/2, (r-1)/2]."""
    return a if a <= (r - 1) // 2 else a - r


def from_signed(s: int, r: int) -> int:
    half = (r - 1) // 2
    if not -half <= s <= half:
        raise FieldError(f"signed value {s} outside [-(r-1)/2, (r-1)/2]")
    return s % r


# -- vector operations -------------------------------------------------------

def vec_from_ints(values, r: int) -> np.ndarray:
    arr = np.asarray([v % r for v in values], dtype=np.uint64)
    return arr


def _check_lengths(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise FieldError(f"length mismatch: {a.shape} vs {b.shape}")


def vec_add(a: np.ndarray, b: np.ndarray, r: int) -> np.ndarray:
    _check_lengths(a, b)
    return (a + b) % np.uint64(r)


def vec_sub(a: np.ndarray, b: np.ndarray, r: int) -> np.ndarray:
    _check_lengths(a, b)
    return (a + (np.uint64(r) - b)) % np.uint64(r)


def vec_neg(a: np.ndarray, r: int) -> np.ndarray:
    return (np.uint64(r) - a) % np.uint64(r)


# Canonical residues that fit in one uint64 accumulator: 7 * (2^61 - 1) < 2^64.
_LAZY_TERMS = 7


def vec_sum(vectors, r: int) -> np.ndarray:
    """Modular sum of a non-empty iterable of equal-length canonical vectors.

    The iterable is consumed once, so a generator streams its vectors
    through one accumulator without holding them all.
    """
    it = iter(vectors)
    try:
        acc = next(it).copy()
    except StopIteration:
        raise FieldError("cannot sum an empty sequence of vectors") from None
    modulus = np.uint64(r)
    terms = 1
    for v in it:
        _check_lengths(acc, v)
        if terms == _LAZY_TERMS:
            acc %= modulus
            terms = 1
        acc += v
        terms += 1
    acc %= modulus
    return acc


def vec_to_signed(a: np.ndarray, r: int) -> np.ndarray:
    """Signed representatives as int64 (valid since r < 2^61)."""
    half = np.uint64((r - 1) // 2)
    out = a.astype(np.int64)
    # Branch-free: a boolean-mask update is several times slower on the
    # half-and-half masks that uniform residues give.
    out -= (a > half) * np.int64(r)
    return out


def vec_from_signed(s: np.ndarray, r: int) -> np.ndarray:
    half = (r - 1) // 2
    s = np.asarray(s, dtype=np.int64)
    if s.size and (int(s.max()) > half or int(s.min()) < -half):
        raise FieldError("signed vector outside the representable range")
    out = s.astype(np.uint64)  # a negative s wraps to 2^64 + s ...
    out += (s < 0) * np.uint64(r)  # ... and adding r wraps it to s + r
    return out


_LIMB_BITS = 21
_LIMB_MASK = np.uint64((1 << _LIMB_BITS) - 1)
_LIMB_SHIFT = np.uint64(_LIMB_BITS)
# Elements per block.  Exactness needs fewer than 2^22 (see the module
# docstring); 2^14 keeps a block's six limb arrays inside L2 cache.
_DOT_BLOCK = 1 << 14


def _limbs(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    high = a >> _LIMB_SHIFT
    return a & _LIMB_MASK, high & _LIMB_MASK, high >> _LIMB_SHIFT


def dot(a: np.ndarray, b: np.ndarray, r: int) -> int:
    """Modular dot product, exact for operands below 2^63."""
    _check_lengths(a, b)
    if a.size == 0:
        return 0
    if max(int(a.max()), int(b.max())) >> (3 * _LIMB_BITS):
        raise FieldError(f"dot operands must lie below 2^{3 * _LIMB_BITS}")
    # diag[k] sums the limb-pair products of weight 2^(21k).
    diag = [0] * 5
    for start in range(0, a.size, _DOT_BLOCK):
        a_limbs = _limbs(a[start:start + _DOT_BLOCK])
        b_limbs = _limbs(b[start:start + _DOT_BLOCK])
        for i, a_limb in enumerate(a_limbs):
            for j, b_limb in enumerate(b_limbs):
                diag[i + j] += int(np.dot(a_limb, b_limb))
    return sum(c << (_LIMB_BITS * k) for k, c in enumerate(diag)) % r


# -- serialization -----------------------------------------------------------
# Field elements travel as 8-byte little-endian words.  The standalone
# vector format (used for model files) carries a 4-byte element count;
# message payloads embed the raw words and recover the count from the
# frame's payload length.

def elem_to_bytes(a: int) -> bytes:
    return struct.pack("<Q", a)


def elem_from_bytes(data: bytes) -> int:
    if len(data) != 8:
        raise FieldError(f"field element must be 8 bytes, got {len(data)}")
    return struct.unpack("<Q", data)[0]


def vec_to_raw(a: np.ndarray) -> bytes:
    return a.astype("<u8").tobytes()


def vec_from_raw(data: bytes) -> np.ndarray:
    if len(data) % 8 != 0:
        raise FieldError("raw vector byte length must be a multiple of 8")
    return np.frombuffer(data, dtype="<u8").astype(np.uint64)


def vec_to_bytes(a: np.ndarray) -> bytes:
    return struct.pack("<I", a.size) + vec_to_raw(a)


def vec_from_bytes(data: bytes) -> np.ndarray:
    if len(data) < 4:
        raise FieldError("vector encoding shorter than its count prefix")
    (count,) = struct.unpack("<I", data[:4])
    body = data[4:]
    if len(body) != 8 * count:
        raise FieldError(f"vector encoding expects {8 * count} body bytes, got {len(body)}")
    return vec_from_raw(body)
