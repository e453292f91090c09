"""Prime-field arithmetic over moduli up to 61 bits.

The protocol's default modulus is the Mersenne prime 2^61 - 1, the
largest admissible one: ``find_prime_below(2^61)``.  Its 61-bit mask
rejects a single value, so PRF expansion keeps almost every keystream
word.

Residues are kept canonical (non-negative, below the modulus) at every API
boundary.  Vectors are numpy ``uint64`` arrays, and every vector kernel is
exact in fixed-width words:

- Add and subtract: for canonical operands a + b < 2r < 2^62, so
  ``vec_add``/``vec_sub`` reduce with one compare-and-select instead of
  a division.  They require canonical inputs; a caller that receives a
  vector from another party checks it first.
- Sums: a canonical residue is below r < 2^61, so a uint64 holds any
  sum below 8r < 2^64.  ``vec_sum`` reduces without a division, by
  compare-and-select steps that each take off a multiple of r wherever
  it fits.  One step of 4r brings a partial sum below 8r under 4r, so
  four more terms fit before the next step; at the end, steps of 4r,
  2r and r bring the sum under r.
- Products: two residues multiply to as much as 122 bits, so ``dot``
  reads each 64-bit word as four 16-bit limbs, a free ``uint16`` view.
  A limb product is below 2^32, so up to 2^21 of them sum below 2^53,
  where every float64 integer and every partial sum is exact in any
  order.  ``dot`` therefore runs the sixteen limb-pair sums as one small
  float64 BLAS matrix product per block of words, and once per 2^21
  words adds the 4 x 4 sums of each weight in int64 and turns the
  seven results into one Python integer.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

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


def find_prime_below(upper_bound: int) -> FieldModulus:
    """Largest prime strictly less than ``upper_bound``, which lies in (3, 2^61]."""
    if not 3 < upper_bound <= 1 << MAX_MODULUS_BITS:
        raise FieldError(f"upper bound {upper_bound} outside (3, 2^{MAX_MODULUS_BITS}]")
    n = upper_bound - 1
    if n % 2 == 0 and n > 2:
        n -= 1
    while not is_prime(n):
        n -= 2
    return FieldModulus(n)


# -- vector operations -------------------------------------------------------

def _check_lengths(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise FieldError(f"length mismatch: {a.shape} vs {b.shape}")


def first_non_canonical(a: np.ndarray, r: int) -> Optional[int]:
    """Index of the first element of ``a`` that is not below r, or None."""
    if a.size == 0 or int(np.maximum.reduce(a)) < r:
        return None
    return int(np.argmax(a >= np.uint64(r)))


# In uint64 words x - r wraps to above x exactly when x < r, so
# min(x, x - r) is x mod r for any x < 2r: a compare and a select, no
# division.  Both operands must be canonical.

def vec_add(a: np.ndarray, b: np.ndarray, r: int) -> np.ndarray:
    """(a + b) mod r for canonical a and b."""
    _check_lengths(a, b)
    s = a + b  # below 2r < 2^62
    return np.minimum(s, s - np.uint64(r), out=s)


def vec_sub(a: np.ndarray, b: np.ndarray, r: int) -> np.ndarray:
    """(a - b) mod r for canonical a and b."""
    _check_lengths(a, b)
    d = a - b  # a - b + 2^64 when a < b, and then d + r wraps to a - b + r
    return np.minimum(d, d + np.uint64(r), out=d)


# A uint64 accumulator holds any sum below 8r: 8 * (2^61 - 1) < 2^64.
_LAZY_BOUND = 8


def _take_off(acc: np.ndarray, multiple: int, scratch: np.ndarray) -> None:
    """Subtract ``multiple`` wherever it fits, in place: below 2 * multiple
    in, below multiple out."""
    np.subtract(acc, np.uint64(multiple), out=scratch)
    np.minimum(acc, scratch, out=acc)


def vec_sum(vectors, r: int) -> np.ndarray:
    """Modular sum of a non-empty iterable of equal-length canonical vectors.

    The iterable is consumed once, so a generator streams its vectors
    through one accumulator without holding them all.  The result is a
    new array; no input is changed.
    """
    it = iter(vectors)
    try:
        first = next(it)
    except StopIteration:
        raise FieldError("cannot sum an empty sequence of vectors") from None
    second = next(it, None)
    if second is None:
        return first.copy()
    _check_lengths(first, second)
    acc = first + second
    scratch = np.empty_like(acc)
    bound = 2  # every element of acc is below bound * r
    for v in it:
        _check_lengths(acc, v)
        if bound == _LAZY_BOUND:
            _take_off(acc, 4 * r, scratch)
            bound = 4
        acc += v
        bound += 1
    for k in (4, 2, 1):
        if bound > k:
            _take_off(acc, k * r, scratch)
    return acc


@functools.lru_cache(maxsize=8)
def _signed_limits(r: int) -> Tuple[np.uint64, np.int64]:
    """(largest residue with a non-negative representative, r), as numpy words."""
    return np.uint64((r - 1) // 2), np.int64(r)


def vec_to_signed(a: np.ndarray, r: int) -> np.ndarray:
    """Signed representatives as int64 (valid since r < 2^61)."""
    half, r_word = _signed_limits(r)
    # A residue below 2^61 reads the same as an int64.  Branch-free: a
    # boolean-mask update is several times slower on the half-and-half
    # masks that uniform residues give.
    out = (a > half) * r_word
    return np.subtract(a.view(np.int64), out, out=out)


# Words per block: the two float64 limb buffers of 512 KiB each stay in
# L2 cache.  Every call reuses them, which is safe because the program
# is single-threaded.
_DOT_BLOCK = 1 << 14
# Words per exact float64 limb-pair sum: 2^21 * (2^16 - 1)^2 < 2^53.
_DOT_FOLD_BLOCKS = (1 << 21) // _DOT_BLOCK
_DOT_A = np.empty((_DOT_BLOCK, 4))
_DOT_B = np.empty((_DOT_BLOCK, 4))
# Every operand word must lie below this.
_DOT_LIMIT = np.uint64(1 << 63)


def _limb_view(a: np.ndarray) -> np.ndarray:
    """The little-endian 16-bit limbs of each word, as a (words, 4) view."""
    return np.ascontiguousarray(a, dtype="<u8").view("<u2").reshape(-1, 4)


def _limb_pair_total(sums: np.ndarray) -> int:
    """The sum of sums[i, j] * 2^(16 (i + j)) over the 4 x 4 limb-pair sums.

    Each exact float64 sum is below 2^53, so the up to four sums of one
    weight add in int64 below 2^55; only those seven sums are shifted.
    """
    s = sums.astype(np.int64).ravel().tolist()
    return (s[0] + ((s[1] + s[4]) << 16) + ((s[2] + s[5] + s[8]) << 32)
            + ((s[3] + s[6] + s[9] + s[12]) << 48) + ((s[7] + s[10] + s[13]) << 64)
            + ((s[11] + s[14]) << 80) + (s[15] << 96))


def dot(a: np.ndarray, b: np.ndarray, r: int) -> int:
    """Modular dot product, exact for operands below 2^63."""
    _check_lengths(a, b)
    if a.size == 0:
        return 0
    # A word is below 2^63 unless its top bit is set, in either operand's maximum.
    if np.maximum.reduce(a) | np.maximum.reduce(b) >= _DOT_LIMIT:
        raise FieldError("dot operands must lie below 2^63")
    a_limbs, b_limbs = _limb_view(a), _limb_view(b)
    total = 0
    # sums[i, j] is the sum of a's limb i times b's limb j.
    sums = np.zeros((4, 4))
    for k, start in enumerate(range(0, a.size, _DOT_BLOCK), 1):
        n = min(_DOT_BLOCK, a.size - start)
        a_block, b_block = _DOT_A[:n], _DOT_B[:n]
        a_block[...] = a_limbs[start:start + n]
        b_block[...] = b_limbs[start:start + n]
        sums += a_block.T @ b_block
        if k % _DOT_FOLD_BLOCKS == 0 or start + n == a.size:
            total += _limb_pair_total(sums)
            sums[...] = 0
    return total % r


# -- serialization -----------------------------------------------------------
# Field elements travel as 8-byte little-endian words.  Message payloads
# embed the raw words and recover the count from the frame's payload
# length; a single element (a tag) goes through ``tags.tag_to_bytes``.

def vec_to_raw(a: np.ndarray) -> memoryview:
    """The words of ``a`` as read-only bytes.

    For a contiguous little-endian ``a`` this is a view that keeps ``a``
    alive, not a copy: a caller that changes ``a`` afterwards changes
    the bytes too.
    """
    return memoryview(np.ascontiguousarray(a, dtype="<u8")).toreadonly().cast("B")


def vec_from_raw(data) -> np.ndarray:
    """A read-only view of the words in ``data``, which it keeps alive.

    A caller that changes a received vector copies it first.
    """
    if len(data) % 8 != 0:
        raise FieldError("raw vector byte length must be a multiple of 8")
    vec = np.frombuffer(data, dtype="<u8")
    vec.setflags(write=False)
    return vec
