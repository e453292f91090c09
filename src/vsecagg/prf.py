"""Deterministic expansion of (key, round) into uniform field vectors.

The keystream is AES-256 in counter mode.  The cipher key is the SHA-256
digest of the secret key bytes.  The initial 16-byte counter block holds
the round index in its low 8 bytes, least-significant byte first, with
the remaining bytes zero; CTR mode then increments the block as a
big-endian counter, so distinct rounds use disjoint counter ranges as
long as fewer than 2^32 elements are drawn per round.

Each candidate draw takes the next 8 keystream bytes as a little-endian
64-bit word, masks it down to the modulus' bit width, and rejects until
the value falls below the modulus.  This gives exact uniformity over
Z_R and keeps the accepted sequence a prefix-stable function of the
keystream: expanding to a longer length never changes earlier elements.
"""

from __future__ import annotations

import hashlib
import math
import secrets
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

KEY_BYTES = 16  # per-entity secret keys are 128 bits
MAX_EXPAND_LEN = 1 << 32
# Keystream words per draw: 64 KiB stays in cache, and one buffer of it
# is reused for every draw of a long expansion.
_DRAW_WORDS = 1 << 13


class PrfError(ValueError):
    """Invalid key material or expansion request."""


@dataclass(frozen=True)
class KeyMaterial:
    """Opaque secret key bytes.

    Freshly generated keys are 128 bits; concatenations (verification key,
    seed pairs) are 256 bits.
    """

    data: bytes

    def __post_init__(self) -> None:
        if not self.data:
            raise PrfError("key material must be non-empty")

    @classmethod
    def generate(cls, rng=None) -> "KeyMaterial":
        """Sample a fresh 128-bit key.

        ``rng`` may be a ``random.Random`` for reproducible simulations;
        by default keys come from the OS CSPRNG.
        """
        if rng is None:
            return cls(secrets.token_bytes(KEY_BYTES))
        return cls(rng.randbytes(KEY_BYTES))


def concat_keys(k1: KeyMaterial, k2: KeyMaterial) -> KeyMaterial:
    """Byte concatenation k1 || k2 (order-sensitive)."""
    return KeyMaterial(k1.data + k2.data)


def derive_cipher_key(master: Union[KeyMaterial, bytes]) -> bytes:
    """SHA-256 digest of the master secret, used as the AES-256 key."""
    data = master.data if isinstance(master, KeyMaterial) else master
    if not data:
        raise PrfError("cannot derive a cipher key from empty input")
    return hashlib.sha256(data).digest()


def _keystream(key: Union[KeyMaterial, bytes], v0: int):
    if not 0 <= v0 < 1 << 64:
        raise PrfError(f"round index {v0} outside 64-bit range")
    counter = v0.to_bytes(8, "little") + bytes(8)
    cipher = Cipher(algorithms.AES(derive_cipher_key(key)), modes.CTR(counter))
    return cipher.encryptor()


def _draw_words(want: int, rate: float) -> int:
    """Keystream words to draw for ``want`` more accepted ones.

    The expected count plus four standard deviations of the binomial
    accept count, so the last draw almost never falls short.
    """
    return min(_DRAW_WORDS, int((want + 4 * math.sqrt(want * (1 - rate))) / rate) + 16)


def expand(key: Union[KeyMaterial, bytes], v0: int, length: int, modulus: int) -> np.ndarray:
    """Length-``length`` uniform vector over Z_modulus, deterministic in all inputs.

    ``modulus`` need not be prime (the unit-group construction expands
    over R-1); it must lie in (1, 2^61].
    """
    if length < 1:
        raise PrfError("expansion length must be at least 1")
    if length >= MAX_EXPAND_LEN:
        raise PrfError(f"expansion length {length} exceeds the 2^32 keystream budget")
    if not 1 < modulus <= 1 << 61:
        raise PrfError(f"modulus {modulus} outside (1, 2^61]")
    bits = modulus.bit_length()
    mask = np.uint64((1 << bits) - 1)
    bound = np.uint64(modulus)
    rate = modulus / (1 << bits)  # acceptance probability, at least 1/2
    enc = _keystream(key, v0)
    out = np.empty(length, dtype=np.uint64)
    # Later draws want fewer words, so the first one sizes the buffer.  It
    # has one block of slack: update_into needs len(data) + 15 bytes.
    nwords = _draw_words(length, rate)
    buf = np.empty(nwords + 2, dtype="<u8")
    buf_bytes = memoryview(buf).cast("B")
    zeros = memoryview(bytes(8 * nwords))
    filled = 0
    while filled < length:
        want = length - filled
        nwords = _draw_words(want, rate)
        enc.update_into(zeros[:8 * nwords], buf_bytes[:8 * nwords + 16])
        words = buf[:nwords]
        words &= mask
        accepted = np.compress(words < bound, words)
        take = min(accepted.size, want)
        out[filled:filled + take] = accepted[:take]
        filled += take
    return out


def expand_unit(key: Union[KeyMaterial, bytes], v0: int, length: int, r_b: int) -> np.ndarray:
    """Uniform vector over the unit group Z*_{r_b} = {1, ..., r_b - 1}.

    Expands over Z_{r_b - 1} and shifts by one, so no element is zero.
    """
    vec = expand(key, v0, length, r_b - 1)
    vec += np.uint64(1)
    return vec
