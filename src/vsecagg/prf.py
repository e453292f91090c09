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

The keystream is encrypted straight into the output vector, a chunk of
up to 2^15 words (256 KiB, which stays in L2 cache) at a time, and
masked there in place.  One ``max`` per chunk shows whether every word
was accepted; only a chunk that holds a rejected word is compacted, and
only then does the shortfall need another draw.  Under a modulus just
below a power of two, such as the default 2^61 - 1, almost no chunk
holds one.  No draw asks for more words than the output still lacks,
so an expansion takes exactly ``length`` words of keystream whenever
none is rejected.

Each key builds its AES-CTR context once and keeps it.  Every expansion
re-points that context at its round's counter block with ``reset_nonce``
instead of setting up a new cipher, so a key's context serves one
expansion at a time: an expansion must finish before the next one on the
same key starts.  Party work runs on one thread, in socket mode too;
there a second thread only writes frames to the sockets.
"""

from __future__ import annotations

import functools
import hashlib
import secrets
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

KEY_BYTES = 16  # per-entity secret keys are 128 bits
MAX_EXPAND_LEN = 1 << 32
# Keystream words per draw.  Each draw is one encrypt, mask and check
# pass over 256 KiB, which stays in L2 cache; fewer, larger draws pay
# the per-call cost fewer times.  On a 2-core Xeon host (best of 15),
# one expansion at d = 100000 took 0.38 ms with 2^13 words and 0.27 to
# 0.29 ms with 2^15; 2^16 and 2^17 were no faster.
_DRAW_WORDS = 1 << 15
# The plaintext of every draw: CTR-mode keystream is the encryption of zeros.
_ZEROS = memoryview(bytes(8 * _DRAW_WORDS))


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

    @functools.cached_property
    def cipher(self) -> algorithms.AES:
        """The AES-256 key of this secret, derived once and reused every round."""
        return algorithms.AES(derive_cipher_key(self))

    @functools.cached_property
    def encryptor(self):
        """The AES-256-CTR context of this secret, made once and re-pointed per expansion."""
        return Cipher(self.cipher, modes.CTR(bytes(16))).encryptor()


def concat_keys(k1: KeyMaterial, k2: KeyMaterial) -> KeyMaterial:
    """Byte concatenation k1 || k2 (order-sensitive)."""
    return KeyMaterial(k1.data + k2.data)


def derive_cipher_key(key: KeyMaterial) -> bytes:
    """SHA-256 digest of the secret key bytes, used as the AES-256 key."""
    return hashlib.sha256(key.data).digest()


def _keystream(key: KeyMaterial, v0: int):
    """The key's CTR context, re-pointed at the start of round ``v0``'s keystream."""
    if not 0 <= v0 < 1 << 64:
        raise PrfError(f"round index {v0} outside 64-bit range")
    enc = key.encryptor
    enc.reset_nonce(v0.to_bytes(8, "little") + bytes(8))
    return enc


def _check_modulus(modulus: int) -> None:
    if not 1 < modulus <= 1 << 61:
        raise PrfError(f"modulus {modulus} outside (1, 2^61]")


def expand(key: KeyMaterial, v0: int, length: int, modulus: int) -> np.ndarray:
    """Length-``length`` uniform vector over Z_modulus, deterministic in all inputs.

    ``modulus`` need not be prime (``tags.derive_tag_key`` expands over
    R - 1); it must lie in (1, 2^61].
    """
    if length < 1:
        raise PrfError("expansion length must be at least 1")
    if length >= MAX_EXPAND_LEN:
        raise PrfError(f"expansion length {length} exceeds the 2^32 keystream budget")
    _check_modulus(modulus)
    bits = modulus.bit_length()
    mask = np.uint64((1 << bits) - 1)
    bound = np.uint64(modulus)
    enc = _keystream(key, v0)
    # Two spare words past length: older cryptography releases need
    # len(data) + 15 bytes of room in update_into.
    out = np.empty(length + 2, dtype="<u8")
    out_bytes = memoryview(out).cast("B")
    filled = 0
    while filled < length:
        nwords = min(_DRAW_WORDS, length - filled)
        enc.update_into(_ZEROS[:8 * nwords],
                        out_bytes[8 * filled:8 * (filled + nwords + 2)])
        words = out[filled:filled + nwords]
        words &= mask
        if words.max() >= bound:
            kept = np.compress(words < bound, words)
            words[:kept.size] = kept
            nwords = kept.size
        filled += nwords
    return out[:length]


def expand_one(key: KeyMaterial, v0: int, modulus: int) -> int:
    """``int(expand(key, v0, 1, modulus)[0])``, drawn one word at a time."""
    _check_modulus(modulus)
    mask = (1 << modulus.bit_length()) - 1
    enc = _keystream(key, v0)
    while True:
        word = int.from_bytes(enc.update(bytes(8)), "little") & mask
        if word < modulus:
            return word

