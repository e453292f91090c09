"""Deterministic expansion of (key, round) into uniform field vectors.

The keystream is AES-256 in counter mode.  The cipher key is the SHA-256
digest of the secret key bytes.  Round ``v0``'s counter block ``j`` is
the 16 bytes ``v0_LE ‖ BE64(j)``: the round index's 8 bytes,
least-significant byte first, then the block number as a big-endian
64-bit integer.  This is a CTR counter that starts at ``v0_LE ‖ 0^8``
and counts up as a big-endian 128-bit number.  It never carries into
the round bytes, since an expansion draws fewer than 2^32 words, so
distinct rounds use disjoint counter ranges.  Block ``j`` holds keystream
words ``2j`` and ``2j + 1``.

Each candidate draw takes the next 8 keystream bytes as a little-endian
64-bit word, masks it down to the modulus' bit width, and rejects until
the value falls below the modulus.  This gives exact uniformity over
Z_R and keeps the accepted sequence a prefix-stable function of the
keystream: expanding to a longer length never changes earlier elements.

Which OpenSSL call draws which blocks.  Below 2^32 blocks, block ``j`` is
also ``N ‖ BE32(j)`` with the 12-byte nonce ``N = v0_LE ‖ 0^4``, which
is the counter block AES-GCM encrypts under nonce ``N``.  GCM keeps block
1 to mask its tag and starts its keystream at block 2, so the key's two
cipher objects split an output of ``_GCM_MIN_WORDS`` (2^11) or more words:

* CTR: blocks 0 and 1 (words 0-3), and every rejection refill;
* GCM: blocks 2 on (words 4 to ``length - 1``), by one
  ``AESGCM.encrypt_into`` over zeros, straight into the output.  The
  16-byte GCM tag lands in the two spare words past ``length`` and is
  never returned.

GCM is there for speed alone.  With OpenSSL 4.0 on a CPU with VAES and
AVX-512, GCM runs its VAES kernel while CTR runs the older AES-NI loop:
800 kB of keystream took 74 µs by ``encrypt_into`` against 147 µs by a
CTR ``update_into``, and one expansion at d = 100000 went from 171 to
98 µs.  Its authenticity is not used.  The bytes kept are the CTR
keystream this PRF already defines, so the usual warning against
reusing a GCM nonce does not apply: encrypting zeros twice under one
(key, nonce) pair yields the same keystream, which is the PRF's
determinism, and no message is ever encrypted or authenticated with it.
``cryptography`` takes at most 2^31 - 1 bytes per GCM call, which bounds
``MAX_EXPAND_LEN``; every length a frame can carry fits under it.  The
zeros each draw encrypts come from one module-level buffer that grows to
the longest draw; its pages are never written, so they cost address
space, not memory.

Shorter outputs come from CTR alone.  GCM builds one more cipher context
per key, and each GCM call copies its context; inside a round with many
keys, whose contexts have left the cache, that cost more per call than
the faster bulk saved below about 2000 words (see ``_GCM_MIN_WORDS``).

One mask-and-max pass then covers the whole output; only if it holds a
rejected word is it compacted.  The shortfall is drawn from the CTR
context, re-pointed after a GCM call at the first block that call did
not reach (after an odd number of words it skips the half-block already
used), and compacted in turn, so no keystream word is drawn twice.
Under a modulus just below a power of two, such as the default 2^61 - 1,
almost no word is rejected, and an expansion takes exactly ``length``
words of keystream.

Each key derives its digest once and builds its AES-CTR context and
AES-GCM object from it once each, on first use.  Every expansion
re-points the CTR context with ``reset_nonce`` instead of setting up a
new cipher, so a key's context serves one expansion at a time: an
expansion must finish before the next one on the same key starts.  Party
work runs on one thread, in socket mode too; there a second thread only
writes frames to the sockets.
"""

from __future__ import annotations

import functools
import hashlib
import secrets
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

KEY_BYTES = 16  # per-entity secret keys are 128 bits
# Words 0-3: counter blocks 0 and 1, which GCM does not reach.
_HEAD_WORDS = 4
# The head and all that one GCM call reaches: ``cryptography`` takes
# 2^31 - 1 bytes a call.  Every length a frame can carry is shorter.
MAX_EXPAND_LEN = _HEAD_WORDS + ((1 << 31) - 1) // 8
# Shortest output whose words 4 on go through GCM.  That path builds
# one more cipher context per key and pays GCM's per-call context copy,
# about 1.5 µs more per expansion than one CTR draw at d = 1000, and
# GCM's faster bulk saves about 0.8 µs per 1000 words.  Measured per
# call over 400 keys, medians of 40 alternations, on a 2-core Xeon host
# with VAES (OpenSSL 4.0), CTR alone -> GCM path: 8.83 -> 10.36 µs at
# d = 1000, 9.71 -> 10.72 at 1500, 10.81 -> 11.61 at 2047, 14.94 ->
# 14.02 at 4096 and 17.37 -> 13.28 at 8000.
_GCM_MIN_WORDS = 1 << 11
# The plaintext of every draw: keystream is the encryption of zeros.
# Grown by ``_zero_bytes`` to the longest draw made so far.
_zeros = memoryview(bytes(8 * _GCM_MIN_WORDS))
# The dtype of a keystream word.
_WORD = np.dtype("<u8")
# The plaintext of each one-word draw in ``expand_one``.
_ZERO_WORD = bytes(8)


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

    def __reduce__(self):
        # Only the secret bytes: the cached cipher objects cannot be
        # pickled or copied, and a copy rebuilds them on first use.
        return type(self), (self.data,)

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

    @functools.cached_property
    def aead(self) -> AESGCM:
        """The AES-256-GCM object of this secret, which draws each expansion's bulk."""
        return AESGCM(self.cipher.key)


def concat_keys(k1: KeyMaterial, k2: KeyMaterial) -> KeyMaterial:
    """Byte concatenation k1 || k2 (order-sensitive)."""
    return KeyMaterial(k1.data + k2.data)


def derive_cipher_key(key: KeyMaterial) -> bytes:
    """SHA-256 digest of the secret key bytes, used as the AES-256 key."""
    return hashlib.sha256(key.data).digest()


def _keystream(key: KeyMaterial, v0: int, block: int = 0):
    """The key's CTR context, re-pointed at counter block ``block`` of round ``v0``."""
    if not 0 <= v0 < 1 << 64:
        raise PrfError(f"round index {v0} outside 64-bit range")
    enc = key.encryptor
    # Below 2^64, the 16 little-endian bytes of v0 are its 8 bytes, then
    # zeros: block 0.  A later block replaces the last 4 bytes.
    counter = v0.to_bytes(16, "little")
    enc.reset_nonce(counter[:12] + block.to_bytes(4, "big") if block else counter)
    return enc


def _zero_bytes(nbytes: int) -> memoryview:
    """``nbytes`` zero bytes from the shared buffer, grown first if it is shorter."""
    global _zeros
    if nbytes > len(_zeros):
        _zeros = memoryview(bytes(nbytes))
    return _zeros[:nbytes]


@functools.lru_cache(maxsize=8)
def _limits(modulus: int) -> Tuple[int, np.uint64, np.uint64]:
    """(mask, mask as uint64, modulus as uint64) of an admissible ``modulus``.

    Validated and built once per modulus; an inadmissible one raises on
    every call, since a raising call caches nothing.
    """
    if not 1 < modulus <= 1 << 61:
        raise PrfError(f"modulus {modulus} outside (1, 2^61]")
    mask = (1 << modulus.bit_length()) - 1
    return mask, np.uint64(mask), np.uint64(modulus)


def _accept(words: np.ndarray, mask: np.uint64, bound: np.uint64) -> int:
    """Mask ``words`` in place, move the accepted ones to its front, and count them.

    One ``max`` shows whether every word was accepted; only a draw that
    holds a rejected word is compacted.
    """
    words &= mask
    if np.maximum.reduce(words) < bound:
        return words.size
    kept = np.compress(words < bound, words)
    words[:kept.size] = kept
    return kept.size


def expand(key: KeyMaterial, v0: int, length: int, modulus: int) -> np.ndarray:
    """Length-``length`` uniform vector over Z_modulus, deterministic in all inputs.

    ``modulus`` need not be prime (``tags.derive_tag_key`` expands over
    R - 1); it must lie in (1, 2^61].
    """
    if length < 1:
        raise PrfError("expansion length must be at least 1")
    if length >= MAX_EXPAND_LEN:
        raise PrfError(f"expansion length {length} exceeds the {MAX_EXPAND_LEN - 1}-word limit")
    _, mask, bound = _limits(modulus)
    enc = _keystream(key, v0)
    # Two spare words past length: room for the GCM tag, and the
    # len(data) + 15 bytes that ``update_into`` asks of its buffer.
    out = np.empty(length + 2, _WORD)
    out_bytes = memoryview(out).cast("B")
    # Words 0-3 of a long output, or all of a short one.
    head = _HEAD_WORDS if length >= _GCM_MIN_WORDS else length
    enc.update_into(_zero_bytes(8 * head), out_bytes)
    if head < length:
        # Words 4 on: GCM's keystream from block 2, then its tag in the spare words.
        key.aead.encrypt_into(v0.to_bytes(12, "little"), _zero_bytes(8 * (length - head)),
                              None, out_bytes[8 * head:])
    filled = _accept(out[:length], mask, bound)
    if filled < length and head < length:
        enc = _keystream(key, v0, length >> 1)
        if length & 1:
            enc.update(_ZERO_WORD)  # the half-block GCM drew
    while filled < length:
        enc.update_into(_zero_bytes(8 * (length - filled)), out_bytes[8 * filled:])
        filled += _accept(out[filled:length], mask, bound)
    return out[:length]


def expand_one(key: KeyMaterial, v0: int, modulus: int) -> int:
    """``int(expand(key, v0, 1, modulus)[0])``, drawn one word at a time."""
    mask = _limits(modulus)[0]
    enc = _keystream(key, v0)
    while True:
        word = int.from_bytes(enc.update(_ZERO_WORD), "little") & mask
        if word < modulus:
            return word
