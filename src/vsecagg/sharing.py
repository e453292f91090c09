"""2-of-2 additive secret sharing with a PRF-compressed counterpart share.

The sharer never materializes the second share: the key holder
regenerates it from (key, round).
"""

from __future__ import annotations

import numpy as np

from . import field
from .prf import KeyMaterial, expand


def share_with_prf(secret: np.ndarray, key: KeyMaterial, round_index: int,
                   r: int) -> np.ndarray:
    """Explicit share secret - F_key(round) mod r; the counterpart is implicit."""
    mask = expand(key, round_index, secret.size, r)
    return field.vec_sub(secret, mask, r)
