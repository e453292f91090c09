"""Dual-server verifiable secure aggregation for federated learning.

Library layout:

  field     vector arithmetic mod one prime, and its serialization
  prf       AES-CTR keyed expansion into uniform field vectors
  codec     fixed-point encoding with overflow-capacity checks
  sharing   a user's PRF-masked share of its encoded update
  tags      constant-size linear verification tags and their unit key vectors
  roles     user / computation-server / verification-server state machines
  wire      message framing, channels, traffic accounting
  harness   simulation driver, adversary injection, oracles, stage timings
  cli       vsecagg command-line entry point
"""

from .codec import CodecParams, check_capacity, decode, encode
from .field import FieldModulus
from .harness import (AdversarySpec, MetricsReport, RunConfig, forgery_calibration,
                      plaintext_oracle, run_simulation)
from .prf import KeyMaterial, concat_keys, derive_cipher_key, expand
from .roles import (CsState, ProtocolParams, UserState, VsState, init_model_from_seeds,
                    join_new_user, setup)
from .sharing import share_with_prf
from .tags import derive_tag_key, gen_tag
from .wire import Message, MessageKind, TrafficLedger, deserialize, serialize

__version__ = "0.1.0"
