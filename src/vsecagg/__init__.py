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

__version__ = "0.1.0"
