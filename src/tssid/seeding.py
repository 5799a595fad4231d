"""Deterministic seed derivation.

All randomness in a run flows from one global seed.  Stage- and
flight-level seeds are derived by hashing a path of string parts, so
adding a flight or reordering stages never shifts anybody else's stream.
"""

from __future__ import annotations

import hashlib


def derive_seed(root: int, *parts: str) -> int:
    """A stable 63-bit seed for the stream identified by ``parts``."""
    key = "/".join([str(int(root))] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF
