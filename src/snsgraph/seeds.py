"""Deterministic per-module seed derivation.

Every randomized stage gets its own seed derived from one global pipeline
seed: ``blake2b("<global_seed>:<module_name>")`` truncated to 63 bits.
Running stages individually with the same global seed therefore
reproduces exactly what the composed pipeline does.
"""

from __future__ import annotations

import os

from _blake2 import blake2b  # hashlib.blake2b is this; importing hashlib maps libcrypto

SEED_ENV_VAR = "SNSGRAPH_SEED"


def derive_seed(global_seed: int, module_name: str) -> int:
    material = f"{global_seed}:{module_name}".encode("utf-8")
    digest = blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def global_seed_from_env(default: int = 0) -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
