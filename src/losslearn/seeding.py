"""Deterministic seed derivation and label checksums.

Every random decision in a run is driven by a seed derived from the master
seed plus a structural path (generation index, job index, ...), so jobs
can run in any order without changing results.
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEED_MASK = (1 << 63) - 1


def derive_seed(*parts) -> int:
    """Map a master seed plus a path of labels/indices to a 63-bit seed.

    The derivation is a SHA-256 of the "/"-joined string form of the parts,
    so it is stable across platforms and numpy versions.
    """
    key = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & _SEED_MASK


def label_checksum(labels: np.ndarray) -> str:
    """Hex checksum of an integer label vector, for clean-label audits."""
    arr = np.ascontiguousarray(np.asarray(labels, dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()
