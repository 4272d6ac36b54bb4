"""Deterministic seed derivation.

All randomness in the package flows from a single 64-bit seed. Subsystems
draw from substreams derived by stable hashing of (seed, label, ...), so
adding tasks or replicates never perturbs the draws of earlier ones, and
results are reproducible across platforms and process boundaries.

A seed may also be the ``(seed, *labels)`` tuple it derives from, resolved
only when a stream or a seed is drawn, so a run that draws nothing imports
neither ``hashlib`` nor ``numpy.random``.
"""

from __future__ import annotations

import numpy as np

_digests: dict[str, int] = {}  # the 8-byte digest of each string label hashed


def _label_entropy(label: str | int) -> int:
    if isinstance(label, int):
        return label & 0xFFFFFFFFFFFFFFFF
    if label not in _digests:
        import hashlib  # loads OpenSSL, which only a run that draws needs
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
        _digests[label] = int.from_bytes(digest, "little")
    return _digests[label]


def seed_sequence(seed: int | tuple, *labels: str | int) -> np.random.SeedSequence:
    """SeedSequence for the substream identified by (seed, *labels)."""
    seed = derive_seed(*seed) if isinstance(seed, tuple) else seed
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    entropy.extend(_label_entropy(label) for label in labels)
    return np.random.SeedSequence(entropy)


def substream(seed: int | tuple, *labels: str | int) -> np.random.Generator:
    """Generator over the substream identified by (seed, *labels)."""
    return np.random.default_rng(seed_sequence(seed, *labels))


def derive_seed(seed: int | tuple, *labels: str | int) -> int:
    """64-bit integer seed derived from (seed, *labels), for APIs taking ints."""
    return int(seed_sequence(seed, *labels).generate_state(1, np.uint64)[0])
