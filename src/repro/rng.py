"""Deterministic random-number utilities.

The whole reproduction is seed-driven: the synthetic web, the per-visit
dynamics, and the crawl schedule are all derived from a single experiment
seed through *stable* (process-independent) hashing.  Python's built-in
``hash()`` is randomized per process, so we derive child seeds from
BLAKE2b digests instead.

The central concept is a :func:`derive_seed` function mapping
``(seed, *labels)`` to a new 64-bit seed, and :func:`child_rng` returning a
``random.Random`` seeded that way.  Labels are strings or integers; the same
labels always produce the same stream, and sibling streams are independent
for all practical purposes.
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

Label = Union[str, int]

_SEED_BYTES = 8
_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, *labels: Label) -> int:
    """Derive a stable 64-bit child seed from ``seed`` and a label path.

    >>> derive_seed(1, "site", 42) == derive_seed(1, "site", 42)
    True
    >>> derive_seed(1, "site", 42) != derive_seed(1, "site", 43)
    True
    """
    return stable_hash("/".join([str(seed & _MASK64), *map(str, labels)]))


def child_rng(seed: int, *labels: Label) -> random.Random:
    """Return a ``random.Random`` seeded with :func:`derive_seed`."""
    return random.Random(derive_seed(seed, *labels))


def stable_hash(text: str) -> int:
    """Return a stable 64-bit hash of ``text`` (process-independent)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=_SEED_BYTES)
    return int.from_bytes(digest.digest(), "big")


def stable_fraction(text: str) -> float:
    """Map ``text`` to a stable float in ``[0, 1)``.

    Useful for deterministic "coin flips" attached to an identifier, e.g.
    whether a given synthetic page sets a particular cookie.
    """
    return stable_hash(text) / float(1 << 64)


def token_hex(rng: random.Random, nbytes: int = 8) -> str:
    """Return a random hex token drawn from ``rng`` (like secrets.token_hex).

    Used to synthesize session identifiers embedded in URLs, one of the
    paper's motivations for stripping query values during analysis.
    """
    if nbytes <= 0:
        raise ValueError(f"nbytes must be >= 1, got {nbytes}")
    return "".join(rng.choice("0123456789abcdef") for _ in range(nbytes * 2))
