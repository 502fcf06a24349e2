"""Seed plumbing for deterministic experiments.

A single experiment seed is fanned out into independent child streams, one
per subsystem, so that adding random draws to one subsystem never perturbs
another (the classic "seed hygiene" problem in simulation studies).
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

Seedable = Union[int, str, bytes]


def _digest(*parts: Seedable) -> int:
    """Hash arbitrary seed material into a 128-bit integer."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            data = part
        else:
            data = str(part).encode("utf-8")
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
    return int.from_bytes(h.digest()[:16], "big")


def make_rng(seed: Seedable) -> random.Random:
    """Create a :class:`random.Random` from any seed material.

    Seeds other than bytes are hashed as ``str(seed)``, so
    ``make_rng(1)`` and ``make_rng("1")`` are one stream.  Every stored
    digest depends on that encoding.
    """
    return random.Random(_digest(seed))


def child_rng(parent_seed: Seedable, *path: Seedable) -> random.Random:
    """Derive an independent child stream identified by ``path``.

    ``child_rng(42, "crawler", 3)`` always yields the same stream and is
    statistically independent from ``child_rng(42, "encoder")``.
    """
    return random.Random(_digest(parent_seed, *path))
