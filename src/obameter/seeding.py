"""Deterministic seed derivation.

One master seed per experiment fans out into independent substream seeds,
one per labeled purpose (world build, each session, each tag source). The
derivation is a keyed blake2b digest of the labels joined by "\\x1f", so it
is stable across processes and Python versions and never depends on
PYTHONHASHSEED.

A caller that draws many uniforms under one label prefix keys the hasher
once (`keyed_hasher`), absorbs the prefix once (`with_labels`), then per
draw copies it and absorbs the last label: blake2b absorbs a message in
pieces as it does whole, so the digest is `derive_seed`'s. `cut(rate)`
makes `hash_uniform(...) < rate` one integer comparison.
"""

from __future__ import annotations

import hashlib
import math

_SEED_BYTES = 8
_SEP = "\x1f"


def keyed_hasher(master: int):
    """The blake2b that `derive_seed(master, ...)` absorbs its labels into."""
    key = (master & 0xFFFFFFFFFFFFFFFF).to_bytes(_SEED_BYTES, "little")
    return hashlib.blake2b(digest_size=_SEED_BYTES, key=key)


def derive_seed(master: int, *labels: str) -> int:
    """Derive a 64-bit substream seed from a master seed and labels.

    Same master and labels always give the same value. Distinct label
    tuples give independent streams for all practical purposes.
    """
    h = keyed_hasher(master)
    h.update(_SEP.join(labels).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def hash_uniform(master: int, *labels: str) -> float:
    """Deterministic uniform in [0, 1) keyed by seed and labels.

    Used to couple random decisions across parameter sweeps: a decision
    taken as `hash_uniform(...) < rate` flips in one direction only as the
    rate grows, which makes rate sweeps monotone by construction. The
    uniform is the digest's top 53 bits over 2**53, exact as a float.
    """
    return (derive_seed(master, *labels) >> 11) * 2.0**-53


def with_labels(hasher, *labels: str):
    """A copy of `hasher` that has absorbed each label and the separator
    after it, so a copy of it can absorb one last label per draw."""
    h = hasher.copy()
    h.update("".join(label + _SEP for label in labels).encode("utf-8"))
    return h


def cut(rate: float) -> int:
    """The smallest n whose uniform is not below `rate`, so a draw n has
    its uniform below `rate` exactly when n < cut(rate); 0 for a rate not
    above 0 (NaN included), and 2**64 or more for a rate of 1 or more."""
    return math.ceil(rate * 2**53) << 11 if rate > 0 else 0
