"""Deterministic seed derivation.

One master seed per experiment fans out into independent substream seeds,
one per labeled purpose (world build, each session, each tag source). The
derivation is a keyed blake2b digest of the labels joined by "\\x1f", so it
is stable across processes and Python versions and never depends on
PYTHONHASHSEED.

A tag draw is `draws_below`: per label, a copy of a prefix (a `keyed_hasher`
that absorbed the leading labels through `with_labels`) absorbs the label,
and its digest, read as an integer, is `derive_seed`'s, as blake2b absorbs
a message in pieces as it does whole. `uniform(n)` is a draw's uniform, and
`cut(rate)` makes `uniform(n) < rate` one integer comparison. The uniform
of a keyed draw, `uniform(derive_seed(...))`, couples a decision across a
rate sweep: taken as `uniform < rate`, it flips in one direction only as
the rate grows, which makes rate sweeps monotone by construction.
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


def uniform(n: int) -> float:
    """A 64-bit draw's uniform in [0, 1): its top 53 bits over 2**53, exact."""
    return (n >> 11) * 2.0**-53


def with_labels(hasher, *labels: str):
    """A copy of `hasher` that has absorbed each label and the separator
    after it, so a copy of it can absorb one last label per draw."""
    h = hasher.copy()
    h.update("".join(label + _SEP for label in labels).encode("utf-8"))
    return h


def draws_below(prefix, labels: dict[str, bytes], bound: int) -> dict[str, int]:
    """Each key of `labels` whose draw lies below `bound`, with its draw, in
    `labels`' order: the digest of a copy of `prefix` that absorbed the key's
    label bytes, read as a little-endian integer."""
    below, from_bytes = {}, int.from_bytes
    for key, label in labels.items():
        h = prefix.copy()
        h.update(label)
        n = from_bytes(h.digest(), "little")
        if n < bound:
            below[key] = n
    return below


def cut(rate: float) -> int:
    """The smallest n whose uniform is not below `rate`, so a draw n has
    its uniform below `rate` exactly when n < cut(rate); 0 for a rate not
    above 0 (NaN included), and 2**64 or more for a rate of 1 or more."""
    return math.ceil(rate * 2**53) << 11 if rate > 0 else 0
