"""Stable, salt-free pseudo-randomness.

Python's built-in ``hash`` is salted per process for strings, so anything
that must be reproducible across runs (address churn schedules, snapshot
sampling, annotation gaps) goes through these helpers instead.  They are
keyed hashes over the repr of their arguments via BLAKE2b — deterministic,
well mixed, and cheap.

A key is encoded by :func:`key_bytes` as each part's ``repr()`` followed
by a ``0x1f`` field separator, and :func:`stable_hash` digests that one
buffer.  BLAKE2b is a streaming hash, so a key that shares a prefix with
many others (one domain's draw for each of 49 months, or every domain's
draw under one ``(seed, tag)``) can hash the prefix once:
:func:`prefix_hasher` keeps the hash state after the prefix and
``copy()``-s it per suffix, giving exactly
``stable_hash(*prefix, *suffix)``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

_blake2b = hashlib.blake2b
_from_bytes = int.from_bytes


def key_bytes(*parts: object) -> bytes:
    """The bytes :func:`stable_hash` digests for *parts*: each part's
    ``repr()`` followed by ``0x1f``, UTF-8 encoded.

    The field separator keeps ``("ab", "c")`` distinct from ``("a", "bc")``.
    The whole text is encoded in one call; UTF-8 of a concatenation is the
    concatenation of the encodings, so this equals encoding part by part.
    """
    return ("\x1f".join(map(repr, parts)) + "\x1f").encode() if parts else b""


def stable_hash(*parts: object) -> int:
    """A deterministic 64-bit hash of the argument tuple
    (:func:`key_bytes` inlined: this is the hottest call of synthesis)."""
    key = ("\x1f".join(map(repr, parts)) + "\x1f").encode() if parts else b""
    return _from_bytes(_blake2b(key, digest_size=8).digest(), "little")


def prefix_hasher(*prefix: object) -> Callable[[bytes], int]:
    """Hash many keys that start with *prefix*, hashing the prefix once.

    The returned function maps ``key_bytes(*suffix)`` to
    ``stable_hash(*prefix, *suffix)``.

    >>> hash_month = prefix_hasher(7, "adopt", "a.example")
    >>> hash_month(key_bytes(2021, 4)) == stable_hash(
    ...     7, "adopt", "a.example", 2021, 4
    ... )
    True
    """
    copy = _blake2b(key_bytes(*prefix), digest_size=8).copy

    def hash_suffix(suffix: bytes) -> int:
        clone = copy()
        clone.update(suffix)
        return _from_bytes(clone.digest(), "little")

    return hash_suffix


def uniform_threshold(probability: float) -> int:
    """The least integer ``x`` in ``[0, 2**64]`` with
    ``x / 2**64 >= probability`` (*probability* not NaN).

    Correctly rounded ``int / int`` is monotone in ``x``, so for every
    64-bit hash ``h``, ``h < uniform_threshold(p)`` exactly when
    ``h / 2**64 < p``: a :func:`stable_uniform` draw against a fixed
    probability reduces to one integer comparison.  The threshold is not
    simply ``p * 2**64``, because the division rounds: the 512 hashes
    just below ``2**63`` divide to exactly 0.5.

    >>> 2**63 - uniform_threshold(0.5)
    512
    """
    low, high = 0, 2**64
    while low < high:
        middle = (low + high) // 2
        if middle / 2**64 >= probability:
            high = middle
        else:
            low = middle + 1
    return low


def stable_uniform(*parts: object) -> float:
    """A deterministic float in [0, 1) derived from the arguments."""
    return stable_hash(*parts) / 2**64


def stable_choice(options: Sequence, *parts: object):
    """Pick one of *options* deterministically from the key parts."""
    if not options:
        raise ValueError("cannot choose from an empty sequence")
    return options[stable_hash(*parts) % len(options)]


def stable_weighted_choice(
    options: Sequence, weights: Sequence[float], *parts: object
):
    """Weighted deterministic choice."""
    if len(options) != len(weights) or not options:
        raise ValueError("options and weights must be equal-length and non-empty")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    point = stable_uniform(*parts) * total
    cumulative = 0.0
    for option, weight in zip(options, weights):
        cumulative += weight
        if point < cumulative:
            return option
    return options[-1]


def stable_sample_count(n: int, fraction: float, *parts: object) -> int:
    """Deterministic rounding of ``n * fraction`` (stochastic rounding
    keyed on the arguments, so expectation is exact)."""
    exact = n * fraction
    base = int(exact)
    if stable_uniform(*parts, "frac") < exact - base:
        base += 1
    return min(base, n)
