"""Deterministic hashing for the sketch primitives.

Python's builtin ``hash()`` is salted per process for str/bytes
(PYTHONHASHSEED), which would break the repo's byte-identical
reproducibility contract the moment a sketch index depended on it.  All
sketch code therefore hashes through keyed blake2b (scalar keys) or a
splitmix64 finalizer (vectorized integer edge ids in the SoA engine).

Double hashing (Kirsch–Mitzenmacher): one 16-byte digest yields the two
64-bit seeds h1/h2, and probe ``i`` uses ``(h1 + i*h2) mod m`` -- the
standard construction for count-min rows and Bloom probes alike.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Tuple

try:  # numpy is a hard dependency of the DES engines, but keep the
    import numpy as np  # scalar paths importable without it.
except ImportError:  # pragma: no cover - image always has numpy
    np = None  # type: ignore[assignment]

_MASK64 = (1 << 64) - 1


def key_bytes(key: Hashable) -> bytes:
    """A stable, type-tagged byte encoding of a sketch key.

    Covers the key types the stores actually see -- GUID ``bytes``,
    ``int``/``PeerId`` and ``str`` -- and falls back to ``repr`` (stable
    across processes for the frozen dataclasses used as ids, unlike
    ``hash()``).
    """
    if isinstance(key, bytes):
        return b"b" + key
    if isinstance(key, (bytearray, memoryview)):
        return b"b" + bytes(key)
    if isinstance(key, bool):
        return b"o" + bytes([key])
    if isinstance(key, int):
        return b"i" + key.to_bytes(16, "little", signed=True)
    if isinstance(key, str):
        return b"s" + key.encode("utf-8")
    return b"r" + repr(key).encode("utf-8")


def hash_pair(key: Hashable, seed: int = 0) -> Tuple[int, int]:
    """(h1, h2) 64-bit double-hashing seeds for ``key``."""
    digest = hashlib.blake2b(
        key_bytes(key), digest_size=16, key=seed.to_bytes(8, "little")
    ).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:], "little") | 1,  # odd: full period mod 2^k
    )


def probe(h1: int, h2: int, i: int, modulus: int) -> int:
    """Probe ``i`` of the double-hashing sequence."""
    return ((h1 + i * h2) & _MASK64) % modulus


def mix64_offset(seed: int) -> int:
    """The constant :func:`mix64` adds (mod 2**64) before mixing.

    ``mix64(v, seed=s)`` equals ``mix64(v + (mix64_offset(s) -
    mix64_offset(0)) % 2**64, seed=0)``, which lets one call hash a
    broadcast of several seeds.
    """
    return (seed * 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15) & _MASK64


def mix64(values: "np.ndarray", seed: int) -> "np.ndarray":
    """Vectorized splitmix64 finalizer over a uint64 array.

    The SoA engine hashes integer edge ids by the million per wave;
    blake2b per element would dominate the kernel, while this is three
    shifts and two multiplies on the whole array.
    """
    z = values.astype(np.uint64, copy=True)
    z += np.uint64(mix64_offset(seed))
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z
