"""Bloom filter for SSTable membership tests.

Cassandra attaches a bloom filter to every SSTable so reads can skip
tables that definitely do not hold a key; the ``bloom_filter_fp_chance``
parameter trades memory for wasted probes.  This is a standard k-hash
bit-array implementation sized from the target false-positive rate.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

# A simple 64-bit FNV-1a; two independent hashes are derived per key and
# combined (Kirsch-Mitzenmacher) into k hash functions.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

_H1_SEED = 0x9E3779B9
_H2_SEED = 0x85EBCA6B


def _fnv1a(data: bytes, seed: int = 0) -> int:
    h = (_FNV_OFFSET ^ seed) & _MASK64
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hash_key(key: str) -> Tuple[int, int]:
    """Scalar (h1, h2) FNV-1a pair of one key, non-ASCII keys included."""
    data = key.encode("utf-8")
    return _fnv1a(data, seed=_H1_SEED), _fnv1a(data, seed=_H2_SEED) | 1


def _key_column(keys: Sequence[str]) -> Optional[np.ndarray]:
    """``keys`` as one ASCII byte column (numpy ``S``), or None when a
    key is not ASCII or holds a NUL.

    For such keys byte order is ``str`` order and FNV-1a over the bytes
    is :func:`hash_key`, so a sorted check, a batched search and
    :func:`hash_keys` on the column answer what the strings would.  The
    NUL check is on the strings: an ``S`` column drops a key's
    *trailing* NULs, which no check on the column can see.
    """
    joined = "".join(keys)
    if "\x00" in joined or not joined.isascii():
        return None
    return np.array(keys, dtype="S")


def hash_keys(names: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized (h1, h2) FNV-1a pair of a non-empty :func:`_key_column`:
    uint64 arrays bitwise-identical to the scalar :func:`hash_key` pair."""
    width = names.dtype.itemsize
    codes = names.view(np.uint8).reshape(names.size, width)
    # No NUL inside a key: its length is its count of non-padding bytes.
    lengths = np.count_nonzero(codes, axis=1)
    full = int(lengths.min())  # columns every key covers need no mask
    # Bytes, not a uint64 copy eight times their size: each op casts a row.
    columns = np.ascontiguousarray(codes.T)
    prime = np.uint64(_FNV_PRIME)
    # Row 0 is h1, row 1 is h2: one FNV-1a pass serves both seeds.
    h = np.empty((2, names.size), dtype=np.uint64)
    h[0], h[1] = _FNV_OFFSET ^ _H1_SEED, _FNV_OFFSET ^ _H2_SEED
    with np.errstate(over="ignore"):  # uint64 wrap-around is the FNV mask
        for j in range(width):
            b = columns[j]
            if j < full:
                h ^= b
                h *= prime
            else:
                h = np.where(j < lengths, (h ^ b) * prime, h)
    return h[0], h[1] | np.uint64(1)


class BloomFilter:
    """Bit-array bloom filter with configurable false-positive chance."""

    __slots__ = ("n_bits", "n_hashes", "_bits", "n_items")

    def __init__(self, expected_items: int, fp_chance: float):
        if expected_items <= 0:
            raise ValueError("expected_items must be positive")
        if not (0.0 < fp_chance < 1.0):
            raise ValueError("fp_chance must be in (0, 1)")
        # Optimal sizing: m = -n ln(p) / (ln 2)^2, k = m/n ln(2).
        m = int(math.ceil(-expected_items * math.log(fp_chance) / (math.log(2) ** 2)))
        self.n_bits = max(m, 8)
        self.n_hashes = max(1, int(round((self.n_bits / expected_items) * math.log(2))))
        self._bits = bytearray((self.n_bits + 7) // 8)
        self.n_items = 0

    @classmethod
    def from_keys(cls, keys: Iterable[str], fp_chance: float, hashed=None) -> "BloomFilter":
        keys = list(keys)
        bf = cls(expected_items=max(len(keys), 1), fp_chance=fp_chance)
        # Keys with no byte column (see _key_column) are added one by one;
        # ``hashed`` is the keys' hash_keys pair when the caller has it.
        if hashed is None and keys:
            column = _key_column(keys)
            hashed = None if column is None else hash_keys(column)
        if hashed is None:
            for k in keys:
                bf.add(k)
        else:
            bf.add_many(*hashed)
        return bf

    def _positions(self, key: str):
        h1, h2 = hash_key(key)
        for i in range(self.n_hashes):
            yield ((h1 + i * h2) & _MASK64) % self.n_bits

    def add(self, key: str) -> None:
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self.n_items += 1

    def add_many(self, h1: np.ndarray, h2: np.ndarray) -> None:
        """Bulk :meth:`add` of pre-hashed keys (see :func:`hash_keys`).

        Produces a bit array identical to adding the keys one at a time:
        the same Kirsch-Mitzenmacher positions are derived, and setting
        bits is an OR, so order and duplicates cannot change the result.
        """
        bits = np.frombuffer(self._bits, dtype=np.uint8)
        # In place: a table's (keys, hashes) positions are its largest
        # temporary, and each copy of them raised the engine's peak RSS.
        with np.errstate(over="ignore"):  # uint64 wrap == the scalar & MASK64
            pos = np.arange(self.n_hashes, dtype=np.uint64) * h2[:, None]
            pos += h1[:, None]
        pos %= np.uint64(self.n_bits)
        low = (pos & np.uint64(7)).astype(np.uint8)
        pos >>= np.uint64(3)
        np.bitwise_or.at(bits, pos.view(np.int64).ravel(), (np.uint8(1) << low).ravel())
        self.n_items += len(h1)

    def might_contain(self, key: str) -> bool:
        """True if the key *may* be present (false positives possible)."""
        return all(self._bits[p >> 3] & (1 << (p & 7)) for p in self._positions(key))

    def might_contain_hashed(self, h1: int, h2: int) -> bool:
        """:meth:`might_contain` for a key hashed once by :func:`hash_key`,
        so a read probing many tables does not re-hash per table."""
        bits, n_bits = self._bits, self.n_bits
        for i in range(self.n_hashes):
            pos = ((h1 + i * h2) & _MASK64) % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def __contains__(self, key: str) -> bool:
        return self.might_contain(key)

    @property
    def size_bytes(self) -> int:
        return len(self._bits)


class _FilterBank:
    """Several filters' bit arrays end to end, one byte per bit, for one
    membership test of many ``(filter, pre-hashed key)`` pairs across
    all of them.

    A snapshot: it is valid while its filters take no more adds, which
    holds for the filters of immutable SSTables.
    """

    __slots__ = ("bits", "offsets", "n_bits", "n_hashes", "hash_counts")

    def __init__(self, filters: Sequence[BloomFilter]):
        raw = np.frombuffer(b"".join(f._bits for f in filters), dtype=np.uint8)
        # Bit ``pos`` of a filter is bit ``pos & 7`` of its byte ``pos >> 3``.
        self.bits = np.unpackbits(raw, bitorder="little").view(bool)
        sizes = np.array([8 * len(f._bits) for f in filters], dtype=np.uint64)
        self.offsets = np.cumsum(sizes) - sizes
        self.n_bits = np.array([f.n_bits for f in filters], dtype=np.uint64)
        self.n_hashes = np.array([f.n_hashes for f in filters], dtype=np.int64)
        self.hash_counts = sorted(set(self.n_hashes.tolist()))

    def might_contain_pairs(
        self, owner: np.ndarray, h1: np.ndarray, h2: np.ndarray
    ) -> np.ndarray:
        """Per pair ``i``, whether filter ``owner[i]`` may hold the key
        hashed to ``(h1[i], h2[i])`` (see :func:`hash_keys`): bitwise
        what :meth:`BloomFilter.might_contain` answers, from the same
        Kirsch-Mitzenmacher positions, in one numpy pass over all pairs
        whose filters share a hash count.
        """
        hit = np.empty(len(owner), dtype=bool)
        counts = self.n_hashes[owner]
        for n_hashes in self.hash_counts:
            pair = np.flatnonzero(counts == n_hashes)
            f = owner[pair]
            row = np.arange(n_hashes, dtype=np.uint64)[:, None]
            with np.errstate(over="ignore"):  # uint64 wrap == the scalar & MASK64
                pos = h1[pair] + row * h2[pair]
            pos %= self.n_bits[f]
            pos += self.offsets[f]
            hit[pair] = self.bits[pos.astype(np.intp)].all(axis=0)
        return hit
