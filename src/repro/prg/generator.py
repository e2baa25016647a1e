"""Keyed pseudorandom generator producing finite-field elements.

The Java prototype used a seeded ``java.util.Random``; any deterministic PRG
keyed on ``(seed, node position)`` reproduces the same semantics.  We use a
SplitMix64 core (a well-studied 64-bit mixing function) seeded from a stable
hash of the seed bytes and the node's pre number, and map its output to field
elements with rejection sampling so the distribution over ``F_q`` is uniform.

This module is *not* a cryptographic guarantee — neither was the original
prototype's — but it is deterministic, portable and uniform, which is what
the experiments require.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.gf.base import Field

try:  # optional accelerator for the bulk block path (see elements_block)
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI axis
    np = None

_MASK64 = (1 << 64) - 1

#: SplitMix64 constants (shared by the scalar loop and the vectorized path)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The SplitMix64 sequence generator.

    Produces a deterministic stream of 64-bit integers from a 64-bit state.
    Used as the mixing core of :class:`KeyedPRG` and as a light-weight
    deterministic random source for the synthetic XMark generator.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_uint64(self) -> int:
        """Advance the state and return the next 64-bit output."""
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``range(bound)`` using rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive, got %d" % bound)
        if bound == 1:
            return 0
        # Largest multiple of bound below 2**64; values above it are rejected
        # so the result is exactly uniform.
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.next_uint64()
            if value < limit:
                return value % bound

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_uint64() >> 11) / float(1 << 53)

    def choice(self, items: Sequence):
        """Pick one item of a non-empty sequence uniformly."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.next_below(len(items))]

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError("empty range [%d, %d]" % (low, high))
        return low + self.next_below(high - low + 1)


class KeyedPRG:
    """Derives per-node streams of field elements from a secret seed.

    The stream for a given node is identified by its ``pre`` number (the
    document-order position used as primary key in the server's table), so
    the client can regenerate exactly the share that was subtracted from the
    node's polynomial at encoding time, in any order and as many times as
    needed.

    Because queries regenerate the same client shares over and over (every
    containment test on a node re-derives its share), the bulk
    :meth:`elements` call keeps a bounded LRU memo keyed on
    ``(pre, count, lane)``; :meth:`cache_info` exposes its hit accounting.
    The memo changes no output — entries are exactly the deterministic
    stream prefixes.  The memo is guarded by a lock so concurrent readers
    (cluster regeneration racing a prefetch pipeline) never tear the LRU's
    ``move_to_end`` bookkeeping; the generation itself runs outside the
    lock, so two threads may briefly compute the same prefix — identical by
    determinism — rather than serialise on it.
    """

    def __init__(self, seed: bytes, field: Field, memo_size: int = 1024):
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes, got %r" % type(seed).__name__)
        if len(seed) == 0:
            raise ValueError("seed must not be empty")
        if memo_size < 0:
            raise ValueError("memo_size must be non-negative, got %d" % memo_size)
        self.seed = bytes(seed)
        self.field = field
        # Pre-hash the seed once; per-node states mix in the pre number.
        self._seed_digest = hashlib.sha256(self.seed).digest()
        # Bounded LRU of generated stream prefixes, guarded for concurrent
        # readers (see the class docstring).
        self._memo: "OrderedDict[Tuple[int, int, int, int], Tuple[int, ...]]" = OrderedDict()
        self._memo_size = memo_size
        self._memo_hits = 0
        self._memo_misses = 0
        self._memo_lock = threading.Lock()
        # Derived SplitMix states, cached because the sha256 derivation is
        # ~1µs per node and every batched query touches thousands of nodes.
        # Writes are GIL-atomic dict stores of deterministic values, so a
        # benign race merely recomputes; the bound keeps memory finite.
        self._state_cache: Dict[Tuple[int, int], int] = {}
        self._state_cache_limit = 1 << 20

    def _node_state(self, pre: int, lane: int = 0, version: int = 0) -> int:
        """Derive the 64-bit SplitMix state for node ``pre`` and stream ``lane``.

        ``version`` salts the derivation for re-encoded rows: a mutated
        node's masks must not repeat the masks of its previous polynomial
        (reusing them would hand each server the polynomial *difference*).
        Version 0 hashes exactly the historical payload, so every
        bulk-loaded stream is unchanged.
        """
        payload = self._seed_digest + pre.to_bytes(8, "big", signed=False) + lane.to_bytes(4, "big")
        if version:
            payload += version.to_bytes(8, "big", signed=False)
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big")

    def _state(self, pre: int, lane: int, version: int = 0) -> int:
        """Memoised :meth:`_node_state`."""
        key = (pre, lane, version)
        state = self._state_cache.get(key)
        if state is None:
            state = self._node_state(pre, lane, version)
            if len(self._state_cache) < self._state_cache_limit:
                self._state_cache[key] = state
        return state

    def stream(self, pre: int, lane: int = 0, version: int = 0) -> Iterator[int]:
        """Infinite stream of uniform field elements for node ``pre``."""
        core = SplitMix64(self._node_state(pre, lane, version))
        order = self.field.order
        while True:
            yield core.next_below(order)

    def elements(self, pre: int, count: int, lane: int = 0, version: int = 0) -> List[int]:
        """The first ``count`` field elements of node ``pre``'s stream.

        This is the call used to regenerate a client share: ``count`` equals
        the ring length ``q - 1`` and the returned list is the coefficient
        vector of the client polynomial.  Results are memoised per
        ``(pre, count, lane, version)`` in a bounded LRU.
        """
        if count < 0:
            raise ValueError("count must be non-negative, got %d" % count)
        key = (pre, count, lane, version)
        with self._memo_lock:
            cached = self._memo.get(key)
            if cached is not None:
                if type(cached) is not tuple:
                    # block-path entries arrive as int64 array rows; pin
                    # them down to plain-int tuples on first scalar read
                    cached = tuple(cached.tolist())
                    self._memo[key] = cached
                self._memo.move_to_end(key)
                self._memo_hits += 1
                return list(cached)
            self._memo_misses += 1
        generated = self._scalar_generate(self._state(pre, lane, version), count)
        if self._memo_size:
            with self._memo_lock:
                self._memo[key] = tuple(generated)
                self._memo.move_to_end(key)
                while len(self._memo) > self._memo_size:
                    self._memo.popitem(last=False)
        return generated

    def _scalar_generate(self, state: int, count: int) -> List[int]:
        """First ``count`` uniform field elements from a SplitMix state.

        Inlined SplitMix64 + rejection sampling: identical state sequence
        and outputs as SplitMix64.next_below, without two method calls per
        element (this loop runs q - 1 times per share regeneration).
        """
        order = self.field.order
        limit = (1 << 64) - ((1 << 64) % order)
        generated: List[int] = []
        append = generated.append
        for _ in range(count):
            while True:
                state = (state + _GAMMA) & _MASK64
                z = state
                z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
                z = (z ^ (z >> 31)) & _MASK64
                if z < limit:
                    append(z % order)
                    break
        return generated

    def _np_generate(self, states: Sequence[int], count: int) -> "np.ndarray":
        """Vectorized SplitMix64 streams: one row of ``count`` elements per state.

        SplitMix64 is counter-based — draw ``k`` mixes ``state + k * GAMMA`` —
        so whole blocks vectorize as uint64 array arithmetic with natural
        wrap-around.  Rejection sampling is handled by generating exactly
        ``count`` draws per row and redoing the astronomically rare rows
        (probability < order / 2^64 per draw) where any draw fell in the
        rejected band, via the bit-identical scalar loop.
        """
        order = self.field.order
        # In-place updates keep at most two (rows, count) uint64 arrays
        # alive at once: blocks span whole documents at 10^5 nodes.
        with np.errstate(over="ignore"):
            state_array = np.asarray(states, dtype=np.uint64)
            counters = np.arange(1, count + 1, dtype=np.uint64)
            z = state_array[:, None] + counters[None, :] * np.uint64(_GAMMA)
            z ^= z >> np.uint64(30)
            z *= np.uint64(_MIX1)
            z ^= z >> np.uint64(27)
            z *= np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
        remainder = (1 << 64) % order
        rejected_rows = None
        if remainder:
            limit = (1 << 64) - remainder
            rejected_rows = (z >= np.uint64(limit)).any(axis=1)
        z %= np.uint64(order)
        # every element is now below order < 2**63: reinterpret, no copy
        result = z.view(np.int64)
        if rejected_rows is not None and rejected_rows.any():  # pragma: no cover - ~2^-55 per draw
            for i in np.nonzero(rejected_rows)[0]:
                result[i] = self._scalar_generate(int(states[i]), count)
        return result

    def elements_block(
        self, pres: Sequence[int], count: int, lane: int = 0, versions: Optional[Sequence[int]] = None
    ):
        """Array variant of :meth:`elements_many`: an (n, count) int64 matrix.

        Bit-identical rows and *identical memo accounting* to calling
        :meth:`elements` once per ``pre`` in order — hits touch the LRU,
        misses insert and evict — but the generation itself is one
        vectorized sweep.  The whole batch regenerates even on memo hits
        (regeneration is cheaper than row-by-row tuple unpacking, and
        determinism makes the results equal); only the bookkeeping replays
        per key.  ``versions`` optionally supplies one row version per
        ``pre`` (the incremental re-encode path); ``None`` means version 0
        throughout.  Without numpy this falls back to the scalar path and
        returns a list of lists.
        """
        if count < 0:
            raise ValueError("count must be non-negative, got %d" % count)
        if versions is None:
            versions = [0] * len(pres)
        elif len(versions) != len(pres):
            raise ValueError(
                "got %d versions for %d pres" % (len(versions), len(pres))
            )
        if np is None:
            return [
                self.elements(pre, count, lane, version)
                for pre, version in zip(pres, versions)
            ]
        states = [self._state(pre, lane, version) for pre, version in zip(pres, versions)]
        matrix = self._np_generate(states, count)
        with self._memo_lock:
            if self._memo_size:
                # Replay the LRU on keys alone, then materialise row tuples
                # only for the entries still present afterwards — a block
                # larger than the capacity would otherwise build thousands
                # of tuples destined for immediate eviction.  Hits, misses,
                # order and surviving contents match the per-call path.
                memo = self._memo
                simulated: "OrderedDict[Tuple[int, int, int, int], None]" = (
                    OrderedDict.fromkeys(memo)
                )
                fresh: Dict[Tuple[int, int, int, int], int] = {}
                for i, pre in enumerate(pres):
                    key = (pre, count, lane, versions[i])
                    if key in simulated:
                        simulated.move_to_end(key)
                        self._memo_hits += 1
                    else:
                        self._memo_misses += 1
                        simulated[key] = None
                        fresh[key] = i
                        while len(simulated) > self._memo_size:
                            evicted, _ = simulated.popitem(last=False)
                            fresh.pop(evicted, None)
                rebuilt: "OrderedDict[Tuple[int, int, int, int], Sequence[int]]" = OrderedDict()
                for key in simulated:
                    row = fresh.get(key)
                    if row is None:
                        rebuilt[key] = memo[key]
                    else:
                        # store the int64 row as-is (copied so callers
                        # mutating the returned block cannot reach it);
                        # the scalar path normalises to a tuple of plain
                        # ints the first time the entry is actually read
                        rebuilt[key] = matrix[row].copy()
                self._memo = rebuilt
            else:
                # capacity 0 stores nothing but still counts every lookup
                # as a miss, exactly like the scalar path
                self._memo_misses += len(pres)
        return matrix

    def elements_many(
        self, pres: Sequence[int], count: int, lane: int = 0
    ) -> List[List[int]]:
        """Bulk variant of :meth:`elements`: one stream prefix per ``pre``."""
        return [self.elements(pre, count, lane) for pre in pres]

    def evict(self, pres: Iterable[int]) -> int:
        """Version-aware memo busting: drop every cached stream of ``pres``.

        Called by the write path after a committed mutation — the memoised
        prefixes of a re-encoded node belong to its *previous* version (the
        memo key carries the version, so stale entries could never be
        returned for the new one, but they are dead weight and must not
        outlive the rows they masked).  The derived SplitMix states of the
        same nodes are dropped too.  Returns how many memo entries left.
        """
        victims = set(pres)
        with self._memo_lock:
            stale = [key for key in self._memo if key[0] in victims]
            for key in stale:
                del self._memo[key]
        stale_states = [key for key in self._state_cache if key[0] in victims]
        for key in stale_states:
            self._state_cache.pop(key, None)
        return len(stale)

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/occupancy accounting of the share memo."""
        with self._memo_lock:
            return {
                "hits": self._memo_hits,
                "misses": self._memo_misses,
                "size": len(self._memo),
                "capacity": self._memo_size,
            }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeyedPRG):
            return NotImplemented
        return self.seed == other.seed and self.field == other.field

    def __hash__(self) -> int:
        return hash((self.seed, self.field))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "KeyedPRG(seed=%d bytes, field=%r)" % (len(self.seed), self.field)
