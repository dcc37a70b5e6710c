"""LRU stack-distance (reuse-distance) profiling.

The full-space studies need cache miss counts for every cache geometry in
the design space without re-simulating the trace per geometry.  The classic
LRU stack property makes this possible: under fully-associative LRU, a
reference hits in a cache of capacity ``C`` blocks iff its stack distance
(number of distinct blocks touched since the previous reference to the same
block) is below ``C``.  We compute all stack distances once per (trace,
block size) in O(N log N) with whole-array NumPy passes (one stable sort
finds each reference's previous occurrence, then one cumulative-sum pass
per bit of the trace length counts the distinct blocks in between), then
answer miss-count queries for any capacity from the distance histogram.
Finite associativity is handled with a smooth effective-capacity
correction validated against the detailed cache model in the test suite.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

#: conflict-miss model: an A-way cache of B blocks behaves like a
#: fully-associative cache of ``B * (1 - CONFLICT_C / A**CONFLICT_ALPHA)``
#: blocks.  Direct-mapped caches lose ~30% effective capacity; 8-way and
#: above are nearly fully associative, matching Hill & Smith's measurements.
CONFLICT_C = 0.30
CONFLICT_ALPHA = 1.0


def _previous_occurrence(blocks: np.ndarray) -> np.ndarray:
    """Index of each reference's previous reference to the same block,
    ``-1`` for first touches (one stable sort groups equal blocks in
    reference order)."""
    order = np.argsort(blocks, kind="stable")
    repeat = blocks[order[1:]] == blocks[order[:-1]]
    previous = np.full(len(blocks), -1, dtype=np.int64)
    previous[order[1:][repeat]] = order[:-1][repeat]
    return previous


def _count_smaller_before(values: np.ndarray) -> np.ndarray:
    """``counts[i] = #{j < i : values[j] < values[i]}`` for non-negative
    ``int64`` values.

    Bits are processed from the most significant down.  ``values[j] <
    values[i]`` iff, at the highest bit where they differ, ``j`` has a 0
    and ``i`` a 1.  Each level keeps the references stably ordered by
    their bits above the current one (a wavelet matrix: every level is a
    stable partition on one bit), so the references that share ``i``'s
    higher bits and precede it form the run from ``start[i]`` up to
    ``i``'s position; the zeros in that run, read off one cumulative sum,
    are the ``j`` decided at this bit.
    """
    n = len(values)
    counts = np.zeros(n, dtype=np.int64)
    position = np.arange(n)
    order = position.copy()  # original index of the reference at each position
    level = values  # values in level order
    start = np.zeros(n, dtype=np.int64)  # first position of each reference's run
    zeros_before = np.zeros(n + 1, dtype=np.int64)
    inverse = np.empty(n, dtype=np.int64)
    for bit_index in reversed(range(int(values.max()).bit_length())):
        bit = (level >> bit_index) & 1
        np.cumsum(1 - bit, out=zeros_before[1:])
        run_zeros = zeros_before[start]
        counts[order] += bit * (zeros_before[:-1] - run_zeros)
        # stable partition on this bit: zeros first, ones after; the zeros
        # (ones) of each run stay contiguous, so runs refine in place
        n_zeros = zeros_before[-1]
        ones = bit.astype(bool)
        destination = np.where(
            ones, n_zeros + position - zeros_before[:-1], zeros_before[:-1]
        )
        new_start = np.where(ones, n_zeros + start - run_zeros, run_zeros)
        inverse[destination] = position
        order, level, start = order[inverse], level[inverse], new_start[inverse]
    return counts


def compute_stack_distances(blocks: np.ndarray) -> np.ndarray:
    """Compute the LRU stack distance of every reference.

    Parameters
    ----------
    blocks:
        1-D array of block identifiers in reference order.

    Returns
    -------
    distances:
        ``int64`` array, same length; ``-1`` marks cold (first-touch)
        references.
    """
    blocks = np.asarray(blocks)
    if len(blocks) == 0:
        return np.empty(0, dtype=np.int64)
    previous = _previous_occurrence(blocks)
    # the distinct blocks between p = previous[i] and i are the j in
    # (p, i) with previous[j] < p; every j <= p has previous[j] < p too,
    # so the count is #{j < i : previous[j] < p} - (p + 1)
    rank = previous + 1
    distances = _count_smaller_before(rank) - rank
    distances[previous < 0] = -1
    return distances


def effective_capacity(num_blocks: int, associativity: int) -> float:
    """Fully-associative-equivalent capacity of an A-way cache."""
    if num_blocks <= 0:
        raise ValueError(f"num_blocks must be positive, got {num_blocks}")
    if associativity <= 0:
        raise ValueError(f"associativity must be positive, got {associativity}")
    factor = 1.0 - CONFLICT_C / (associativity ** CONFLICT_ALPHA)
    return num_blocks * factor


class ReuseProfile:
    """Miss-count oracle for one reference stream at one block granularity.

    Built once from the stream's stack distances; then
    :meth:`miss_count`/:meth:`miss_ratio` answer queries for any cache
    geometry in microseconds, which is what lets the interval model
    evaluate all 23K/20.7K design points per benchmark.

    Parameters
    ----------
    blocks:
        Block-granular reference stream.
    store_mask:
        Optional boolean mask marking which references are stores, used to
        estimate dirty-writeback and write-through traffic.
    """

    def __init__(self, blocks: np.ndarray, store_mask: Optional[np.ndarray] = None):
        blocks = np.asarray(blocks)
        if blocks.ndim != 1:
            raise ValueError("blocks must be one-dimensional")
        self._init_from_distances(compute_stack_distances(blocks), store_mask)

    @classmethod
    def from_distances(
        cls, distances: np.ndarray, store_mask: Optional[np.ndarray] = None
    ) -> "ReuseProfile":
        """Build a profile from precomputed stack distances.

        Used to profile trace *intervals* in the context of the whole run:
        distances are computed once over the full stream, then sliced per
        interval, which models SimPoint-style sampling with perfect warmup.
        """
        profile = cls.__new__(cls)
        profile._init_from_distances(np.asarray(distances), store_mask)
        return profile

    def to_arrays(self, prefix: str = "") -> Dict[str, np.ndarray]:
        """This profile as plain named arrays (its pickle-free cache codec)."""
        return {
            f"{prefix}n_references": np.array(self.n_references),
            f"{prefix}n_cold": np.array(self.n_cold),
            f"{prefix}sorted_distances": self._sorted_distances,
            f"{prefix}store_fraction": np.array(self.store_fraction),
        }

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], prefix: str = ""
    ) -> "ReuseProfile":
        """Rebuild a :meth:`to_arrays` profile; malformed arrays raise."""
        profile = cls.__new__(cls)
        profile.n_references = int(arrays[f"{prefix}n_references"].item())
        profile.n_cold = int(arrays[f"{prefix}n_cold"].item())
        profile._sorted_distances = arrays[f"{prefix}sorted_distances"]
        profile.store_fraction = float(arrays[f"{prefix}store_fraction"].item())
        distances = profile._sorted_distances
        if (
            distances.ndim != 1
            or distances.dtype.kind != "i"
            or profile.n_cold + len(distances) != profile.n_references
        ):
            raise ValueError(f"malformed reuse profile arrays at {prefix!r}")
        return profile

    def _init_from_distances(
        self, distances: np.ndarray, store_mask: Optional[np.ndarray]
    ) -> None:
        self.n_references = len(distances)
        self.n_cold = int(np.sum(distances < 0))
        self._sorted_distances = np.sort(distances[distances >= 0])
        if store_mask is not None:
            if len(store_mask) != len(distances):
                raise ValueError("store_mask length must match distances")
            self.store_fraction = (
                float(np.mean(store_mask)) if len(store_mask) else 0.0
            )
        else:
            self.store_fraction = 0.0

    # ------------------------------------------------------------------
    def miss_count(
        self, num_blocks: int, associativity: int = 0, cold_weight: float = 1.0
    ) -> float:
        """Expected misses in a cache of ``num_blocks`` blocks.

        ``associativity`` of 0 (or >= num_blocks) means fully associative.
        ``cold_weight`` scales first-touch misses: 1.0 reproduces the finite
        trace exactly, while a small value models the steady state of a long
        run, where compulsory misses are amortized to near zero.
        """
        if self.n_references == 0:
            return 0.0
        if not 0.0 <= cold_weight <= 1.0:
            raise ValueError(f"cold_weight must be in [0, 1], got {cold_weight}")
        if associativity and associativity < num_blocks:
            capacity = effective_capacity(num_blocks, associativity)
        else:
            capacity = float(num_blocks)
        # references with stack distance >= capacity miss; interpolate
        # fractionally between integer capacities so miss curves are smooth
        lo = int(np.searchsorted(self._sorted_distances, int(np.floor(capacity)), "left"))
        hi = int(np.searchsorted(self._sorted_distances, int(np.ceil(capacity)), "left"))
        frac = capacity - np.floor(capacity)
        hits = lo + frac * (hi - lo)
        return cold_weight * self.n_cold + (len(self._sorted_distances) - hits)

    def miss_ratio(
        self, num_blocks: int, associativity: int = 0, cold_weight: float = 1.0
    ) -> float:
        """Expected miss ratio for the given geometry."""
        if self.n_references == 0:
            return 0.0
        return (
            self.miss_count(num_blocks, associativity, cold_weight)
            / self.n_references
        )

    @property
    def cold_ratio(self) -> float:
        """Fraction of references that are first-touch (compulsory) misses."""
        if self.n_references == 0:
            return 0.0
        return self.n_cold / self.n_references

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReuseProfile({self.n_references} refs, {self.n_cold} cold, "
            f"store_fraction={self.store_fraction:.3f})"
        )
