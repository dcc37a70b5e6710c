"""Tests for stack-distance profiling, including property-based checks
against a naive reference implementation, golden locks on the profiled
benchmark streams, and the detailed cache model."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cpu.interval as interval_module
import repro.memory.stackdist as stackdist_module
from repro.cpu.interval import ApplicationProfile, build_interval_profiles
from repro.memory import Cache, ReuseProfile, compute_stack_distances
from repro.memory.stackdist import effective_capacity
from repro.workloads import generate_trace


def naive_stack_distances(blocks):
    """O(N^2) reference: distinct blocks since the previous access."""
    out = []
    for i, b in enumerate(blocks):
        prev = None
        for j in range(i - 1, -1, -1):
            if blocks[j] == b:
                prev = j
                break
        if prev is None:
            out.append(-1)
        else:
            out.append(len(set(blocks[prev + 1 : i])))
    return np.array(out, dtype=np.int64)


@st.composite
def block_streams(draw):
    """Streams over 1..200 distinct block ids, up to 400 references long,
    as ``int64`` or as the ``uint64`` ``addr >> k`` ids the profiles use
    (including ids at and above 2**63)."""
    dtype = draw(st.sampled_from([np.int64, np.uint64]))
    top = 2**63 - 1 if dtype is np.int64 else 2**64 - 1
    id_values = st.one_of(
        st.integers(0, 2**12), st.integers(2**62, top), st.just(top)
    )
    n_ids = draw(st.integers(1, 200))
    ids = draw(st.lists(id_values, min_size=n_ids, max_size=n_ids, unique=True))
    picks = draw(st.lists(st.integers(0, n_ids - 1), max_size=400))
    return np.array([ids[k] for k in picks], dtype=dtype)


class TestComputeStackDistances:
    def test_simple_sequence(self):
        # a b a  -> a cold, b cold, a at distance 1
        dist = compute_stack_distances(np.array([1, 2, 1]))
        assert dist.tolist() == [-1, -1, 1]

    def test_immediate_reuse_distance_zero(self):
        dist = compute_stack_distances(np.array([5, 5]))
        assert dist.tolist() == [-1, 0]

    def test_empty_stream(self):
        assert len(compute_stack_distances(np.array([], dtype=np.int64))) == 0

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_single_reference_is_cold(self, dtype):
        dist = compute_stack_distances(np.array([7], dtype=dtype))
        assert dist.dtype == np.int64
        assert dist.tolist() == [-1]

    def test_all_distinct(self):
        dist = compute_stack_distances(np.arange(10))
        assert np.all(dist == -1)

    def test_ids_above_int64_range(self):
        high = np.uint64(2**63)
        blocks = np.array([high, 1, high + np.uint64(1), high, 1], dtype=np.uint64)
        # 2**63 and 2**63 + 1 collide as float64; they must stay distinct
        assert compute_stack_distances(blocks).tolist() == [-1, -1, -1, 2, 2]

    @given(
        st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=120)
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_reference(self, blocks):
        fast = compute_stack_distances(np.array(blocks))
        assert np.array_equal(fast, naive_stack_distances(blocks))

    @given(block_streams())
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_reference_wide(self, blocks):
        fast = compute_stack_distances(blocks)
        assert fast.dtype == np.int64
        assert np.array_equal(fast, naive_stack_distances(blocks.tolist()))


def _digest(distances):
    """(length, cold count, sha256 of the little-endian int64 bytes)."""
    data = np.ascontiguousarray(distances, dtype="<i8").tobytes()
    return (
        len(distances),
        int(np.sum(distances < 0)),
        hashlib.sha256(data).hexdigest(),
    )


#: every stream the profilers run stack-distance profiling on, in call
#: order: data references at 32/64/128-byte blocks, loads at the same
#: sizes, then the deduplicated 32-byte instruction-fetch stream
GOLDEN_STREAMS = {
    "mcf": [
        (8326, 5391, "eb605b3184bafe95e76ddb8e60a5cbf7b49d599fe7ee721322978fd8f61b22af"),
        (8326, 4952, "621bc60b37f4b2efe6208f2edede1db569b75f0f54ce647c5e0a40c6bfa9c4fe"),
        (8326, 4424, "dfd901f4e251f09a9ec1315a92080b267dc041bbc77ee8087cc67d487817a3bc"),
        (6363, 4587, "1de4e25f59de9f2cbdb0f2bcb12bc07697987d6be2715232883a24eb084f6586"),
        (6363, 4272, "0bb28267ab8e53509bfdfc52e82b90f510a7d9393fd4132e21dc0087cba04774"),
        (6363, 3878, "1e9e3125b947f91c322a1ef97234155e5d4388d05295ec227886930a3b8f2fde"),
        (3076, 59, "bc92cecca744df812876a25131108318d7bcf3664fc1e37f04b52aefa2508e39"),
    ],
    "gzip": [
        (6816, 1578, "a6aa7460a32c9ea75dc7481b50813051dc395efba6913537701126ecb8e8a752"),
        (6816, 1114, "a313a0ead0a0a7aa83041e0e3b668da4464569e773cea7c7ed194000bf7127f1"),
        (6816, 834, "72bae189b17670c2529bc2380526f4b5abf572789105a5d84043446f6e99a67d"),
        (5040, 1403, "dfdcd1858a3e8d19b52c7894a6f4fd3cb854b725d7460e59f87ef30a77453e24"),
        (5040, 987, "86a0d9b1a280722e917cedf8fa298edbf2cc6fa6f25285834f979474457feb15"),
        (5040, 727, "af0deb1fc288214f1519ea567bcee774ad2a57f6034073e8c4548c4ce6b56a64"),
        (4427, 32, "c754765ea1ab9abf53b117970839b842c8625fdebfd21eec2198a0a0237b9063"),
    ],
}


class TestGoldenProfileDistances:
    """Lock the stack distances of every stream the full-run and
    per-interval profilers measure, so a faster algorithm must reproduce
    them exactly (and the cached profiles stay valid)."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        digests = []

        def recording(blocks):
            distances = compute_stack_distances(blocks)
            digests.append(_digest(distances))
            return distances

        monkeypatch.setattr(stackdist_module, "compute_stack_distances", recording)
        monkeypatch.setattr(interval_module, "compute_stack_distances", recording)
        return digests

    @pytest.mark.parametrize("workload", sorted(GOLDEN_STREAMS))
    def test_application_profile_streams(self, recorded, workload):
        ApplicationProfile.from_trace(generate_trace(workload, 20_000))
        assert recorded == GOLDEN_STREAMS[workload]

    @pytest.mark.parametrize("workload", sorted(GOLDEN_STREAMS))
    def test_interval_profile_streams(self, recorded, workload):
        build_interval_profiles(generate_trace(workload, 20_000), 2_000)
        assert recorded == GOLDEN_STREAMS[workload]


class TestEffectiveCapacity:
    def test_monotonic_in_associativity(self):
        capacities = [effective_capacity(64, a) for a in (1, 2, 4, 8, 16)]
        assert capacities == sorted(capacities)

    def test_bounded_by_full_capacity(self):
        assert effective_capacity(64, 64) <= 64

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            effective_capacity(0, 2)
        with pytest.raises(ValueError):
            effective_capacity(64, 0)


class TestReuseProfile:
    def test_miss_curve_monotonic_in_capacity(self, rng):
        blocks = rng.integers(0, 200, 5000)
        profile = ReuseProfile(blocks)
        curve = [profile.miss_count(c) for c in (8, 16, 32, 64, 128, 256)]
        assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))

    def test_huge_cache_only_cold_misses(self, rng):
        blocks = rng.integers(0, 50, 1000)
        profile = ReuseProfile(blocks)
        assert profile.miss_count(10**6) == pytest.approx(profile.n_cold)

    def test_cold_weight_scales_compulsory(self, rng):
        blocks = rng.integers(0, 50, 1000)
        profile = ReuseProfile(blocks)
        full = profile.miss_count(10**6, cold_weight=1.0)
        none = profile.miss_count(10**6, cold_weight=0.0)
        assert none == pytest.approx(0.0)
        assert full == pytest.approx(profile.n_cold)

    def test_cold_weight_validated(self, rng):
        profile = ReuseProfile(rng.integers(0, 5, 100))
        with pytest.raises(ValueError):
            profile.miss_count(8, cold_weight=1.5)

    def test_store_fraction(self):
        blocks = np.array([1, 2, 3, 4])
        stores = np.array([True, True, False, False])
        assert ReuseProfile(blocks, stores).store_fraction == pytest.approx(0.5)

    def test_from_distances_equivalent(self, rng):
        blocks = rng.integers(0, 100, 2000)
        direct = ReuseProfile(blocks)
        via_distances = ReuseProfile.from_distances(
            compute_stack_distances(blocks)
        )
        for capacity in (4, 16, 64, 256):
            assert direct.miss_count(capacity) == pytest.approx(
                via_distances.miss_count(capacity)
            )

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            ReuseProfile(np.zeros((3, 3)))

    def test_miss_ratio_bounds(self, rng):
        profile = ReuseProfile(rng.integers(0, 64, 1000))
        for capacity in (1, 8, 64, 1024):
            ratio = profile.miss_ratio(capacity)
            assert 0.0 <= ratio <= 1.0


class TestAgainstDetailedCache:
    """The stack-distance oracle must agree with the detailed cache for
    fully-associative LRU (where the stack property is exact)."""

    @pytest.mark.parametrize("capacity_blocks", [4, 8, 16, 32])
    def test_fully_associative_exact(self, rng, capacity_blocks):
        blocks = rng.integers(0, 48, 3000)
        profile = ReuseProfile(blocks)
        cache = Cache(capacity_blocks * 64, 64, capacity_blocks)
        for b in blocks:
            cache.access(int(b) * 64)
        assert cache.stats.misses == pytest.approx(
            profile.miss_count(capacity_blocks), abs=0.5
        )

    def test_set_associative_approximation(self, rng, gzip_trace):
        """For real set-associative geometry the effective-capacity model
        must land within a modest relative error of detailed simulation."""
        blocks = gzip_trace.block_addresses(64)
        profile = ReuseProfile(blocks)
        cache = Cache(16 * 1024, 64, 2)
        for b in blocks:
            cache.access(int(b) * 64)
        predicted = profile.miss_count(16 * 1024 // 64, 2)
        actual = cache.stats.misses
        assert predicted == pytest.approx(actual, rel=0.35)
