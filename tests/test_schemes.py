"""Tests for the PPS matching schemes (repro.pps.schemes)."""

import random

import pytest

from repro.pps.crypto import prf_bit
from repro.pps.schemes import keyword_dict
from repro.pps.schemes import (
    BloomKeywordScheme,
    DictionaryKeywordScheme,
    EqualityScheme,
    InequalityScheme,
    Partition,
    RangeScheme,
    RankedScheme,
    dyadic_partitions,
    exponential_reference_points,
    linear_reference_points,
)

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


class TestEquality:
    def test_match_equal(self, key):
        s = EqualityScheme(key)
        m = s.encrypt_metadata("hello world")
        assert s.match(m, s.encrypt_query("hello world"))

    def test_no_match_different(self, key):
        s = EqualityScheme(key)
        m = s.encrypt_metadata("hello")
        assert not s.match(m, s.encrypt_query("goodbye"))

    def test_metadata_unlinkable(self, key):
        """Same plaintext encrypts differently (nonce)."""
        s = EqualityScheme(key)
        m1 = s.encrypt_metadata("same")
        m2 = s.encrypt_metadata("same")
        assert m1.payload != m2.payload

    def test_queries_deterministic(self, key):
        """Equal queries are identical -- the covering relation (Def 7)."""
        s = EqualityScheme(key)
        assert s.encrypt_query("q").payload == s.encrypt_query("q").payload

    def test_cover(self, key):
        s = EqualityScheme(key)
        q1, q2 = s.encrypt_query("a"), s.encrypt_query("a")
        q3 = s.encrypt_query("b")
        assert s.cover(q1, q2)
        assert not s.cover(q1, q3)

    def test_wrong_key_never_matches(self, key):
        from repro.pps.crypto import keygen_deterministic

        s1 = EqualityScheme(key)
        s2 = EqualityScheme(keygen_deterministic("other"))
        m = s1.encrypt_metadata("x")
        assert not s1.match(m, s2.encrypt_query("x"))

    def test_scheme_mismatch_rejected(self, key):
        s = EqualityScheme(key)
        b = BloomKeywordScheme(key, max_words=4)
        m = b.encrypt_metadata(["x"])
        with pytest.raises(ValueError):
            s.match(m, s.encrypt_query("x"))

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            EqualityScheme(b"")


class TestBloomKeyword:
    @pytest.fixture
    def scheme(self, key):
        return BloomKeywordScheme(key, max_words=8, fp_rate=1e-5)

    def test_stored_words_match(self, scheme):
        m = scheme.encrypt_metadata(WORDS[:4])
        for w in WORDS[:4]:
            assert scheme.match(m, scheme.encrypt_query(w))

    def test_absent_words_do_not_match(self, scheme):
        m = scheme.encrypt_metadata(WORDS[:4])
        for w in WORDS[4:]:
            assert not scheme.match(m, scheme.encrypt_query(w))

    def test_case_insensitive(self, scheme):
        m = scheme.encrypt_metadata(["Alpha"])
        assert scheme.match(m, scheme.encrypt_query("alpha"))

    def test_too_many_words_rejected(self, scheme):
        with pytest.raises(ValueError):
            scheme.encrypt_metadata([f"w{i}" for i in range(9)])

    def test_filters_have_constant_population(self, key):
        """Goh's padding defence: set-bit counts don't leak word counts."""
        from repro.pps.bloom import BloomFilter

        scheme = BloomKeywordScheme(key, max_words=8, rng=random.Random(0))
        m_small = scheme.encrypt_metadata(["one"])
        m_large = scheme.encrypt_metadata(WORDS[:8])
        bf_small = BloomFilter.from_bytes(m_small.payload[1], scheme.filter_bits)
        bf_large = BloomFilter.from_bytes(m_large.payload[1], scheme.filter_bits)
        # Padded to the same target population (up to collision noise).
        assert abs(bf_small.count_set() - bf_large.count_set()) < 25

    def test_nonce_randomises_filters(self, scheme):
        m1 = scheme.encrypt_metadata(["alpha"])
        m2 = scheme.encrypt_metadata(["alpha"])
        assert m1.payload[0] != m2.payload[0]
        assert m1.payload[1] != m2.payload[1]

    def test_no_false_negatives_bulk(self, key, rng):
        scheme = BloomKeywordScheme(key, max_words=10)
        for _ in range(30):
            words = [f"word{rng.randrange(1000)}" for _ in range(5)]
            m = scheme.encrypt_metadata(words)
            for w in words:
                assert scheme.match(m, scheme.encrypt_query(w))

    def test_false_positive_rate_low(self, key, rng):
        scheme = BloomKeywordScheme(key, max_words=10, fp_rate=1e-5)
        m = scheme.encrypt_metadata(["stored1", "stored2"])
        hits = sum(
            1
            for i in range(2000)
            if scheme.match(m, scheme.encrypt_query(f"absent{i}"))
        )
        assert hits <= 1  # 2000 * 1e-5 = 0.02 expected


class TestDictionaryKeyword:
    @pytest.fixture
    def scheme(self, key):
        return DictionaryKeywordScheme(key, WORDS)

    def test_match_stored(self, scheme):
        m = scheme.encrypt_metadata(["alpha", "gamma"])
        assert scheme.match(m, scheme.encrypt_query("alpha"))
        assert scheme.match(m, scheme.encrypt_query("gamma"))

    def test_no_false_positives_ever(self, scheme):
        """Unlike Bloom, the dictionary scheme is exact."""
        m = scheme.encrypt_metadata(["alpha", "gamma"])
        for w in WORDS:
            expected = w in ("alpha", "gamma")
            assert scheme.match(m, scheme.encrypt_query(w)) == expected

    def test_empty_document(self, scheme):
        m = scheme.encrypt_metadata([])
        for w in WORDS:
            assert not scheme.match(m, scheme.encrypt_query(w))

    def test_unknown_word_raises(self, scheme):
        with pytest.raises(KeyError):
            scheme.encrypt_query("nonexistent")
        with pytest.raises(KeyError):
            scheme.encrypt_metadata(["nonexistent"])

    def test_metadata_blinded_per_nonce(self, scheme, monkeypatch):
        # two fixed nonces whose blinding masks differ: with os.urandom the
        # one-byte payload of this 8-word dictionary repeats 1 run in 256
        nonces = [b"nonce-01", b"nonce-02"]
        monkeypatch.setattr(keyword_dict, "random_nonce", iter(nonces).__next__)
        masks = [
            [prf_bit(scheme._blind_key(i), rnd) for i in range(len(WORDS))]
            for rnd in nonces
        ]
        assert masks[0] != masks[1]
        m1 = scheme.encrypt_metadata(["alpha"])
        m2 = scheme.encrypt_metadata(["alpha"])
        assert (m1.payload[0], m2.payload[0]) == tuple(nonces)
        assert m1.payload[1] != m2.payload[1]

    def test_metadata_size_is_dictionary_bits(self, scheme):
        m = scheme.encrypt_metadata(["alpha"])
        assert len(m.payload[1]) == (len(WORDS) + 7) // 8

    def test_duplicate_dictionary_rejected(self, key):
        with pytest.raises(ValueError):
            DictionaryKeywordScheme(key, ["a", "a"])

    def test_match_costs_single_prf(self, scheme):
        m = scheme.encrypt_metadata(["alpha"])
        q = scheme.encrypt_query("alpha")
        before = scheme.hash_invocations
        scheme.match(m, q)
        assert scheme.hash_invocations == before + 1


class TestInequality:
    @pytest.fixture
    def scheme(self, key):
        return InequalityScheme(key, linear_reference_points(0, 1000, 101))

    def test_greater_than(self, scheme):
        m = scheme.encrypt_metadata(700)
        assert scheme.match(m, scheme.encrypt_query((">", 500)))
        assert not scheme.match(m, scheme.encrypt_query((">", 800)))

    def test_less_than(self, scheme):
        m = scheme.encrypt_metadata(300)
        assert scheme.match(m, scheme.encrypt_query(("<", 500)))
        assert not scheme.match(m, scheme.encrypt_query(("<", 200)))

    def test_exact_at_reference_point(self, scheme):
        """Queries landing exactly on reference points are exact."""
        for value, op, threshold, expected in [
            (500, ">", 400, True),
            (500, ">", 500, False),  # strict
            (500, "<", 600, True),
        ]:
            m = scheme.encrypt_metadata(value)
            q = scheme.encrypt_query((op, threshold))
            assert scheme.match(m, q) == expected

    def test_query_approximated_to_nearest(self, scheme):
        # 503 is nearest to the 500 reference point.
        assert scheme.approximate_query(">", 503) == ">500.0"

    def test_exponential_points_density(self):
        points = exponential_reference_points(1e9)
        assert len(points) < 120  # paper: ~100 points for 4-byte ints
        assert points[0] == 1.0
        assert points[-1] == 1e9

    def test_exponential_relative_precision(self):
        points = exponential_reference_points(1e6)
        # Precision scales with magnitude: the gap never exceeds the lower
        # point itself (worst case at decade starts: 1->2, 10->20, ...).
        for a, b in zip(points, points[1:]):
            assert (b - a) <= a + 1e-9

    def test_invalid_op(self, scheme):
        with pytest.raises(ValueError):
            scheme.encrypt_query(("=", 5))

    def test_bloom_base_variant(self, key):
        scheme = InequalityScheme(
            key, linear_reference_points(0, 100, 11), base="bloom"
        )
        m = scheme.encrypt_metadata(55)
        assert scheme.match(m, scheme.encrypt_query((">", 30)))
        assert not scheme.match(m, scheme.encrypt_query(("<", 30)))


class TestRange:
    @pytest.fixture
    def scheme(self, key):
        return RangeScheme(key, dyadic_partitions(0, 1024, levels=7))

    def test_match_inside(self, scheme):
        m = scheme.encrypt_metadata(300)
        assert scheme.match(m, scheme.encrypt_query((256, 512)))

    def test_no_match_outside(self, scheme):
        m = scheme.encrypt_metadata(300)
        assert not scheme.match(m, scheme.encrypt_query((512, 1024)))

    def test_dyadic_queries_exact(self, scheme, rng):
        """Power-of-two aligned ranges approximate exactly."""
        for _ in range(20):
            level = rng.randrange(3, 7)
            width = 1024 // (2**level)
            lo = rng.randrange(0, 1024 - width + 1, width)
            value = rng.uniform(lo, lo + width - 1e-9)
            m = scheme.encrypt_metadata(value)
            assert scheme.match(m, scheme.encrypt_query((lo, lo + width)))

    def test_approximation_error_bounded(self, scheme, rng):
        for _ in range(50):
            lo = rng.uniform(0, 900)
            hi = lo + rng.uniform(10, 100)
            err = scheme.approximation_error(lo, hi)
            assert err <= (hi - lo) * 1.2 + 16  # coarse but bounded

    def test_offset_partitions_help(self, key):
        plain = RangeScheme(key, dyadic_partitions(0, 1024, 6, with_offsets=False))
        offset = RangeScheme(key, dyadic_partitions(0, 1024, 6, with_offsets=True))
        # A query straddling a plain-partition boundary.
        err_plain = plain.approximation_error(224, 288)
        err_offset = offset.approximation_error(224, 288)
        assert err_offset <= err_plain

    def test_partition_subset_of(self):
        part = Partition(0, 100, width=10)
        assert part.subset_of(0) == 0
        assert part.subset_of(95) == 9
        with pytest.raises(ValueError):
            part.subset_of(101)

    def test_partition_bounds(self):
        part = Partition(0, 100, width=30, offset=15)
        a, b = part.bounds_of(0)
        assert a == 0.0  # clipped to the domain
        assert b == 15.0


class TestRanked:
    @pytest.fixture
    def scheme(self, key):
        return RankedScheme(key, thresholds=(1, 5, 10), max_keywords=20)

    def test_top_rank_matches(self, scheme):
        kws = [f"kw{i}" for i in range(15)]
        m = scheme.encrypt_metadata(kws)
        assert scheme.match(m, scheme.encrypt_query(("kw0", 1)))
        assert scheme.match(m, scheme.encrypt_query(("kw3", 5)))

    def test_low_rank_does_not_match_tight_threshold(self, scheme):
        kws = [f"kw{i}" for i in range(15)]
        m = scheme.encrypt_metadata(kws)
        assert not scheme.match(m, scheme.encrypt_query(("kw7", 5)))
        assert scheme.match(m, scheme.encrypt_query(("kw7", 10)))

    def test_plain_keyword_query_ignores_rank(self, scheme):
        kws = [f"kw{i}" for i in range(15)]
        m = scheme.encrypt_metadata(kws)
        assert scheme.match(m, scheme.encrypt_query("kw14"))

    def test_paper_word_count(self, key):
        """Default thresholds add 1+5+10+25 = 41 rank words (Section 5.5.4)."""
        scheme = RankedScheme(key, max_keywords=50)
        words = scheme.rank_words([f"k{i}" for i in range(50)])
        assert len(words) == 50 + 41

    def test_unknown_threshold_rejected(self, scheme):
        with pytest.raises(ValueError):
            scheme.encrypt_query(("kw0", 7))

    def test_too_many_keywords(self, scheme):
        with pytest.raises(ValueError):
            scheme.encrypt_metadata([f"k{i}" for i in range(21)])
