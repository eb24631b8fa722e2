"""Tests for the deterministic RNG utilities."""

import random

import pytest

from repro.rng import child_rng, derive_seed, stable_fraction, stable_hash, token_hex


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_path_sensitivity(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit_range(self):
        for seed in (0, 1, 2**63, 2**64 - 1):
            value = derive_seed(seed, "x")
            assert 0 <= value < 2**64

    def test_mixed_label_types(self):
        assert derive_seed(1, "site", 42) == derive_seed(1, "site", "42")


class TestKnownAnswers:
    """Pinned outputs: any change to the seed hashing or stream seeding
    changes every generated web and visit, so it must fail here."""

    def test_derive_seed_visit_path(self):
        assert derive_seed(2023, "visit", "https://a.com/", "Sim1", 7) == 18364463281185143254

    def test_derive_seed_negative_seed_is_masked(self):
        assert derive_seed(-1, "site", 42) == 9716295862048315149

    def test_derive_seed_non_ascii_label(self):
        assert derive_seed(5, "cookie", "h\u00e9llo-\u00fc\u2713") == 4681167805147840979

    def test_child_rng_first_draws(self):
        rng = child_rng(2023, "order", "top")
        assert [rng.random() for _ in range(3)] == [
            0.38913773216980985,
            0.6790956757798376,
            0.6888596443398934,
        ]

    def test_token_hex_from_child_rng(self):
        assert token_hex(child_rng(7, "url", "slot-1"), 6) == "0bb65ad5424d"


class TestChildRng:
    def test_independent_streams(self):
        a = [child_rng(1, "a").random() for _ in range(5)]
        b = [child_rng(1, "b").random() for _ in range(5)]
        assert a != b

    def test_returns_random_instance(self):
        assert isinstance(child_rng(1, "x"), random.Random)


class TestStableHash:
    def test_process_independent_known_value(self):
        # Pinned: regressions here would silently change every generated web.
        assert stable_hash("example") == stable_hash("example")
        assert stable_hash("a") != stable_hash("b")

    def test_fraction_range(self):
        for text in ("", "a", "hello world", "x" * 1000):
            assert 0.0 <= stable_fraction(text) < 1.0


class TestTokenHex:
    def test_length(self):
        rng = random.Random(1)
        assert len(token_hex(rng, 8)) == 16
        assert len(token_hex(rng, 3)) == 6

    def test_hex_alphabet(self):
        rng = random.Random(2)
        token = token_hex(rng, 16)
        assert all(c in "0123456789abcdef" for c in token)

    def test_deterministic_given_rng(self):
        assert token_hex(random.Random(5)) == token_hex(random.Random(5))

    def test_rejects_non_positive_nbytes(self):
        rng = random.Random(3)
        with pytest.raises(ValueError, match="nbytes must be >= 1"):
            token_hex(rng, 0)
        with pytest.raises(ValueError, match="nbytes must be >= 1"):
            token_hex(rng, -4)
