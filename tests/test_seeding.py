"""Seed derivation: pinned digests, and prefix-copied draws equal to hash_uniform."""

import pytest
from hypothesis import given, settings, strategies as st

from obameter.seeding import (
    derive_seed,
    hash_uniform,
    keyed_hasher,
    uniforms_after,
    with_labels,
)

# (master, labels) -> derive_seed; every stored corpus depends on these
PINNED = [
    (0, (), 4331143152044847043),
    (1, ("world",), 5814909087302854288),
    (-1, ("tags", "sim-a"), 5107385734145006959),
    (2**64 + 7, ("serve", "p|ES|r0"), 18191511943778666374),
    (-(2**70), ("drop", "x"), 5521499414282966291),
    (42, ("spur", "https://café.example/ü", "swimming pools & spas"), 6314255871731769864),
    (42, ("a\x1fb",), 4638255166948957566),
]

# labels are UTF-8 encoded, so no lone surrogates
_LABEL = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


class TestPinned:
    @pytest.mark.parametrize("master, labels, seed", PINNED)
    def test_derive_seed(self, master, labels, seed):
        assert derive_seed(master, *labels) == seed

    @pytest.mark.parametrize("master, labels, seed", PINNED)
    def test_hash_uniform_is_the_seed_over_two_to_the_64(self, master, labels, seed):
        assert hash_uniform(master, *labels) == seed / 2.0**64
        assert 0.0 <= hash_uniform(master, *labels) < 1.0

    def test_master_is_taken_modulo_two_to_the_64(self):
        assert derive_seed(2**64 + 7, "serve", "p|ES|r0") == derive_seed(7, "serve", "p|ES|r0")
        assert derive_seed(-1, "tags", "sim-a") == derive_seed(2**64 - 1, "tags", "sim-a")

    def test_labels_are_joined_by_the_unit_separator(self):
        # a label holding "\x1f" draws what the split labels draw
        assert derive_seed(42, "a\x1fb") == derive_seed(42, "a", "b")
        assert derive_seed(42, "ab") != derive_seed(42, "a", "b")


class TestPrefixDraws:
    @settings(max_examples=300, deadline=None)
    @given(
        master=st.integers(-(2**70), 2**70),
        prefix=st.lists(_LABEL, max_size=4),
        lasts=st.lists(_LABEL, max_size=5),
    )
    def test_prefix_copy_draws_equal_hash_uniform(self, master, prefix, lasts):
        draws = uniforms_after(with_labels(keyed_hasher(master), *prefix), lasts)
        assert draws == [hash_uniform(master, *prefix, last) for last in lasts]

    @settings(max_examples=100, deadline=None)
    @given(
        master=st.integers(-(2**70), 2**70),
        outer=st.lists(_LABEL, max_size=3),
        inner=st.lists(_LABEL, max_size=3),
        last=_LABEL,
    )
    def test_prefixes_compose(self, master, outer, inner, last):
        nested = with_labels(with_labels(keyed_hasher(master), *outer), *inner)
        assert uniforms_after(nested, [last]) == [hash_uniform(master, *outer, *inner, last)]

    def test_hashers_are_copied_not_consumed(self):
        base = keyed_hasher(9)
        prefix = with_labels(base, "spur", "http://a.example/")
        first = uniforms_after(prefix, ["pools", "banking"])
        assert uniforms_after(prefix, ["pools", "banking"]) == first
        again = with_labels(base, "spur", "http://a.example/")
        assert uniforms_after(again, ["pools"]) == first[:1]
        assert base.digest() == keyed_hasher(9).digest()
