"""Seed derivation: pinned digests, `draws_below` equal to derive_seed, and
the integer cut equal to the uniform's comparison with a rate.

A draw n's uniform is its top 53 bits over 2**53, `(n >> 11) / 2**53`;
the checks at the cut compare it with a rate as exact fractions.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from obameter import seeding
from obameter.experiment import DEFAULT_SPURIOUS_LEVELS
from obameter.seeding import cut, derive_seed, draws_below, keyed_hasher, uniform, with_labels

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
    def test_hash_uniform_is_the_seeds_top_53_bits_over_two_to_the_53(
        self, master, labels, seed
    ):
        assert Fraction(uniform(derive_seed(master, *labels))) == Fraction(seed >> 11, 2**53)
        assert 0.0 <= uniform(derive_seed(master, *labels)) < 1.0

    def test_the_largest_digest_has_a_uniform_below_one(self, monkeypatch):
        monkeypatch.setattr(seeding, "derive_seed", lambda master, *labels: 2**64 - 1)
        assert uniform(seeding.derive_seed(0, "x")) == 1 - 2.0**-53

    def test_master_is_taken_modulo_two_to_the_64(self):
        assert derive_seed(2**64 + 7, "serve", "p|ES|r0") == derive_seed(7, "serve", "p|ES|r0")
        assert derive_seed(-1, "tags", "sim-a") == derive_seed(2**64 - 1, "tags", "sim-a")

    def test_labels_are_joined_by_the_unit_separator(self):
        # a label holding "\x1f" draws what the split labels draw
        assert derive_seed(42, "a\x1fb") == derive_seed(42, "a", "b")
        assert derive_seed(42, "ab") != derive_seed(42, "a", "b")


def _draws(prefix, lasts, bound=2**64):
    """`draws_below` over the UTF-8 bytes of each label of `lasts`."""
    return draws_below(prefix, {last: last.encode("utf-8") for last in lasts}, bound)


class TestPrefixDraws:
    @settings(max_examples=300, deadline=None)
    @given(
        master=st.integers(-(2**70), 2**70),
        prefix=st.lists(_LABEL, max_size=4),
        lasts=st.lists(_LABEL, max_size=5),
    )
    def test_prefix_copy_draws_equal_hash_uniform(self, master, prefix, lasts):
        hasher = with_labels(keyed_hasher(master), *prefix)
        draws = _draws(hasher, lasts)
        assert draws == {last: derive_seed(master, *prefix, last) for last in lasts}
        assert {last: uniform(n) for last, n in draws.items()} == {
            last: uniform(derive_seed(master, *prefix, last)) for last in lasts
        }
        # the largest draw lies at the bound, so only the others are below it
        bound = max(draws.values(), default=0)
        assert _draws(hasher, lasts, bound) == {k: n for k, n in draws.items() if n < bound}

    @settings(max_examples=100, deadline=None)
    @given(
        master=st.integers(-(2**70), 2**70),
        outer=st.lists(_LABEL, max_size=3),
        inner=st.lists(_LABEL, max_size=3),
        last=_LABEL,
    )
    def test_prefixes_compose(self, master, outer, inner, last):
        nested = with_labels(with_labels(keyed_hasher(master), *outer), *inner)
        assert _draws(nested, [last]) == {last: derive_seed(master, *outer, *inner, last)}

    def test_hashers_are_copied_not_consumed(self):
        base = keyed_hasher(9)
        prefix = with_labels(base, "spur", "http://a.example/")
        first = _draws(prefix, ["pools", "banking"])
        assert _draws(prefix, ["pools", "banking"]) == first
        again = with_labels(base, "spur", "http://a.example/")
        assert _draws(again, ["pools"]) == {"pools": first["pools"]}
        assert base.digest() == keyed_hasher(9).digest()


_RATES = [0.0, 1.0, 5e-324, *DEFAULT_SPURIOUS_LEVELS]


class TestCut:
    @pytest.mark.parametrize("rate", sorted({
        r for rate in _RATES
        for r in (rate, math.nextafter(rate, -math.inf), math.nextafter(rate, math.inf))
    }))
    def test_a_draw_is_below_the_cut_exactly_when_its_uniform_is_below_the_rate(self, rate):
        c = cut(rate)
        # the draws beside the cut, and beside the one 2**11 below it, where
        # the uniform before the cut's begins
        for n in {0, 2**64 - 1, *range(c - 2, c + 3), *range(c - 2**11 - 2, c - 2**11 + 3)}:
            if 0 <= n < 2**64:
                assert (n < c) == (Fraction(n >> 11, 2**53) < Fraction(rate)), (rate, c, n)

    @settings(max_examples=300, deadline=None)
    @given(rate=st.floats(0.0, 1.0), n=st.integers(0, 2**64 - 1))
    def test_any_rate_and_draw(self, rate, n):
        assert (n < cut(rate)) == (Fraction(n >> 11, 2**53) < Fraction(rate))

    def test_ends(self):
        assert cut(0.0) == cut(-1.0) == cut(math.nan) == 0
        # the first 2**11 draws share the uniform 0, which is not below 5e-324
        assert cut(5e-324) == 2**11
        # every uniform is below 1.0, the largest draw's too
        assert cut(1.0) == 2**64
        assert cut(math.nextafter(1.0, 2.0)) > 2**64 - 1

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 2**64 - 1))
    def test_a_draw_at_its_own_uniform_is_not_below_it(self, n):
        # every draw that shares n's uniform is at or above the cut
        u = (n >> 11) / 2**53
        assert n >= cut(u)
        assert n < cut(math.nextafter(u, 2.0))
