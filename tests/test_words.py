import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from braidwork.garside import words_equal
from braidwork.words import (
    BraidWord,
    Endomorphism,
    apply_endo,
    compose,
    compose_all,
    delta,
    enumerate_products,
    generator,
    identity,
    inner_endo,
    invert,
    power,
    random_word,
    shift,
    shifted_conjugate,
    unshift,
)


def letters(n: int, max_len: int = 8):
    nonzero = st.integers(min_value=1, max_value=n - 1).flatmap(
        lambda i: st.sampled_from([i, -i])
    )
    return st.lists(nonzero, max_size=max_len).map(
        lambda ls: BraidWord(n, tuple(ls))
    )


class TestBraidWord:
    def test_rejects_bad_strands(self):
        with pytest.raises(ValueError):
            BraidWord(0, ())

    def test_rejects_out_of_range_letter(self):
        with pytest.raises(ValueError):
            BraidWord(3, (3,))
        with pytest.raises(ValueError):
            BraidWord(3, (0,))

    @pytest.mark.parametrize(
        "letters, bad",
        [((1, 0, 5, -4), 0), ((2, -3, 4, 0), 4), ((3, -4, 9), -4)],
    )
    def test_error_names_first_bad_letter(self, letters, bad):
        with pytest.raises(ValueError, match=rf"^letter {bad} out of range for 4 strands$"):
            BraidWord(4, letters)

    def test_embed_is_inclusion(self):
        w = BraidWord(2, (1,))
        assert w.embed(4) == BraidWord(4, (1,))
        with pytest.raises(ValueError):
            w.embed(1)

    def test_record_roundtrip(self):
        w = BraidWord(4, (1, -3, 2))
        assert BraidWord.from_record(w.to_record()) == w


class TestCompose:
    def test_inverse_cancellation(self):
        w = compose(generator(2, 1), generator(2, -1))
        assert len(w) == 2  # no free reduction
        assert words_equal(w, identity(2))

    def test_identity_is_neutral(self):
        w = BraidWord(3, (1, 2))
        assert compose(identity(3), w) == w

    def test_strand_reconciliation(self):
        w = compose(BraidWord(2, (1,)), BraidWord(4, (3,)))
        assert w == BraidWord(4, (1, 3))

    @given(letters(4), letters(4), letters(4))
    def test_associativity(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestInvert:
    def test_reverses_and_flips(self):
        assert invert(BraidWord(3, (1, 2))) == BraidWord(3, (-2, -1))

    def test_identity(self):
        assert invert(identity(3)) == identity(3)

    @given(letters(5))
    def test_involution(self, w):
        assert invert(invert(w)) == w

    @given(letters(5))
    def test_right_inverse(self, w):
        assert words_equal(compose(w, invert(w)), identity(5))


class TestPowerAndDelta:
    def test_power_signs(self):
        a = BraidWord(3, (1, 2))
        assert power(a, 2) == BraidWord(3, (1, 2, 1, 2))
        assert power(a, -1) == invert(a)
        assert power(a, 0) == identity(3)

    def test_delta_small(self):
        assert delta(2) == BraidWord(2, (1,))
        assert delta(3) == BraidWord(3, (1, 2, 1))

    def test_delta_rejects_one_strand(self):
        with pytest.raises(ValueError):
            delta(1)

    def test_delta_flip(self):
        d = delta(4)
        lhs = compose_all([d, generator(4, 1), invert(d)])
        assert words_equal(lhs, generator(4, 3))


class TestShift:
    def test_shift_literal(self):
        assert shift(BraidWord(3, (1, -2))) == BraidWord(4, (2, -3))

    def test_unshift_inverts_shift(self):
        w = BraidWord(4, (1, -3, 2))
        assert unshift(shift(w)) == w

    def test_unshift_rejects_sigma_one(self):
        with pytest.raises(ValueError):
            unshift(BraidWord(4, (1, 2)))

    def test_unshift_identity(self):
        assert unshift(identity(3)) == identity(2)

    @given(letters(4), letters(4))
    def test_shift_is_homomorphism(self, a, b):
        assert words_equal(shift(compose(a, b)), compose(shift(a), shift(b)))


class TestEndomorphism:
    def test_identity_endo(self):
        w = BraidWord(3, (1, 2))
        assert apply_endo(Endomorphism("identity"), w) == w

    def test_inner_endo(self):
        h = generator(3, 2)
        w = generator(3, 1)
        assert apply_endo(inner_endo(h), w) == compose(h, compose(w, invert(h)))

    def test_inner_needs_conjugator(self):
        with pytest.raises(ValueError):
            Endomorphism("inner")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Endomorphism("transpose")


class TestShiftedConjugate:
    def test_trivial_arguments(self):
        out = shifted_conjugate(identity(2), identity(2))
        assert words_equal(out, generator(3, 1))

    def test_base_expansion(self):
        out = shifted_conjugate(identity(2), generator(2, 1))
        assert words_equal(out, BraidWord(3, (2, 1)))

    @given(letters(3, 4), letters(3, 4), letters(3, 4))
    def test_left_self_distributivity(self, r, p, q):
        lhs = shifted_conjugate(r, shifted_conjugate(p, q))
        rhs = shifted_conjugate(
            shifted_conjugate(r, p), shifted_conjugate(r, q)
        )
        assert words_equal(lhs, rhs)


class TestRandomWord:
    def test_zero_length(self):
        assert random_word([generator(3, 1)], 0, 7) == identity(3)

    def test_deterministic(self):
        gens = [generator(4, i) for i in range(1, 4)]
        assert random_word(gens, 6, 42) == random_word(gens, 6, 42)

    def test_positive_powers(self):
        w = random_word([generator(2, 1)], 3, 0, use_inverses=False)
        assert w == BraidWord(2, (1, 1, 1))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            random_word([], 3, 0)


class TestEnumerateProducts:
    def test_starts_with_identity(self):
        words = list(enumerate_products([generator(3, 1)], 2))
        assert words[0] == identity(3)

    def test_ordered_by_length(self):
        words = list(enumerate_products([generator(3, 1), generator(3, 2)], 3))
        lengths = [len(w) for w in words]
        assert lengths == sorted(lengths)

    def test_skips_immediate_cancellation(self):
        words = list(enumerate_products([generator(2, 1)], 2))
        assert BraidWord(2, (1, -1)) not in words

    def test_first_word_of_a_length_builds_no_level(self):
        # B_40 has 78 symbols, so its length-3 level holds 78*77*77 = 462,462
        # words; the first of them must come without building the rest.
        gens = [generator(40, i) for i in range(1, 40)]
        tracemalloc.start()
        try:
            words = enumerate_products(gens, 3)
            word = next(itertools.islice(words, 1 + 78 + 78 * 77, None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert word == BraidWord(40, (1, 1, 1))
        assert peak < 2_000_000

    def test_covers_short_elements(self):
        from braidwork.garside import nf_key

        words = list(enumerate_products([generator(3, 1), generator(3, 2)], 2))
        keys = {nf_key(w) for w in words}
        for target in [identity(3), BraidWord(3, (1, 2)), BraidWord(3, (-2, 1))]:
            assert nf_key(target) in keys
