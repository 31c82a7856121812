import copy
import itertools
import pickle
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from braidwork.garside import (
    nf_key,
    normal_form,
    perm_identity,
    perm_inv,
    perm_longest,
    rewrite,
    words_equal,
)
from braidwork.words import (
    BraidWord,
    Endomorphism,
    apply_endo,
    compose,
    compose_all,
    crossings,
    delta,
    enumerate_products,
    generator,
    identity,
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


class TestValueSemantics:
    """Words and normal forms are tuples. Their reprs, their hashes, which
    equal their field tuples' so that cache keys and set and dict orders do
    not depend on the class, frozen fields, constructor errors, length,
    truth and copies are pinned here."""

    WORD = BraidWord(4, (1, -3, 2))
    FORM = normal_form(BraidWord(3, (1, -2)))

    def test_repr(self):
        assert repr(self.WORD) == "BraidWord(strands=4, letters=(1, -3, 2))"
        assert repr(self.FORM) == (
            "GarsideNormalForm(strands=3, infimum=-1, "
            "factors=(b'\\x00\\x02\\x01', b'\\x01\\x02\\x00'))"
        )

    def test_hash_and_equality_are_the_plain_tuples(self):
        assert hash(self.WORD) == hash((4, (1, -3, 2)))
        assert hash(self.FORM) == hash((3, -1, self.FORM.factors))
        # nf_key is the normal form, equal to its field tuple.
        nf = normal_form(self.WORD)
        fields = (nf.strands, nf.infimum, nf.factors)
        assert nf_key(self.WORD) == fields and hash(nf_key(self.WORD)) == hash(fields)

    @pytest.mark.parametrize("field", ["strands", "letters"])
    def test_word_fields_cannot_be_assigned(self, field):
        with pytest.raises(AttributeError):
            setattr(self.WORD, field, 5)

    @pytest.mark.parametrize("field", ["strands", "infimum", "factors"])
    def test_form_fields_cannot_be_assigned(self, field):
        with pytest.raises(AttributeError):
            setattr(self.FORM, field, 5)

    def test_error_messages(self):
        with pytest.raises(ValueError, match=r"^strand count must be positive, got 0$"):
            BraidWord(0, ())
        with pytest.raises(ValueError, match=r"^letter 3 out of range for 3 strands$"):
            BraidWord(3, [1, 3])

    def test_make_and_replace_check_the_letters(self):
        with pytest.raises(ValueError, match=r"^letter 2 out of range for 2 strands$"):
            BraidWord(3, (1, 2))._replace(strands=2)
        with pytest.raises(ValueError, match=r"^letter 5 out of range for 3 strands$"):
            BraidWord._make((3, (1, 5)))
        wider = BraidWord(3, (1, 2, 1))._replace(strands=4)
        assert type(wider) is BraidWord and wider == BraidWord(4, (1, 2, 1))

    def test_letters_are_coerced_to_a_tuple(self):
        for letters in ([1, -3, 2], iter((1, -3, 2)), (x for x in (1, -3, 2))):
            w = BraidWord(4, letters)
            assert type(w.letters) is tuple and w == self.WORD
        assert BraidWord(strands=4, letters=[1, -3, 2]) == self.WORD

    def test_length_and_truth_count_letters(self):
        assert len(self.WORD) == 3 and self.WORD
        assert len(identity(5)) == 0 and not identity(5)
        assert BraidWord(5) == identity(5)

    @pytest.mark.parametrize(
        "roundtrip",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_type_and_value(self, roundtrip):
        for value in (self.WORD, identity(3), delta(5), self.FORM):
            copied = roundtrip(value)
            assert type(copied) is type(value) and copied == value


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

    def test_compose_all_needs_a_word(self):
        with pytest.raises(ValueError, match=r"^compose_all needs at least one word$"):
            compose_all([])

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


def strands_and_words(count: int):
    """n from 2 to 8 and `count` words on n strands of length up to 30."""
    return st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.tuples(*[letters(n, 30)] * count)
    )


def then(p, q):
    """The permutation of a word for p followed by a word for q."""
    return bytes(q[x] for x in p)


def strands_at(w):
    """The strand at each position after w, the first part of its image."""
    return crossings(w)[0]


def pair_counts(w):
    """The signed crossing count of each pair of strands of w, as a dict."""
    n = w.strands
    counts = crossings(w)[1]
    return {(a, b): counts[a * n + b] for a in range(n) for b in range(a + 1, n)}


class TestCrossings:
    @given(strands_and_words(1))
    def test_permutation_matches_normal_form(self, ws):
        # The Garside layer is the oracle: Delta's permutation to the power
        # of the infimum, then each factor in order, gives the images of
        # positions; the strand at each position is its inverse.
        (w,) = ws
        nf = normal_form(w)
        p = perm_longest(w.strands) if nf.infimum % 2 else perm_identity(w.strands)
        for factor in nf.factors:
            p = then(p, factor)
        assert strands_at(w) == perm_inv(p)

    @given(strands_and_words(2))
    def test_is_a_homomorphism(self, ab):
        # After a, b crosses the strands a left at its positions.
        a, b = ab
        at_a = strands_at(a)
        assert strands_at(compose(a, b)) == then(strands_at(b), at_a)
        expected = pair_counts(a)
        for (i, j), c in pair_counts(b).items():
            p, q = sorted((at_a[i], at_a[j]))
            expected[p, q] += c
        assert pair_counts(compose(a, b)) == expected

    def test_generator_and_identity(self):
        assert strands_at(generator(4, -2)) == bytes((0, 2, 1, 3))
        assert pair_counts(generator(4, -2)) == {
            (a, b): -1 if (a, b) == (1, 2) else 0 for a in range(4) for b in range(a + 1, 4)
        }
        assert crossings(identity(3)) == (bytes((0, 1, 2)), (0,) * 9)

    def test_tells_a_pure_braid_from_the_identity(self):
        # sigma_1^2 leaves every strand in place, so the permutation alone
        # cannot tell it from the identity; its strands 0 and 1 cross twice.
        square = BraidWord(3, (1, 1))
        assert strands_at(square) == strands_at(identity(3))
        assert crossings(square) != crossings(identity(3))
        assert pair_counts(square)[0, 1] == 2

    @given(
        st.integers(min_value=2, max_value=9).flatmap(
            lambda n: st.tuples(letters(n, 40), letters(n, 40), st.integers(0, 40))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_is_a_braid_invariant(self, case):
        # Equal on a word and its normal form's spelling, and on a word with
        # a trivial u . rewrite(u)^-1 spliced in at any point.
        w, u, k = case
        head = BraidWord(w.strands, w.letters[:k])
        tail = BraidWord(w.strands, w.letters[k:])
        image = crossings(w)
        assert crossings(rewrite(w)) == image
        assert crossings(compose_all([head, u, invert(rewrite(u)), tail])) == image


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

    @given(strands_and_words(1))
    def test_shift_moves_each_letter_away_from_zero(self, ws):
        (w,) = ws
        shifted = shift(w)
        assert shifted.strands == w.strands + 1
        assert len(shifted) == len(w)
        for x, y in zip(w.letters, shifted.letters):
            assert abs(y) == abs(x) + 1
            assert (y > 0) == (x > 0)
        assert unshift(shifted) == w

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
        assert apply_endo(Endomorphism("inner", h), w) == compose(h, compose(w, invert(h)))

    def test_inner_needs_conjugator(self):
        with pytest.raises(ValueError):
            Endomorphism("inner")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Endomorphism("transpose")


def any_strands_word(max_len: int = 8):
    """A word on 2..6 strands, possibly empty."""
    return st.integers(min_value=2, max_value=6).flatmap(lambda n: letters(n, max_len))


class TestShiftedConjugate:
    @given(any_strands_word(), any_strands_word())
    @example(BraidWord(6, (5, -1, 2)), BraidWord(3, (-2, 1)))  # r on more strands
    @example(BraidWord(2, (1, -1)), BraidWord(5, (4, 3, -4)))  # r on fewer strands
    @example(BraidWord(4, (3, -2)), BraidWord(4, (-1, 3)))  # equal strand counts
    @example(identity(3), identity(5))
    def test_is_the_composite_of_its_parts(self, r, p):
        # The definition, built from its four parts and joined.
        n = max(r.strands, p.strands) + 1
        expected = compose_all(
            [r.embed(n), shift(p).embed(n), generator(n, 1), invert(shift(r)).embed(n)]
        )
        out = shifted_conjugate(r, p)
        assert (out.strands, out.letters) == (expected.strands, expected.letters)

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


def random_word_by_inverted_words(alphabet, length, rng, use_inverses=True):
    """`random_word` as it was built from one inverted word per drawn
    inverse; it makes the same draws from `rng`."""
    n = max(w.strands for w in alphabet)
    letters: list[int] = []
    for _ in range(length):
        w = alphabet[rng.randrange(len(alphabet))]
        if use_inverses and rng.random() < 0.5:
            w = invert(w)
        letters.extend(w.letters)
    return BraidWord(n, tuple(letters))


class TestRandomWord:
    @pytest.mark.parametrize("use_inverses", [True, False])
    @pytest.mark.parametrize(
        "alphabet",
        [
            [generator(4, i) for i in range(1, 4)],
            [BraidWord(4, (1, 2)), BraidWord(4, (2, 3))],  # stickel's a and b
            [BraidWord(8, (2, 2)), BraidWord(8, (3, 2))],  # shpilrain-central's a1, a2
            [power(delta(4), 2), BraidWord(4, (3, -1, -2)), BraidWord(2, (1,))],
        ],
    )
    def test_keeps_its_letters_and_draws(self, alphabet, use_inverses):
        for seed in range(20):
            for length in (0, 1, 3, 8):
                rng, oracle_rng = random.Random(seed), random.Random(seed)
                w = random_word(alphabet, length, rng, use_inverses)
                expected = random_word_by_inverted_words(
                    alphabet, length, oracle_rng, use_inverses
                )
                assert (w.strands, w.letters) == (expected.strands, expected.letters)
                assert rng.random() == oracle_rng.random()

    def test_zero_length(self):
        assert random_word([generator(3, 1)], 0, random.Random(7)) == identity(3)

    def test_deterministic(self):
        gens = [generator(4, i) for i in range(1, 4)]
        assert random_word(gens, 6, random.Random(42)) == random_word(gens, 6, random.Random(42))

    def test_positive_powers(self):
        w = random_word([generator(2, 1)], 3, random.Random(0), use_inverses=False)
        assert w == BraidWord(2, (1, 1, 1))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError, match=r"^alphabet must be nonempty$"):
            random_word([], 3, random.Random(0))

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match=r"^length must be nonnegative$"):
            random_word([generator(3, 1)], -1, random.Random(0))


class TestEnumerateProducts:
    def test_starts_with_identity(self):
        words = list(enumerate_products([generator(3, 1)], 2))
        assert words[0] == identity(3)

    def test_empty_alphabet_rejected(self):
        # A generator: the check runs at the first next().
        with pytest.raises(ValueError, match=r"^alphabet must be nonempty$"):
            next(enumerate_products([], 2))

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
