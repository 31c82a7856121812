"""Differential tests: the normal form packed in one right-to-left pass, the
arithmetic on normal forms, and the byte-level permutation kernels, against
the letter-per-factor reference in `garside_reference` with its own tuple
permutations, against normal forms of the concatenated words, and against
handle reduction."""

import itertools

import garside_reference as reference
from garside_reference import (
    is_left_weighted,
    perm_flip,
    perm_identity,
    perm_inv,
    perm_longest,
    perm_mul,
    perm_transposition,
)
from hypothesis import example, given, settings, strategies as st

from braidwork import garside
from braidwork.garside import (
    GarsideNormalForm,
    _left_weight_pair,
    conjugate,
    factor_word,
    inverse,
    normal_form,
    product,
    rewrite,
)
from braidwork.handle import is_trivial_handle_reduction
from braidwork.words import BraidWord, compose, compose_all, delta, invert, power


def words(n: int, max_len: int):
    nonzero = st.integers(min_value=1, max_value=n - 1).flatmap(
        lambda i: st.sampled_from([i, -i])
    )
    return st.lists(nonzero, max_size=max_len).map(
        lambda ls: BraidWord(n, tuple(ls))
    )


def sized_words(min_n: int, max_n: int, max_len: int):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: words(n, max_len)
    )


@st.composite
def rewrite_shaped_words(draw):
    """s^-1 . rewrite(Delta^-k w) . s: a conjugate of a canonical
    re-expansion, the shape the length-based solvers feed back in."""
    n = draw(st.integers(min_value=2, max_value=9))
    k = draw(st.integers(min_value=0, max_value=2))
    w = draw(words(n, 30))
    s = draw(words(n, 2))
    return compose_all([invert(s), rewrite(compose_all([power(delta(n), -k), w])), s])


def word_pairs(max_len: int):
    return st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.tuples(words(n, max_len), words(n, max_len))
    )


@st.composite
def words_and_letters(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    i = draw(st.integers(min_value=1, max_value=n - 1))
    return draw(words(n, 60)), draw(st.sampled_from([i, -i]))


@st.composite
def starting_letters(draw):
    """A word Delta^k sigma_j P, for a positive word P, and the letter i
    with j = i, or n-i for odd k: sigma_i^-1 passes Delta^k as sigma_j^-1,
    and sigma_j starts the first factor, so `conjugate` by sigma_i cancels
    it there unless the right comb makes a Delta and changes the parity."""
    n = draw(st.integers(min_value=3, max_value=12))
    k = draw(st.integers(min_value=-2, max_value=2))
    i = draw(st.integers(min_value=1, max_value=n - 1))
    j = n - i if k % 2 else i
    tail = draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=40))
    return compose_all([power(delta(n), k), BraidWord(n, (j, *tail))]), i


@st.composite
def run_structured_words(draw):
    """Alternating same-sign runs of 1 to 2n letters, with literal Delta and
    Delta^-1 spellings spliced in between them: the packing opens and closes
    factors within runs and at sign changes, and a literal Delta^-1 changes
    the Delta power, and with it the mirroring, on its own."""
    n = draw(st.integers(min_value=2, max_value=12))
    sign = draw(st.sampled_from([1, -1]))
    letters = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        twist = draw(st.sampled_from([0, 0, 1, -1]))
        if twist:
            letters.extend(power(delta(n), twist).letters)
        run = draw(st.lists(st.integers(min_value=1, max_value=n - 1), min_size=1, max_size=2 * n))
        letters.extend(sign * i for i in run)
        sign = -sign
    return BraidWord(n, tuple(letters))


def perms(n: int):
    return st.permutations(range(n)).map(tuple)


def prefix(p, k: int):
    """The permutation braid of the first k letters of p's reduced word, a
    left divisor of p."""
    q = perm_identity(len(p))
    for i in factor_word(p)[:k]:
        q = perm_mul(q, perm_transposition(len(p), i))
    return q


@st.composite
def pairs_that_transfer_much(draw):
    """A factor a on 6-16 strands, and right factors b of which much or all
    transfers to a: Delta, the complement a^-1 Delta, a prefix c of it, the
    complement times c, and the complement times a prefix d of flip(a).
    flip(a) is the complement of a^-1 Delta, so the last is a permutation
    braid with a^-1 Delta as a prefix."""
    n = draw(st.integers(min_value=6, max_value=16))
    a = draw(perms(n))
    w0 = perm_longest(n)
    complement = perm_mul(perm_inv(a), w0)
    c = prefix(complement, draw(st.integers(min_value=0, max_value=n * (n - 1) // 2)))
    d = prefix(perm_flip(a), draw(st.integers(min_value=0, max_value=n * (n - 1) // 2)))
    return a, (w0, complement, c, perm_mul(complement, c), perm_mul(complement, d))


class TestNormalFormAgainstReference:
    @given(sized_words(2, 12, 60))
    @settings(max_examples=150, deadline=None)
    def test_random_words(self, w):
        nf = normal_form(w)
        assert nf == reference.normal_form(w)
        assert is_left_weighted(nf)

    @given(rewrite_shaped_words())
    @settings(max_examples=80, deadline=None)
    def test_rewrite_shaped_words(self, w):
        assert normal_form(w) == reference.normal_form(w)

    @given(run_structured_words())
    # A negative run that splits into two factors under an odd Delta power,
    # after a positive letter and after a literal Delta^-1; a sign change
    # right after a negative factor closes, whose letter is mirrored again;
    # a positive run under an odd power; n = 2, the empty word and n = 1.
    @example(BraidWord(3, (-1, -1, 2, -1)))
    @example(compose(BraidWord(4, (-1, -1, -2)), power(delta(4), -1)))
    @example(BraidWord(3, (1, -1)))
    @example(BraidWord(5, (2, 1, -3, -3)))
    @example(BraidWord(4, (1, 2, 3, -1)))
    @example(BraidWord(2, (1, -1, -1, 1, 1, -1)))
    @example(BraidWord(5, ()))
    @example(BraidWord(1, ()))
    @settings(deadline=None)
    def test_run_structured_words(self, w):
        nf = normal_form(w)
        assert nf == reference.normal_form(w)
        assert is_left_weighted(nf)

    def test_delta_powers_only(self):
        for n in (2, 3, 6):
            for k in (-3, -1, 1, 2):
                w = power(delta(n), k)
                assert normal_form(w) == reference.normal_form(w)
                assert normal_form(w).factors == ()


def assert_pair_step_matches(a, b):
    """The library's pair step on the bytes of a and b gives the reference's
    result on the tuples, as bytes."""
    a2, b2, moved = reference._left_weight_pair(a, b)
    assert _left_weight_pair(bytes(a), bytes(b)) == (bytes(a2), bytes(b2), moved)


class TestLeftWeightPairAgainstReference:
    def test_all_pairs_up_to_five_strands(self):
        for n in range(1, 6):
            all_perms = list(itertools.permutations(range(n)))
            for a in all_perms:
                for b in all_perms:
                    assert_pair_step_matches(a, b)

    @given(st.integers(min_value=6, max_value=16).flatmap(
        lambda n: st.tuples(perms(n), perms(n))
    ))
    @settings(max_examples=300, deadline=None)
    def test_random_pairs(self, pair):
        a, b = pair
        assert_pair_step_matches(a, b)

    @given(pairs_that_transfer_much())
    @settings(max_examples=300, deadline=None)
    def test_pairs_that_transfer_much(self, case):
        # Random pairs seldom make Delta or transfer all of b, and the combs
        # of the normal-form arithmetic make most of their moves in such
        # pairs.
        a, right_factors = case
        for b in right_factors:
            assert_pair_step_matches(a, b)


def test_factor_word_matches_reference_up_to_six_strands():
    for n in range(1, 7):
        for p in itertools.permutations(range(n)):
            assert factor_word(bytes(p)) == reference.factor_word(p)


class TestPermutationKernelsAgainstReference:
    """The library inverts and flips permutations with byte translations; the
    reference does it with loops over tuples."""

    def test_every_permutation_up_to_five_strands(self):
        for n in range(1, 6):
            for p in itertools.permutations(range(n)):
                assert garside.perm_inv(bytes(p)) == bytes(perm_inv(p))
                assert garside.perm_flip(bytes(p)) == bytes(perm_flip(p))

    @given(st.integers(min_value=1, max_value=65).flatmap(perms))
    @settings(deadline=None)
    def test_random_permutations_up_to_65_strands(self, p):
        assert garside.perm_inv(bytes(p)) == bytes(perm_inv(p))
        assert garside.perm_flip(bytes(p)) == bytes(perm_flip(p))

    def test_inverse_of_every_factor_up_to_five_strands(self):
        # Delta^k A for every permutation braid A other than the identity
        # and Delta, at both parities of k.
        for n in range(2, 6):
            for p in itertools.permutations(range(n)):
                if p in (perm_identity(n), perm_longest(n)):
                    continue
                for k in (-1, 0, 1, 2):
                    nf = GarsideNormalForm(n, k, (bytes(p),))
                    assert inverse(nf) == reference.inverse(nf)
                    w = compose(power(delta(n), k), BraidWord(n, tuple(reference.factor_word(p))))
                    assert inverse(nf) == reference.normal_form(invert(w))

    @given(sized_words(2, 65, 60), st.integers(min_value=-3, max_value=3))
    @settings(deadline=None)
    def test_inverse_up_to_65_strands(self, w, k):
        nf = normal_form(w)
        nf = GarsideNormalForm(nf.strands, nf.infimum + k, nf.factors)
        assert inverse(nf) == reference.inverse(nf)


# Example counts follow the hypothesis profile (see conftest.py), so these
# run harder in CI than locally.
class TestArithmeticOnNormalForms:
    @given(word_pairs(60))
    @settings(deadline=None)
    def test_product(self, pair):
        a, b = pair
        nf = product(normal_form(a), normal_form(b))
        assert nf == normal_form(compose(a, b))
        assert nf == reference.normal_form(compose(a, b))
        assert is_left_weighted(nf)

    @given(st.integers(min_value=6, max_value=16).flatmap(
        lambda n: st.tuples(words(n, 40), words(n, 40))
    ))
    @settings(deadline=None)
    def test_product_cancels_a_right_factor(self, pair):
        # Cancelling u carries Delta down the combs, where most generator
        # moves are.
        w, u = pair
        nf = product(normal_form(compose(w, u)), inverse(normal_form(u)))
        assert nf == normal_form(w)
        assert nf == reference.normal_form(w)

    @given(sized_words(2, 12, 60))
    @settings(deadline=None)
    def test_inverse(self, w):
        nf = inverse(normal_form(w))
        assert nf == normal_form(invert(w))
        assert nf == reference.normal_form(invert(w))
        assert is_left_weighted(nf)

    @given(st.one_of(words_and_letters(), starting_letters()))
    # Left cancellation at an even and an odd Delta power (j = i and
    # j = n-i); at a first factor equal to sigma_j, which it empties and
    # drops; and after a right comb that makes a Delta, so that j is taken
    # after it.
    @example((BraidWord(5, (1,)), 1))
    @example((BraidWord(5, (-1,)), 2))
    @example((BraidWord(4, (2,)), 2))
    @example((BraidWord(3, (2, 2, 1)), 2))
    # A negative letter whose sigma_i ends the last factor, at an even and
    # an odd Delta power, and last factors that are exactly sigma_i.
    @example((BraidWord(4, (1, 2)), -2))
    @example((BraidWord(4, (1, 2, 1, 3, 2, 1, 1, 2)), -2))
    @example((BraidWord(5, (3,)), -3))
    @example((BraidWord(4, (1, 2, 1, 3, 2, 1, 3)), -3))
    @settings(deadline=None)
    def test_conjugate_by_letter(self, case):
        w, letter = case
        s = BraidWord(w.strands, (letter,))
        expected = normal_form(compose_all([invert(s), w, s]))
        nf = conjugate(normal_form(w), s)
        assert nf == expected
        assert nf == reference.normal_form(compose_all([invert(s), w, s]))
        assert is_left_weighted(nf)

    @given(st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.tuples(words(n, 60), words(n, 6))
    ))
    @settings(deadline=None)
    def test_conjugate_by_word(self, pair):
        w, s = pair
        nf = conjugate(normal_form(w), s)
        assert nf == normal_form(compose_all([invert(s), w, s]))

    @given(sized_words(2, 12, 60))
    @settings(deadline=None)
    def test_product_with_inverse_is_trivial(self, w):
        a = normal_form(w)
        assert product(a, inverse(a)) == GarsideNormalForm(w.strands, 0, ())
        assert product(inverse(a), a) == GarsideNormalForm(w.strands, 0, ())

    @given(word_pairs(30))
    @settings(deadline=None)
    def test_product_word_is_the_concatenation(self, pair):
        a, b = pair
        expansion = product(normal_form(a), normal_form(b)).to_word()
        assert is_trivial_handle_reduction(compose(expansion, invert(compose(a, b))))
