import itertools
import random
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from garside_reference import finishing_set, is_left_weighted, perm_mul, starting_set
from braidwork import garside
from braidwork.garside import (
    GarsideNormalForm,
    canonical_length,
    commutes_by_support,
    conjugate,
    embed,
    factor_word,
    inverse,
    is_trivial,
    nf_key,
    normal_form,
    perm_flip,
    perm_identity,
    perm_inv,
    perm_longest,
    perm_transposition,
    permutation,
    product,
    rewrite,
    words_equal,
)
from braidwork.words import (
    BraidWord,
    compose,
    crossings,
    delta,
    generator,
    identity,
    invert,
    power,
)


def words(n: int, max_len: int = 8):
    nonzero = st.integers(min_value=1, max_value=n - 1).flatmap(
        lambda i: st.sampled_from([i, -i])
    )
    return st.lists(nonzero, max_size=max_len).map(
        lambda ls: BraidWord(n, tuple(ls))
    )


def all_permutation_braids(n: int):
    return [bytes(p) for p in itertools.permutations(range(n))]


def oracle_is_permutation_factor_pair_left_weighted(a, b) -> bool:
    """Brute-force oracle: (a, b) is left-weighted iff no generator can be
    transferred from the front of b to the back of a."""
    return not (starting_set(b) - finishing_set(a))


class TestPermOps:
    def test_mul_applies_left_first(self):
        s1 = perm_transposition(3, 1)
        s2 = perm_transposition(3, 2)
        # sigma1 then sigma2 sends position 0 to 2
        assert perm_mul(s1, s2) == (2, 0, 1)

    def test_inverse(self):
        for p in all_permutation_braids(4):
            assert bytes(perm_mul(p, perm_inv(p))) == perm_identity(4)

    def test_flip_is_delta_conjugation(self):
        d = delta(4)
        for i in range(1, 4):
            s = perm_transposition(4, i)
            conj = compose(invert(d), compose(generator(4, i), d))
            assert words_equal(
                BraidWord(4, tuple(factor_word(perm_flip(s)))), conj
            )

    def test_starting_set_of_transposition(self):
        assert starting_set(perm_transposition(5, 3)) == {3}

    def test_factor_word_roundtrip(self):
        for p in all_permutation_braids(4):
            q = perm_identity(4)
            for i in factor_word(p):
                q = perm_mul(q, perm_transposition(4, i))
            assert bytes(q) == p


class TestNormalForm:
    def test_identity(self):
        nf = normal_form(identity(4))
        assert nf == GarsideNormalForm(4, 0, ())

    def test_delta_in_b3(self):
        nf = normal_form(delta(3))
        assert nf.infimum == 1 and nf.factors == ()

    def test_single_generator(self):
        nf = normal_form(generator(3, 2))
        assert nf.infimum == 0
        assert nf.factors == (perm_transposition(3, 2),)

    def test_sigma2_sigma1_single_factor(self):
        nf = normal_form(BraidWord(3, (2, 1)))
        assert nf.infimum == 0 and len(nf.factors) == 1
        assert is_left_weighted(nf)

    def test_sigma1_sigma3_commuting_factor(self):
        nf = normal_form(BraidWord(4, (1, 3)))
        assert nf.infimum == 0 and len(nf.factors) == 1

    def test_negative_generator(self):
        nf = normal_form(generator(3, -1))
        assert nf.infimum == -1 and len(nf.factors) == 1

    def test_packing_carries_the_parity_as_mirrored_letters(self, monkeypatch):
        # A factor packed under an odd Delta power is packed from mirrored
        # letters, and a negative factor closes as the reversed list, so
        # normal_form itself neither flips nor inverts a permutation. The
        # right comb still flips; the pair step inverts by translation
        # tables of its own, so nothing on this path calls perm_inv.
        rng = random.Random(5)
        callers = {"perm_flip": [], "perm_inv": []}

        def counting(kernel, calls):
            def call(p):
                # The calling function, past any comprehension's frame.
                frame = sys._getframe(1)
                while frame.f_code.co_name.startswith("<"):
                    frame = frame.f_back
                calls.append(frame.f_code.co_name)
                return kernel(p)

            return call

        for name, calls in callers.items():
            monkeypatch.setattr(garside, name, counting(getattr(garside, name), calls))
        normal_form.cache_clear()
        garside._left_weight_pair.cache_clear()
        for n in (3, 5, 6, 9):
            for k in (-1, 0, 1):
                for _ in range(20):
                    letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(30)]
                    normal_form(compose(power(delta(n), k), BraidWord(n, tuple(letters))))
        assert "normal_form" not in callers["perm_flip"] + callers["perm_inv"]
        assert set(callers["perm_flip"]) == {"_comb_right"}
        assert callers["perm_inv"] == []

    @given(words(4))
    @settings(max_examples=60)
    def test_output_is_left_weighted(self, w):
        assert is_left_weighted(normal_form(w))

    @given(words(4))
    @settings(max_examples=60)
    def test_left_weighted_against_oracle(self, w):
        nf = normal_form(w)
        for a, b in zip(nf.factors, nf.factors[1:]):
            assert oracle_is_permutation_factor_pair_left_weighted(a, b)

    @given(words(5, 6))
    @settings(max_examples=60)
    def test_to_word_is_faithful(self, w):
        assert normal_form(normal_form(w).to_word()) == normal_form(w)

    def test_canonical_length_matches_exhaustive_factorisations(self):
        # Oracle: l(w) for a positive braid is the least number of
        # permutation braids whose product is w.
        w = BraidWord(4, (1, 3))
        target = normal_form(w)
        singles = [
            p
            for p in all_permutation_braids(4)
            if p != perm_identity(4)
            and normal_form(BraidWord(4, tuple(factor_word(p)))) == target
        ]
        assert singles, "expected a one-factor expression for sigma1 sigma3"
        assert canonical_length(w) == 1


class TestEquality:
    def test_braid_relation(self):
        assert words_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))

    def test_far_commutation(self):
        assert words_equal(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))

    def test_non_equal(self):
        assert not words_equal(BraidWord(3, (1,)), BraidWord(3, (2,)))

    def test_reconciles_strands(self):
        assert words_equal(BraidWord(2, (1,)), BraidWord(4, (1,)))

    @given(words(4), words(4))
    @settings(max_examples=40)
    def test_conjugation_preserves_triviality(self, w, c):
        conj = compose(c, compose(w, invert(c)))
        assert is_trivial(conj) == is_trivial(w)

    @given(words(4, 6))
    @settings(max_examples=40)
    def test_nf_key_is_equality_key(self, w):
        assert nf_key(w) == nf_key(rewrite(w))
        assert words_equal(w, rewrite(w))

    def test_nf_key_with_ambient_strands(self):
        assert nf_key(BraidWord(2, (1,)), strands=4) == nf_key(BraidWord(4, (1,)))


class TestRewrite:
    def test_idempotent(self):
        w = BraidWord(4, (1, -2, 3, 3, -1))
        assert rewrite(rewrite(w)) == rewrite(w)

    def test_kills_cancellation(self):
        assert rewrite(BraidWord(3, (1, -1))) == identity(3)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_to_word_spells_delta_powers(self, n):
        for k in range(-3, 4):
            assert GarsideNormalForm(n, k, ()).to_word() == power(delta(n), k)


class TestArithmetic:
    def test_product_carries_delta_in_closed_form(self, monkeypatch):
        # NF(w u) . NF(u)^-1 cancels u, and the cancelled Deltas are carried
        # down the combs. Normal-form factors are never Delta, so a pair step
        # with Delta on the right could only be a step of that carry.
        rng = random.Random(3)
        w, u = (
            BraidWord(9, tuple(rng.choice([1, -1]) * rng.randint(1, 8) for _ in range(80)))
            for _ in range(2)
        )
        a, b = normal_form(compose(w, u)), inverse(normal_form(u))
        expected = normal_form(w)
        steps = []
        kernel = garside._left_weight_pair
        monkeypatch.setattr(
            garside, "_left_weight_pair", lambda x, y: steps.append(y) or kernel(x, y)
        )
        assert product(a, b) == expected
        assert sum(y == perm_longest(9) for y in steps) == 0
        assert len(steps) == 33

    def test_conjugate_cancels_a_starting_letter(self, monkeypatch):
        # a starts with sigma_4, so sigma_4^-1 . a . sigma_4 cancels it from
        # the first factor and combs the rest of that factor in. Writing
        # sigma_4^-1 as Delta^-1 . (Delta sigma_4^-1) instead takes one more
        # pair step: the one that turns the first factor into Delta.
        rng = random.Random(3)
        w = BraidWord(9, (4,) + tuple(rng.randint(1, 8) for _ in range(60)))
        a, s = normal_form(w), generator(9, 4)
        expected = normal_form(compose(invert(s), compose(w, s)))
        ident, w0 = perm_identity(9), perm_longest(9)
        steps = []
        kernel = garside._left_weight_pair
        monkeypatch.setattr(
            garside, "_left_weight_pair", lambda x, y: steps.append(y) or kernel(x, y)
        )
        assert conjugate(a, s) == expected
        cancelling = len(steps)
        steps.clear()
        factors = list(a.factors)
        infimum = a.infimum + garside._comb_right(factors, perm_transposition(9, 4), ident, w0)
        infimum -= 1
        infimum += garside._comb_left(factors, garside._delta_sigma_inverse(9, 4), ident, w0)
        assert GarsideNormalForm(9, infimum, tuple(factors)) == expected
        assert cancelling == 10
        assert len(steps) == cancelling + 1

    def test_product_rejects_other_strand_counts(self):
        a, b = normal_form(BraidWord(4, (1, -3))), normal_form(BraidWord(6, (5, 2)))
        with pytest.raises(ValueError, match="4 and 6 strands"):
            product(a, b)
        with pytest.raises(ValueError, match="6 and 4 strands"):
            product(b, a)

    def test_conjugate_rejects_a_word_on_more_strands(self):
        a = normal_form(BraidWord(4, (1, -3)))
        with pytest.raises(ValueError, match="4 strands by a word on 6"):
            conjugate(a, BraidWord(6, (5,)))
        # Fewer strands is the inclusion B_4 < B_6.
        a6, s = normal_form(a.to_word().embed(6)), BraidWord(4, (3, -1))
        assert conjugate(a6, s) == conjugate(a6, s.embed(6))


# Words with inverses on m strands, after a prefix Delta_m^k, so that both
# signs of the infimum come up; then a larger strand count n.
@st.composite
def embeddings(draw):
    m = draw(st.integers(min_value=1, max_value=7))
    n = draw(st.integers(min_value=m, max_value=9))
    if m == 1:
        return identity(1), n
    k = draw(st.integers(min_value=-3, max_value=3))
    return compose(power(delta(m), k), draw(words(m, 12))), n


class TestEmbed:
    # Example counts follow the hypothesis profile (see conftest.py).
    @given(embeddings())
    @settings(deadline=None)
    def test_matches_normal_form_of_embedded_word(self, case):
        w, n = case
        assert embed(normal_form(w), n) == normal_form(w.embed(n))

    def test_same_strand_count_is_unchanged(self):
        a = normal_form(BraidWord(4, (-1, 2, -3)))
        assert embed(a, 4) is a

    def test_rejects_fewer_strands(self):
        with pytest.raises(ValueError, match="4 strands into B_3"):
            embed(normal_form(BraidWord(4, (3,))), 3)


class TestPermutation:
    # Example counts follow the hypothesis profile (see conftest.py). The
    # examples fix both parities of a negative Delta power, which embed
    # multiplies in rather than pads.
    @given(embeddings())
    @example((compose(power(delta(4), -3), BraidWord(4, (1, -2))), 6))
    @example((compose(power(delta(3), -2), BraidWord(3, (2,))), 5))
    @settings(deadline=None)
    def test_matches_the_crossings_of_the_word(self, case):
        # `words.crossings` follows each strand letter by letter, with no
        # Garside arithmetic, and gives the inverse image: the strand at
        # each position, where `permutation` gives the position of each
        # strand.
        w, n = case
        assert perm_inv(permutation(normal_form(w))) == crossings(w)[0]
        assert perm_inv(permutation(embed(normal_form(w), n))) == crossings(w.embed(n))[0]


# A Delta_m power times a word in a drawn set of generators of B_m, so that
# supports often decide commutation, as a normal form on its m strands or
# padded to more; and a set of letters, up to one past its strand count.
@st.composite
def supported_forms(draw):
    m = draw(st.integers(min_value=2, max_value=7))
    used = sorted(draw(st.sets(st.integers(min_value=1, max_value=m - 1), max_size=3)))
    letters = st.sampled_from(used).flatmap(lambda i: st.sampled_from([i, -i])) if used else None
    word = BraidWord(m, tuple(draw(st.lists(letters, max_size=6)) if used else ()))
    a = normal_form(compose(power(delta(m), draw(st.integers(min_value=-3, max_value=3))), word))
    if draw(st.booleans()):
        a = embed(a, draw(st.integers(min_value=m, max_value=9)))
    tested = draw(st.sets(st.integers(min_value=1, max_value=a.strands), max_size=3))
    return a, tested


class TestCommutesBySupport:
    # Example counts follow the hypothesis profile (see conftest.py).
    @given(supported_forms())
    @example((normal_form(power(delta(4), 2)), {1, 2, 3}))  # Delta^2, no factor
    @example((normal_form(power(delta(4), -2)), {2}))
    @example((embed(normal_form(power(delta(3), 2)), 6), {4, 5}))  # padded
    @example((normal_form(power(delta(3), 2)), {3}))  # central in B_3 only
    @example((normal_form(BraidWord(5, (2, 2, 2))), {2, 4}))  # a generator of its own
    @example((normal_form(delta(4)), set()))  # odd power
    @settings(deadline=None)
    def test_a_commuting_letter_fixes_the_form(self, case):
        a, letters = case
        says = commutes_by_support(a, letters)
        if says:
            n = max(a.strands, *(i + 1 for i in letters)) if letters else a.strands
            padded = embed(a, n)
            for i in letters:
                assert conjugate(padded, generator(n, i)) == padded

    def test_decides_the_cases_it_is_built_for(self):
        twist = normal_form(power(delta(4), 2))
        assert commutes_by_support(twist, {1, 2, 3, 5})
        assert not commutes_by_support(twist, {4})
        # A letter may be a generator the form uses, but not next to one.
        assert commutes_by_support(normal_form(BraidWord(6, (5, 5, 5))), {1, 2, 3, 5})
        assert commutes_by_support(normal_form(BraidWord(6, (2, 2, 5))), {2, 5})
        assert not commutes_by_support(normal_form(BraidWord(6, (2, 2, 5))), {4})
        assert commutes_by_support(normal_form(BraidWord(6, (5, -5, 2))), {2, 4})
        # sigma_1 is Delta_2, an odd power: never decided, though it commutes.
        assert not commutes_by_support(normal_form(delta(2)), {1})

    def test_reads_supports_off_the_np_form(self):
        # sigma_4^-1 on 7 strands is Delta^-1 times one factor that uses
        # every generator; its np-form is N^-1 with N = sigma_4, so it
        # commutes with sigma_1, sigma_2 and sigma_6 but not sigma_5. Left
        # unflipped, N would read sigma_3 and pass sigma_5.
        a = normal_form(BraidWord(7, (-4,)))
        assert (a.infimum, len(a.factors)) == (-1, 1)
        assert commutes_by_support(a, {1, 2, 4, 6})
        assert not commutes_by_support(a, {5})
        assert not commutes_by_support(a, {3})
        # sigma_1^-1 sigma_2^-1 sigma_5^-1 is Delta^-1 times one factor, and
        # its np-form's N is sigma_5 sigma_2 sigma_1: it commutes with sigma_5
        # alone.
        b = normal_form(BraidWord(6, (-1, -2, -5)))
        assert (b.infimum, len(b.factors)) == (-1, 1)
        assert commutes_by_support(b, {5})
        assert not any(commutes_by_support(b, {i}) for i in (1, 2, 3, 4))
        # Delta^-2 A_1 keeps the normal form's even power, which the
        # np-form's Delta^-1 N^-1 P loses: the union decides it.
        c = normal_form(compose(power(delta(4), -2), generator(4, 1)))
        assert (c.infimum, len(c.factors)) == (-2, 1)
        assert commutes_by_support(c, {1})

    @given(supported_forms())
    @settings(deadline=None)
    def test_the_np_form_multiplies_back(self, case):
        # Delta^e N^-1 P is a, where N is the first j factors of the np-form
        # and P the rest, both positive normal forms of infimum 0.
        a, _ = case
        assume(a.infimum < 0 and a.factors)
        power, factors = garside._np_form(a)
        j = min(len(a.factors), -a.infimum)
        n = a.strands
        assert power == a.infimum + j
        assert factors[j:] == a.factors[j:]
        negative = GarsideNormalForm(n, 0, factors[:j])
        assert all(p not in (perm_identity(n), perm_longest(n)) for p in factors)
        twist = GarsideNormalForm(n, power, ())
        assert product(product(twist, inverse(negative)), GarsideNormalForm(n, 0, factors[j:])) == a

    @given(st.data())
    @settings(deadline=None)
    def test_a_word_commutes_with_the_letters_its_support_avoids(self, data):
        # Completeness on proper standard parabolic subgroups: w is drawn
        # over generators S, not all of them, and L avoids neighbours(S), so
        # w commutes with every sigma_i in L, and supports must show it.
        n = data.draw(st.integers(min_value=3, max_value=9))
        support = data.draw(
            st.sets(st.integers(min_value=1, max_value=n - 1), min_size=1, max_size=n - 2)
        )
        near = garside.neighbours(support)
        free = [i for i in range(1, n + 1) if i not in near]
        assume(free)
        letters = data.draw(st.sets(st.sampled_from(free), min_size=1))
        letter = st.sampled_from(sorted(support)).flatmap(lambda i: st.sampled_from([i, -i]))
        w = BraidWord(n, tuple(data.draw(st.lists(letter, max_size=12))))
        assert commutes_by_support(normal_form(w), letters)


def assert_factors_are_bytes(nf: GarsideNormalForm) -> GarsideNormalForm:
    # A tuple factor never equals a bytes factor, so one would make equal
    # braids compare unequal.
    assert all(type(p) is bytes and len(p) == nf.strands for p in nf.factors)
    return nf


@st.composite
def cancelling_conjugations(draw):
    """Delta^k sigma_j P sigma_i and the letter i or -i, with j = i, or n-i
    for odd k: conjugating by sigma_i can cancel sigma_j from the first
    factor, and by sigma_i^-1 can cancel sigma_i from the last."""
    n = draw(st.integers(min_value=2, max_value=12))
    k = draw(st.integers(min_value=-2, max_value=2))
    i = draw(st.integers(min_value=1, max_value=n - 1))
    j = n - i if k % 2 else i
    tail = draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=30))
    w = compose(power(delta(n), k), BraidWord(n, (j, *tail, i)))
    return w, BraidWord(n, (draw(st.sampled_from([i, -i])),))


class TestFactorsAreBytes:
    # Example counts follow the hypothesis profile (see conftest.py).
    @given(st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.tuples(words(n, 40), words(n, 40), st.integers(min_value=-3, max_value=3))
    ))
    @settings(deadline=None)
    def test_normal_form_product_and_inverse(self, case):
        w, u, k = case
        a = assert_factors_are_bytes(normal_form(compose(power(delta(w.strands), k), w)))
        b = assert_factors_are_bytes(normal_form(u))
        assert_factors_are_bytes(product(a, b))
        assert_factors_are_bytes(product(b, a))
        assert_factors_are_bytes(inverse(a))

    @given(cancelling_conjugations())
    @settings(deadline=None)
    def test_conjugate(self, case):
        w, s = case
        assert_factors_are_bytes(conjugate(normal_form(w), s))

    @given(embeddings())
    @settings(deadline=None)
    def test_embed(self, case):
        w, n = case
        assert_factors_are_bytes(embed(normal_form(w), n))

    def test_round_trip_at_65_strands(self):
        # One index shift above MAX_STRANDS = 64.
        rng = random.Random(65)

        def random_word(n, length):
            letters = (rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
            return BraidWord(n, tuple(letters))

        a = normal_form(compose(power(delta(65), -1), random_word(65, 400)))
        assert_factors_are_bytes(a)
        assert normal_form(a.to_word()) == a
        assert assert_factors_are_bytes(inverse(a)) == normal_form(invert(a.to_word()))
        assert product(a, inverse(a)) == GarsideNormalForm(65, 0, ())
        s = BraidWord(65, (3, -64, 1))
        assert assert_factors_are_bytes(conjugate(a, s)) == normal_form(
            compose(invert(s), compose(a.to_word(), s))
        )
        b = normal_form(random_word(64, 200))
        assert assert_factors_are_bytes(embed(b, 65)) == normal_form(b.to_word().embed(65))
