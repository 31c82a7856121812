import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from braidwork import protocols
from braidwork.garside import neighbours, nf_key, normal_form, words_equal
from braidwork.subgroups import (
    SubgroupSpec,
    centralizer_search,
    elements_commute,
    interval_generators,
    letter_support,
    noncommuting_witness,
    sets_commute,
)
from braidwork.words import BraidWord, compose, delta, generator, identity, power


def singleton(name: str, w: BraidWord) -> SubgroupSpec:
    return SubgroupSpec(name, w.strands, (w,))


@st.composite
def windowed_words(draw):
    """A word on 2..8 strands, of length <= 8 with inverses, whose letters lie
    in a drawn window of indices: two such words often have far, adjacent
    or overlapping supports, and the empty word is the identity."""
    n = draw(st.integers(min_value=2, max_value=8))
    lo = draw(st.integers(min_value=1, max_value=n - 1))
    hi = draw(st.integers(min_value=lo, max_value=n - 1))
    index = st.integers(min_value=lo, max_value=hi)
    letters = draw(st.lists(st.tuples(index, st.booleans()), max_size=8))
    return BraidWord(n, tuple(-i if inv else i for i, inv in letters))


class TestSubgroupSpec:
    def test_interval_generators(self):
        spec = interval_generators(6, 2, 4)
        assert spec.strands == 6
        assert spec.name == "sigma[2..4]"
        assert [w.letters for w in spec.generators] == [(2,), (3,), (4,)]

    def test_interval_rejects_bad_range(self):
        with pytest.raises(ValueError):
            interval_generators(4, 3, 2)
        with pytest.raises(ValueError):
            interval_generators(4, 1, 4)

    def test_spec_requires_generators(self):
        with pytest.raises(ValueError):
            SubgroupSpec("empty", 3, ())

    def test_spec_embeds_generators(self):
        spec = SubgroupSpec("mixed", 4, (BraidWord(2, (1,)),))
        assert spec.generators[0].strands == 4

    def test_record_roundtrip(self):
        spec = interval_generators(5, 1, 3)
        assert SubgroupSpec.from_record(spec.to_record()) == spec


class TestCommutation:
    def test_far_generators_commute(self):
        assert elements_commute(generator(4, 1), generator(4, 3))

    def test_adjacent_generators_do_not(self):
        assert not elements_commute(generator(4, 1), generator(4, 2))

    def test_disjoint_intervals_commute(self):
        assert sets_commute(interval_generators(6, 1, 2), interval_generators(6, 4, 5))

    def test_touching_intervals_give_witness(self):
        witness = noncommuting_witness(
            interval_generators(6, 1, 3), interval_generators(6, 3, 5)
        )
        assert witness is not None
        a, b = witness
        assert not elements_commute(a, b)

    @given(windowed_words(), windowed_words())
    @example(BraidWord(8, (1, -2, 1)), BraidWord(5, (4, -4)))  # far, 4 and 8 strands
    @example(BraidWord(4, (1, 1)), BraidWord(4, (-2,)))  # adjacent
    @example(BraidWord(5, (2, 3)), BraidWord(5, (3,)))  # overlapping
    @example(BraidWord(3, (1, 2, 1)), BraidWord(3, (1,)))  # overlapping, commuting
    @example(identity(2), BraidWord(6, (5, -1)))
    def test_matches_normal_forms(self, a, b):
        assert elements_commute(a, b) == words_equal(compose(a, b), compose(b, a))

    def test_far_intervals_need_no_normal_form(self):
        before = normal_form.cache_info()
        assert sets_commute(interval_generators(9, 1, 3), interval_generators(9, 5, 8))
        assert normal_form.cache_info() == before  # no call, so no miss

    def test_powers_of_one_generator_need_no_normal_form(self):
        # No letter index of either side is next to one of the other's:
        # sigma_1 commutes with sigma_1 and with sigma_3. The supports decide
        # it, in either order, by the rule `commutes_by_support` applies to
        # normal forms.
        before = normal_form.cache_info()
        a, b = BraidWord(5, (1, 3, -1)), BraidWord(5, (-1, -1))
        assert elements_commute(a, b) and elements_commute(b, a)
        assert normal_form.cache_info() == before  # no call, so no miss
        assert words_equal(compose(a, b), compose(b, a))

    @pytest.mark.parametrize("n", range(4, 11))
    def test_sets_commute_agrees_with_witness_on_intervals(self, n):
        specs = [
            interval_generators(n, lo, hi)
            for lo in range(1, n)
            for hi in range(lo, n)
        ]
        for a, b in itertools.product(specs, repeat=2):
            assert sets_commute(a, b) == (noncommuting_witness(a, b) is None), (a.name, b.name)

    @pytest.mark.parametrize("preset", protocols.KA_PRESETS)
    def test_sets_commute_agrees_with_witness_on_preset_conditions(self, preset, monkeypatch):
        compared = []

        def recording(a, b):
            compared.append((a, b))
            return sets_commute(a, b)

        monkeypatch.setattr(protocols, "sets_commute", recording)
        for n in sorted({protocols.MIN_STRANDS[preset], 8, 9}):
            for seed in range(3):
                protocols.validate_conditions(protocols.make_preset(preset, n, seed=seed))
        assert compared
        for a, b in compared:
            assert sets_commute(a, b) == (noncommuting_witness(a, b) is None), (a.name, b.name)
        # Some pair is not decided by supports alone, so the pairwise walk runs too.
        assert any(
            not letter_support(*b.generators).isdisjoint(neighbours(letter_support(*a.generators)))
            for a, b in compared
        )

    def test_commuting_sets_have_no_witness(self):
        assert (
            noncommuting_witness(
                interval_generators(6, 1, 2), interval_generators(6, 4, 5)
            )
            is None
        )


class TestCentralizerSearch:
    def test_sigma1_in_b4_contains_known_elements(self):
        target = singleton("sigma1", generator(4, 1))
        elements = centralizer_search(target, 1)
        keys = {nf_key(w) for w in elements}
        assert nf_key(generator(4, 1)) in keys
        assert nf_key(generator(4, 3)) in keys
        assert nf_key(power(delta(4), 2)) in keys
        assert nf_key(identity(4)) in keys
        assert nf_key(generator(4, 2)) not in keys

    def test_rules_precede_search(self):
        # Rules Delta^2 and sigma3 first, then the search hits in enumeration
        # order (the identity first), each element once.
        target = singleton("sigma1", generator(4, 1))
        elements = centralizer_search(target, 1)
        assert [nf_key(w) for w in elements[:3]] == [
            nf_key(power(delta(4), 2)),
            nf_key(generator(4, 3)),
            nf_key(identity(4)),
        ]
        assert len({nf_key(w) for w in elements}) == len(elements)

    def test_disjoint_support_rule_fires(self):
        # At length 0 the search finds only the identity.
        target = singleton("sigma1", generator(5, 1))
        elements = centralizer_search(target, 0)
        assert [nf_key(w) for w in elements] == [
            nf_key(power(delta(5), 2)),
            nf_key(generator(5, 3)),
            nf_key(generator(5, 4)),
            nf_key(identity(5)),
        ]

    def test_all_found_elements_commute(self):
        target = SubgroupSpec("pair", 4, (BraidWord(4, (1, 2)),))
        elements = centralizer_search(target, 2)
        for w in elements:
            assert elements_commute(w, target.generators[0])

    def test_near_central_target_yields_only_central_search_hits(self):
        # sigma1^2 sigma2 in B3 has centralizer generated by itself and the
        # center, so nothing of alphabet length <= 2 except the identity
        # commutes with it via search; the Delta^2 rule still fires.
        target = SubgroupSpec("bulk", 3, (BraidWord(3, (1, 1, 2)),))
        elements = centralizer_search(target, 2)
        d2 = power(delta(3), 2)
        for w in elements:
            assert elements_commute(w, target.generators[0])
            assert words_equal(w, identity(3)) or words_equal(w, d2)

    @settings(deadline=None)
    @given(data=st.data())
    def test_delta_squared_is_always_first(self, data):
        # The callers' probe lists are never empty because of this.
        n = data.draw(st.integers(min_value=2, max_value=7))
        letter = st.integers(min_value=1 - n, max_value=n - 1).filter(bool)
        word = st.lists(letter, max_size=6).map(lambda ls: BraidWord(n, tuple(ls)))
        target = SubgroupSpec("target", n, tuple(data.draw(st.lists(word, min_size=1, max_size=3))))
        elements = centralizer_search(target, data.draw(st.integers(min_value=0, max_value=1)))
        assert elements[0] == power(delta(n), 2)

    def test_negative_length_rejected(self):
        target = singleton("sigma1", generator(4, 1))
        with pytest.raises(ValueError):
            centralizer_search(target, -1)
