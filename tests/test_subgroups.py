import pytest

from braidwork.garside import nf_key, words_equal
from braidwork.subgroups import (
    SubgroupSpec,
    centralizer_search,
    elements_commute,
    interval_generators,
    noncommuting_witness,
    sets_commute,
)
from braidwork.words import BraidWord, delta, generator, identity, power


def singleton(name: str, w: BraidWord) -> SubgroupSpec:
    return SubgroupSpec(name, w.strands, (w,))


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
        elements = centralizer_search(target, 1, interval_generators(4, 1, 3))
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
        elements = centralizer_search(target, 1, interval_generators(4, 1, 3))
        assert [nf_key(w) for w in elements[:3]] == [
            nf_key(power(delta(4), 2)),
            nf_key(generator(4, 3)),
            nf_key(identity(4)),
        ]
        assert len({nf_key(w) for w in elements}) == len(elements)

    def test_disjoint_support_rule_fires(self):
        # At length 0 the search finds only the identity.
        target = singleton("sigma1", generator(5, 1))
        elements = centralizer_search(target, 0, interval_generators(5, 1, 4))
        assert [nf_key(w) for w in elements] == [
            nf_key(power(delta(5), 2)),
            nf_key(generator(5, 3)),
            nf_key(generator(5, 4)),
            nf_key(identity(5)),
        ]

    def test_all_found_elements_commute(self):
        target = SubgroupSpec("pair", 4, (BraidWord(4, (1, 2)),))
        elements = centralizer_search(target, 2, interval_generators(4, 1, 3))
        for w in elements:
            assert elements_commute(w, target.generators[0])

    def test_near_central_target_yields_only_central_search_hits(self):
        # sigma1^2 sigma2 in B3 has centralizer generated by itself and the
        # center, so nothing of alphabet length <= 2 except the identity
        # commutes with it via search; the Delta^2 rule still fires.
        target = SubgroupSpec("bulk", 3, (BraidWord(3, (1, 1, 2)),))
        elements = centralizer_search(target, 2, interval_generators(3, 1, 2))
        d2 = power(delta(3), 2)
        for w in elements:
            assert elements_commute(w, target.generators[0])
            assert words_equal(w, identity(3)) or words_equal(w, d2)

    def test_negative_length_rejected(self):
        target = singleton("sigma1", generator(4, 1))
        with pytest.raises(ValueError):
            centralizer_search(target, -1, interval_generators(4, 1, 3))
