import pytest
from hypothesis import given, settings, strategies as st

from braidwork import handle
from braidwork.garside import is_trivial, rewrite, words_equal
from braidwork.handle import (
    ReductionBudgetExceeded,
    handle_reduce,
    is_trivial_handle_reduction,
    shift_preimage,
)
from braidwork.words import (
    BraidWord,
    compose,
    compose_all,
    generator,
    identity,
    invert,
    shift,
    unshift,
)


def words(n: int, max_len: int = 10):
    nonzero = st.integers(min_value=1, max_value=n - 1).flatmap(
        lambda i: st.sampled_from([i, -i])
    )
    return st.lists(nonzero, max_size=max_len).map(
        lambda ls: BraidWord(n, tuple(ls))
    )


class TestHandleReduce:
    def test_identity_fixed(self):
        assert handle_reduce(identity(3)) == identity(3)

    def test_simple_handle(self):
        assert handle_reduce(BraidWord(3, (1, -1))) == identity(3)

    def test_nested_handle(self):
        w = BraidWord(3, (1, 2, -1))
        assert words_equal(handle_reduce(w), w)

    @given(words(4))
    @settings(max_examples=80)
    def test_preserves_element(self, w):
        assert words_equal(handle_reduce(w), w)

    @given(words(4))
    @settings(max_examples=80)
    def test_output_has_no_main_handle(self, w):
        out = handle_reduce(w)
        signs = {1 if x > 0 else -1 for x in out.letters if abs(x) == 1}
        assert len(signs) <= 1

    def test_budget(self):
        w = BraidWord(4, (1, 2, -1, 3, -2, 1, -3))
        with pytest.raises(ReductionBudgetExceeded):
            handle_reduce(w, budget=1)


class TestTrivialityOracle:
    @given(words(4))
    @settings(max_examples=150)
    def test_agrees_with_normal_form(self, w):
        assert is_trivial_handle_reduction(w) == is_trivial(w)

    @given(words(4, 6))
    @settings(max_examples=50)
    def test_commutator_with_inverse(self, w):
        assert is_trivial_handle_reduction(compose(w, invert(w)))

    @given(
        st.integers(min_value=2, max_value=12).flatmap(lambda n: words(n, 40))
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_normal_form_up_to_twelve_strands(self, w):
        assert is_trivial_handle_reduction(w) == is_trivial(w)

    @given(
        st.integers(min_value=2, max_value=12).flatmap(lambda n: words(n, 40))
    )
    @settings(max_examples=100, deadline=None)
    def test_word_times_inverse_rewrite_is_trivial(self, u):
        w = compose(u, invert(rewrite(u)))
        assert is_trivial_handle_reduction(w)
        assert is_trivial(w)


class TestShiftPreimage:
    @given(words(4, 6))
    @settings(max_examples=60)
    def test_recovers_shifted_element(self, w):
        pre = shift_preimage(shift(w))
        assert words_equal(pre, w)

    def test_recovers_through_disguise(self):
        w = BraidWord(3, (2, -1, 2))
        disguised = compose(BraidWord(4, (1, -1)), shift(w))
        assert words_equal(shift_preimage(disguised), w)

    def test_rejects_non_image(self):
        with pytest.raises(ValueError):
            shift_preimage(BraidWord(3, (1,)))

    @pytest.fixture
    def reductions(self, monkeypatch):
        """The words shift_preimage hands to handle reduction."""
        reduced = []

        def counting_reduce(word):
            reduced.append(word)
            return handle_reduce(word)

        monkeypatch.setattr(handle, "handle_reduce", counting_reduce)
        return reduced

    def test_crossings_turn_a_pure_braid_down_without_reducing(self, reductions):
        # sigma_1^2 leaves strand 0 at position 0, but crosses it twice with
        # strand 1, which no word in sigma_2.. does.
        with pytest.raises(ValueError):
            shift_preimage(BraidWord(3, (1, 1)))
        assert reductions == []

    def test_disguised_member_still_lifts(self, reductions):
        # sigma_1 sigma_2 sigma_1 sigma_2^-1 sigma_1^-1 = sigma_2: its sigma_1
        # letters cross strand 0 with strand 1 once each way.
        disguised = BraidWord(3, (1, 2, 1, -2, -1))
        assert words_equal(shift_preimage(disguised), generator(2, 1))
        assert reductions == [disguised]

    @staticmethod
    def assert_agrees_with_reduction(w):
        # The crossing pre-check turns a word down exactly when full
        # reduction would, and otherwise the result is the same element.
        try:
            expected = unshift(handle_reduce(w))
        except ValueError:
            with pytest.raises(ValueError):
                shift_preimage(w)
            return
        assert words_equal(shift_preimage(w), expected)

    @given(st.integers(min_value=3, max_value=6).flatmap(lambda n: words(n, 20)))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_reduction(self, w):
        self.assert_agrees_with_reduction(w)

    @given(
        st.integers(min_value=3, max_value=6).flatmap(
            lambda n: st.tuples(words(n - 1, 12), words(n, 8), st.integers(0, 12))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_reduction_on_disguised_members(self, case):
        # Members of the shift image spelt with sigma_1 letters: the normal
        # form's spelling, and a trivial word u . rewrite(u)^-1 inserted.
        w, u, k = case
        image = shift(w)
        head = BraidWord(image.strands, image.letters[:k])
        tail = BraidWord(image.strands, image.letters[k:])
        for member in (
            rewrite(image),
            compose_all([head, u, invert(rewrite(u)), tail]),
        ):
            self.assert_agrees_with_reduction(member)
            assert words_equal(shift_preimage(member), w)

    def test_unshift_is_syntactic_counterpart(self):
        w = BraidWord(4, (2, 3))
        assert unshift(w) == BraidWord(3, (1, 2))
