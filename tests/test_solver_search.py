"""Differential tests against `solver_reference`: the meet-in-the-middle
exhaustive search against the enumerating loop, its closed-form ranks
against positions in `enumerate_products`, the descent against the one that
recomputed its lookahead, and the solvers' setup by normal-form arithmetic
against the setup that normalised each word."""

import pytest
import solver_reference as reference
from hypothesis import example, given, settings, strategies as st

from braidwork import solvers
from braidwork.garside import commutes_by_support, conjugate, normal_form, rewrite
from braidwork.solvers import (
    SolverConfig,
    _lex_rank,
    _setup,
    _words_of_length,
    solve_exhaustive,
    solve_length_descent,
)
from braidwork.subgroups import SubgroupSpec
from braidwork.words import (
    BraidWord,
    compose,
    compose_all,
    delta,
    enumerate_products,
    invert,
    power,
)

# The longest length bound per symbol count that keeps the reference's whole
# enumeration under a thousand words.
MAX_LENGTH = {2: 9, 4: 5, 6: 4, 8: 3}


def letters(strands: int, min_size: int, max_size: int):
    nonzero = st.integers(min_value=1, max_value=strands - 1).flatmap(
        lambda i: st.sampled_from([i, -i])
    )
    return st.lists(nonzero, min_size=min_size, max_size=max_size).map(tuple)


def full_twist(strands: int, generators) -> BraidWord:
    """(sigma_lo..sigma_hi)^(hi - lo + 2), the full twist of the strands the
    generators' letters span: central in the subgroup they generate, and
    not shown to commute with it by generator supports unless it is a
    Delta^2 power on every strand."""
    used = [abs(x) for g in generators for x in g]
    lo, hi = min(used), max(used)
    return BraidWord(strands, tuple(range(lo, hi + 1)) * (hi - lo + 2))


@st.composite
def searches(draw):
    """An instance with a planted conjugator, a config, and how many matches
    the extra check turns down (None: no extra check)."""
    n = draw(st.integers(min_value=3, max_value=8))
    # The alphabet may live on fewer strands than the pairs.
    alphabet_strands = draw(st.integers(min_value=2, max_value=n))
    generators = draw(st.lists(letters(alphabet_strands, 1, 3), min_size=1, max_size=4))
    if len(generators) < 4 and draw(st.booleans()):
        generators.append(draw(st.sampled_from(generators)))
    alphabet = SubgroupSpec(
        "drawn", alphabet_strands, tuple(BraidWord(alphabet_strands, g) for g in generators)
    )
    symbols = []
    for g in alphabet.generators:
        symbols += [g.letters, invert(g).letters]
    max_length = draw(st.integers(min_value=0, max_value=MAX_LENGTH[len(symbols)]))
    # Secrets near the bound rank deep in the order; one symbol longer is
    # out of reach, unless a shorter word also solves the instance.
    secret = draw(
        st.lists(
            st.integers(0, len(symbols) - 1),
            min_size=max(max_length - 1, 0),
            max_size=max_length + 1,
        )
    )
    g = BraidWord(n, tuple(x for k in secret for x in symbols[k]))
    post = None
    if draw(st.booleans()):
        t = BraidWord(n, draw(letters(n, 1, 3)))
        g, post = compose(g, t), invert(t)
    probes = draw(st.lists(letters(n, 0, 5), min_size=1, max_size=3))
    pairs = [
        (x, rewrite(compose_all([g, x, invert(g)])))
        for x in (BraidWord(n, p) for p in probes)
    ]
    # Sometimes a pair every word solves: (g^-1 c g, c) for the full twist
    # c, which the coset factor takes to (c, c). The setup drops it, by
    # conjugation unless c is Delta^2 on every strand, and the reference
    # conjugates it by every word.
    if draw(st.booleans()):
        c = full_twist(n, generators)
        pair = (rewrite(compose_all([invert(g), c, g])), c)
        pairs.insert(draw(st.integers(min_value=0, max_value=len(pairs))), pair)
    # Rejecting many matches walks past the words that solve every pair
    # trivially, e.g. when each probe commutes with the alphabet.
    few, many = st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=60)
    rejects = draw(st.none() | few | many)
    instance = reference.word_instance(tuple(pairs), alphabet, post)
    return instance, SolverConfig(max_length, alphabet), rejects


def run(search, instance, config, rejects):
    """The report, and every candidate the extra check was asked about."""
    seen = []

    def extra_check(g):
        seen.append(g)
        return len(seen) > rejects

    report = search(instance, config, None if rejects is None else extra_check)
    return report, seen


def no_match(pair, alphabet, max_length):
    """A case of one word pair that no word of the alphabet conjugates."""
    x, y = (BraidWord(alphabet.strands, w) for w in pair)
    return reference.word_instance(((x, y),), alphabet), SolverConfig(max_length, alphabet), None


SIGMA_1_2 = SubgroupSpec("sigma_1,sigma_2", 4, (BraidWord(4, (1,)), BraidWord(4, (2,))))


# Example counts follow the hypothesis profile (see conftest.py). The
# examples take the search's two ways past a head: sigma_2 sigma_3 and
# sigma_2^-1 sigma_3^-1 induce one permutation, which a word in sigma_1 and
# sigma_2 of odd length conjugates to one no even-length word does, so at
# odd lengths every head's permutation misses the table; sigma_1 and
# sigma_1^-1 induce one permutation too, so heads hit its buckets, whose
# tails' forms all differ from theirs.
@given(searches())
@example(no_match(((2, 3), (-2, -3)), SIGMA_1_2, 4))
@example(no_match(((1,), (-1,)), SIGMA_1_2, 4))
@settings(deadline=None)
def test_search_matches_the_reference(case):
    instance, config, rejects = case
    total = sum(1 for _ in enumerate_products(config.alphabet.generators, config.max_length))
    first, _ = run(reference._candidate_loop, instance, config, rejects)
    budgets = {0, 1, total, total + 1}
    if first.solved:
        rank = first.candidates_tested
        budgets |= {rank - 1, rank, rank + 1}
    for budget in sorted(budgets):
        bounded = SolverConfig(config.max_length, config.alphabet, budget)
        expected = run(reference._candidate_loop, instance, bounded, rejects)
        got = run(solve_exhaustive, instance, bounded, rejects)
        assert got == expected
        assert got[0].to_record() == expected[0].to_record()


@pytest.mark.parametrize("m", (2, 4, 6))
def test_closed_form_rank_is_the_enumeration_position(m):
    n = m // 2 + 1
    generators = [BraidWord(n, (i,)) for i in range(1, n)]
    symbol = {}
    for i in range(1, n):
        symbol[i], symbol[-i] = 2 * i - 2, 2 * i - 1
    counts = [0] * 5
    for position, word in enumerate(enumerate_products(generators, 4), start=1):
        seq = tuple(symbol[x] for x in word.letters)
        shorter = sum(_words_of_length(m, j) for j in range(len(seq)))
        assert shorter + _lex_rank(seq, m) + 1 == position
        counts[len(seq)] += 1
    assert counts == [_words_of_length(m, j) for j in range(5)]


def test_extra_check_sees_every_word_in_canonical_order():
    # sigma_5 commutes with the alphabet, so every word solves the pair,
    # and an extra check that turns every word down is asked about each.
    # With a coset factor t = p^-1 on more strands than the alphabet, the
    # pair is (p.sigma_6.p^-1, sigma_6): word.t solves it for every word,
    # and the check still sees the enumerated words on the alphabet's strands.
    alphabet = SubgroupSpec("s1,s2s1", 4, (BraidWord(4, (1,)), BraidWord(4, (2, 1))))
    p = BraidWord(7, (5, 4, -6))
    sigma_6 = BraidWord(7, (6,))
    instances = (
        reference.word_instance(((BraidWord(6, (5,)), BraidWord(6, (5,))),), alphabet),
        reference.word_instance(
            ((rewrite(compose_all([p, sigma_6, invert(p)])), sigma_6),), alphabet, p
        ),
    )
    words = list(enumerate_products(alphabet.generators, 4))
    assert {w.strands for w in words} == {alphabet.strands}
    for instance in instances:
        seen = []
        report = solve_exhaustive(instance, SolverConfig(4), lambda w: seen.append(w) and False)
        assert seen == words
        assert (report.status, report.candidates_tested) == ("exhausted", len(seen))
        # The report's solution is the accepted word times the coset factor.
        report = solve_exhaustive(instance, SolverConfig(4), lambda w: len(w) == 3)
        post = instance.post_transform
        t = BraidWord(instance.strands) if post is None else invert(post)
        assert report.raw_word == next(w for w in words if len(w) == 3)
        assert report.solution == compose(report.raw_word, t)
        assert all(report.per_pair)


def test_the_budget_sets_the_deepest_table(monkeypatch):
    # Six symbols: lengths 0, 1, 2 hold 1, 6 and 30 words, so the
    # budget reaches length 3 (table of length 1, six words) only
    # above 37, and length 4 (table of thirty) only above 187.
    monkeypatch.setattr(solvers, "MAX_TABLE_ENTRIES", 6)
    alphabet = SubgroupSpec("s1..s3", 4, tuple(BraidWord(4, (i,)) for i in (1, 2, 3)))
    instance = reference.word_instance(((BraidWord(4, (1,)), BraidWord(4, (2,))),), alphabet)
    for budget in (37, 38, 187):
        solve_exhaustive(instance, SolverConfig(4, budget=budget))
    with pytest.raises(ValueError, match="cap"):
        solve_exhaustive(instance, SolverConfig(4, budget=188))
    solve_exhaustive(instance, SolverConfig(3, budget=10**15))


@st.composite
def descents(draw):
    """An instance and a descent config. The right-hand sides are either
    conjugates by a planted word, possibly with a coset factor, or drawn
    words, which leave the descent at local minima, where its lookahead
    runs. The alphabet and the coset factor may live on fewer strands
    than the pairs."""
    n = draw(st.integers(min_value=3, max_value=6))
    alphabet_strands = draw(st.integers(min_value=2, max_value=n))
    generators = draw(st.lists(letters(alphabet_strands, 1, 2), min_size=1, max_size=3))
    alphabet = SubgroupSpec(
        "drawn", alphabet_strands, tuple(BraidWord(alphabet_strands, g) for g in generators)
    )
    secret = draw(st.lists(st.sampled_from(alphabet.generators), max_size=6))
    g = compose_all([BraidWord(n)] + [w.embed(n) for w in secret])
    post = None
    if draw(st.booleans()):
        m = draw(st.integers(min_value=2, max_value=n))
        t = BraidWord(m, draw(letters(m, 0, 3)))
        g, post = compose(g, t), invert(t)
    probes = draw(st.lists(letters(n, 0, 4), min_size=1, max_size=3))
    xs = [BraidWord(n, p) for p in probes]
    if draw(st.booleans()):
        ys = [compose_all([g, x, invert(g)]) for x in xs]
    else:
        ys = [BraidWord(n, draw(letters(n, 0, 6))) for _ in xs]
    pairs = [(x, rewrite(y)) for x, y in zip(xs, ys)]
    # Sometimes a pair (c, c) with c central in the alphabet's subgroup:
    # at least 2 from every letter, with Delta^2 powers, which supports
    # show, or the full twist of the strands its letters span, which only a
    # conjugation by each generator shows. Unless a coset factor moves c,
    # every word solves it, and the setup drops it; the reference costs it
    # at every state, so equal reports check that dropping it changes
    # nothing.
    used = {abs(x) for g in generators for x in g}
    far = [j for j in range(1, n) if all(abs(j - i) >= 2 for i in used)]
    if draw(st.booleans()):
        c = full_twist(n, generators)
        if far and draw(st.booleans()):
            c = compose(
                power(delta(n), 2 * draw(st.integers(min_value=-1, max_value=1))),
                BraidWord(n, (draw(st.sampled_from(far)),) * draw(st.integers(1, 3))),
            )
        pairs.insert(draw(st.integers(min_value=0, max_value=len(pairs))), (c, c))
    config = SolverConfig(
        draw(st.integers(min_value=0, max_value=5)),
        restarts=draw(st.integers(min_value=0, max_value=3)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    return reference.word_instance(tuple(pairs), alphabet, post), config


@given(descents())
@settings(deadline=None)
def test_descent_matches_the_reference(case):
    instance, config = case
    got = solve_length_descent(instance, config)
    expected = reference.solve_length_descent(instance, config)
    assert got == expected
    assert got.to_record() == expected.to_record()


@given(descents())
@settings(deadline=None)
def test_setup_by_arithmetic_matches_the_word_setup(case):
    # The setup keeps the word setup's pairs less exactly those with equal
    # sides that a conjugation by each generator fixes, or the last pair
    # when that is every pair.
    instance, config = case
    n, alphabet, t, pairs = _setup(instance, config)
    ref_n, ref_alphabet, ref_t, xs, ys = reference._setup(instance, config)
    assert (n, alphabet, t) == (ref_n, ref_alphabet, ref_t)
    every = list(zip(xs, ys))
    kept = [
        (x, y)
        for x, y in every
        if x != y or any(conjugate(y, g) != y for g in alphabet.generators)
    ]
    assert pairs == (kept or every[-1:])


def test_setup_drops_the_pairs_every_word_solves(monkeypatch):
    # sigma_2 sigma_1^2 sigma_2 is Delta^2 sigma_1^-2 on 3 strands, so it
    # commutes with sigma_1, but its factors use sigma_2: only arithmetic
    # shows it. sigma_6 is at least 2 from sigma_1..sigma_3, which supports
    # show with no conjugation, and so does the np-form of sigma_4^-1 on 5
    # strands, Delta^-1 times one factor that uses every generator, for
    # sigma_1 and sigma_2. (sigma_2, sigma_1 sigma_2 sigma_1^-1) is solved
    # by sigma_1 alone, and kept. When every pair is dropped, the last is
    # kept.
    calls = []

    def counting_conjugate(a, s):
        calls.append(s)
        return conjugate(a, s)

    monkeypatch.setattr(solvers, "conjugate", counting_conjugate)

    def setup_pairs(pairs, strands, letters):
        alphabet = SubgroupSpec(
            "drawn", strands, tuple(BraidWord(strands, (i,)) for i in letters)
        )
        words = tuple((BraidWord(strands, x), BraidWord(strands, y)) for x, y in pairs)
        instance = reference.word_instance(words, alphabet)
        calls.clear()
        return _setup(instance, SolverConfig(3))[3], instance.forms

    twisted = (2, 1, 1, 2)
    assert not commutes_by_support(normal_form(BraidWord(3, twisted)), {1})
    kept, forms = setup_pairs(((twisted, twisted), ((2,), (1, 2, -1))), 3, (1,))
    assert kept == list(forms[1:])
    assert len(calls) == 1
    kept, forms = setup_pairs((((6,), (6,)), ((2,), (1, 2, -1))), 7, (1, 2, 3))
    assert kept == list(forms[1:])
    assert calls == []
    kept, forms = setup_pairs((((-4,), (-4,)), ((2,), (1, 2, -1))), 5, (1, 2))
    assert forms[0][1].infimum == -1
    assert kept == list(forms[1:])
    assert calls == []
    kept, forms = setup_pairs((((6,), (6,)), (twisted, twisted)), 7, (1,))
    assert kept == list(forms[1:])
