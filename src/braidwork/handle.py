"""
Dehornoy handle reduction: an independent word-problem oracle.

A sigma_i-handle is a subword sigma_i^e v sigma_i^-e whose interior v only
uses generators of index > i. Reducing it removes the bracketing pair and
rewrites each interior sigma_{i+1}^f as sigma_{i+1}^-e sigma_i^f
sigma_{i+1}^e. We always reduce the first handle that closes in a left to
right scan, so the reduced handle never contains another handle. A fully
reduced nonempty word is sigma-positive or sigma-negative in its lowest
index and therefore represents a nontrivial braid; a word is trivial iff
reduction ends with the empty word.

One step budget, DEFAULT_BUDGET handle reductions per word, guards
against pathological blowup; exceeding it raises ReductionBudgetExceeded.
No caller falls back to normal forms: the attacks' lift through the shift
returns None, so the attack's check fails, and the benchmark's oracle
counts the word as nontrivial.

The shift preimage tests the word's strand crossings before it reduces:
no word in sigma_2.. crosses strand 0, so every element of the image of
the shift, the subgroup they generate, leaves strand 0 at position 0 with
a net crossing count of 0 against every other strand (`words.crossings`
is a braid invariant). A word that fails this is turned down in O(len)
without a reduction.
"""

from __future__ import annotations

from .words import BraidWord, crossings, unshift

DEFAULT_BUDGET = 10**6


class ReductionBudgetExceeded(Exception):
    """The word needed more than DEFAULT_BUDGET handle reductions."""


def handle_reduce(a: BraidWord) -> BraidWord:
    """Fully handle-reduce a word, returning an equal handle-free word."""
    budget = DEFAULT_BUDGET
    letters = list(a.letters)
    steps = 0
    k = 0
    while k < len(letters):
        x = letters[k]
        i = abs(x)
        # Find the nearest earlier letter of index <= i.
        j = k - 1
        while j >= 0 and abs(letters[j]) > i:
            j -= 1
        if j >= 0 and letters[j] == -x:
            # Handle letters[j..k]; rewrite the interior.
            e = 1 if letters[j] > 0 else -1
            replacement: list[int] = []
            for t in letters[j + 1 : k]:
                if abs(t) == i + 1:
                    f = 1 if t > 0 else -1
                    replacement.extend((-e * (i + 1), f * i, e * (i + 1)))
                else:
                    replacement.append(t)
            letters[j : k + 1] = replacement
            steps += 1
            if steps > budget:
                raise ReductionBudgetExceeded(
                    f"exceeded {budget} handle reductions on a word of length {len(a)}"
                )
            k = j
        else:
            k += 1
    return BraidWord(a.strands, tuple(letters))


def is_trivial_handle_reduction(a: BraidWord) -> bool:
    """Whether the word represents the identity, by handle reduction."""
    return len(handle_reduce(a)) == 0


def shift_preimage(a: BraidWord) -> BraidWord:
    """
    Undo the index-shift endomorphism on an element (not just a literal
    image word): fully reduce first, since an element of the subgroup
    generated by sigma_2.. is exactly one whose reduced word is
    sigma_1-free, then strip the shift letter by letter.

    Raises ValueError if the element is not in the image of the shift:
    before any reduction if strand 0 ends away from position 0 or crosses
    some other strand a nonzero net number of times, else if sigma_1
    letters survive reduction.
    """
    at, counts = crossings(a)
    # Strand 0's pair with strand b is counted at index 0 * n + b.
    if at[0] != 0 or any(counts[1 : a.strands]):
        raise ValueError("element is not in the image of the index shift")
    reduced = handle_reduce(a)
    try:
        return unshift(reduced)
    except ValueError:
        raise ValueError("element is not in the image of the index shift")
