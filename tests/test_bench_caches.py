"""The benchmark empties every per-strand constant the library memoises.

`bench/run.py` empties each functools cache that its `library_caches` finds
in braidwork's modules before every op, so that ops run cold, as in a fresh
process. A constant memoised some other way would carry over from one op to
the next and make later ops cheaper than the first.
"""

import importlib.util
import pathlib

from braidwork import garside, words

RUN = pathlib.Path(__file__).resolve().parent.parent / "bench" / "run.py"

MEMOISED_CONSTANTS = [
    garside.perm_identity,
    garside.perm_longest,
    garside.perm_transposition,
    garside._delta_sigma_inverse,
    garside._mirror,
    garside._twist,
]


def library_caches() -> list:
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.library_caches()


def test_memoised_constants_are_emptied_before_each_op():
    caches = library_caches()
    missing = [f.__name__ for f in MEMOISED_CONSTANTS if not any(c is f for c in caches)]
    assert missing == []
    garside.conjugate(garside.normal_form(words.delta(5)), words.BraidWord(5, (2, -3))).to_word()
    for cache in caches:
        cache.cache_clear()
    assert [f.cache_info().currsize for f in MEMOISED_CONSTANTS] == [0] * len(MEMOISED_CONSTANTS)
