"""``cache.keep``: the one rule by which every bounded cache of the
package stores, and empties when it holds its bound."""

from hypothesis import given, settings, strategies as st

from conffuzz.cache import keep


def test_a_present_key_returns_the_kept_value_and_empties_nothing():
    # a value of None is kept like any other
    cache = {1: "a", 2: None}
    assert keep(cache, 2, "other", 2) is None
    assert keep(cache, 1, "other", 1) == "a"
    assert cache == {1: "a", 2: None}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=60), st.integers(1, 6))
def test_keeps_the_bound_and_answers_what_it_holds(keys, bound):
    cache: dict = {}
    for i, key in enumerate(keys):
        before = dict(cache)
        got = keep(cache, key, i, bound)
        assert len(cache) <= bound
        assert got == cache[key]
        if key in before:
            assert cache == before
        elif len(before) < bound:
            assert cache == {**before, key: i}
        else:
            assert cache == {key: i}
