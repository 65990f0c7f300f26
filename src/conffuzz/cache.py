"""The memory rule that every bounded cache of the package follows.

A cache is a plain ``dict`` that its owner reads directly and stores into
only through ``keep``, with a bound on its entries: a cache that holds its
bound is emptied before a new key goes in, so it never holds more.  Each
cache holds only what can be worked out again, so emptying one changes
no result, only how often a result is worked out.  Each owner names its
cache's bound, and any bound on the size of what it keeps, beside it.
"""

__all__ = ["keep"]


def keep(cache: dict, key, value, bound: int):
    """The value ``cache`` keeps for ``key``: the one it holds already, or
    else ``value``, stored after emptying a cache that holds ``bound``
    entries."""
    if key not in cache:
        if len(cache) >= bound:
            cache.clear()
        cache[key] = value
    return cache[key]
