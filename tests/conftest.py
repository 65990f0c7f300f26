import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from conffuzz import mutate
from conffuzz.grammar import DEFAULT_MAX_DEPTH, Grammar, parse_grammar

REPO_ROOT = Path(__file__).resolve().parents[1]
GRAMMAR_PATH = REPO_ROOT / "grammars" / "gnb.json"
TABLE1_DIR = REPO_ROOT / "fixtures" / "table1"
EXPLAIN_DIR = REPO_ROOT / "fixtures" / "explain"


@contextmanager
def forced(kind):
    """``mutate.random_mutation`` drawing ``kind`` alone: its draw table is
    the one the weights ``{kind: 1}`` gave, a total of 1 and running sums
    of 0.0 before ``kind`` and 1.0 from it on, so the draw still takes one
    ``rng.random()`` and every later draw from ``rng`` is as before."""
    steps, acc = [], 0.0
    for k in mutate.MutationKind:
        acc += k is kind
        steps.append((acc, k))
    saved = mutate._DEFAULT_DRAW
    mutate._DEFAULT_DRAW = (1, tuple(steps))
    try:
        yield
    finally:
        mutate._DEFAULT_DRAW = saved


def mutation(
    t, g, rng, kind=None, *, donor=None, max_depth=DEFAULT_MAX_DEPTH, memo=None
):
    """``mutate.random_mutation`` with ``t`` as its own donor and a fresh
    memo unless they are given; ``kind``, when given, is drawn alone."""
    if kind is not None:
        with forced(kind):
            return mutation(t, g, rng, donor=donor, max_depth=max_depth, memo=memo)
    return mutate.random_mutation(
        t,
        g,
        rng,
        donor=t if donor is None else donor,
        max_depth=max_depth,
        memo={} if memo is None else memo,
    )


@pytest.fixture(scope="session")
def gnb_grammar() -> Grammar:
    return parse_grammar(GRAMMAR_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def table1_dir() -> Path:
    return TABLE1_DIR


@pytest.fixture(scope="session")
def explain_dir() -> Path:
    return EXPLAIN_DIR


def on_threads(work) -> None:
    """``work(worker)`` for four workers at once on threads, switching
    between threads as often as they can; a test that shares a cache
    between them empties it first."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
