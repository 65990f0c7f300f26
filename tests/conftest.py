import sys
import threading
from pathlib import Path

import pytest

from conffuzz.grammar import Grammar, parse_grammar

REPO_ROOT = Path(__file__).resolve().parents[1]
GRAMMAR_PATH = REPO_ROOT / "grammars" / "gnb.json"
TABLE1_DIR = REPO_ROOT / "fixtures" / "table1"
EXPLAIN_DIR = REPO_ROOT / "fixtures" / "explain"


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
