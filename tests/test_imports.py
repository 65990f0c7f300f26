"""Start-up cost: importing the package loads nothing a run may not use.

The thread pool, the subprocess machinery and a UUID generator serve only
pooled runs and ``exec:`` targets, and an HTTP client serves only the
HTTP explain backend; each is imported where it is used.  Every check
runs in a fresh interpreter and compares against a bare one, so modules
the interpreter loads at start-up on its own do not count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

POOL_AND_SPAWN = {"concurrent.futures", "subprocess", "uuid"}
HTTP_CLIENT = {"requests", "urllib.request", "http.client"}


def _loaded_by(code: str) -> set[str]:
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout
    return set(json.loads(out))


@pytest.fixture(scope="module")
def bare() -> set[str]:
    return _loaded_by("")


@pytest.mark.parametrize(
    "code, absent",
    [
        (
            "import conffuzz.campaign, conffuzz.triage, conffuzz.gnb_validator",
            POOL_AND_SPAWN,
        ),
        ("import conffuzz.cli", POOL_AND_SPAWN | HTTP_CLIENT),
    ],
    ids=["campaign-triage-validator", "cli"],
)
def test_import_adds_no_unused_machinery(bare, code, absent):
    added = _loaded_by(code) - bare
    assert "conffuzz" in added
    assert sorted(added & absent) == []
