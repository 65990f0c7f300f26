"""Imports: what the package loads, and what its modules export and share.

The thread pool serves only pooled runs, the subprocess machinery only
``exec:`` targets, and an HTTP client only the HTTP explain backend; each
is imported where it is used.  Nothing in the package imports ``uuid``;
it stays in ``POOL_AND_SPAWN`` so that a start-up path that loads it
again fails here.  Every start-up
check runs in a fresh interpreter and compares against a bare one, so
modules the interpreter loads at start-up on its own do not count.

Every name a module lists in ``__all__`` must exist, and no module of the
package imports an underscore-prefixed name from a sibling: what modules
share is public.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

from conftest import GRAMMAR_PATH, REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "conffuzz"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

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


def test_single_worker_run_loads_no_pool(bare, tmp_path):
    code = (
        "from conffuzz.campaign import CampaignConfig, run_campaign\n"
        "from conffuzz.target import TargetSpec\n"
        f"run_campaign(CampaignConfig({str(GRAMMAR_PATH)!r}, "
        f"TargetSpec.parse('builtin:gnb-validator'), {str(tmp_path / 'out')!r}, "
        "max_execs=300))"
    )
    added = _loaded_by(code) - bare
    assert "conffuzz.campaign" in added
    assert sorted(added & POOL_AND_SPAWN) == []
    assert json.loads((tmp_path / "out" / "stats.json").read_text())["execs"] == 300


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"conffuzz.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _sibling_imports(tree: ast.Module):
    """(module, name) for each ``from .x import name`` or
    ``from conffuzz.x import name``; ``from . import x`` gives ("", x)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module != "conffuzz" and not module.startswith("conffuzz."):
                continue
            module = module.removeprefix("conffuzz").lstrip(".")
        for alias in node.names:
            yield module, alias.name


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_private_imports_between_modules(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    private = [
        f"{module}.{imported}" if module else imported
        for module, imported in _sibling_imports(tree)
        if imported.startswith("_") or module.startswith("_")
    ]
    assert private == []


def _private_top_level_names(tree: ast.Module):
    """Underscore-prefixed, non-dunder functions, classes and constants
    bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_private_names_are_used_in_their_module(name):
    # nothing outside a module may use its private names, so one that its
    # own module never reads is dead code
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = [n for n in _private_top_level_names(tree) if n not in read]
    assert unused == []
