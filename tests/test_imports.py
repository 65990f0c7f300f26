"""Imports: what the package loads, and what its modules export and share.

A module imports at top level only what every run of it uses.  The
thread pool serves only pooled runs, the subprocess, temp-file and path
machinery only ``exec:`` targets, the hash only crash keys, and an HTTP
client only the HTTP explain backend; each is imported where it is used,
and no module of the validator's start-up loads ``typing``.  Nothing in
the package imports ``uuid``; it stays in ``POOL_AND_SPAWN`` so that a
start-up path that loads it again fails here.  The records are named
tuples and plain classes on one base, ``conffuzz.record.Record``, so no
start-up, the ``exec:`` validator's included, pays for ``dataclasses``
and the ``inspect`` it pulls in.  Every start-up check runs in a fresh
interpreter and compares against a bare one, so modules the interpreter
loads at start-up on its own do not count; the validator's own start-up
is also measured under ``-S``, where no site hook preloads modules into
the bare one.

Every record class subclasses ``Record``, the one place that writes a
record's ``__setattr__``, ``__delattr__``, ``__repr__`` and
``__reduce__``.  Every bounded cache stores through ``cache.keep``, the
one place that empties a cache.

Every name a module lists in ``__all__`` must exist and be read by the
system itself (the package or the benchmark), and no module of the
package imports an underscore-prefixed name from a sibling: what modules
share is public.  Each module reads every name its top-level imports
bind.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

from conffuzz.record import Record
from conftest import GRAMMAR_PATH, REPO_ROOT
from test_records import FROZEN

PACKAGE = REPO_ROOT / "src" / "conffuzz"
PERFBENCH = REPO_ROOT / "perfbench"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

POOL_AND_SPAWN = {"concurrent.futures", "subprocess", "uuid"}
HTTP_CLIENT = {"requests", "urllib.request", "http.client"}
RECORD_MACHINERY = {"dataclasses", "inspect"}
EXEC_ONLY = {"tempfile", "shutil", "pathlib", "hashlib", "typing"}


def _loaded_by(code: str, *flags: str) -> set[str]:
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run(
        [sys.executable, *flags, "-c", probe],
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
            POOL_AND_SPAWN | RECORD_MACHINERY,
        ),
        ("import conffuzz.cli", POOL_AND_SPAWN | HTTP_CLIENT | RECORD_MACHINERY),
        # what each ``exec:`` run of the standalone validator imports
        ("import conffuzz.gnb_validator", POOL_AND_SPAWN | RECORD_MACHINERY),
    ],
    ids=["campaign-triage-validator", "cli", "validator"],
)
def test_import_adds_no_unused_machinery(bare, code, absent):
    added = _loaded_by(code) - bare
    assert "conffuzz" in added
    assert sorted(added & absent) == []


def test_validator_start_up_loads_no_exec_machinery():
    # what each ``exec:`` run of the standalone validator imports, with no
    # site hook: a site-packages ``.pth`` file may load these on its own
    added = _loaded_by("import conffuzz.gnb_validator", "-S") - _loaded_by("", "-S")
    assert "conffuzz.gnb_validator" in added
    assert sorted(added & EXEC_ONLY) == []


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


RECORD_METHODS = {"__setattr__", "__delattr__", "__repr__", "__reduce__"}


def test_records_share_one_base():
    # a record's methods are written once, so the next record cannot copy
    # them again
    written = [
        f"{path.stem}.{node.name}"
        for path in PACKAGE.glob("*.py")
        if path.stem != "record"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in RECORD_METHODS
    ]
    assert written == []
    classes = [case[0] for case in FROZEN if not issubclass(case[0], tuple)]
    assert [cls.__name__ for cls in classes if not issubclass(cls, Record)] == []


def test_only_the_cache_rule_empties_a_cache():
    # each cache's bound and emptying follow one rule, written once: no
    # other module empties a cache or drops one of its entries
    cleared = [
        f"{path.stem}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        if path.stem != "cache"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("clear", "popitem")
    ]
    assert cleared == []


def _top_level_imports(tree: ast.Module):
    """Each name a module-level import binds; ``__future__`` binds none."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_every_imported_name_is_read_in_its_module(name):
    # an import nothing reads costs start-up time and misleads the reader
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    read.update(node.value for node in _exports(tree))
    unread = [n for n in _top_level_imports(tree) if n not in read]
    assert unread == []


def _entry_points() -> set[str]:
    """``module.attr`` of each ``[project.scripts]`` entry point."""
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    targets = re.findall(r'=\s*"conffuzz\.([^"]+)"', section)
    return {target.replace(":", ".") for target in targets}


def _exports(tree: ast.Module) -> list[ast.expr]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return node.value.elts
    return []


def _names_read(tree: ast.Module, skip: set[ast.AST]) -> set[str]:
    """Loaded names, attributes, imported names and string constants (the
    benchmark looks some bindings up by name), except the nodes in skip."""
    out = set()
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_exported_name_is_read_by_the_system():
    # a public name that only tests use is a second surface to keep up
    files = [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    exports = {p.stem: _exports(t) for p, t in trees.items() if p.parent == PACKAGE}
    listed = {node for nodes in exports.values() for node in nodes}
    read = set().union(*(_names_read(t, listed) for t in trees.values()))
    dead = {
        f"{module}.{node.value}"
        for module, nodes in exports.items()
        for node in nodes
        if node.value not in read
    }
    assert sorted(dead - _entry_points()) == []
