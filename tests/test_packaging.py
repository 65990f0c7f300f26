"""The distribution ``pyproject.toml`` declares: ``pip show conffuzz`` and
``pip uninstall conffuzz`` find what ``pip install .`` installs only when
the project is named after the package, and the two versions agree."""

import sys

import pytest

import conffuzz
from conftest import REPO_ROOT


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
def test_project_is_named_and_versioned_as_the_package():
    import tomllib

    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["name"] == "conffuzz"
    assert project["version"] == conffuzz.__version__
