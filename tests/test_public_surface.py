"""The lazy package surfaces: every public name as before, loaded on first read."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages whose ``__init__`` re-exports through ``repro._lazy``.
LAZY_PACKAGES = [
    "repro",
    "repro.core",
    "repro.experiments",
    "repro.faults",
    "repro.integrity",
    "repro.metrics",
    "repro.overload",
    "repro.workload",
]

#: Leaf modules a package still imports eagerly (the buffer cache needs them).
EAGER = {"repro.integrity": {"repro.integrity.checksum", "repro.integrity.errors"}}


def _fresh(code: str):
    """Run ``code`` in a new interpreter; returns the JSON it prints last."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_public_name_resolves_to_its_defining_object(name):
    package = importlib.import_module(name)
    # Load every submodule first: one named like a public name (the
    # function repro.experiments.sweep) must not take that name over.
    for info in pkgutil.iter_modules(package.__path__, name + "."):
        importlib.import_module(info.name)
    assert set(package._LAZY) <= set(package.__all__)
    listed = dir(package)
    for public in package.__all__:
        value = getattr(package, public)
        home = package._LAZY.get(public)
        if home is not None:
            assert value is getattr(importlib.import_module(home), public), public
        assert public in listed


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_names_raise_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_binds_every_public_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_importing_a_surface_loads_none_of_its_modules(name):
    loaded = _fresh(
        f"import json, sys, {name}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    )
    assert set(loaded) == {"repro", "repro._lazy", name} | EAGER.get(name, set())


def test_every_kind_resolves_after_a_bare_import():
    names = _fresh(
        "import json, repro\n"
        "from repro.experiments import EXPERIMENT_KINDS, kind\n"
        "print(json.dumps([kind(name).name for name in EXPERIMENT_KINDS]))"
    )
    from repro.experiments import EXPERIMENT_KINDS

    assert names == list(EXPERIMENT_KINDS)
