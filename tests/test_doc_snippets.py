"""The ``run(ExperimentSpec)`` snippets in the docs stay runnable.

Every ```python block in ``README.md`` and ``docs/*.md`` that builds an
:class:`~repro.experiments.ExperimentSpec` is executed with ``run``
replaced by a stub: the spec must name a registered kind and carry that
kind's params type (or ``None``), so a snippet written against an old
spec form fails here instead of in a reader's terminal.
"""

import pathlib
import re
from unittest import mock

import pytest

import repro.experiments
from repro.experiments import ExperimentSpec, kind

ROOT = pathlib.Path(__file__).resolve().parent.parent
_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _snippets():
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for index, block in enumerate(_BLOCK.findall(path.read_text())):
            if "ExperimentSpec(" in block:
                yield pytest.param(block, id=f"{path.name}#{index}")


SNIPPETS = list(_snippets())


def _stub_run(spec):
    assert isinstance(spec, ExperimentSpec)
    params = kind(spec.kind).params
    assert spec.config is None or isinstance(spec.config, params), (
        f"kind={spec.kind!r} snippet passes {type(spec.config).__name__}, "
        f"not {params.__name__}"
    )
    return mock.MagicMock(name=f"{spec.kind} result")


def test_snippets_found():
    assert len(SNIPPETS) >= 8


@pytest.mark.parametrize("source", SNIPPETS)
def test_snippet_builds_a_valid_spec(source, monkeypatch):
    calls = []

    def run(spec):
        calls.append(spec)
        return _stub_run(spec)

    monkeypatch.setattr(repro.experiments, "run", run)
    exec(compile(source, "<doc snippet>", "exec"), {"print": lambda *args: None})
    assert calls, "snippet builds an ExperimentSpec but never runs it"
