"""Source guards for the kernel's one way of arming a timer.

A modelled delay that only runs a plain callback is a timer entry
(``env.call_later``).  A ``Timeout`` exists for a process to yield; one
built only to append a callback to it costs an event, a list and a
closure for nothing, so no module of ``repro`` may do that.
"""

import ast
import inspect
from pathlib import Path

import repro
from repro.fs.ufs import Ufs
from repro.server.cpu import Cpu

SRC = Path(repro.__file__).resolve().parent


def _is_timeout_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "timeout"
    )


def _callbacks_append_target(node):
    """``X`` when ``node`` is a call ``X.callbacks.append(...)``, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "append"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "callbacks"
    ):
        return node.func.value.value
    return None


def timeouts_used_only_as_timers(source):
    """Line numbers where a ``.timeout(...)`` is built only to append to
    its ``.callbacks``: chained directly, or bound to a name whose every
    use is ``name.callbacks.append(...)``."""
    tree = ast.parse(source)
    found = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        timers = {}
        for node in ast.walk(scope):
            target = _callbacks_append_target(node)
            if target is not None and _is_timeout_call(target):
                found.append(node.lineno)
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_timeout_call(node.value)
            ):
                timers[node.targets[0].id] = node.lineno
        if not timers:
            continue
        uses = {name: 0 for name in timers}
        appends = {name: 0 for name in timers}
        for node in ast.walk(scope):
            if isinstance(node, ast.Name) and node.id in uses and isinstance(node.ctx, ast.Load):
                uses[node.id] += 1
            target = _callbacks_append_target(node)
            if isinstance(target, ast.Name) and target.id in appends:
                appends[target.id] += 1
        found.extend(
            line for name, line in timers.items() if uses[name] and uses[name] == appends[name]
        )
    return sorted(set(found))


def test_guard_finds_both_shapes_and_spares_yielded_timeouts():
    source = (
        "def chained(env, cb):\n"
        "    env.timeout(1).callbacks.append(cb)\n"
        "def bound(env, cb):\n"
        "    timer = env.timeout(1)\n"
        "    timer.callbacks.append(cb)\n"
        "def yielded(env, cb):\n"
        "    timer = env.timeout(1)\n"
        "    timer.callbacks.append(cb)\n"
        "    yield timer\n"
        "def raced(env, other):\n"
        "    yield env.any_of([env.timeout(1), other])\n"
    )
    assert timeouts_used_only_as_timers(source) == [2, 4]


def test_no_module_builds_a_timeout_only_to_append_a_callback():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for line in timeouts_used_only_as_timers(path.read_text()):
            offenders.append(f"{path.relative_to(SRC)}:{line}")
    assert offenders == [], "use env.call_later(delay, callback, arg) instead: " + ", ".join(
        offenders
    )


def test_cpu_holds_are_events_not_generators():
    # One idiom: callers ``yield cpu.consume(seconds)``.
    assert not inspect.isgeneratorfunction(Cpu.consume)
    assert not inspect.isgeneratorfunction(Ufs._charge)
