"""Sited functions and their site-free twins: every function that calls
``checkpoint`` is registered, runs its twin with no controller installed
and its sited code under one."""

import ast
import functools
import importlib
import tomllib
from pathlib import Path

from depq import atomics
from depq.items import Arena
from depq.ordered_list import ListPair
from depq.sched import ControlledScheduler

SRC = Path(atomics.__file__).resolve().parent
#: Functions whose checkpoint lies only in a nested closure that runs under a
#: controller alone: ``run_stress``'s workers park at ``window-start``.
EXEMPT = {"depq.workload.run_stress"}


def names_checkpoint(fn) -> bool:
    return "checkpoint" in fn.__code__.co_names


def calls_checkpoint(node: ast.AST, nested: bool) -> bool:
    """Does ``node``'s body call ``checkpoint``, counting nested functions
    and lambdas only when ``nested``?"""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        child = todo.pop()
        if isinstance(child, ast.Call):
            func = child.func
            if (isinstance(func, ast.Name) and func.id == "checkpoint"
                    or isinstance(func, ast.Attribute) and func.attr == "checkpoint"):
                return True
        if nested or not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                            ast.Lambda)):
            todo.extend(ast.iter_child_nodes(child))
    return False


def source_functions():
    """Each top-level function and method of ``src/depq``: its dotted name,
    its function object and its ``def`` node."""
    for path in sorted(SRC.glob("*.py")):
        name = "depq" if path.stem == "__init__" else f"depq.{path.stem}"
        module = importlib.import_module(name)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{name}.{node.name}", getattr(module, node.name), node
            elif isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield (f"{name}.{node.name}.{member.name}",
                               cls.__dict__[member.name], member)


def test_controller_swaps_every_registered_function_to_its_sited_code():
    registered = [fn for fn, _sited, _twin in atomics._sited]
    assert registered
    assert not any(map(names_checkpoint, registered))
    with ControlledScheduler():
        assert all(map(names_checkpoint, registered))
    assert not any(map(names_checkpoint, registered))


def test_every_function_that_calls_checkpoint_is_registered():
    registered = {fn for fn, _sited, _twin in atomics._sited}
    unregistered = []
    for name, fn, node in source_functions():
        if not calls_checkpoint(node, nested=True) or fn in registered:
            continue
        if name in EXEMPT and not calls_checkpoint(node, nested=False):
            continue
        unregistered.append(name)
    assert unregistered == []
    assert len(registered) == len(atomics._sited)


def test_twins_keep_the_source_lines():
    for fn, sited, twin in atomics._sited:
        assert {line for *_, line in twin.co_lines()} <= \
            {line for *_, line in sited.co_lines()}, fn.__qualname__
        assert (twin.co_firstlineno, twin.co_flags) == (sited.co_firstlineno, sited.co_flags)


def test_a_wrapped_function_still_reaches_its_sites(monkeypatch):
    calls = []
    original = ListPair.insert

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(ListPair, "insert", wrapped)
    arena = Arena()
    lists = ListPair(arena)
    index = arena.new_item(5)
    with ControlledScheduler() as sched:
        sched.spawn("ins", lists.insert, index)
        sched.run_until("ins", "ins-cas")
        sched.run_until("ins", "between-list-inserts")
        sched.run_to_completion("ins")
    assert calls == [index]
    assert lists.suffix_keys(0) == [arena.item(index).key]


def test_only_atomics_reads_the_controller():
    # Whether a pause runs is decided in one place: every other module
    # pauses through ``checkpoint``, which its twin compiles out.
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "_controller"
                    or isinstance(node, ast.Attribute) and node.attr == "_controller"):
                readers.add(path.name)
    assert readers == {"atomics.py"}


def test_the_declared_python_floor_has_code_positions():
    # ``sited`` takes each block's last line from ``code.co_positions()``,
    # which Python 3.11 added (PEP 657).
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    spec = project["requires-python"]
    assert spec.startswith(">="), spec
    assert tuple(map(int, spec[2:].split("."))) >= (3, 11)
