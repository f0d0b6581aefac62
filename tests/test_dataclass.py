"""``repro._dataclass.dataclass`` against the stdlib's.

Every probe class is built twice, by ``dataclasses.dataclass`` and by
the shared-method ``dataclass``, and each twin pair must agree on
``repr``, ``==``/``!=``, ``hash``, frozen errors, ``replace``,
``fields``, pickling and the ``__init__`` signature.  A guard keeps
every module under ``src/repro`` on the shared decorator.
"""

import ast
import dataclasses
import inspect
import math
import pickle
import sys
import types
from dataclasses import field
from pathlib import Path
from typing import ClassVar

import pytest

from repro._dataclass import dataclass


def build(decorate, module):
    """The probe classes under ``decorate``, picklable from ``module``."""

    @decorate
    class Empty:
        pass

    @decorate(frozen=True)
    class FrozenEmpty:
        pass

    @decorate
    class One:
        x: float

    @decorate(frozen=True)
    class FrozenOne:
        x: float

    @decorate(frozen=True)
    class Component:
        # as hardware/topology.py's Component
        name: str
        socket: int
        attrs: dict = field(default_factory=dict, hash=False, compare=False)
        tag: str = field(default="", hash=False)

    @decorate(frozen=True, slots=True)
    class Point:
        x: int
        y: int = 0
        label: str = field(default="", compare=False)
        unit: ClassVar[str] = "m"

    @decorate(slots=True)
    class Cursor:
        pos: int
        seen: list = field(default_factory=list, repr=False)

    @decorate
    class Node:
        name: str
        children: list = field(default_factory=list)
        cached: object = field(default=None, init=False, compare=False)

    @decorate(frozen=True)
    class Base:
        a: int

    @decorate(frozen=True)
    class Child(Base):
        b: int = 2

    @decorate(frozen=True)
    class OwnMethods:
        v: int

        def __repr__(self):
            return f"<own {self.v}>"

        def __eq__(self, other):
            return isinstance(other, OwnMethods) and self.v % 10 == other.v % 10

    @decorate(frozen=True)
    class OwnHash:
        v: int

        def __hash__(self):
            return 7

    classes = {
        cls.__name__: cls
        for cls in (Empty, FrozenEmpty, One, FrozenOne, Component, Point,
                    Cursor, Node, Base, Child, OwnMethods, OwnHash)
    }
    namespace = types.ModuleType(module)
    for name, cls in classes.items():
        cls.__module__, cls.__qualname__ = module, name
        setattr(namespace, name, cls)
    sys.modules[module] = namespace
    return classes


STDLIB = build(dataclasses.dataclass, "_repro_twins_stdlib")
SHARED = build(dataclass, "_repro_twins_shared")

NAN = math.nan
#: constructor arguments per probe, with equal and unequal pairs
ARGS = {
    "Empty": [()],
    "FrozenEmpty": [()],
    "One": [(1.0,), (2.0,), (NAN,), ("x",)],
    "FrozenOne": [(1.0,), (1,), (NAN,), (float("nan"),), ("s",)],
    "Component": [("gpu0", 0), ("gpu0", 0, {"k": 1}), ("gpu1", 0),
                  ("gpu0", 0, {}, "x")],
    "Point": [(1,), (1, 0, "a"), (1, 2), (2, 1, "b")],
    "Cursor": [(0,), (0, [1]), (3, [1])],
    "Node": [("a",), ("a", ["b"]), ("b",)],
    "Base": [(1,), (2,)],
    "Child": [(1,), (1, 2), (1, 3)],
    "OwnMethods": [(1,), (11,), (2,)],
    "OwnHash": [(1,), (2,)],
}
FROZEN = {"FrozenEmpty", "FrozenOne", "Component", "Point", "Base", "Child",
          "OwnMethods", "OwnHash"}


def twins(name):
    """Each sample of ``name`` built by both decorators, in pairs."""
    return [(STDLIB[name](*args), SHARED[name](*args)) for args in ARGS[name]]


@pytest.mark.parametrize("name", list(ARGS))
class TestTwins:
    def test_repr(self, name):
        for std, shared in twins(name):
            assert repr(shared) == repr(std)

    def test_eq_and_ne(self, name):
        pairs = twins(name)
        for std_a, shared_a in pairs:
            for std_b, shared_b in pairs:
                assert (shared_a == shared_b) == (std_a == std_b)
                assert (shared_a != shared_b) == (std_a != std_b)
            assert (shared_a == shared_a) == (std_a == std_a)

    def test_other_class_is_not_implemented(self, name):
        for std, shared in twins(name):
            if name != "OwnMethods":
                assert shared.__eq__(std) is NotImplemented
                assert std.__eq__(shared) is NotImplemented
            assert shared != std and std != shared

    def test_hash(self, name):
        assert (SHARED[name].__hash__ is None) == (STDLIB[name].__hash__ is None)
        for std, shared in twins(name):
            if name in FROZEN:
                assert hash(shared) == hash(std)
            else:
                with pytest.raises(TypeError):
                    hash(std)
                with pytest.raises(TypeError):
                    hash(shared)

    def test_fields_replace_pickle_signature(self, name):
        def describe(cls):
            return [
                (f.name, f.type, f.default, f.default_factory, f.init,
                 f.repr, f.hash, f.compare)
                for f in dataclasses.fields(cls)
            ]

        assert describe(SHARED[name]) == describe(STDLIB[name])
        assert inspect.signature(SHARED[name]) == inspect.signature(STDLIB[name])
        assert SHARED[name].__doc__ == STDLIB[name].__doc__
        for std, shared in twins(name):
            back_std = pickle.loads(pickle.dumps(std))
            back_shared = pickle.loads(pickle.dumps(shared))
            assert repr(back_shared) == repr(back_std)
            assert (back_shared == shared) == (back_std == std)
            changes = {
                f.name: getattr(std, f.name)
                for f in dataclasses.fields(std) if f.init
            }
            assert repr(dataclasses.replace(shared, **changes)) == repr(
                dataclasses.replace(std, **changes)
            )


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_errors(name):
    fields = dataclasses.fields(STDLIB[name])
    attr = fields[0].name if fields else "anything"
    for std, shared in twins(name):
        for obj in (std, shared):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, attr, 5)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, attr)


def test_self_referencing_repr():
    std, shared = STDLIB["Node"]("root"), SHARED["Node"]("root")
    std.children.append(std)
    shared.children.append(shared)
    assert repr(shared) == repr(std) == (
        "Node(name='root', children=[...], cached=None)"
    )


def test_nan_field_equals_itself_and_not_another_nan():
    for cls in (STDLIB["FrozenOne"], SHARED["FrozenOne"]):
        a, b = cls(NAN), cls(NAN)
        assert a == a and a == b  # one NaN object: identity first
        assert cls(float("nan")) != cls(float("nan"))
        assert hash(a) == hash(b)


def test_subclass_never_equals_its_base():
    for classes in (STDLIB, SHARED):
        assert classes["Child"](1) != classes["Base"](1)
        assert classes["Base"](1) != classes["Child"](1)


def test_unsupported_options_are_refused():
    with pytest.raises(TypeError):
        dataclass(order=True)
    with pytest.raises(TypeError):
        dataclass(type("Plain", (), {}), eq=False)


def test_every_module_uses_the_shared_dataclass():
    """A class made by ``dataclasses.dataclass`` would compile its
    ``__repr__``/``__eq__``/``__hash__`` again, at every import."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "_dataclass.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            imported = (
                isinstance(node, ast.ImportFrom)
                and node.module == "dataclasses"
                and any(alias.name == "dataclass" for alias in node.names)
            )
            attribute = (
                isinstance(node, ast.Attribute)
                and node.attr == "dataclass"
                and isinstance(node.value, ast.Name)
                and node.value.id == "dataclasses"
            )
            if imported or attribute:
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert offenders == []
