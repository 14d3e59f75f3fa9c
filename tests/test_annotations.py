"""Every annotation in the package resolves to a bound name."""

import functools
import importlib
import inspect
import pkgutil
import typing

import parwalk


def _annotated(module):
    """The functions, classes and methods defined in module."""
    for obj in vars(module).values():
        obj = inspect.unwrap(obj) if callable(obj) else obj
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                elif isinstance(attr, functools.cached_property):
                    attr = attr.func
                if inspect.isfunction(attr):
                    yield attr


def test_every_annotation_resolves():
    unresolved = []
    for info in pkgutil.iter_modules(parwalk.__path__):
        module = importlib.import_module(f"parwalk.{info.name}")
        for obj in _annotated(module):
            try:
                typing.get_type_hints(obj)
            except NameError as exc:
                unresolved.append(f"{module.__name__}.{obj.__qualname__}: {exc}")
    assert unresolved == []
